"""Tests for k-core decomposition, degeneracy and peeling order."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import (
    from_edges, complete_graph, empty_graph,
    coreness, coreness_lower_bounded, degeneracy, kcore_subgraph, peeling_order,
)
from tests.conftest import naive_coreness, random_graph


class TestCoreness:
    def test_empty_graph(self):
        assert list(coreness(empty_graph(3))) == [0, 0, 0]

    def test_no_vertices(self):
        assert len(coreness(empty_graph(0))) == 0

    def test_clique(self):
        assert list(coreness(complete_graph(5))) == [4] * 5

    def test_path(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert list(coreness(g)) == [1, 1, 1, 1]

    def test_cycle(self):
        g = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert list(coreness(g)) == [2] * 5

    def test_clique_with_pendant(self):
        # K4 on 0..3 plus pendant 4 attached to 0.
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)]
        g = from_edges(5, edges)
        c = coreness(g)
        assert list(c[:4]) == [3, 3, 3, 3]
        assert c[4] == 1

    def test_star(self):
        g = from_edges(6, [(0, i) for i in range(1, 6)])
        assert list(coreness(g)) == [1] * 6

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_on_random(self, seed):
        g = random_graph(20, 0.3, seed=seed)
        assert list(coreness(g)) == naive_coreness(g)

    @given(st.integers(4, 14), st.floats(0.1, 0.9), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_naive(self, n, p, seed):
        g = random_graph(n, p, seed=seed)
        assert list(coreness(g)) == naive_coreness(g)

    def test_coreness_at_most_degree(self):
        g = random_graph(30, 0.2, seed=3)
        c = coreness(g)
        assert np.all(c <= g.degrees)


class TestPeelingOrder:
    def test_order_covers_all_vertices(self):
        g = random_graph(15, 0.4, seed=1)
        _, order = peeling_order(g)
        assert sorted(order.tolist()) == list(range(15))

    def test_coreness_nondecreasing_along_order(self):
        g = random_graph(25, 0.3, seed=5)
        core, order = peeling_order(g)
        vals = core[order]
        assert np.all(np.diff(vals) >= 0)

    def test_right_neighborhood_bounded_by_coreness(self):
        """The Eppstein et al. guarantee the paper relies on (§IV-F)."""
        for seed in range(5):
            g = random_graph(24, 0.35, seed=seed)
            core, order = peeling_order(g)
            rank = np.empty(g.n, dtype=np.int64)
            rank[order] = np.arange(g.n)
            for v in range(g.n):
                right = [u for u in g.neighbors(v) if rank[u] > rank[v]]
                assert len(right) <= core[v]


class TestDegeneracy:
    def test_values(self):
        assert degeneracy(complete_graph(6)) == 5
        assert degeneracy(empty_graph(4)) == 0
        assert degeneracy(empty_graph(0)) == 0
        g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert degeneracy(g) == 1

    def test_upper_bounds_clique(self):
        """ω(G) <= d(G) + 1 (§II)."""
        from tests.conftest import brute_force_max_clique

        for seed in range(5):
            g = random_graph(14, 0.5, seed=seed)
            assert len(brute_force_max_clique(g)) <= degeneracy(g) + 1


class TestBoundedCoreness:
    def test_zero_bound_equals_plain(self):
        g = random_graph(18, 0.3, seed=2)
        assert np.array_equal(coreness_lower_bounded(g, 0), coreness(g))

    def test_filters_low_degree_vertices(self):
        # K4 plus pendant: with lower bound 3 the pendant must be excluded.
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)]
        g = from_edges(5, edges)
        c = coreness_lower_bounded(g, 3)
        assert list(c[:4]) == [3, 3, 3, 3]
        assert c[4] == -1

    def test_agrees_with_plain_above_bound(self):
        """Coreness values >= bound are unchanged by the bounded variant."""
        for seed in range(4):
            g = random_graph(30, 0.25, seed=seed)
            full = coreness(g)
            for lb in (1, 2, 3):
                bounded = coreness_lower_bounded(g, lb)
                mask = bounded >= 0
                assert np.array_equal(bounded[mask], full[mask])
                # Everything excluded really had coreness < lb.
                assert np.all(full[~mask] < lb)

    def test_unsatisfiable_bound(self):
        g = from_edges(3, [(0, 1), (1, 2)])
        c = coreness_lower_bounded(g, 5)
        assert list(c) == [-1, -1, -1]


class TestKCoreSubgraph:
    def test_kcore_of_clique_plus_tail(self):
        edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]
        g = from_edges(5, edges)
        sub, verts = kcore_subgraph(g, 2)
        assert list(verts) == [0, 1, 2]
        assert sub.m == 3

    def test_kcore_empty_when_k_too_big(self):
        g = from_edges(3, [(0, 1), (1, 2)])
        sub, verts = kcore_subgraph(g, 3)
        assert sub.n == 0
        assert len(verts) == 0

    def test_kcore_min_degree_invariant(self):
        for seed in range(4):
            g = random_graph(30, 0.2, seed=seed + 50)
            for k in (1, 2, 3):
                sub, verts = kcore_subgraph(g, k)
                if sub.n:
                    assert int(sub.degrees.min()) >= k


class TestPeelArrays:
    """``_peel`` returns ``int64`` arrays whatever the ``alive`` mask."""

    @staticmethod
    def peel(graph, alive=None):
        from repro.graph.kcore import _peel

        return _peel(graph.degrees, graph.indptr, graph.indices, alive=alive)

    def test_empty_graph(self):
        core, order = self.peel(empty_graph(0))
        assert core.dtype == np.int64 and order.dtype == np.int64
        assert len(core) == 0 and len(order) == 0

    def test_all_filtered_mask(self):
        g = random_graph(20, 0.3, seed=2)
        core, order = self.peel(g, alive=np.zeros(g.n, dtype=bool))
        assert core.dtype == np.int64 and order.dtype == np.int64
        assert core.tolist() == [-1] * g.n
        assert len(order) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_mask_is_coreness_of_alive_subgraph(self, seed):
        from repro.graph.subgraph import induced_subgraph

        g = random_graph(40, 0.2, seed=seed + 30)
        alive = np.random.default_rng(seed).random(g.n) < 0.6
        core, order = self.peel(g, alive=alive)
        assert core.dtype == np.int64 and order.dtype == np.int64
        ids = np.flatnonzero(alive)
        assert sorted(order.tolist()) == ids.tolist()
        assert core[~alive].tolist() == [-1] * int((~alive).sum())
        sub = induced_subgraph(g, ids)
        assert core[ids].tolist() == naive_coreness(sub)
        # Coreness never decreases along the peeling order.
        along = core[order]
        assert np.all(along[1:] >= along[:-1])


def loop_peel(degrees, indptr, indices, alive=None):
    """Reference: the Matula-Beck bucket peel as a plain per-element loop
    over numpy arrays, kept to pin ``_peel``'s exact peeling order."""
    n = len(degrees)
    alive = np.ones(n, dtype=bool) if alive is None else alive
    deg = np.zeros(n, dtype=np.int64)
    for v in np.flatnonzero(alive):
        deg[v] = int(alive[indices[indptr[v]:indptr[v + 1]]].sum())
    nv = int(alive.sum())
    core = np.full(n, -1, dtype=np.int64)
    if nv == 0:
        return core, np.empty(0, dtype=np.int64)
    bin_count = np.zeros(int(deg[alive].max()) + 2, dtype=np.int64)
    for v in np.flatnonzero(alive):
        bin_count[deg[v]] += 1
    bin_start = np.zeros(len(bin_count), dtype=np.int64)
    np.cumsum(bin_count[:-1], out=bin_start[1:])
    vert = np.empty(nv, dtype=np.int64)
    pos = np.full(n, -1, dtype=np.int64)
    fill = bin_start.copy()
    for v in np.flatnonzero(alive):
        vert[fill[deg[v]]] = v
        pos[v] = fill[deg[v]]
        fill[deg[v]] += 1
    order = np.empty(nv, dtype=np.int64)
    for i in range(nv):
        v = vert[i]
        core[v] = deg[v]
        order[i] = v
        for u in indices[indptr[v]:indptr[v + 1]]:
            if alive[u] and deg[u] > deg[v] and pos[u] > i:
                du, pu = deg[u], pos[u]
                pw = max(bin_start[du], i + 1)
                w = vert[pw]
                if u != w:
                    vert[pu], vert[pw] = w, u
                    pos[u], pos[w] = pw, pu
                bin_start[du] = pw + 1
                deg[u] = du - 1
    running = 0
    for v in order:
        running = max(running, int(core[v]))
        core[v] = running
    return core, order


class TestPeelMatchesLoopReference:
    @given(st.integers(0, 40), st.floats(0.0, 0.6), st.integers(0, 10_000),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_same_core_and_order(self, n, p, seed, masked):
        from repro.graph.kcore import _peel

        g = random_graph(n, p, seed=seed)
        alive = None
        if masked:
            alive = np.random.default_rng(seed).random(n) < 0.7
        core, order = _peel(g.degrees, g.indptr, g.indices, alive=alive)
        ref_core, ref_order = loop_peel(g.degrees, g.indptr, g.indices, alive)
        assert core.tolist() == ref_core.tolist()
        assert order.tolist() == ref_order.tolist()
