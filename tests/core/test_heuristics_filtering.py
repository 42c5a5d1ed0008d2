"""Tests for the heuristic searches (Alg. 5/6) and NeighborSearch (Alg. 8)."""

import numpy as np
import pytest

from repro.core import LazyMCConfig, LazyGraph
from repro.core.filtering import FilterFunnel, neighbor_search
from repro.core.heuristics import (
    coreness_based_heuristic_search, degree_based_heuristic_search,
)
from repro.graph import coreness, coreness_degree_order, from_edges, complete_graph
from repro.graph import generators as gen
from repro.instrument import Counters
from repro.parallel import Incumbent, IncumbentView, SimulatedScheduler
from tests.conftest import brute_force_max_clique, random_graph


def run_degree_heuristic(graph, config=None):
    cfg = config or LazyMCConfig()
    inc = Incumbent()
    inc.offer([0])
    sched = SimulatedScheduler(cfg.threads)
    degree_based_heuristic_search(graph, inc, cfg, sched)
    return inc


def make_lazy(graph, config=None):
    cfg = config or LazyMCConfig()
    core = coreness(graph)
    order = coreness_degree_order(graph, core)
    return LazyGraph(graph, order, core, cfg, Counters())


class TestDegreeHeuristic:
    def test_finds_clique(self):
        g = complete_graph(6)
        inc = run_degree_heuristic(g)
        assert inc.size == 6
        assert g.is_clique(inc.clique)

    def test_planted_clique_found(self):
        """Sparse background, the planted clique dominates degrees."""
        g, members = gen.planted_clique(150, 0.03, 10, seed=5)
        inc = run_degree_heuristic(g)
        assert inc.size == 10

    def test_returns_valid_cliques_on_random(self):
        for seed in range(6):
            g = random_graph(25, 0.4, seed=seed + 60)
            inc = run_degree_heuristic(g)
            assert g.is_clique(inc.clique)
            assert 1 <= inc.size <= len(brute_force_max_clique(g))
            # a greedy heuristic from a top-degree seed finds >= an edge
            if g.m > 0 and g.max_degree() > 0:
                assert inc.size >= 2

    def test_empty_graph_noop(self):
        from repro.graph import empty_graph

        inc = Incumbent()
        sched = SimulatedScheduler(1)
        degree_based_heuristic_search(empty_graph(0), inc, LazyMCConfig(), sched)
        assert inc.size == 0

    def test_top_k_limits_seeds(self):
        g = random_graph(30, 0.3, seed=3)
        sched = SimulatedScheduler(1)
        inc = Incumbent()
        inc.offer([0])
        cfg = LazyMCConfig(heuristic_top_k=4)
        degree_based_heuristic_search(g, inc, cfg, sched)
        assert len(sched.report.tasks) == 4


class TestCorenessHeuristic:
    def test_finds_clique_on_web_profile(self):
        """The hierarchical-web family is where this heuristic shines:
        the top coreness level IS the big clique (Table I bold entries)."""
        g = gen.hierarchical_web(2, 2, 12, seed=4)
        lazy = make_lazy(g)
        inc = Incumbent()
        inc.offer([0])
        sched = SimulatedScheduler(1)
        coreness_based_heuristic_search(lazy, inc, LazyMCConfig(), sched)
        assert inc.size == 12
        assert g.is_clique(inc.clique)

    def test_valid_cliques_on_random(self):
        for seed in range(6):
            g = random_graph(25, 0.45, seed=seed + 80)
            lazy = make_lazy(g)
            inc = Incumbent()
            inc.offer([0])
            sched = SimulatedScheduler(1)
            coreness_based_heuristic_search(lazy, inc, LazyMCConfig(), sched)
            assert g.is_clique(inc.clique)
            assert inc.size <= len(brute_force_max_clique(g))

    def test_one_task_per_level(self):
        g = random_graph(30, 0.4, seed=5)
        lazy = make_lazy(g)
        inc = Incumbent()
        inc.offer([0])
        sched = SimulatedScheduler(1)
        coreness_based_heuristic_search(lazy, inc, LazyMCConfig(), sched)
        core = coreness(g)
        levels = {int(c) for c in core if c >= 1}
        assert len(sched.report.tasks) == len(levels)


class TestNeighborSearch:
    def _search_all(self, graph, config=None, incumbent_size=1):
        cfg = config or LazyMCConfig()
        lazy = make_lazy(graph, cfg)
        counters = Counters()
        funnel = FilterFunnel()
        best = []
        for v in range(graph.n):
            view = IncumbentView(incumbent_size, list(range(incumbent_size)))
            neighbor_search(lazy, v, view, cfg, counters, funnel)
            if view.pending and len(view.pending) > len(best):
                best = view.pending
        return best, funnel, counters

    def test_finds_maximum_clique(self):
        for seed in range(5):
            g = random_graph(20, 0.45, seed=seed + 100)
            omega = len(brute_force_max_clique(g))
            best, funnel, _ = self._search_all(g)
            assert len(best) == omega
            assert g.is_clique(best)

    def test_funnel_monotone(self):
        g = random_graph(40, 0.3, seed=6)
        _, funnel, _ = self._search_all(g, incumbent_size=3)
        assert funnel.considered >= funnel.after_coreness >= funnel.after_filter1
        assert funnel.after_filter1 >= funnel.after_filter2 >= funnel.after_filter3
        assert funnel.after_filter3 >= funnel.searched
        assert funnel.searched == funnel.searched_mc + funnel.searched_kvc

    def test_high_incumbent_prunes_everything(self):
        g = random_graph(25, 0.3, seed=7)
        omega = len(brute_force_max_clique(g))
        best, funnel, _ = self._search_all(g, incumbent_size=omega)
        assert best == []  # nothing beats the optimum
        assert funnel.searched <= funnel.considered

    def test_kvc_dispatch_on_dense(self):
        g = complete_graph(12)
        cfg = LazyMCConfig(density_threshold=0.5)
        _, funnel, _ = self._search_all(g, cfg)
        assert funnel.searched_kvc > 0

    def test_mc_dispatch_when_kvc_disabled(self):
        g = complete_graph(12)
        cfg = LazyMCConfig(use_kvc=False)
        _, funnel, _ = self._search_all(g, cfg)
        assert funnel.searched_kvc == 0
        assert funnel.searched_mc > 0

    def test_per_mille_normalization(self):
        f = FilterFunnel(after_coreness=10, after_filter1=5,
                         after_filter2=2, after_filter3=1)
        pm = f.per_mille(1000)
        assert pm == {"coreness": 10.0, "filter1": 5.0,
                      "filter2": 2.0, "filter3": 1.0}

    def test_funnel_merge(self):
        a = FilterFunnel(considered=2, searched=1, density_work={1: 5})
        b = FilterFunnel(considered=3, searched=0, density_work={1: 2, 4: 7})
        a.merge(b)
        assert a.considered == 5
        assert a.density_work == {1: 7, 4: 7}


def hub_plus_clique():
    """K8 on 0..7, plus a hub 8 adjacent to 0..3 and to 50 leaves 9..58.

    Seeded at a clique vertex, the candidate set holds the hub, whose row
    (54) is longer than the candidates (8), so the heuristic scans the
    candidates against the hub's row; every other candidate's row is no
    longer than the candidates, so that row is scanned against them.
    """
    edges = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    edges += [(8, u) for u in range(4)]
    edges += [(8, leaf) for leaf in range(9, 59)]
    return from_edges(59, edges)


#: Alg. 5's counters on :func:`hub_plus_clique`, as first recorded with
#: ``SortedArraySet`` probes; builtin-set probes must charge the same.
PINNED_HUB_COUNTERS = {"elements_scanned": 298, "intersections": 99,
                       "early_exit_false": 67, "hash_lookups": 237,
                       "hash_inserts": 88}


class TestDegreeHeuristicOrientations:
    def test_graph_takes_both_orientations(self):
        g = hub_plus_clique()
        cand = g.neighbors(0)
        longer = [int(w) for w in cand if g.degree(int(w)) > len(cand)]
        assert longer == [8]
        assert any(g.degree(int(w)) <= len(cand) for w in cand)

    def test_clique_and_counters_pinned(self):
        g = hub_plus_clique()
        cfg = LazyMCConfig()
        inc = Incumbent()
        inc.offer([0])
        sched = SimulatedScheduler(cfg.threads)
        degree_based_heuristic_search(g, inc, cfg, sched)
        assert sorted(inc.clique) == list(range(8))
        assert {k: v for k, v in sched.counters.as_dict().items() if v} == \
            PINNED_HUB_COUNTERS
