"""k-core decomposition and degeneracy.

Implements Matula & Beck's linear-time peeling algorithm with the classic
bucket data structure (``bin_start`` / ``pos`` / ``vert`` arrays, built
with numpy and peeled as Python lists, one adjacency row at a time).  The
peeling order it produces is the degeneracy order used by most MC solvers:
it guarantees every right-neighborhood has size at most the coreness of its
vertex (Eppstein et al.), which is why the paper sorts by (coreness, degree)
for its parallel-friendly variant (§IV-F).

Also provides the *lower-bounded* coreness of Alg. 1 line 4: vertices whose
degree is below the incumbent-clique lower bound are peeled away before the
decomposition proper, which both speeds the computation up and marks those
vertices as outside the zone of interest.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph


def _peel(degrees: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
          alive: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Core peeling loop.

    Returns ``(core, order)`` as ``int64`` arrays, where ``core[v]`` is the
    coreness of ``v`` and ``order`` lists vertices in peeling (degeneracy)
    order.  Vertices with ``alive[v] == False`` are excluded entirely
    (coreness -1, absent from the order).

    The set-up (degrees, buckets, positions) is vectorized; the peel
    itself walks Python lists, since indexing numpy scalars one at a time
    costs several times as much as indexing a list.
    """
    n = len(degrees)
    core = np.full(n, -1, dtype=np.int64)
    if alive is None:
        alive = np.ones(n, dtype=bool)
        deg_arr = np.asarray(degrees, dtype=np.int64)
    else:
        # Degrees restricted to the alive subgraph: counting edges to
        # excluded vertices would inflate coreness values.
        hits = np.zeros(len(indices) + 1, dtype=np.int64)
        np.cumsum(alive[indices], out=hits[1:])
        deg_arr = np.where(alive, hits[indptr[1:]] - hits[indptr[:-1]], 0)
    ids = np.flatnonzero(alive)
    nv = len(ids)
    if nv == 0:
        return core, np.empty(0, dtype=np.int64)

    # Bucket sort vertices by current degree: vert lists them by
    # (degree, id), pos is the inverse, and bin_start[d] is the first
    # index in vert of a vertex with current degree d.
    alive_deg = deg_arr[ids]
    vert_arr = ids[np.argsort(alive_deg, kind="stable")]
    pos_arr = np.full(n, -1, dtype=np.int64)
    pos_arr[vert_arr] = np.arange(nv, dtype=np.int64)
    bin_count = np.bincount(alive_deg)
    bin_start = np.concatenate(([0], np.cumsum(bin_count)[:-1])).tolist()
    vert = vert_arr.tolist()
    pos = pos_arr.tolist()
    deg = deg_arr.tolist()
    ptr = indptr.tolist()
    peeled_at = [0] * nv  # degree of vert[i] when it was peeled

    for i in range(nv):
        v = vert[i]
        dv = deg[v]
        peeled_at[i] = dv
        # Decrement the degree of each still-unpeeled neighbor, moving it
        # one bucket down by swapping it with the first vertex of its
        # bucket.  Excluded vertices have pos -1 and are never touched.
        for u in indices[ptr[v]:ptr[v + 1]].tolist():
            if deg[u] > dv and pos[u] > i:
                du = deg[u]
                pu = pos[u]
                pw = bin_start[du]
                # Never swap below the frontier of already-peeled vertices.
                if pw <= i:
                    pw = i + 1
                w = vert[pw]
                if u != w:
                    vert[pu], vert[pw] = w, u
                    pos[u], pos[w] = pw, pu
                bin_start[du] = pw + 1
                deg[u] = du - 1
    # Slots at or below i are never written again, so vert is the order.
    order = np.array(vert, dtype=np.int64)
    # Coreness must be the running maximum along the peeling order: a vertex
    # peeled after another cannot have smaller coreness than the max so far.
    core[order] = np.maximum.accumulate(np.array(peeled_at, dtype=np.int64))
    return core, order


def coreness(graph: CSRGraph) -> np.ndarray:
    """Coreness (k-core number) of every vertex, as ``int64``."""
    core, _ = _peel(graph.degrees, graph.indptr, graph.indices)
    return core


def peeling_order(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(core, order)``: coreness and the degeneracy peeling order."""
    return _peel(graph.degrees, graph.indptr, graph.indices)


def coreness_degree_filtered(graph: CSRGraph, lower_bound: int) -> np.ndarray:
    """Alg. 1 line 4 exactly: coreness of v if ``d(v) >= lower_bound``.

    The paper's cheap exclusion — one vectorized degree test, *not* a
    k-core fixpoint.  Vertices below the degree bound get coreness ``-1``.
    Surviving vertices whose true coreness is >= ``lower_bound`` receive
    their exact coreness (the bound's core is contained in the filtered
    subgraph); survivors with smaller true coreness may receive an
    underestimate, which only ever filters *more* and never less.
    """
    if lower_bound <= 0:
        return coreness(graph)
    alive = graph.degrees >= lower_bound
    core, _ = _peel(graph.degrees, graph.indptr, graph.indices, alive=alive)
    return core


def coreness_lower_bounded(graph: CSRGraph, lower_bound: int) -> np.ndarray:
    """Coreness restricted to the ``lower_bound``-core (Alg. 1 line 4).

    Vertices outside the ``lower_bound``-core cannot belong to a clique of
    size > ``lower_bound`` and get coreness ``-1``.  For the remaining
    vertices the value equals the unrestricted coreness (the k-core
    decomposition of the k-core subgraph is unchanged for levels >= k).
    """
    if lower_bound <= 0:
        return coreness(graph)
    alive = _kcore_mask(graph, lower_bound)
    core, _ = _peel(graph.degrees, graph.indptr, graph.indices, alive=alive)
    return core


def _kcore_mask(graph: CSRGraph, k: int) -> np.ndarray:
    """Boolean mask of vertices in the k-core, by iterative removal.

    Vectorized frontier peeling: repeatedly drop all vertices whose residual
    degree fell below ``k``; each round is a bincount over the edges leaving
    the dropped set.
    """
    deg = graph.degrees.astype(np.int64).copy()
    alive = deg >= 0
    frontier = np.flatnonzero(deg < k)
    alive[frontier] = False
    while len(frontier):
        touched: list[np.ndarray] = []
        for v in frontier:
            touched.append(graph.neighbors(int(v)))
        if touched:
            hits = np.concatenate(touched)
            dec = np.bincount(hits, minlength=graph.n)
            deg -= dec
        frontier = np.flatnonzero(alive & (deg < k))
        alive[frontier] = False
    return alive


def kcore_subgraph(graph: CSRGraph, k: int) -> tuple[CSRGraph, np.ndarray]:
    """Induced subgraph on the k-core.

    Returns ``(subgraph, vertices)`` where ``vertices[i]`` is the original
    id of subgraph vertex ``i``.
    """
    from .subgraph import induced_subgraph

    alive = _kcore_mask(graph, k)
    vertices = np.flatnonzero(alive)
    return induced_subgraph(graph, vertices), vertices


def degeneracy(graph: CSRGraph) -> int:
    """The degeneracy ``d(G)``: the largest coreness of any vertex."""
    if graph.n == 0:
        return 0
    return int(coreness(graph).max())
