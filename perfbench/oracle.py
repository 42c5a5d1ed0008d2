"""Answer checking for the benchmark, independent of the program's solvers.

ω comes either from ``repro.datasets.EXPECTED_OMEGA`` (registry graphs at
their own seeds) or from networkx: any clique larger than a clique already
verified to exist lies in networkx's ``k_core`` at that size, and
``max_weight_clique`` on that core finds it.  Every check runs after the
timed regions and feeds no timing metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.graph.csr import CSRGraph


@dataclass
class Answer:
    """One answer the program gave for a graph."""

    clique: list[int]
    omega: int
    exact: bool
    ok: bool = True
    error: str = ""


def to_networkx(graph: CSRGraph):
    # networkx is imported on first use, after the measured regions, so
    # that it stays out of the benchmark's peak RSS.
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edge_array().tolist())
    return g


def is_clique(g, clique: list[int]) -> bool:
    """Distinct vertices of ``g``, pairwise adjacent."""
    return (len(set(clique)) == len(clique)
            and all(v in g for v in clique)
            and all(g.has_edge(u, v) for u, v in combinations(clique, 2)))


def exact_omega(g, lower_bound: int) -> int:
    """ω of networkx graph ``g``, given that a clique of ``lower_bound``
    vertices exists."""
    import networkx as nx

    core = nx.k_core(g, lower_bound)
    if core.number_of_nodes() == 0:
        return lower_bound
    clique, _ = nx.max_weight_clique(core, weight=None)
    return max(lower_bound, len(clique))


def failures(graph: CSRGraph, answers: list[Answer],
             known_omega: int | None = None) -> list[str]:
    """One message per wrong answer among ``answers`` for ``graph``.

    Wrong means: the request failed, the clique is invalid or its size is
    not the reported ω, an exact answer's ω is not the true ω, or a
    degraded answer is larger than the true ω.
    """
    g = to_networkx(graph)
    bad: dict[int, str] = {}
    lower = 1 if graph.n else 0
    for i, a in enumerate(answers):
        if not a.ok:
            bad[i] = f"request failed: {a.error}"
        elif len(a.clique) != a.omega or not is_clique(g, a.clique):
            bad[i] = f"invalid clique of reported size {a.omega}"
        else:
            lower = max(lower, a.omega)
    omega = known_omega if known_omega is not None else exact_omega(g, lower)
    for i, a in enumerate(answers):
        if i in bad:
            continue
        if a.exact and a.omega != omega:
            bad[i] = f"exact answer {a.omega} but omega is {omega}"
        elif a.omega > omega:
            bad[i] = f"degraded answer {a.omega} exceeds omega {omega}"
    return [bad[i] for i in sorted(bad)]
