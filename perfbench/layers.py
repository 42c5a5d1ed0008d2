"""Per-layer spans around calls into the program, for the traced run.

:func:`traced` installs timing wrappers at the bindings the solver calls
through and restores every original on exit, so untraced runs execute the
program exactly as shipped.  A span's *self* time is its duration minus the
time of the spans nested in it.  The wrappers only read the program's
counters; the benchmark checks that a traced solve's ``Counters``,
``FilterFunnel`` and ``ScheduleReport`` equal the untraced solve's.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import threading
import time
from collections import Counter, defaultdict

import repro.core.filtering as filtering
import repro.core.solver as solver
import repro.core.systematic as systematic
import repro.service.service as service
from repro.core.lazygraph import LazyGraph
from repro.mc.branch_bound import MCSubgraphSolver
from repro.parallel.engine import EngineBody


class Spans:
    """Accumulated span durations, self times, calls and counts by name.

    Spans nest per thread (the service's client threads resolve queries
    concurrently); the totals are shared.
    """

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name, fn):
        """``fn`` timed as span ``name``."""
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                with self._lock:
                    self.total[name] += dt
                    self.self_time[name] += dt - child
                    self.calls[name] += 1
        return wrapped


def _intersect(spans: Spans, name: str, kernel):
    """Span ``name`` around an intersection kernel ``kernel(A, B, theta,
    counters, config)``, plus the counter movement of each call."""
    def call(A, B, theta, counters, *rest):
        e0, h0 = counters.elements_scanned, counters.hash_lookups
        x0 = counters.early_exit_false + counters.early_exit_true
        out = kernel(A, B, theta, counters, *rest)
        spans.counts["intersect.elements"] += counters.elements_scanned - e0
        spans.counts["intersect.hash_lookups"] += counters.hash_lookups - h0
        spans.counts["intersect.early_exits"] += (
            counters.early_exit_false + counters.early_exit_true - x0)
        return out
    return spans.wrap(name, call)


def _vc_arm(spans: Spans, solve):
    def call(adj, lower_bound=0, *args, **kwargs):
        found = solve(adj, lower_bound, *args, **kwargs)
        if found is not None and len(found) > lower_bound:
            spans.counts["vc.improved"] += 1
        return found
    return spans.wrap("vc", call)


def _mc_arm(spans: Spans, solve):
    def call(self, adj, lower_bound=0, *args, **kwargs):
        nodes = self.counters.branch_nodes
        found = solve(self, adj, lower_bound, *args, **kwargs)
        spans.counts["mc.branch_nodes"] += self.counters.branch_nodes - nodes
        if found is not None and len(found) > lower_bound:
            spans.counts["mc.improved"] += 1
        return found
    return spans.wrap("mc", call)


def _traced_engine(spans: Spans, create):
    def create_engine(*args, **kwargs):
        engine = create(*args, **kwargs)
        parfor = spans.wrap("engine.parfor", engine.parfor)

        def traced_parfor(tasks, body, incumbent):
            if isinstance(body, EngineBody):
                body = dataclasses.replace(
                    body, inline=spans.wrap("engine.body", body.inline))
            else:
                body = spans.wrap("engine.body", body)
            return parfor(tasks, body, incumbent)
        engine.parfor = traced_parfor
        return engine
    return create_engine


def _lazy_build(spans: Spans, method):
    def build(self, v, min_core=0):
        before = (self.counters.neighborhoods_built_hash
                  + self.counters.neighborhoods_built_sorted)
        out = method(self, v, min_core)
        if (self.counters.neighborhoods_built_hash
                + self.counters.neighborhoods_built_sorted) > before:
            spans.counts["lazygraph.gathered"] += int(self.degrees[v])
        return out
    return spans.wrap("lazygraph.build", build)


@contextlib.contextmanager
def traced(spans: Spans):
    """Install the layer wrappers for the duration of the block."""
    patches = [
        (solver, "create_engine",
         lambda f: _traced_engine(spans, f)),
        (systematic, "neighbor_search",
         lambda f: spans.wrap("filtering", f)),
        (filtering, "intersect_size_gt_bool",
         lambda f: _intersect(spans, "intersect.bool", f)),
        (filtering, "intersect_size_gt_val",
         lambda f: _intersect(spans, "intersect.val", f)),
        (filtering, "_induced_adjacency",
         lambda f: spans.wrap("filtering.induce", f)),
        (filtering, "max_clique_via_vc", lambda f: _vc_arm(spans, f)),
        (MCSubgraphSolver, "solve", lambda f: _mc_arm(spans, f)),
        (LazyGraph, "hashed_neighborhood",
         lambda f: _lazy_build(spans, f)),
        (LazyGraph, "sorted_neighborhood",
         lambda f: _lazy_build(spans, f)),
        (service, "fingerprint",
         lambda f: spans.wrap("service.resolve", f)),
    ]
    originals = []
    try:
        for owner, attr, make in patches:
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield spans
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


#: The service layer's metrics on workloads that send it no traffic.
SERVICE_IDLE = {"service.hit_rate": 0.0, "service.resolve_ms": 0.0,
                "service.wait_ms": 0.0, "service.solve_ms": 0.0,
                "service.degraded": 0.0, "service.rejected": 0.0}


def snapshot(result) -> tuple:
    """The deterministic part of an ``MCResult``, for equality checks."""
    return (result.omega, result.clique, result.counters.as_dict(),
            dataclasses.asdict(result.funnel), result.schedule.makespan,
            result.schedule.total_work,
            [(t.task, t.start, t.finish, t.cost, t.worker)
             for t in result.schedule.tasks])


def solver_layers(results, spans: Spans, passes: int) -> dict[str, float]:
    """Per-layer metrics of traced LazyMC solves, per pass of the workload.

    ``results`` are the ``MCResult`` records of every traced solve and
    ``passes`` the number of passes they cover; sums are divided by it.
    """
    def phase_s(name):
        return sum(r.timers.seconds.get(name, 0.0) for r in results)

    def phase_work(name):
        return sum(r.timers.work.get(name, 0) for r in results)

    def total(attr):
        return sum(getattr(r.counters, attr) for r in results)

    def funnel(attr):
        return sum(getattr(r.funnel, attr) for r in results)

    def ratio(num, den):
        return num / den if den else 0.0

    heur_s = phase_s("heuristic_degree") + phase_s("heuristic_coreness")
    heur_work = phase_work("heuristic_degree") + phase_work("heuristic_coreness")
    filt_work = sum(r.funnel.work_filtering for r in results)
    filt_s = spans.total["filtering"] - spans.total["vc"] - spans.total["mc"]
    arms = spans.calls["vc"] + spans.calls["mc"]
    calls = spans.calls["intersect.bool"] + spans.calls["intersect.val"]
    c = spans.counts
    sums = {
        "graph.kcore_s": phase_s("kcore"),
        "graph.sort_s": phase_s("sort"),
        "graph.kcore_work": phase_work("kcore"),
        "heuristics.degree_s": phase_s("heuristic_degree"),
        "heuristics.coreness_s": phase_s("heuristic_coreness"),
        "heuristics.work": heur_work,
        "lazygraph.prepopulate_s": phase_s("prepopulate"),
        "lazygraph.build_s": spans.total["lazygraph.build"],
        "lazygraph.builds_hash": total("neighborhoods_built_hash"),
        "lazygraph.builds_sorted": total("neighborhoods_built_sorted"),
        "intersect.bool_s": spans.total["intersect.bool"],
        "intersect.val_s": spans.total["intersect.val"],
        "intersect.calls": calls,
        "intersect.elements": c["intersect.elements"],
        "intersect.hash_lookups": c["intersect.hash_lookups"],
        "filtering.considered": funnel("considered"),
        "filtering.after_filter1": funnel("after_filter1"),
        "filtering.after_filter2": funnel("after_filter2"),
        "filtering.after_filter3": funnel("after_filter3"),
        "filtering.searched": funnel("searched"),
        "filtering.work": filt_work,
        "filtering.induce_s": spans.total["filtering.induce"],
        "filtering.self_s": spans.self_time["filtering"],
        "vc.calls": spans.calls["vc"],
        "vc.work": funnel("work_kvc"),
        "vc.s": spans.total["vc"],
        "mc.calls": spans.calls["mc"],
        "mc.work": funnel("work_mc"),
        "mc.s": spans.total["mc"],
        "systematic.s": phase_s("systematic"),
        "systematic.work": phase_work("systematic"),
        "engine.parfors": spans.calls["engine.parfor"],
        "engine.tasks": sum(len(r.schedule.tasks) for r in results),
        "engine.self_s": spans.self_time["engine.parfor"],
        "work.total": total("work"),
    }
    out = {k: v / passes for k, v in sums.items()}
    out.update({
        "heuristics.found_omega_frac": ratio(
            sum(max(r.heuristic_degree_size, r.heuristic_coreness_size)
                == r.omega for r in results), len(results)),
        "heuristics.ns_per_work": ratio(heur_s * 1e9, heur_work),
        "lazygraph.filtered_frac": ratio(total("neighbors_filtered_at_build"),
                                         c["lazygraph.gathered"]),
        "intersect.early_exit_frac": ratio(c["intersect.early_exits"], calls),
        "filtering.searched_frac": ratio(funnel("searched"),
                                         funnel("considered")),
        "filtering.ns_per_work": ratio(filt_s * 1e9, filt_work),
        "vc.ns_per_work": ratio(spans.total["vc"] * 1e9, funnel("work_kvc")),
        "mc.ns_per_work": ratio(spans.total["mc"] * 1e9, funnel("work_mc")),
        "mc.branch_nodes": c["mc.branch_nodes"] / passes,
        "arm.improve_frac": ratio(c["vc.improved"] + c["mc.improved"], arms),
    })
    return out
