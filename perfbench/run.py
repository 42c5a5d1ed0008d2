#!/usr/bin/env python3
"""End-to-end LazyMC benchmark with a traced per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload bio-dense --seed 3 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched;
``--trace 1`` solves every graph untraced and then traced (layer wrappers
from ``layers.py``), checks that both give identical counters, and reports
the per-layer metrics.  Both modes check every answer against an oracle
that runs after the timed regions.  Human-readable lines come first; the
last line of standard output is the JSON result.  Workloads, metrics and
the layer-to-metric predictions are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"error: no program sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from layers import SERVICE_IDLE, Spans, snapshot, solver_layers, traced  # noqa: E402
from oracle import Answer, failures  # noqa: E402
from repro.core import LazyMC  # noqa: E402
from repro.datasets.registry import EXPECTED_OMEGA  # noqa: E402
from repro.service import CliqueService, JobSpec, ServiceConfig  # noqa: E402
from workloads import (BATCH_WORKLOADS, CLIENTS, HOT_GRAPHS,  # noqa: E402
                       SERVICE_WORKLOAD, SETS, WORKERS, WORKLOADS, build_set,
                       service_graph, service_pass)

#: Set-up runs at least SETUP_MIN_REPS times and until SETUP_SECONDS have
#: passed; setup_s is the median.  A service set-up takes milliseconds, so
#: one run repeats it dozens of times.
SETUP_MIN_REPS = 3
SETUP_SECONDS = 1.0
#: Wait limit per service request; a request past it counts as failed.
REQUEST_TIMEOUT_S = 60.0


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile (0 < q < 1).

    A Beta-weighted mean of all order statistics: on the few dozen
    per-graph latencies of a batch workload it does not hinge on the one or
    two solves that happen to sit at rank ``q * n``.  Call it only after
    peak RSS is read: importing scipy would add to it.
    """
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(values, prob=[q])[0])


def rss_mb(who) -> float:
    """Peak resident set size in MB (``ru_maxrss`` is KB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    """This process's resident set size now, in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS line in /proc/self/status")


class Ledger:
    """Answers per graph plus the operation tally behind ``ok_frac``."""

    def __init__(self) -> None:
        self.graphs: dict = {}
        self.answers: dict = defaultdict(list)
        self.known: dict = {}
        self.attempted = 0
        self.problems: list[str] = []
        self._lock = threading.Lock()

    def record(self, key, graph, answer, counted: bool = True) -> None:
        with self._lock:
            self.graphs[key] = graph
            self.answers[key].append(answer)
            self.attempted += counted

    def check(self) -> int:
        """Run the oracle over every graph; returns the failure count."""
        for key, graph in self.graphs.items():
            for msg in failures(graph, self.answers[key], self.known.get(key)):
                self.problems.append(f"{key}: {msg}")
        return len(self.problems)


def lazymc_answer(result) -> Answer:
    return Answer(result.clique, result.omega, exact=not result.timed_out)


def service_answer(res) -> Answer:
    return Answer(res.clique, res.omega, res.exact, res.ok, res.error or "")


def failed_answer(exc: BaseException) -> Answer:
    return Answer([], 0, exact=False, ok=False,
                  error=f"{type(exc).__name__}: {exc}")


class TracedPairs:
    """Each graph solved untraced, then traced; the traced solves' layer
    metrics, with a failure recorded when the two runs' counters differ."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.solver = LazyMC()
        self.spans = Spans()
        self.results = []
        self.plain_s = self.traced_s = 0.0

    def solve(self, key, graph) -> None:
        t0 = time.perf_counter()
        plain = self.solver.solve(graph)
        t1 = time.perf_counter()
        with traced(self.spans):
            t2 = time.perf_counter()
            result = self.solver.solve(graph)
            t3 = time.perf_counter()
        self.plain_s += t1 - t0
        self.traced_s += t3 - t2
        self.ledger.record(key, graph, lazymc_answer(plain))
        self.ledger.record(key, graph, lazymc_answer(result))
        if snapshot(plain) != snapshot(result):
            self.ledger.problems.append(
                f"{key}: traced counters differ from untraced")
        self.results.append(result)

    def metrics(self, passes: int) -> dict:
        out = solver_layers(self.results, self.spans, passes)
        out["trace.overhead_frac"] = self.traced_s / self.plain_s - 1.0
        return out


# -- batch workloads ----------------------------------------------------------------

class BatchRun:
    """Solve every graph of a workload's seeded sets, pass after pass."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed

    def setup(self) -> None:
        self.sets = [build_set(self.workload, self.seed, k)
                     for k in range(SETS[self.workload])]
        self.solver = LazyMC()

    def warm_up(self) -> None:
        # The same graph at every seed: the smallest registry analogue.
        warm = min((inst.build(0) for inst in BATCH_WORKLOADS[self.workload]),
                   key=lambda g: g.m)
        self.solver.solve(warm)

    def close(self) -> None:
        pass

    def _passes(self, seconds: float, min_passes: int):
        """Yield set indices until ``seconds`` have elapsed and at least
        ``min_passes`` passes have run."""
        start = time.perf_counter()
        k = 0
        while k < min_passes or time.perf_counter() - start < seconds:
            yield k % len(self.sets)
            k += 1

    def _register(self, ledger: Ledger, k: int, i: int) -> tuple:
        key = (k, i)
        if self.seed == 0 and k == 0:
            ledger.known[key] = EXPECTED_OMEGA[self.sets[k][i][0]]
        return key

    def measure(self, seconds: float, ledger: Ledger) -> dict:
        pass_s = defaultdict(list)
        latency = defaultdict(list)
        # Every set is solved at least once, however short ``seconds`` is.
        for k in self._passes(seconds, len(self.sets)):
            t_pass = time.perf_counter()
            for i, (_, graph) in enumerate(self.sets[k]):
                t0 = time.perf_counter()
                try:
                    answer = lazymc_answer(self.solver.solve(graph))
                except Exception as exc:  # counted as a failed operation
                    answer = failed_answer(exc)
                latency[(k, i)].append(time.perf_counter() - t0)
                ledger.record(self._register(ledger, k, i), graph, answer)
            pass_s[k].append(time.perf_counter() - t_pass)
        peak_rss_mb = rss_mb(resource.RUSAGE_SELF)
        # One value per set and per graph (the median of its repeats), so
        # sets solved once more than others near the time limit carry no
        # extra weight.
        per_graph = [statistics.median(v) * 1e3 for v in latency.values()]
        passes = sum(len(v) for v in pass_s.values())
        return {
            "solve_s": statistics.fmean(statistics.median(v)
                                        for v in pass_s.values()),
            "query_ms_p50": quantile(per_graph, 0.5),
            "query_ms_p90": quantile(per_graph, 0.9),
            "queries_per_s": ledger.attempted / sum(map(sum, pass_s.values())),
            "peak_rss_mb": peak_rss_mb,
            "_samples": f"{passes} passes over {len(self.sets)} sets, "
                        f"{len(per_graph)} graphs, {ledger.attempted} solves",
        }

    def measure_traced(self, seconds: float, ledger: Ledger) -> dict:
        pairs = TracedPairs(ledger)
        passes = 0
        for k in self._passes(seconds, 1):
            for i, (_, graph) in enumerate(self.sets[k]):
                pairs.solve(self._register(ledger, k, i), graph)
            passes += 1
        metrics = pairs.metrics(passes)
        metrics.update(SERVICE_IDLE)
        metrics["_samples"] = (f"{passes} traced passes, "
                               f"{len(pairs.results)} solves")
        return metrics


# -- service-mixed ------------------------------------------------------------------

class ServiceRun:
    """Closed-loop clients against an in-process ``CliqueService``."""

    def __init__(self, seed: int):
        self.seed = seed
        self.service = None

    def setup(self) -> None:
        self.graphs = {i: service_graph(self.seed, i)
                       for i in range(HOT_GRAPHS)}
        self.service = CliqueService(ServiceConfig(workers=WORKERS))
        # The pool forks its workers on the first job; a forked worker's
        # peak RSS starts from the parent's RSS at that moment.
        self.fork_rss_mb = current_rss_mb()
        self.service.pool.submit(int).result(REQUEST_TIMEOUT_S)

    def warm_up(self) -> None:
        """Fill the result cache with the hot graphs."""
        handles = [self.service.submit(JobSpec(graph=g))
                   for g in self.graphs.values()]
        self.hot = [h.result(REQUEST_TIMEOUT_S) for h in handles]

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.service = None

    def _run_pass(self, k: int, ledger: Ledger, log: list) -> float:
        plan = service_pass(self.seed, k)
        for req in plan:
            if req.index not in self.graphs:
                self.graphs[req.index] = service_graph(self.seed, req.index)

        def client(requests):
            for req in requests:
                graph = self.graphs[req.index]
                spec = JobSpec(graph=graph, max_work=req.max_work)
                t0 = time.perf_counter()
                try:
                    res = self.service.solve(spec, REQUEST_TIMEOUT_S)
                    answer = service_answer(res)
                except Exception as exc:  # counted as a failed operation
                    res, answer = None, failed_answer(exc)
                log.append((req, time.perf_counter() - t0, res))
                ledger.record(req.index, graph, answer)

        threads = [threading.Thread(target=client, args=(plan[j::CLIENTS],))
                   for j in range(CLIENTS)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - t0

    def _serve(self, seconds: float, ledger: Ledger):
        for i, res in enumerate(self.hot):
            ledger.record(i, self.graphs[i], service_answer(res),
                          counted=False)
        log: list = []
        pass_s = []
        start = time.perf_counter()
        while not pass_s or time.perf_counter() - start < seconds:
            pass_s.append(self._run_pass(len(pass_s), ledger, log))
        return pass_s, log

    def measure(self, seconds: float, ledger: Ledger) -> dict:
        pass_s, log = self._serve(seconds, ledger)
        self.close()
        # The workers have exited; RUSAGE_CHILDREN holds the largest one's
        # peak, which counts the pages it shares with the parent since the
        # fork.  Only its growth past them is added, once per worker: an
        # upper bound on what the workers add to the parent's peak.
        workers_mb = WORKERS * max(
            0.0, rss_mb(resource.RUSAGE_CHILDREN) - self.fork_rss_mb)
        peak_rss_mb = rss_mb(resource.RUSAGE_SELF) + workers_mb
        latency = [lat * 1e3 for _, lat, _ in log]
        return {
            "solve_s": statistics.median(pass_s),
            "query_ms_p50": quantile(latency, 0.5),
            "query_ms_p90": quantile(latency, 0.9),
            "queries_per_s": len(log) / sum(pass_s),
            "peak_rss_mb": peak_rss_mb,
            "_samples": f"{len(pass_s)} passes, {len(log)} requests",
        }

    def measure_traced(self, seconds: float, ledger: Ledger) -> dict:
        spans = Spans()
        with traced(spans):
            pass_s, log = self._serve(seconds / 2, ledger)
        self.close()
        served = [res for _, _, res in log if res is not None]
        solved = [(lat, res) for _, lat, res in log
                  if res is not None and res.ok and not res.cached]
        passes = len(pass_s)
        metrics = {
            "service.hit_rate": sum(r.cached for r in served) / len(log),
            "service.resolve_ms": spans.total["service.resolve"] * 1e3
            / len(log),
            "service.wait_ms": statistics.fmean(
                (lat - res.wall_seconds) * 1e3 for lat, res in solved),
            "service.solve_ms": statistics.fmean(
                res.wall_seconds * 1e3 for _, res in solved),
            "service.degraded": sum(r.ok and not r.exact
                                    for r in served) / passes,
            "service.rejected": sum(r.error_type == "QueueFullError"
                                    for r in served) / passes,
        }

        # Solver layers of the misses: the same graphs solved in-process,
        # untraced and traced, one served pass at a time.
        pairs = TracedPairs(ledger)
        misses = [req.index for req, _, _ in log if req.kind == "miss"]
        per_pass = len(misses) // passes
        layer_passes = 0
        start = time.perf_counter()
        while layer_passes < passes and (
                not layer_passes or time.perf_counter() - start < seconds / 2):
            for index in misses[layer_passes * per_pass:
                                (layer_passes + 1) * per_pass]:
                pairs.solve(index, self.graphs[index])
            layer_passes += 1
        metrics.update(pairs.metrics(layer_passes))
        metrics["_samples"] = (f"{passes} served passes, {len(log)} requests; "
                               f"{layer_passes} in-process passes, "
                               f"{len(pairs.results)} traced solves")
        return metrics


# -- driver -------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    def make():
        if args.workload == SERVICE_WORKLOAD:
            return ServiceRun(args.seed)
        return BatchRun(args.workload, args.seed)

    setup_s = []
    run = None
    ledger = Ledger()
    start = time.perf_counter()
    try:
        while (len(setup_s) < SETUP_MIN_REPS
               or time.perf_counter() - start < SETUP_SECONDS):
            if run is not None:
                run.close()
            run = make()
            t0 = time.perf_counter()
            run.setup()
            setup_s.append(time.perf_counter() - t0)
        run.warm_up()
        if args.trace:
            metrics = run.measure_traced(args.seconds, ledger)
        else:
            metrics = run.measure(args.seconds, ledger)
    finally:
        if run is not None:
            run.close()
    failed = ledger.check()
    metrics["setup_s"] = statistics.median(setup_s)
    metrics["ok_frac"] = 1.0 - failed / ledger.attempted

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  ({metrics.pop('_samples')}; "
          f"setup median of {len(setup_s)})")
    print(f"  error_frac = {failed / ledger.attempted:.6g} "
          f"({failed}/{ledger.attempted})")
    for msg in ledger.problems[:20]:
        print(f"  FAILED {msg}")
    out = {}
    for m in specs:
        value = float(metrics[m["name"]])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<28} {value:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
