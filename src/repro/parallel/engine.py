"""Pluggable execution engines for the solver's parfors.

The solvers (LazyMC's Alg. 1 phases, the PMC baseline) express their
parallelism as *parfors over an incumbent*: every task runs against an
:class:`~repro.parallel.incumbent.IncumbentView` and accumulates work into
a task-local :class:`~repro.instrument.Counters`.  This module factors the
execution of that shape behind one interface with two backends:

``sim``
    :class:`SimulatedEngine` — the deterministic virtual-time simulation
    of :mod:`repro.parallel.scheduler`, unchanged.  The default, and the
    bit-identical continuation of every committed golden counter.  At
    ``threads=1`` it is plain sequential execution with a live
    incumbent: every publication lands before the next task starts.
``process``
    :class:`ProcessEngine` — real ``multiprocessing``.  Per-parfor task
    batches are shipped to a worker pool; the incumbent *size* is shared
    through a lock-guarded ``multiprocessing.Value`` so late tasks see
    improvements (the work-deflation half of the paper's Fig. 7 story)
    while tasks already in flight run against a stale bound (the
    work-inflation half, now on real processes).  Per-task counters come
    back with the results and merge in the parent, so the work account
    stays exact.  Any failure to stand up a pool — unavailable start
    method, daemonic caller, unpicklable context — degrades to inline
    sequential execution with the reason recorded in ``fallbacks``.

Bodies come in two shapes.  A plain callable ``(task, view, counters) ->
value`` runs in the calling process on every engine (closures cannot
cross a process boundary; the process engine runs them inline by design —
the heuristic phases are cheap and stay local).  An :class:`EngineBody`
additionally names a *module-level* ``worker`` function ``(ctx, task,
view, counters) -> (value, extra)`` that the process engine can ship to
its pool, plus an optional parent-side ``merge(extra)`` hook for
aggregating picklable side outputs (e.g. filter funnels).
"""

from __future__ import annotations

import functools
import heapq
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from ..instrument import Counters
from .incumbent import Incumbent, IncumbentView
from .scheduler import ScheduleReport, SimulatedScheduler, TaskResult

#: Engine identifiers accepted by :func:`create_engine` and ``--engine``.
ENGINE_NAMES = ("sim", "process")


@dataclass(frozen=True)
class EngineBody:
    """A parfor body in both its inline and process-shippable forms.

    ``inline`` is the closure every engine can run locally; ``worker`` is
    the picklable module-level twin the process engine ships (rebuilt
    worker state arrives as its ``ctx`` argument, installed via
    :meth:`ExecutionEngine.set_worker_context`); ``merge`` runs in the
    parent on each task's returned ``extra``.  An :class:`EngineBody` is
    itself callable with the inline signature, so a bare
    :class:`~repro.parallel.scheduler.SimulatedScheduler` accepts one
    transparently.
    """

    inline: Callable[[object, IncumbentView, Counters], object]
    worker: Callable | None = None
    merge: Callable[[object], None] | None = None

    def __call__(self, task, view: IncumbentView, counters: Counters):
        return self.inline(task, view, counters)


class SimulatedEngine(SimulatedScheduler):
    """The virtual-time simulation behind the engine interface.

    Pure delegation: :class:`~repro.parallel.scheduler.SimulatedScheduler`
    already accepts :class:`EngineBody` bodies (they are callable), so the
    simulated schedule, counters and report are bit-identical to driving
    the scheduler directly.
    """

    name = "sim"
    #: Whether parfor bodies may run outside this process (and therefore
    #: outside the reach of in-band budget checks).
    external_workers = False

    def __init__(self, threads: int = 1, counters: Counters | None = None):
        super().__init__(threads, counters)
        self.fallbacks: list[str] = []

    def set_worker_context(self, builder, payload) -> None:
        """No worker processes: nothing to ship."""

    def close(self) -> None:
        """No pool to tear down."""

    def info(self) -> dict:
        """Uniform engine summary (the ``engine`` section of records)."""
        return _engine_info(self)


# -- process-engine worker side (module level: picklable by reference) --------

_WORKER_CTX = None
_WORKER_SHARED = None


def _process_worker_init(builder, payload, shared) -> None:
    """Pool initializer: rebuild the worker context once per process."""
    global _WORKER_CTX, _WORKER_SHARED
    _WORKER_CTX = builder(payload) if builder is not None else None
    _WORKER_SHARED = shared


def _process_worker_run(worker_fn, task):
    """Run one task inside a pool worker.

    The shared value holds the best incumbent *size* published so far —
    enough for every filter (they compare against ``view.size``); the
    clique itself travels back with the result and is offered to the real
    incumbent in the parent.  Reading the size at task start and
    publishing at task end reproduces the paper's visibility semantics on
    real processes: tasks in flight keep their stale bound.
    """
    shared = _WORKER_SHARED
    with shared.get_lock():
        size = int(shared.value)
    view = IncumbentView(size, [])
    local = Counters()
    value, extra = worker_fn(_WORKER_CTX, task, view, local)
    pending = view.pending
    if pending is not None:
        with shared.get_lock():
            if len(pending) > shared.value:
                shared.value = len(pending)
    return value, local.as_dict(), pending, extra


class ProcessEngine:
    """Real ``multiprocessing`` execution of shippable parfor bodies.

    Requires an :class:`EngineBody` with a ``worker`` function and a
    worker context installed via :meth:`set_worker_context`; anything else
    (closure bodies, pool-creation failure, mid-parfor pool death) runs
    inline with live-incumbent semantics, with the reason appended to
    ``fallbacks`` — degradation is never silent.

    Counters and the schedule report stay in deterministic work units
    (per-task counters merge in the parent; the virtual makespan replays
    the measured costs through the same smallest-finish-time assignment
    the simulator uses).  Measured wall-clock time of the parallel
    sections accumulates separately in ``wall_seconds``.
    """

    name = "process"
    external_workers = True

    def __init__(self, processes: int = 2, counters: Counters | None = None):
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = processes
        self.threads = processes  # serial-section accounting parity
        self.counters = counters if counters is not None else Counters()
        self.report = ScheduleReport()
        self.now = 0.0
        self.publications = 0
        self.fallbacks: list[str] = []
        self.wall_seconds = 0.0
        self.start_method: str | None = None
        self._builder = None
        self._payload = None
        self._pool = None
        self._shared = None
        self._pool_broken = False

    def set_worker_context(self, builder, payload) -> None:
        """Install the module-level context ``builder`` and its payload.

        Workers call ``builder(payload)`` once at pool start; the result
        is the ``ctx`` every shipped task receives.  Installing a new
        context tears down any existing pool (its workers hold the old
        one).
        """
        if self._pool is not None:
            self.close()
        self._builder = builder
        self._payload = payload
        self._pool_broken = False

    def close(self) -> None:
        """Terminate the worker pool, if any."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def _ensure_pool(self) -> bool:
        if self._pool is not None:
            return True
        if self._pool_broken:
            return False
        import multiprocessing as mp

        # fork shares the context pages for free; spawn re-pickles it.
        # Either may be unavailable (platform, daemonic caller) — try in
        # preference order and record every miss.
        for method in ("fork", "spawn"):
            try:
                ctx = mp.get_context(method)
                shared = ctx.Value("q", 0)
                pool = ctx.Pool(self.processes,
                                initializer=_process_worker_init,
                                initargs=(self._builder, self._payload, shared))
            except Exception as exc:
                self.fallbacks.append(
                    f"start_method:{method}: {type(exc).__name__}: {exc}")
                continue
            self._shared = shared
            self._pool = pool
            self.start_method = method
            return True
        self._pool_broken = True
        return False

    def parfor(self, tasks: Sequence, body, incumbent: Incumbent) -> list[TaskResult]:
        """Run ``body.worker`` over ``tasks`` on the process pool.

        The shared incumbent size is refreshed before the sweep; workers
        read it at task start and publish at task end. Bodies without a
        shippable worker (or any pool failure) run inline, with the
        reason recorded in ``fallbacks``.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        worker_fn = body.worker if isinstance(body, EngineBody) else None
        if worker_fn is None or self._builder is None:
            # Closure bodies stay local by design (cheap phases); a
            # shippable body without a context is a caller bug worth
            # surfacing, but never worth crashing a solve over.
            if worker_fn is not None:
                self._note_fallback("no worker context installed")
            return self._parfor_inline(tasks, body, incumbent)
        if not self._ensure_pool():
            self._note_fallback("no usable start method")
            return self._parfor_inline(tasks, body, incumbent)

        with self._shared.get_lock():
            self._shared.value = incumbent.size
        chunksize = max(1, len(tasks) // (self.processes * 4))
        t0 = time.perf_counter()
        try:
            raw = self._pool.map(
                functools.partial(_process_worker_run, worker_fn),
                tasks, chunksize)
        except Exception as exc:
            self._note_fallback(f"map: {type(exc).__name__}: {exc}")
            self.close()
            self._pool_broken = True
            return self._parfor_inline(tasks, body, incumbent)
        self.wall_seconds += time.perf_counter() - t0

        merge = body.merge
        costs: list[int] = []
        values: list[object] = []
        for value, counter_dict, pending, extra in raw:
            local = Counters(**counter_dict)
            costs.append(max(local.work, 1))
            values.append(value)
            self.counters.merge(local)
            if pending is not None and \
                    incumbent.offer(pending, time=self.now):
                self.publications += 1
            if merge is not None and extra is not None:
                merge(extra)
        return self._account(tasks, costs, values)

    def _parfor_inline(self, tasks, body, incumbent) -> list[TaskResult]:
        """Local sequential execution (closure bodies and fallbacks)."""
        run_task = body.inline if isinstance(body, EngineBody) else body
        costs: list[int] = []
        values: list[object] = []
        for task in tasks:
            view = IncumbentView(incumbent.size, incumbent.clique)
            local = Counters()
            values.append(run_task(task, view, local))
            costs.append(max(local.work, 1))
            pending = view.pending
            if pending is not None and \
                    incumbent.publish_at(pending, self.now):
                self.publications += 1
            self.counters.merge(local)
        return self._account(tasks, costs, values)

    def _account(self, tasks, costs, values) -> list[TaskResult]:
        """Replay measured costs through the smallest-finish-time schedule.

        Keeps the report in work units across engines: the virtual
        makespan is what a greedy ``processes``-worker schedule of these
        exact costs would take, directly comparable to the simulator's.
        """
        workers = [(self.now, w) for w in range(self.processes)]
        heapq.heapify(workers)
        results: list[TaskResult] = []
        end = self.now
        for task, cost, value in zip(tasks, costs, values):
            t_start, w = heapq.heappop(workers)
            t_finish = t_start + cost
            heapq.heappush(workers, (t_finish, w))
            results.append(TaskResult(task=task, start=t_start,
                                      finish=t_finish, cost=cost,
                                      worker=w, value=value))
            end = max(end, t_finish)
        self.report.makespan += end - self.now
        self.report.total_work += sum(costs)
        self.report.tasks.extend(results)
        self.now = end
        return results

    def _note_fallback(self, reason: str) -> None:
        if reason not in self.fallbacks:
            self.fallbacks.append(reason)

    def run_serial_section(self, cost: int, makespan_cost: int | None = None) -> None:
        """Account a non-parfor section (same contract as the scheduler)."""
        cost = max(cost, 0)
        m = cost if makespan_cost is None else max(makespan_cost, 0)
        self.now += m
        self.report.makespan += m
        self.report.total_work += cost

    def info(self) -> dict:
        """Uniform engine summary (the ``engine`` section of records)."""
        return _engine_info(self)


def _engine_info(engine) -> dict:
    """The uniform ``engine`` summary shared by both backends."""
    return {
        "backend": engine.name,
        "workers": engine.threads,
        "makespan": engine.report.makespan,
        "total_work": engine.report.total_work,
        "tasks": len(engine.report.tasks),
        "publications": getattr(engine, "publications", 0),
        "wall_seconds": getattr(engine, "wall_seconds", 0.0),
        "start_method": getattr(engine, "start_method", None),
        "fallbacks": list(engine.fallbacks),
    }


def create_engine(engine: str = "sim", threads: int = 1, processes: int = 0,
                  counters: Counters | None = None):
    """Build the engine named by ``engine``.

    ``threads`` parameterizes the simulator; ``processes`` the process
    pool (``0`` means auto: the CPU count, floored at 2 so incumbent
    sharing across workers exists even on one core).
    """
    if engine == "sim":
        return SimulatedEngine(threads, counters)
    if engine == "process":
        if processes <= 0:
            import os

            processes = max(os.cpu_count() or 1, 2)
        return ProcessEngine(processes, counters)
    raise ValueError(
        f"unknown engine {engine!r}; known: {', '.join(ENGINE_NAMES)}")
