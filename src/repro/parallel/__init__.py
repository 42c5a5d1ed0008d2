"""Parallel execution substrate.

The paper's implementation runs on 128 hardware threads via Parlay.  CPython
cannot reproduce shared-memory parallel branch-and-bound speedups (the GIL
serializes the search), so this package provides a **deterministic simulated
scheduler**: tasks execute sequentially in a virtual-time, event-driven
simulation of ``T`` workers.  Work is measured in counted set-operations,
incumbent-clique updates become visible to a task only if published before
the task's virtual start time, and the simulated makespan is the max worker
finish time.

This reproduces the paper's central parallel phenomenon — *work inflation*:
tasks that start before a better incumbent is published filter less and do
more work (§V-F, Fig. 7) — while remaining exactly reproducible run-to-run.
With ``threads=1`` the simulation degenerates to plain sequential execution
with a live incumbent.

Real parallelism lives behind the same ``parfor`` interface in
:mod:`repro.parallel.engine` (``ProcessEngine``).
"""

from .scheduler import SimulatedScheduler, TaskResult, ScheduleReport
from .incumbent import Incumbent, IncumbentView
from .locks import StripedLocks
from .engine import (ENGINE_NAMES, EngineBody, ProcessEngine,
                     SimulatedEngine, create_engine)

__all__ = [
    "SimulatedScheduler",
    "TaskResult",
    "ScheduleReport",
    "Incumbent",
    "IncumbentView",
    "StripedLocks",
    "ENGINE_NAMES",
    "EngineBody",
    "SimulatedEngine",
    "ProcessEngine",
    "create_engine",
]
