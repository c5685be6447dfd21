"""repro — a reproduction of *Scalable Linux Scheduling* (Molloy &
Honeyman, CITI TR 01-7 / 2001).

The package contains:

* :mod:`repro.kernel` — a discrete-event simulator of a Linux-2.3.99-era
  machine: tasks, 10 ms timer ticks, quanta, wait queues, an SMP global
  runqueue lock, and a calibrated cycle cost model;
* :mod:`repro.sched` — the scheduler interface, the stock O(n)
  goodness-scan scheduler ("reg"), and alternative designs;
* :mod:`repro.core` — the **ELSC scheduler**, the paper's contribution:
  a 30-list table sorted by static goodness with ``top``/``next_top``
  cursors;
* :mod:`repro.net` — loopback socket pairs;
* :mod:`repro.workloads` — VolanoMark (the paper's stress test), a
  kernel-compile model (the paper's light-load test), a web-server model
  (future work §8), and synthetic mixes;
* :mod:`repro.analysis` — metrics and paper-style table rendering;
* :mod:`repro.harness` — the parallel experiment harness: hashed
  :class:`~repro.harness.RunSpec` cells, a content-addressed result
  cache, and a process-pool :class:`~repro.harness.ParallelRunner`
  (see ``docs/harness.md``).

Quickstart::

    from repro import ELSCScheduler, MachineSpec, Simulator
    from repro.workloads import VolanoConfig, run_volanomark

    result = run_volanomark(
        scheduler_factory=ELSCScheduler,
        spec=MachineSpec.up(),
        config=VolanoConfig(rooms=5),
    )
    print(result.throughput, "messages/second")
"""

from .core import ELSCRunqueueTable, ELSCScheduler
from .kernel import (
    CPU,
    Channel,
    Clock,
    CostModel,
    KernelHandle,
    Machine,
    MachineSpec,
    MMStruct,
    RunSummary,
    SchedPolicy,
    SimResult,
    SimulationError,
    Simulator,
    SpinYieldLock,
    Task,
    TaskState,
    TraceKind,
    Tracer,
    WaitQueue,
    make_machine,
    sched_setscheduler,
    set_priority,
)
from .sched import (
    CFSScheduler,
    HeapScheduler,
    MultiQueueScheduler,
    O1Scheduler,
    SchedDecision,
    Scheduler,
    SchedStats,
    VanillaScheduler,
)

__version__ = "1.0.0"

from .harness import (  # noqa: E402 — needs __version__ for cache stamps
    CellResult,
    ParallelRunner,
    ResultCache,
    RunSpec,
)

__all__ = [
    # harness
    "RunSpec",
    "CellResult",
    "ParallelRunner",
    "ResultCache",
    "__version__",
    # schedulers
    "ELSCScheduler",
    "ELSCRunqueueTable",
    "VanillaScheduler",
    "HeapScheduler",
    "CFSScheduler",
    "MultiQueueScheduler",
    "O1Scheduler",
    "Scheduler",
    "SchedDecision",
    "SchedStats",
    # machine
    "Machine",
    "MachineSpec",
    "Simulator",
    "SimResult",
    "SimulationError",
    "RunSummary",
    "make_machine",
    "CostModel",
    "Clock",
    "CPU",
    "Task",
    "TaskState",
    "SchedPolicy",
    "MMStruct",
    "Channel",
    "WaitQueue",
    "SpinYieldLock",
    "KernelHandle",
    "Tracer",
    "TraceKind",
    "set_priority",
    "sched_setscheduler",
]
