"""The scheduler interface both designs implement.

The paper's design goal #1 was "keep changes local to the scheduler; do
not change current interfaces" — the ELSC patch replaces the bodies of
``schedule()`` and the four run-queue manipulation functions
(``add_to_runqueue``, ``del_from_runqueue``, ``move_first_runqueue``,
``move_last_runqueue``) and nothing else.  This module pins down exactly
that interface so the machine is scheduler-agnostic and alternative
designs (heap, multi-queue, O(1)) plug in the same way.

API v2 widens the surface with *optional* lifecycle hooks — ``on_tick``,
``on_fork``, ``on_exit``, ``task_group``, ``per_cpu_queue_lens`` — all
defaulted to no-ops so the flat five-function designs run unmodified,
while hierarchical designs (Clutch) get the group/tick signals they
need.  Hosts detect overridden hooks at bind time (``type(sched).on_tick
is not Scheduler.on_tick``) so a default hook costs nothing on the hot
path.  The host side of the contract is the :class:`ProbeHost`
protocol: the structural type every bound "machine" satisfies — the two
:class:`~repro.kernel.host.SchedHost` hosts (the simulated
:class:`~repro.kernel.machine.Machine` and the serve executor) and test
fakes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Iterable,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from .stats import SchedStats

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.cost_model import CostModel
    from ..kernel.cpu import CPU
    from ..kernel.task import Task
    from ..obs.probe import ProbeSet

__all__ = ["Scheduler", "SchedDecision", "ProbeHost"]


@runtime_checkable
class ProbeHost(Protocol):
    """What a scheduler may assume about the machine it is bound to.

    This formalises the duck type that used to live in ``getattr``
    calls: both :class:`~repro.kernel.host.SchedHost` hosts (the
    simulated Machine and the serve executor) and test fakes satisfy
    it.  ``probes`` is always present (an empty
    :class:`~repro.obs.probe.ProbeSet` when nothing is attached), so
    emission sites test ``host.probes.sched`` directly instead of
    ``getattr(machine, "probes", None)``.
    """

    cost: "CostModel"
    smp: bool
    cpus: Sequence
    probes: "ProbeSet"

    @property
    def clock(self):  # pragma: no cover - structural only
        """Virtual clock with an integer ``now`` attribute."""
        ...

    def live_tasks(self) -> Iterable["Task"]:
        """Every live task in the system (``for_each_task``)."""
        ...


@dataclass
class SchedDecision:
    """Outcome of one ``schedule()`` invocation.

    ``next_task is None`` means "run the idle task".  ``cost`` is the
    cycle charge for the decision itself (the machine adds lock and
    context-switch charges on top).

    ``eval_cycles`` and ``recalc_cycles`` split ``cost`` for the
    profiler: cycles spent evaluating goodness/utility and cycles spent
    in whole-system counter recalculation (including any structure
    rebuild it forces).  The remainder, ``cost - eval_cycles -
    recalc_cycles``, is the ``pick`` phase.  The split cannot be
    recovered after the fact (recalculation cost depends on the live
    task count at the moment it ran), so schedulers report it here.
    """

    next_task: Optional["Task"]
    cost: int
    examined: int = 0
    recalcs: int = 0
    eval_cycles: int = 0
    recalc_cycles: int = 0


class Scheduler(abc.ABC):
    """Pluggable scheduling policy over the machine's run queue."""

    #: Short identifier used in benches and /proc output ("reg", "elsc", …).
    name: str = "abstract"

    #: Whether every schedule()/wakeup serialises on the single global
    #: runqueue lock (true for the 2.3.99 designs the paper studies).
    #: Per-CPU-queue designs (multiqueue, O(1)) set this False and the
    #: machine charges only uncontended lock costs.
    uses_global_lock: bool = True

    #: Whether the design maintains genuinely per-CPU ready structures
    #: (multiqueue, O(1), relaxed_mq); purely informational for layers
    #: that reason about policies without instantiating them.
    per_cpu_queues: bool = False

    #: Whether the design schedules through a hierarchy (groups/buckets
    #: above tasks) rather than one flat ready list (clutch).
    hierarchical: bool = False

    def __init__(self) -> None:
        self.stats = SchedStats()
        self.machine: Optional[ProbeHost] = None

    # -- lifecycle -----------------------------------------------------------

    def bind(self, machine: ProbeHost) -> None:
        """Attach to a machine; called once before the simulation starts."""
        self.machine = machine
        self.reset()

    def reset(self) -> None:
        """Clear run-queue structures and statistics."""
        self.stats = SchedStats()

    # -- convenience accessors ------------------------------------------------

    @property
    def cost(self) -> "CostModel":
        assert self.machine is not None, "scheduler not bound to a machine"
        return self.machine.cost

    @property
    def smp(self) -> bool:
        assert self.machine is not None, "scheduler not bound to a machine"
        return self.machine.smp

    @property
    def nr_cpus(self) -> int:
        assert self.machine is not None, "scheduler not bound to a machine"
        return len(self.machine.cpus)

    def all_tasks(self) -> Iterable["Task"]:
        """``for_each_task``: every live task in the system."""
        assert self.machine is not None, "scheduler not bound to a machine"
        return self.machine.live_tasks()

    # -- the kernel interface (paper section 5.1) ------------------------------

    @abc.abstractmethod
    def add_to_runqueue(self, task: "Task") -> int:
        """Make ``task`` selectable; returns the cycle cost of the insert.

        Called on wakeup and when a new task starts.  The cost is returned
        (not self-charged) because it lands on the *waking* context's
        timeline, which the machine owns.
        """

    @abc.abstractmethod
    def del_from_runqueue(self, task: "Task") -> int:
        """Remove ``task`` from the run queue; returns the cycle cost."""

    @abc.abstractmethod
    def move_first_runqueue(self, task: "Task") -> None:
        """Bias ``task`` to win goodness() ties (front of its list)."""

    @abc.abstractmethod
    def move_last_runqueue(self, task: "Task") -> None:
        """Bias ``task`` to lose goodness() ties (back of its list)."""

    @abc.abstractmethod
    def schedule(self, prev: "Task", cpu: "CPU") -> SchedDecision:
        """Pick the task to succeed ``prev`` on ``cpu``.

        Contract (mirroring the kernel):

        * ``prev.has_cpu`` is still True on entry; implementations must
          not select any *other* task whose ``has_cpu`` is set.
        * If ``prev`` is no longer runnable it must leave the run queue.
        * A pending SCHED_YIELD on ``prev`` must be honoured (goodness 0 /
          candidate of last resort) and cleared.
        * Implementations update ``self.stats`` themselves.
        """

    # -- optional lifecycle hooks (API v2) --------------------------------------
    #
    # All default to no-ops so flat designs run unmodified.  Hosts check
    # ``type(scheduler).on_tick is not Scheduler.on_tick`` once at bind
    # time and skip the call entirely when the default is in place, so a
    # policy that doesn't care pays zero cycles and keeps bit-identity.

    def on_tick(self, task: "Task", cpu_id: int) -> None:
        """A timer tick was charged to ``task`` on CPU ``cpu_id``.

        Fired *after* the host decremented ``task.counter`` (the
        quantum rule stays host-owned so every host applies it
        identically).  Hierarchical designs use this to advance their
        internal notion of time.
        """

    def on_fork(self, task: "Task") -> None:
        """``task`` was created, before its first wakeup."""

    def on_exit(self, task: "Task") -> None:
        """``task`` exited and has left the run queue for good."""

    def task_group(self, task: "Task"):
        """The grouping key ``task`` schedules under.

        Defaults to the address space (``task.mm``), falling back to
        the pid for kernel-thread-like tasks without one — the closest
        analogue of a thread group the simulator has.  Deterministic:
        ``mm`` objects are only ever used as dict keys (insertion
        ordered), never sorted by ``id()``.
        """
        return task.mm if task.mm is not None else task.pid

    def per_cpu_queue_lens(self) -> list[int]:
        """Ready-task count per internal queue (one entry per queue).

        Flat designs report a single global entry; per-CPU designs
        report one per lane/CPU.  For introspection and tests.
        """
        return [self.runqueue_len()]

    # -- introspection ----------------------------------------------------------

    @abc.abstractmethod
    def runqueue_len(self) -> int:
        """Number of tasks currently considered on the run queue."""

    @abc.abstractmethod
    def runqueue_tasks(self) -> list["Task"]:
        """Snapshot of queued tasks (order meaningful per design); for tests."""

    # -- shared helpers ---------------------------------------------------------

    def recalculate_counters(self) -> int:
        """The recalculation loop: ``counter = counter//2 + priority``.

        Runs over **every task in the system**, runnable or not (paper
        section 3.3.2), and returns its cycle cost.  Subclasses may
        override to add structure maintenance (ELSC flips top/next_top).
        """
        count = 0
        for task in self.all_tasks():
            task.counter = (task.counter >> 1) + task.priority
            count += 1
        self.stats.recalc_entries += 1
        machine = self.machine
        assert machine is not None, "scheduler not bound to a machine"
        # Every bound host satisfies ProbeHost — the Machine, the serve
        # executor and test fakes alike — so probes is always present
        # (empty ProbeSet when detached).
        if machine.probes.sched:
            from ..obs.probe import RecalcEvent

            probes = machine.probes
            probes.emit_sched(RecalcEvent(machine.clock.now, count))
        return self.cost.recalc_cost(count)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} qlen={self.runqueue_len()}>"
