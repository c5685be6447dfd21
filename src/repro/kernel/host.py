"""The host side of the scheduler interface, written once.

Two hosts drive a :class:`~repro.sched.base.Scheduler`: the
discrete-event :class:`~repro.kernel.machine.Machine` and the live
:class:`~repro.serve.executor.SchedulerExecutor`.  :class:`SchedHost` is
their common base, so every rule a policy can observe of its host has
one implementation and the hosts agree by construction: API-v2 hook
detection, probe attachment, the task table with its fork/exit calls,
wakeup dedup, the context-switch charge and the decision event, the
post-pick bookkeeping, and the tick's quantum rule.  Time and control
flow stay with each host.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Optional

from .clock import Clock
from .cost_model import CostModel
from .cpu import CPU
from .task import SchedPolicy, Task, TaskState
from .trace import Tracer  # noqa: F401 — must load before repro.obs (below)

# The probe pipeline must import after .trace: repro.obs is kernel-free
# at module level, but its adapters resolve repro.kernel.trace lazily,
# so .trace has to be in sys.modules before any partial-init chain.
from ..obs.probe import ProbeSet, SchedEvent

if TYPE_CHECKING:  # pragma: no cover
    from ..sched.base import SchedDecision, Scheduler

__all__ = ["SchedHost"]


class SchedHost:
    """What every host of a scheduler shares; satisfies ``ProbeHost``.

    Subclasses call the helpers at the kernel's points: ``_fork`` and
    ``_exit`` around a task's life, ``_wake`` before a run queue insert,
    ``_switch`` then ``_commit`` after each ``schedule()``, and ``_tick``
    once per quantum tick.
    """

    def __init__(
        self, scheduler: "Scheduler", num_cpus: int, smp: bool,
        cost: Optional[CostModel],
    ) -> None:
        if num_cpus < 1:
            raise ValueError("need at least one CPU")
        self.smp = smp
        self.cost = cost if cost is not None else CostModel()
        self.clock = Clock()
        self.cpus = [CPU(i) for i in range(num_cpus)]
        #: Tasks by pid; live_tasks() filters exits.
        self._tasks: dict[int, Task] = {}
        self._live_count = 0
        #: Timestamp at which the global runqueue lock becomes free, and
        #: which CPU holds it until then (None: interrupt context).  A
        #: spinlock never contends with its own CPU, so spin time is only
        #: charged across CPUs.
        self.lock_free_at = 0
        self.lock_owner_cpu: Optional[int] = None
        #: The observer pipeline (see repro.obs).  Every trace record,
        #: profile charge, fault log line and metrics sample flows
        #: through it; an empty set makes each emission site a single
        #: falsy attribute test, so a host with no probes runs the
        #: identical event stream (bit-identical RunSummary/SchedStats).
        self.probes = ProbeSet()
        self._bind(scheduler)

    def _bind(self, scheduler: "Scheduler") -> None:
        """Bind ``scheduler``, detecting its API-v2 hooks once.

        A scheduler that keeps the base no-ops pays nothing on the
        tick/fork/exit paths (and its event stream stays bit-identical
        to the pre-hook kernel).
        """
        from ..sched.base import Scheduler  # local import: layering

        sched_cls = type(scheduler)
        self.scheduler = scheduler
        self._hook_tick = sched_cls.on_tick is not Scheduler.on_tick
        self._hook_fork = sched_cls.on_fork is not Scheduler.on_fork
        self._hook_exit = sched_cls.on_exit is not Scheduler.on_exit
        scheduler.bind(self)

    # -- observers ---------------------------------------------------------

    def attach(self, probe: Any) -> Any:
        """Attach a probe to the pipeline (and return it).

        The one attachment path: subscribes the probe to its event
        kinds, gives it an ``on_attach`` look at the host (the fault
        injector schedules its plan there), and tells it the bound
        scheduler's name.
        """
        self.probes.add(probe)
        probe.on_attach(self)
        probe.set_scheduler(self.scheduler.name)
        return probe

    def detach(self, probe: Any) -> None:
        """Remove a probe from the pipeline (idempotent)."""
        self.probes.remove(probe)

    # -- the task table ----------------------------------------------------

    def live_tasks(self) -> Iterable[Task]:
        """``for_each_task``: every non-exited task."""
        return (t for t in self._tasks.values() if not t.exited)

    def live_count(self) -> int:
        """Number of tasks that have not exited."""
        return self._live_count

    def _fork(self, task: Task) -> None:
        """Enter a new task in the table, before its first wakeup."""
        self._tasks[task.pid] = task
        self._live_count += 1
        if self._hook_fork:
            self.scheduler.on_fork(task)

    def _exit(self, task: Task) -> None:
        """Retire ``task`` for good: zombie, off the run queue."""
        task.mark_exited()
        self.scheduler.del_from_runqueue(task)
        self._live_count -= 1
        if self._hook_exit:
            self.scheduler.on_exit(task)

    # -- the scheduling rules ----------------------------------------------

    def _wake(self, task: Task) -> bool:
        """The kernel's wakeup dedup; True when ``task`` needs an insert.

        A task still on the run queue (it blocked, but its CPU has not
        finished switching away, or it is already queued) just becomes
        runnable again: no insert, and no ``reschedule_idle``.
        """
        if task.exited:
            return False
        task.state = TaskState.RUNNING
        if task.on_runqueue():
            return False
        task.wakeup_count += 1
        return True

    def _switch(
        self, cpu: CPU, prev: Task, decision: "SchedDecision",
        at: int, start: int, dec_end: int,
    ) -> int:
        """Charge the context switch a decision implies and report it.

        ``at``, ``start`` and ``dec_end`` are scheduler entry, lock
        acquisition and decision completion; returns when the switch
        ends.  Call before :meth:`_commit`, which moves ``processor``.
        """
        next_task = decision.next_task
        target = next_task if next_task is not None else cpu.idle_task
        switch = 0
        if target is not prev:
            same_mm = target.mm is None or target.mm is prev.mm
            switch = self.cost.switch_cost(same_mm)
            self.scheduler.stats.switches += 1
        end = dec_end + switch
        if self.probes.sched:
            migrated_from = None
            if (
                next_task is not None
                and next_task.processor != cpu.cpu_id
                and next_task.processor != -1
            ):
                migrated_from = next_task.processor
            sched_ev = SchedEvent(
                at,
                start,
                dec_end,
                end,
                cpu.cpu_id,
                prev,
                next_task,
                target,
                decision.cost,
                decision.eval_cycles,
                decision.recalc_cycles,
                decision.examined,
                switch,
                migrated_from,
            )
            self.probes.emit_sched(sched_ev)
        return end

    def _commit(self, cpu: CPU, prev: Task, next_task: Optional[Task]) -> None:
        """Hand ``cpu`` from ``prev`` to the pick (idle: park the CPU)."""
        cpu.dispatches += 1
        prev.has_cpu = False
        stats = self.scheduler.stats
        if next_task is None:
            stats.idle_schedules += 1
            cpu.current = cpu.idle_task
            cpu.idle_task.has_cpu = True
            return
        if next_task.processor != cpu.cpu_id:
            stats.picks_without_affinity += 1
            if next_task.processor != -1:
                stats.migrations += 1
                next_task.migration_count += 1
                next_task.cache_cold = True
        if (
            next_task is not prev
            and next_task.mm is not None
            and next_task.mm is prev.mm
        ):
            stats.picks_same_mm += 1
        next_task.has_cpu = True
        next_task.processor = cpu.cpu_id
        next_task.dispatch_count += 1
        cpu.current = next_task

    def _tick(self, task: Task, cpu_id: int) -> bool:
        """One quantum tick charged to ``task``; True when it is used up.

        SCHED_FIFO runs untimed.  Everyone else burns one ``counter``
        tick, and ``on_tick`` fires after the decrement.
        """
        task.ticks_consumed += 1
        if task.policy is SchedPolicy.SCHED_FIFO:
            return False
        if task.counter > 0:
            task.counter -= 1
        expired = task.counter <= 0
        if expired:
            task.counter = 0
        if self._hook_tick:
            self.scheduler.on_tick(task, cpu_id)
        return expired
