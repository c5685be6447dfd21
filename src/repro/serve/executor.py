"""SchedulerExecutor — kernel scheduling policies driving userspace work.

The simulator's :class:`~repro.sched.base.Scheduler` interface is five
functions over :class:`~repro.kernel.task.Task` objects.  Nothing in it
requires simulated time: ``goodness()``, the ELSC tables, and the
multi-queue stealing logic read task fields (``counter``, ``priority``,
``has_cpu``, ``processor``) and CPU identity only.  This module exploits
that to run any registered policy *unmodified* as the dispatch policy of
a live server: each connection handler is mapped to a ``Task``, arrivals
are wakeups, and "which session do we serve next" is answered by the
policy's own ``schedule()``.

The executor is a :class:`~repro.kernel.host.SchedHost`, like the
simulated :class:`~repro.kernel.machine.Machine`: wakeup dedup, the
``has_cpu`` / ``processor`` / migration accounting, the decision event
and the quantum rule are the same code on both hosts, so a policy cannot
tell whether it is bound to the discrete-event machine or to a socket
loop.  The differential conformance test (``tests/serve/``) replays one
arrival trace through both hosts as a cross-check.

SMP is modelled with *virtual CPUs*: the asyncio loop is one real
thread, but ``schedule()`` is invoked round-robin over ``num_cpus``
:class:`~repro.kernel.cpu.CPU` objects, so per-CPU policies (``mq``,
``o1``) exercise their multi-queue paths — including migrations by
stealing — exactly as they would on real processors.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional

from ..kernel.cost_model import CostModel
from ..kernel.cpu import CPU
from ..kernel.host import SchedHost
from ..kernel.task import SchedPolicy, Task, TaskState
from ..obs.probe import DispatchEvent, PreemptEvent, WakeupEvent
from ..sched.base import Scheduler
from ..sched.stats import SchedStats

__all__ = ["SchedulerExecutor"]


class SchedulerExecutor(SchedHost):
    """Dispatch userspace work units through a kernel scheduling policy.

    Life cycle of one handler::

        task = executor.register("session-3")      # blocked, no work yet
        executor.ready(task)                       # request arrived
        picked = executor.pick()                   # policy chooses
        ...serve up to `batch` requests...
        executor.charge_slice(picked)              # quantum accounting
        executor.release(picked, blocked=empty)    # back to the queue/bed
        executor.deregister(task)                  # connection closed

    ``pick()`` rotates over the virtual CPUs; a ``None`` return means
    every policy table was empty *for the CPUs tried this round* — use
    :meth:`has_runnable` (not ``pick() is None``) as the wait gate,
    because a runnable handler that is still ``cpu.current`` elsewhere
    is invisible to other CPUs' ``schedule()`` by the kernel contract.
    :meth:`dispatch_forever` is that loop, supervised.

    Virtual time is instantaneous: each pick happens at ``clock.now``,
    which then steps past the decision's cost.  A deregistered handler
    leaves the task table.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        num_cpus: int = 1,
        smp: bool = False,
        cost: Optional[CostModel] = None,
        factory: Optional[Callable[[], Scheduler]] = None,
    ) -> None:
        #: How :meth:`rebuild` replaces a crashed policy instance.  The
        #: default assumes a no-argument scheduler class, which every
        #: registered policy satisfies.
        self._factory: Callable[[], Scheduler] = (
            factory if factory is not None else type(scheduler)
        )
        #: Stats of scheduler instances retired by :meth:`rebuild`, so
        #: a supervised restart loses no accounting.
        self._retired_stats: list[SchedStats] = []
        self.rebuilds = 0
        self._crash_next = False
        #: The probes see the same phases as on the simulated machine:
        #: the schedule() phase split is exact (it is the decision's own
        #: cost), while ``dispatch``/``migrate`` are the cost model's
        #: *imputed* switch and cache-refill charges (the live server
        #: pays them in wall time, not virtual cycles).
        super().__init__(scheduler, num_cpus, smp, cost)
        self._cursor = 0
        #: Wall-clock nanoseconds spent inside schedule(), one sample
        #: per invocation (the live pick-latency metric).
        self.pick_ns: list[int] = []
        self._pick_ns_cap = 1 << 16
        self.picks = 0
        self.idle_picks = 0

    @classmethod
    def from_name(
        cls,
        name: str,
        num_cpus: int = 1,
        smp: bool = False,
        cost: Optional[CostModel] = None,
    ) -> "SchedulerExecutor":
        """Build an executor for a registry-named policy (aliases ok).

        The single front door for the serve and cluster layers: the
        name goes through :func:`repro.sched.registry.create`, so any
        scheduler registered anywhere in the process is servable
        without per-layer tables.
        """
        from ..sched.registry import create, get

        info = get(name)
        return cls(
            create(name),
            num_cpus=num_cpus,
            smp=smp,
            cost=cost,
            factory=info.factory,
        )

    # -- handler lifecycle ---------------------------------------------------

    def register(
        self,
        name: str,
        priority: Optional[int] = None,
        policy: SchedPolicy = SchedPolicy.SCHED_OTHER,
        rt_priority: int = 0,
        user: object = None,
    ) -> Task:
        """Create the Task standing in for one handler; starts blocked."""
        task = (
            Task(name=name, policy=policy, rt_priority=rt_priority)
            if priority is None
            else Task(
                name=name,
                priority=priority,
                policy=policy,
                rt_priority=rt_priority,
            )
        )
        # A fresh Task is born RUNNING; a fresh handler has no work.
        task.state = TaskState.INTERRUPTIBLE
        task.user = user
        self._fork(task)
        return task

    def deregister(self, task: Task) -> None:
        """Handler gone (connection closed): off the queue, off a CPU."""
        if task.exited:
            return
        for cpu in self.cpus:
            if cpu.current is task:
                cpu.current = cpu.idle_task
                cpu.idle_task.has_cpu = True
        task.has_cpu = False
        self._exit(task)
        self._tasks.pop(task.pid, None)

    # -- wakeup ----------------------------------------------------------------

    def ready(self, task: Task) -> bool:
        """Work arrived for ``task``; returns True if it was enqueued.

        Dedup semantics are the kernel's: a task already runnable on the
        queue is a spurious wake; a task still ``on_runqueue`` (it is
        somebody's ``current``) just flips back to RUNNING.
        """
        if not self._wake(task):
            return False
        insert = self.scheduler.add_to_runqueue(task)
        probes = self.probes
        if probes.wakeup:
            ev = WakeupEvent(
                self.clock.now,
                -1,
                -1,
                task,
                self.cost.wakeup_cost + insert,
                0,
            )
            probes.emit_wakeup(ev)
        return True

    # -- dispatch ----------------------------------------------------------------

    def pick(self) -> Optional[Task]:
        """Ask the policy for the next handler to serve.

        Tries each virtual CPU once, round-robin, and returns the first
        non-idle decision; ``None`` when every try came back idle.
        """
        ncpu = len(self.cpus)
        for _ in range(ncpu):
            cpu = self.cpus[self._cursor]
            self._cursor = (self._cursor + 1) % ncpu
            task = self._pick_on(cpu)
            if task is not None:
                return task
        return None

    def _pick_on(self, cpu: CPU) -> Optional[Task]:
        if self._crash_next:
            # Chaos hook (repro.faults): the adapter blows up out of a
            # pick, exactly like a policy bug would, and the supervised
            # dispatch loop is expected to rebuild() us.
            self._crash_next = False
            raise RuntimeError("injected executor crash (fault plan)")
        prev = cpu.current
        self.picks += 1
        t0 = time.perf_counter_ns()
        decision = self.scheduler.schedule(prev, cpu)
        elapsed = time.perf_counter_ns() - t0
        if len(self.pick_ns) < self._pick_ns_cap:
            self.pick_ns.append(elapsed)
        # A live pick is instantaneous in virtual time: entry, lock and
        # decision all land at picked_at.
        picked_at = self.clock.now
        self.clock.now += max(1, decision.cost)
        self._switch(cpu, prev, decision, picked_at, picked_at, picked_at)
        next_task = decision.next_task
        self._commit(cpu, prev, next_task)
        if next_task is None:
            self.idle_picks += 1
        elif next_task.cache_cold:
            # Migrated: the cache refill is imputed here, once.
            next_task.cache_cold = False
            if self.probes.dispatch:
                dev = DispatchEvent(
                    self.clock.now,
                    cpu.cpu_id,
                    next_task,
                    self.cost.cache_refill,
                )
                self.probes.emit_dispatch(dev)
        return next_task

    # -- slice accounting ------------------------------------------------------

    def charge_slice(self, task: Task) -> None:
        """One dispatch slice consumed: the tick handler's quantum rule.

        The slice that takes the counter to zero is recorded as a
        quantum-expiry preemption, the same event the simulator's tick
        path counts.  A handler that closed during its slice is charged
        nothing, as :meth:`release` leaves it alone.
        """
        if task.exited:
            return
        had_quantum = task.counter > 0
        if self._tick(task, task.processor) and had_quantum:
            self.scheduler.stats.preemptions += 1
            if self.probes.sched:
                ev = PreemptEvent(self.clock.now, task.processor, task, 0)
                self.probes.emit_sched(ev)

    def release(self, task: Task, blocked: bool) -> None:
        """Return a served handler to the policy's jurisdiction.

        The task stays ``cpu.current`` / ``has_cpu`` until the next
        ``schedule()`` on that CPU — exactly the kernel's window between
        a task blocking and its CPU switching away.  ``blocked=True``
        when the handler's inbox is empty.
        """
        if task.exited:
            return
        task.state = (
            TaskState.INTERRUPTIBLE if blocked else TaskState.RUNNING
        )

    # -- supervision -----------------------------------------------------------

    async def dispatch_forever(
        self, serve: Callable[[Task], None], work: asyncio.Event
    ) -> None:
        """The live dispatch loop: park on ``work``, pick, ``serve``.

        Supervised: a crash out of a pick or a serve rebuilds the
        scheduler with every handler intact and keeps dispatching; the
        restart is the metric (``rebuilds``), not the end.  Each turn
        yields to the event loop so readers and writers make progress
        between dispatches, the "timer tick" of this userspace kernel.
        """
        while True:
            if not self.has_runnable():
                work.clear()
                # Re-check: a ready() may have raced the clear.
                if not self.has_runnable():
                    await work.wait()
                continue
            try:
                task = self.pick()
                if task is not None:
                    serve(task)
                # else: a runnable handler exists but this rotation found
                # nothing pickable (transient on multi-CPU executors).
            except Exception:  # noqa: BLE001 — supervised: degrade, don't die
                self.rebuild()
            await asyncio.sleep(0)

    def inject_crash(self) -> None:
        """Arm a one-shot crash: the next ``pick()`` raises."""
        self._crash_next = True

    def rebuild(self) -> None:
        """Replace a crashed scheduler instance, preserving every handler.

        The dead instance's stats are retired (``merged_stats`` still
        counts them), a fresh policy is built and bound, the virtual
        CPUs are reset to idle, every surviving task's runqueue linkage
        is cleared, and the runnable ones are re-enqueued — the live
        analogue of rebuilding the runqueue after a scheduler hot-swap.
        """
        self._retired_stats.append(self.scheduler.stats)
        for cpu in self.cpus:
            cpu.current = cpu.idle_task
            cpu.idle_task.has_cpu = True
        for task in self._tasks.values():
            # Old policy's intrusive links are garbage now: unlink.
            task.has_cpu = False
            task.run_list.next = None
            task.run_list.prev = None
        self._bind(self._factory())
        self.probes.set_scheduler(self.scheduler.name)
        for task in self._tasks.values():
            if not task.exited and task.state is TaskState.RUNNING:
                self.scheduler.add_to_runqueue(task)
        self.rebuilds += 1

    def merged_stats(self) -> SchedStats:
        """Stats across the current scheduler and every retired one."""
        total = self.scheduler.stats
        for retired in self._retired_stats:
            total = total.merged_with(retired)
        return total

    # -- introspection ---------------------------------------------------------

    def has_runnable(self) -> bool:
        """True while any registered handler is runnable (the wait gate)."""
        return any(
            t.state is TaskState.RUNNING
            for t in self._tasks.values()
            if not t.exited
        )

    def __repr__(self) -> str:
        return (
            f"<SchedulerExecutor {self.scheduler.name} "
            f"cpus={len(self.cpus)} live={self.live_count()} "
            f"picks={self.picks}>"
        )
