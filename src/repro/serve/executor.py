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

The executor mirrors the Machine's bookkeeping contract exactly —
``wake_up_process`` wakeup dedup, ``_dispatch``'s ``has_cpu`` /
``processor`` / migration accounting — so a policy cannot tell whether
it is bound to the discrete-event machine or to a socket loop.  The
differential conformance test (``tests/serve/``) holds the two hosts to
the same dispatch order for identical arrival traces.

SMP is modelled with *virtual CPUs*: the asyncio loop is one real
thread, but ``schedule()`` is invoked round-robin over ``num_cpus``
:class:`~repro.kernel.cpu.CPU` objects, so per-CPU policies (``mq``,
``o1``) exercise their multi-queue paths — including migrations by
stealing — exactly as they would on real processors.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Optional

from ..kernel.cost_model import CostModel
from ..kernel.cpu import CPU
from ..kernel.task import SchedPolicy, Task, TaskState
from ..obs.probe import (
    DispatchEvent,
    PreemptEvent,
    ProbeSet,
    SchedEvent,
    WakeupEvent,
)
from ..obs.probes import ProfilerProbe
from ..sched.base import Scheduler
from ..sched.stats import SchedStats

__all__ = ["SchedulerExecutor"]


class _Clock:
    """Monotonic virtual time; advanced by decision cost per pick."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now: int = 0


class _ExecutorMachine:
    """The duck-typed machine a :class:`Scheduler` binds against.

    Provides every attribute the scheduler layer touches — ``cost``,
    ``smp``, ``cpus``, ``live_tasks()``, ``clock``, ``probes`` and the
    global-lock timeline fields — with none of the event loop.
    """

    def __init__(self, num_cpus: int, smp: bool, cost: CostModel) -> None:
        self.cost = cost
        self.smp = smp
        self.cpus = [CPU(i) for i in range(num_cpus)]
        self.clock = _Clock()
        #: Shared with the owning executor (one pipeline per host).
        self.probes = ProbeSet()
        self.lock_free_at = 0
        self.lock_owner_cpu: Optional[int] = None
        self._tasks: dict[int, Task] = {}

    def live_tasks(self) -> Iterable[Task]:
        return (t for t in self._tasks.values() if not t.exited)


class SchedulerExecutor:
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
    """

    def __init__(
        self,
        scheduler: Scheduler,
        num_cpus: int = 1,
        smp: bool = False,
        cost: Optional[CostModel] = None,
        prof: Optional[object] = None,
        factory: Optional[Callable[[], Scheduler]] = None,
    ) -> None:
        if num_cpus < 1:
            raise ValueError("executor needs at least one virtual CPU")
        self.scheduler = scheduler
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
        self.machine = _ExecutorMachine(
            num_cpus, smp, cost if cost is not None else CostModel()
        )
        #: The probe pipeline (shared with the duck-typed machine so the
        #: scheduler layer's emissions land in the same stream).  The
        #: executor reports the same phases as the simulated machine:
        #: the schedule() phase split is exact (it is the decision's own
        #: cost), while ``dispatch``/``migrate`` are the cost model's
        #: *imputed* switch and cache-refill charges (the live server
        #: pays them in wall time, not virtual cycles).
        self.probes = self.machine.probes
        if prof is not None:
            self.attach(ProfilerProbe(prof))
        self._detect_hooks(scheduler)
        scheduler.bind(self.machine)  # type: ignore[arg-type]
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
        prof: Optional[object] = None,
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
            prof=prof,
            factory=info.factory,
        )

    def _detect_hooks(self, scheduler: Scheduler) -> None:
        """Detect overridden API-v2 hooks once per bound instance.

        Mirrors the simulated Machine: a policy keeping the base
        no-ops pays nothing on the register/deregister/charge paths.
        """
        sched_cls = type(scheduler)
        self._hook_tick = sched_cls.on_tick is not Scheduler.on_tick
        self._hook_fork = sched_cls.on_fork is not Scheduler.on_fork
        self._hook_exit = sched_cls.on_exit is not Scheduler.on_exit

    # -- observers -----------------------------------------------------------

    def attach(self, probe: object) -> object:
        """Attach a probe to the executor's pipeline (and return it)."""
        self.probes.add(probe)
        probe.on_attach(self)
        probe.set_scheduler(self.scheduler.name)
        return probe

    def detach(self, probe: object) -> None:
        """Remove a probe from the pipeline (idempotent)."""
        self.probes.remove(probe)

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
        self.machine._tasks[task.pid] = task
        if self._hook_fork:
            self.scheduler.on_fork(task)
        return task

    def deregister(self, task: Task) -> None:
        """Handler gone (connection closed): off the queue, off a CPU."""
        if task.exited:
            return
        for cpu in self.machine.cpus:
            if cpu.current is task:
                cpu.current = cpu.idle_task
                cpu.idle_task.has_cpu = True
        task.has_cpu = False
        self.scheduler.del_from_runqueue(task)
        task.mark_exited()
        self.machine._tasks.pop(task.pid, None)
        if self._hook_exit:
            self.scheduler.on_exit(task)

    # -- wakeup (mirrors Machine.wake_up_process) -----------------------------

    def ready(self, task: Task) -> bool:
        """Work arrived for ``task``; returns True if it was enqueued.

        Dedup semantics are the kernel's: a task already runnable on the
        queue is a spurious wake; a task still ``on_runqueue`` (it is
        somebody's ``current``) just flips back to RUNNING.
        """
        if task.exited:
            return False
        if task.state is TaskState.RUNNING and task.on_runqueue():
            return False
        task.state = TaskState.RUNNING
        if task.on_runqueue():
            return False
        task.wakeup_count += 1
        insert = self.scheduler.add_to_runqueue(task)
        probes = self.probes
        if probes.wakeup:
            ev = WakeupEvent(
                self.machine.clock.now,
                -1,
                -1,
                task,
                self.machine.cost.wakeup_cost + insert,
                0,
            )
            probes.emit_wakeup(ev)
        return True

    # -- dispatch (mirrors Machine._dispatch bookkeeping) ---------------------

    def pick(self) -> Optional[Task]:
        """Ask the policy for the next handler to serve.

        Tries each virtual CPU once, round-robin, and returns the first
        non-idle decision; ``None`` when every try came back idle.
        """
        machine = self.machine
        ncpu = len(machine.cpus)
        for _ in range(ncpu):
            cpu = machine.cpus[self._cursor]
            self._cursor = (self._cursor + 1) % ncpu
            task = self._pick_on(cpu)
            if task is not None:
                return task
        return None

    def _pick_on(self, cpu: CPU) -> Optional[Task]:
        if self._crash_next:
            # Chaos hook (repro.faults): the adapter blows up out of a
            # pick, exactly like a policy bug would, and the server's
            # supervisor is expected to rebuild() us.
            self._crash_next = False
            raise RuntimeError("injected executor crash (fault plan)")
        scheduler = self.scheduler
        stats = scheduler.stats
        prev = cpu.current
        self.picks += 1
        t0 = time.perf_counter_ns()
        decision = scheduler.schedule(prev, cpu)
        elapsed = time.perf_counter_ns() - t0
        if len(self.pick_ns) < self._pick_ns_cap:
            self.pick_ns.append(elapsed)
        machine = self.machine
        picked_at = machine.clock.now
        machine.clock.now += max(1, decision.cost)
        next_task = decision.next_task
        probes = self.probes
        if probes.sched:
            target = next_task if next_task is not None else cpu.idle_task
            switch = 0
            if next_task is not None and next_task is not prev:
                same_mm = next_task.mm is None or next_task.mm is prev.mm
                switch = machine.cost.switch_cost(same_mm)
            migrated_from = None
            if (
                next_task is not None
                and next_task.processor != cpu.cpu_id
                and next_task.processor != -1
            ):
                migrated_from = next_task.processor
            # A live pick is instantaneous in virtual time: every charge
            # lands at picked_at (start == dec_end == end).
            ev = SchedEvent(
                picked_at,
                picked_at,
                picked_at,
                picked_at,
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
            probes.emit_sched(ev)

        prev.has_cpu = False
        if next_task is None:
            stats.idle_schedules += 1
            self.idle_picks += 1
            cpu.current = cpu.idle_task
            cpu.idle_task.has_cpu = True
            return None
        if next_task is not prev:
            stats.switches += 1
        if next_task.processor != cpu.cpu_id:
            stats.picks_without_affinity += 1
            if next_task.processor != -1:
                stats.migrations += 1
                next_task.migration_count += 1
                next_task.cache_cold = True
                if probes.dispatch:
                    dev = DispatchEvent(
                        machine.clock.now,
                        cpu.cpu_id,
                        next_task,
                        machine.cost.cache_refill,
                    )
                    probes.emit_dispatch(dev)
        next_task.has_cpu = True
        next_task.processor = cpu.cpu_id
        next_task.dispatch_count += 1
        cpu.current = next_task
        cpu.dispatches += 1
        return next_task

    # -- slice accounting ------------------------------------------------------

    def charge_slice(self, task: Task) -> None:
        """One dispatch slice consumed: the tick-handler's quantum math.

        SCHED_FIFO runs untimed; everyone else burns one counter tick,
        and hitting zero is recorded as a quantum-expiry preemption —
        the same event the simulator's tick path counts.
        """
        if task.policy is SchedPolicy.SCHED_FIFO:
            return
        task.ticks_consumed += 1
        if task.counter > 0:
            task.counter -= 1
            if task.counter == 0:
                self.scheduler.stats.preemptions += 1
                if self.probes.sched:
                    ev = PreemptEvent(
                        self.machine.clock.now, task.processor, task, 0
                    )
                    self.probes.emit_sched(ev)
        if self._hook_tick:
            self.scheduler.on_tick(task, task.processor)

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
        machine = self.machine
        for cpu in machine.cpus:
            cpu.current = cpu.idle_task
            cpu.idle_task.has_cpu = True
        for task in machine._tasks.values():
            # Old policy's intrusive links are garbage now: unlink.
            task.has_cpu = False
            task.run_list.next = None
            task.run_list.prev = None
        self.scheduler = self._factory()
        self._detect_hooks(self.scheduler)
        self.scheduler.bind(machine)  # type: ignore[arg-type]
        self.probes.set_scheduler(self.scheduler.name)
        for task in machine._tasks.values():
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
            for t in self.machine._tasks.values()
            if not t.exited
        )

    def runnable_count(self) -> int:
        return sum(
            1
            for t in self.machine._tasks.values()
            if not t.exited and t.state is TaskState.RUNNING
        )

    def live_count(self) -> int:
        return sum(1 for _ in self.machine.live_tasks())

    def __repr__(self) -> str:
        return (
            f"<SchedulerExecutor {self.scheduler.name} "
            f"cpus={len(self.machine.cpus)} live={self.live_count()} "
            f"picks={self.picks}>"
        )
