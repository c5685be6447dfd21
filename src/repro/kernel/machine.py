"""The simulated machine: CPUs, clock, events, run queue, and dispatch.

This is the substrate the paper's experiments run on.  It is a
discrete-event simulation of a small SMP (or uniprocessor) running the
Linux 2.3.99 scheduling regime:

* a 100 Hz timer tick per busy CPU decrements the running task's
  ``counter`` and forces a ``schedule()`` on quantum expiry;
* tasks block on channels/wait queues/timers and are woken with
  ``wake_up_process`` + ``reschedule_idle`` (idle CPUs dispatch
  immediately, busy CPUs get ``need_resched`` set when the waked task
  beats their current one on preemption goodness);
* on SMP builds a single global **runqueue lock** serialises every
  ``schedule()`` and every wakeup — time spent deciding is time other
  processors spend spinning, which is precisely why the stock O(n) scan
  hurts so much at high thread counts;
* every cycle charge flows through the machine's
  :class:`~repro.kernel.cost_model.CostModel`.

Scheduling policy itself is pluggable: the machine calls the
:class:`~repro.sched.base.Scheduler` interface and never looks inside
the run queue.
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING, Any, Optional

from .actions import (
    Action,
    ChannelGet,
    ChannelPut,
    CloseChannel,
    Exit,
    Run,
    Select,
    SleepFor,
    WaitOn,
    WakeUp,
    YieldCPU,
)
from .cost_model import CostModel
from .cpu import CPU
from .events import Event, EventKind, EventQueue
from .host import SchedHost
from .mm import MMStruct
from .params import (
    CYCLES_PER_TICK,
    DEFAULT_PRIORITY,
    MM_BONUS,
    PROC_CHANGE_PENALTY,
    RT_GOODNESS_BASE,
    seconds_to_cycles,
)
from .sync import Channel
from .task import SchedPolicy, Task, TaskState
from .waitqueue import WaitQueue
from ..obs.probe import (
    DispatchEvent,
    LockEvent,
    PreemptEvent,
    SyscallEvent,
    WakeupEvent,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..sched.base import Scheduler

__all__ = ["Machine", "KernelHandle", "RunSummary", "SimulationError"]

#: Bound once: a class attribute load on an Enum costs several times a
#: global load, and ``_reschedule_idle`` reads it once per busy CPU.
_OTHER = SchedPolicy.SCHED_OTHER


class SimulationError(RuntimeError):
    """The simulation reached an inconsistent state (a bug or a deadlock)."""


class RunSummary:
    """What :meth:`Machine.run` reports back.

    ``events_handled`` counts the events the loop popped and handled plus
    the Runs that finished in place, each of which stands for the
    ``ACTION_DONE`` event it did not need; the count is the same
    whichever way a Run finished.
    """

    __slots__ = (
        "cycles",
        "seconds",
        "events_handled",
        "tasks_total",
        "tasks_exited",
        "tasks_blocked",
        "deadlocked",
        "hit_horizon",
    )

    def __init__(self) -> None:
        self.cycles = 0
        self.seconds = 0.0
        self.events_handled = 0
        self.tasks_total = 0
        self.tasks_exited = 0
        self.tasks_blocked = 0
        self.deadlocked = False
        self.hit_horizon = False

    def __repr__(self) -> str:
        state = "deadlocked" if self.deadlocked else (
            "horizon" if self.hit_horizon else "drained"
        )
        return (
            f"<RunSummary {self.seconds:.3f}s {state} "
            f"exited={self.tasks_exited}/{self.tasks_total}>"
        )


class KernelHandle:
    """The ``env`` object task bodies receive: action constructors + info.

    Bodies should treat it as their only window into the kernel; it also
    powers composite primitives like
    :meth:`~repro.kernel.sync.SpinYieldLock.acquire`.
    """

    __slots__ = ("machine",)

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine

    # -- information ---------------------------------------------------------

    @property
    def now(self) -> int:
        """Current virtual time in cycles."""
        return self.machine.clock.now

    @property
    def seconds(self) -> float:
        return self.machine.clock.seconds

    @property
    def current(self) -> Task:
        """The task whose body is currently being advanced."""
        task = self.machine._advancing
        if task is None:
            raise SimulationError("env.current used outside a task body")
        return task

    # -- action constructors ---------------------------------------------------

    def run(
        self,
        cycles: Optional[int] = None,
        us: Optional[float] = None,
        seconds: Optional[float] = None,
    ) -> Run:
        """Compute for the given amount of time (exactly one unit given)."""
        if us is None and seconds is None and cycles is not None:
            return Run(cycles)
        given = [x for x in (cycles, us, seconds) if x is not None]
        if len(given) != 1:
            raise ValueError("run() takes exactly one of cycles=, us=, seconds=")
        secs = seconds if seconds is not None else us / 1e6
        return Run(max(1, seconds_to_cycles(secs)))

    def put(self, channel: Channel, item: Any) -> ChannelPut:
        return ChannelPut(channel, item)

    def get(self, channel: Channel) -> ChannelGet:
        return ChannelGet(channel)

    def sleep(self, seconds: float) -> SleepFor:
        return SleepFor(max(1, seconds_to_cycles(seconds)))

    def close(self, channel: Channel) -> CloseChannel:
        """Close a channel, waking parked readers so they see EOF."""
        return CloseChannel(channel)

    def select(self, channels: list) -> Select:
        """Block until any channel is readable; yields (channel, item)."""
        return Select(channels)

    def sched_yield(self) -> YieldCPU:
        return YieldCPU()

    def exit(self) -> Exit:
        return Exit()

    def wait_on(self, waitqueue: WaitQueue, exclusive: bool = False) -> WaitOn:
        return WaitOn(waitqueue, exclusive)

    def wake(self, waitqueue: WaitQueue, nr_exclusive: int = 1) -> WakeUp:
        return WakeUp(waitqueue, nr_exclusive)

    # -- task management ---------------------------------------------------------

    def spawn(self, body: Any, **kwargs: Any) -> Task:
        """Create and wake a new task (usable from inside bodies)."""
        return self.machine.spawn(body, **kwargs)


class Machine(SchedHost):
    """A simulated multiprocessor running one pluggable scheduler."""

    def __init__(
        self,
        scheduler: "Scheduler",
        num_cpus: int = 1,
        smp: bool = True,
        cost: Optional[CostModel] = None,
    ) -> None:
        if not smp and num_cpus > 1:
            raise ValueError("a UP (non-SMP) build has exactly one CPU")
        super().__init__(scheduler, num_cpus, smp, cost)
        self.events = EventQueue()
        self.handle = KernelHandle(self)
        self._advancing: Optional[Task] = None
        self.total_ticks = 0
        #: The current :meth:`run`'s horizon, handled-event count and
        #: event budget, kept here for the in-place Run path, which only
        #: the event handlers ``run()`` calls may take.
        self._horizon: float = -1
        self._handled = 0
        self._max_events = 0
        #: Prebound deferred-dispatch callbacks, one pair per CPU, so the
        #: defer/resume hot paths schedule events without allocating a
        #: fresh ``partial`` each time.
        self._defer_cbs = [
            partial(Machine._deferred_dispatch_cb, cpu=cpu) for cpu in self.cpus
        ]
        self._resume_cbs = [
            partial(Machine._resume_dispatch_cb, cpu=cpu) for cpu in self.cpus
        ]

    # -- task population -----------------------------------------------------

    def spawn(
        self,
        body: Any,
        name: str = "",
        mm: Optional[MMStruct] = None,
        priority: int = DEFAULT_PRIORITY,
        policy: SchedPolicy = SchedPolicy.SCHED_OTHER,
        rt_priority: int = 0,
    ) -> Task:
        """Create a task, start its body, and make it runnable."""
        task = Task(
            name=name,
            mm=mm,
            priority=priority,
            policy=policy,
            rt_priority=rt_priority,
            body=body,
        )
        task.start(self.handle)
        self._fork(task)
        self.wake_up_process(task, self.clock.now)
        return task

    def all_tasks(self) -> list[Task]:
        """Every task ever created on this machine, zombies included."""
        return list(self._tasks.values())

    def find_task(self, name: str) -> Optional[Task]:
        """First task with the given name, or None."""
        for task in self._tasks.values():
            if task.name == name:
                return task
        return None

    # -- wakeup path -----------------------------------------------------------

    def wake_up_process(
        self, task: Task, t: int, waker_cpu: Optional[CPU] = None
    ) -> int:
        """Make ``task`` runnable; returns the cycle cost charged to the waker.

        ``waker_cpu`` is the CPU whose context performs the wakeup (None
        for interrupt/timer context); spin time on the runqueue lock is
        only charged when the lock is held by a *different* CPU.
        """
        if not self._wake(task):
            return 0
        probes = self.probes
        charge = self.cost.wakeup_cost
        # The wakeup manipulates the run queue under the global lock.
        if self.smp:
            waker_id = waker_cpu.cpu_id if waker_cpu is not None else None
            spin = 0
            if (
                self.scheduler.uses_global_lock
                and self.lock_free_at > t
                and self.lock_owner_cpu is not None
                and self.lock_owner_cpu != waker_id
            ):
                spin = self.lock_free_at - t
            charge += spin + self.cost.lock_acquire
            self.scheduler.stats.lock_spin_cycles += spin
            insert = self.scheduler.add_to_runqueue(task)
            charge += insert
            self.lock_free_at = t + spin + self.cost.lock_acquire + insert
            self.lock_owner_cpu = waker_id
            waker = waker_id if waker_id is not None else -1
            if probes.lock and (spin or self.cost.lock_acquire):
                probes.emit_lock(
                    LockEvent(t, waker, task, spin, self.cost.lock_acquire)
                )
            if probes.wakeup:
                probes.emit_wakeup(
                    WakeupEvent(
                        t, waker, waker, task,
                        self.cost.wakeup_cost + insert, spin,
                    )
                )
        else:
            insert = self.scheduler.add_to_runqueue(task)
            charge += insert
            if probes.wakeup:
                waker = waker_cpu.cpu_id if waker_cpu is not None else -1
                probes.emit_wakeup(
                    WakeupEvent(
                        t, waker, 0, task, self.cost.wakeup_cost + insert, 0
                    )
                )
        self._reschedule_idle(task, t + charge)
        return charge

    def _reschedule_idle(self, task: Task, t: int) -> None:
        """Find a CPU for a freshly woken task (kernel ``reschedule_idle``).

        Preference order: the CPU the task last ran on if idle, any idle
        CPU, else set ``need_resched`` on the lowest-numbered CPU whose
        current task the waked one beats by the widest positive
        ``preemption_goodness(task, cpu.current, cpu)`` margin.  The margin
        is ``goodness()``'s arithmetic written out inline (the waked task's
        static part once, each CPU's bonuses in the loop);
        ``tests/kernel/test_reschedule_idle.py`` pins it to
        :mod:`repro.sched.goodness`.
        """
        cpus = self.cpus
        processor = task.processor
        # Last-run CPU, if idle.
        if 0 <= processor < len(cpus):
            home = cpus[processor]
            if home.current is home.idle_task and not home.dispatch_pending and not home.offline:
                self._defer_dispatch(home, t)
                return
        # Any idle CPU.
        for cpu in cpus:
            if cpu.current is cpu.idle_task and not cpu.dispatch_pending and not cpu.offline:
                self._defer_dispatch(cpu, t)
                return
        # Preempt the weakest current task, if the waked task beats it.
        # goodness(): a real-time task scores 1000 + rt_priority, an
        # exhausted one 0, any other counter + priority plus its bonuses.
        bonused = False
        if task.policy is not _OTHER:
            static = RT_GOODNESS_BASE + task.rt_priority
        elif task.counter == 0:
            static = 0
        else:
            static = task.counter + task.priority
            bonused = True
        mm = task.mm
        best_cpu: Optional[CPU] = None
        best_margin = 0
        for cpu in cpus:
            if cpu.offline:
                continue
            cur = cpu.current
            cpu_id = cpu.cpu_id
            margin = static
            if bonused:
                if mm is not None and mm is cur.mm:
                    margin += MM_BONUS
                if processor == cpu_id:
                    margin += PROC_CHANGE_PENALTY
            if cur.policy is not _OTHER:
                margin -= RT_GOODNESS_BASE + cur.rt_priority
            elif cur.counter != 0:
                margin -= cur.counter + cur.priority
                if cur.mm is not None:
                    margin -= MM_BONUS  # it shares its own mm
                if cur.processor == cpu_id:
                    margin -= PROC_CHANGE_PENALTY
            if margin > best_margin:
                best_margin = margin
                best_cpu = cpu
        if best_cpu is not None:
            best_cpu.need_resched = True

    def _defer_dispatch(self, cpu: CPU, t: int) -> None:
        """Queue an idle CPU's dispatch as an event (avoids deep recursion)."""
        cpu.dispatch_pending = True
        self.events.schedule(
            max(t, self.clock.now),
            EventKind.CALLBACK,
            self._defer_cbs[cpu.cpu_id],
        )

    @staticmethod
    def _deferred_dispatch_cb(machine: "Machine", event: Event, cpu: CPU) -> None:
        cpu.dispatch_pending = False
        if cpu.is_idle() and not cpu.offline:
            machine._dispatch(cpu, machine.clock.now, in_place=True)

    @staticmethod
    def _resume_dispatch_cb(machine: "Machine", event: Event, cpu: CPU) -> None:
        """Continue a dispatch that was deferred to preserve event order."""
        if cpu.run_event is None and not cpu.offline:
            machine._dispatch(cpu, machine.clock.now, in_place=True)

    # -- the dispatch loop --------------------------------------------------------

    def _stop_current_run(self, cpu: CPU, at: int) -> None:
        """Halt an in-flight Run on ``cpu`` (preemption), banking progress."""
        if cpu.run_event is None:
            return
        cpu.cancel_run_event()
        task = cpu.current
        action = task.current_action
        if not isinstance(action, Run):
            raise SimulationError(f"run event without a Run action on {cpu!r}")
        consumed = max(0, at - cpu.run_started_at)
        consumed = min(consumed, action.remaining)
        action.remaining -= consumed
        task.cpu_cycles += consumed
        cpu.busy_cycles += consumed
        if action.remaining <= 0:
            task.current_action = None

    def _finish_run(self, cpu: CPU, task: Task, action: Run) -> None:
        """Bank the rest of ``task``'s Run on ``cpu`` and retire the Run;
        a Run finished in place and one finished at its ACTION_DONE event
        both end here."""
        cycles = action.remaining
        task.cpu_cycles += cycles
        cpu.busy_cycles += cycles
        action.remaining = 0
        task.current_action = None

    def _dispatch(self, cpu: CPU, at: int, in_place: bool = False) -> None:
        """Run ``schedule()`` on ``cpu`` (and keep dispatching while tasks
        perform only instantaneous work before blocking again).

        ``in_place`` is passed on to :meth:`_advance_task`, under the
        same rule: only a caller that returns straight to the event loop
        may pass it.
        """
        if cpu.offline:
            return  # chaos: a stalled/offlined CPU dispatches nothing
        at = max(at, self.clock.now)
        self._stop_current_run(cpu, at)
        if cpu.is_idle():
            cpu.idle_cycles += max(0, at - cpu.idle_since)
        while True:
            cpu.need_resched = False
            prev = cpu.current
            # -- runqueue lock ------------------------------------------------
            spin = 0
            hold = 0
            start = at
            if self.smp:
                if (
                    self.scheduler.uses_global_lock
                    and self.lock_free_at > at
                    and self.lock_owner_cpu != cpu.cpu_id
                ):
                    start = self.lock_free_at
                    spin = start - at
                hold = self.cost.lock_acquire
            decision = self.scheduler.schedule(prev, cpu)
            dec_end = start + hold + decision.cost
            if self.smp:
                self.lock_free_at = dec_end
                self.lock_owner_cpu = cpu.cpu_id
            self.scheduler.stats.lock_spin_cycles += spin
            probes = self.probes
            if probes.lock and (spin or hold):
                probes.emit_lock(LockEvent(at, cpu.cpu_id, prev, spin, hold))
            # -- context switch ------------------------------------------------
            end = self._switch(cpu, prev, decision, at, start, dec_end)
            next_task = decision.next_task
            self._commit(cpu, prev, next_task)
            if next_task is None:
                # Idle: the CPU is parked; wakeups restart it.
                cpu.idle_since = end
                cpu.cancel_tick()
                return
            self._arm_tick(cpu, end)
            handled = self._handled
            resume_at = self._advance_task(cpu, end, in_place)
            if resume_at is None:
                return  # a Run is in flight (or the task parked an event)
            at = max(resume_at, self.clock.now)
            if self._handled != handled:
                # A Run finished in place, so this is where its ACTION_DONE
                # handler would have entered a fresh dispatch: no check.
                continue
            # Keep event causality: if this CPU's virtual time has run past
            # the next pending event, hand control back to the event loop
            # and resume the dispatch as an event of its own.
            next_event = self.events.peek_time()
            if next_event is not None and at > next_event:
                self.events.schedule(
                    at,
                    EventKind.CALLBACK,
                    self._resume_cbs[cpu.cpu_id],
                )
                return

    # -- advancing a task's body ------------------------------------------------

    def _advance_task(
        self, cpu: CPU, t: int, in_place: bool = False
    ) -> Optional[int]:
        """Drive ``cpu.current`` through its actions starting at time ``t``.

        Returns ``None`` when the task is left computing (an ACTION_DONE
        event is armed) — or the time at which the CPU must re-enter the
        scheduler (task blocked, yielded, or exited).

        With ``in_place``, a Run that ends strictly before every queued
        event (:meth:`EventQueue.precedes_all`), and not past :meth:`run`'s
        horizon, finishes here instead: its ACTION_DONE event would be the
        next one handled, so the clock advances to its end, it counts as a
        handled event, its cycles are banked and the body steps on, in the
        order that event's handler would have followed.  A Run ending at
        the same cycle as a queued event takes the event path, because the
        older event goes first.  Only a caller that returns straight to the
        event loop may pass ``in_place``: whatever else it did after this
        call would see the clock past the Run's end.
        """
        task = cpu.current
        if task is cpu.idle_task:
            raise SimulationError("advancing the idle task")
        probes = self.probes
        syscall = self.cost.syscall_overhead
        if self.smp:
            syscall += self.cost.smp_syscall_tax
        while True:
            if cpu.need_resched:
                return t  # preempted at an action boundary
            action = task.current_action
            if action is None:
                # Step the body one yield.  ``env.current`` names the task
                # only while its body runs: not on the exit path, and not
                # after the body raises.
                assert task.gen is not None, f"{task.name} has no generator"
                value, task.send_value = task.send_value, None
                self._advancing = task
                try:
                    action = task.gen.send(value)
                except StopIteration:
                    self._advancing = None
                    return self._do_exit(task, t)  # the body returned
                finally:
                    self._advancing = None
                task.current_action = action
            # -- dispatch on the exact action type, most frequent first -------
            kind = type(action)
            if kind is Run:
                if task.cache_cold:
                    action.remaining += self.cost.cache_refill
                    task.cache_cold = False
                    if probes.dispatch:
                        probes.emit_dispatch(
                            DispatchEvent(
                                t, cpu.cpu_id, task, self.cost.cache_refill
                            )
                        )
                end = t + action.remaining
                if in_place and end <= self._horizon and self.events.precedes_all(end):
                    self.clock.advance_to(end)
                    self._handled += 1
                    if self._handled > self._max_events:
                        raise SimulationError(f"exceeded {self._max_events} events — runaway?")
                    self._finish_run(cpu, task, action)
                    t = end
                    continue
                cpu.run_started_at = t
                cpu.run_event = self.events.schedule(
                    end, EventKind.ACTION_DONE, cpu
                )
                return None
            if kind is ChannelGet:
                t += syscall
                chan = action.channel
                ok, item = chan.try_get()
                if ok:
                    task.current_action = None
                    task.send_value = item
                    for waiter in chan.writers.collect_wakeable(1):
                        t += self.wake_up_process(waiter, t, cpu)
                    continue
                chan.readers.add(task, exclusive=True)
                task.state = TaskState.INTERRUPTIBLE
                if probes.syscall:
                    probes.emit_syscall(
                        SyscallEvent(
                            t, cpu.cpu_id, task, "block", f"get {chan.name}"
                        )
                    )
                return t
            if kind is ChannelPut:
                t += syscall
                chan = action.channel
                if chan.try_put(action.item):
                    task.current_action = None
                    for waiter in chan.readers.collect_wakeable(1):
                        t += self.wake_up_process(waiter, t, cpu)
                    continue
                chan.writers.add(task, exclusive=True)
                task.state = TaskState.INTERRUPTIBLE
                if probes.syscall:
                    probes.emit_syscall(
                        SyscallEvent(
                            t, cpu.cpu_id, task, "block", f"put {chan.name}"
                        )
                    )
                return t  # retries the same action when woken
            if kind is YieldCPU:
                t += syscall
                task.current_action = None
                task.yield_count += 1
                if probes.syscall:
                    probes.emit_syscall(
                        SyscallEvent(t, cpu.cpu_id, task, "yield")
                    )
                if task.policy is SchedPolicy.SCHED_OTHER:
                    task.yield_pending = True
                else:
                    # sys_sched_yield for RT: go to the back of the line.
                    self.scheduler.move_last_runqueue(task)
                return t
            if kind is SleepFor:
                t += syscall
                task.current_action = None
                task.state = TaskState.INTERRUPTIBLE
                self.events.schedule(t + action.cycles, EventKind.TIMER, task)
                if probes.syscall:
                    probes.emit_syscall(
                        SyscallEvent(t, cpu.cpu_id, task, "block", "sleep")
                    )
                return t
            if kind is Select:
                t += syscall
                # A retry after a wakeup may still be parked on sibling
                # queues; clear them before re-checking.
                for chan in action.channels:
                    chan.readers.remove(task)
                ready = None
                for chan in action.channels:
                    if len(chan) or chan.closed:
                        ready = chan
                        break
                if ready is not None:
                    ok, item = ready.try_get()
                    assert ok, "select raced itself"
                    task.current_action = None
                    task.send_value = (ready, item)
                    for waiter in ready.writers.collect_wakeable(1):
                        t += self.wake_up_process(waiter, t, cpu)
                    continue
                for chan in action.channels:
                    chan.readers.add_multi(task, exclusive=True)
                task.state = TaskState.INTERRUPTIBLE
                if probes.syscall:
                    probes.emit_syscall(
                        SyscallEvent(
                            t, cpu.cpu_id, task, "block",
                            f"select x{len(action.channels)}",
                        )
                    )
                return t
            if kind is WaitOn:
                t += syscall
                task.current_action = None
                action.waitqueue.add(task, exclusive=action.exclusive)
                task.state = TaskState.INTERRUPTIBLE
                if probes.syscall:
                    probes.emit_syscall(
                        SyscallEvent(
                            t, cpu.cpu_id, task, "block",
                            f"wait {action.waitqueue.name}",
                        )
                    )
                return t
            if kind is WakeUp:
                t += syscall
                task.current_action = None
                for waiter in action.waitqueue.collect_wakeable(action.nr_exclusive):
                    t += self.wake_up_process(waiter, t, cpu)
                continue
            if kind is CloseChannel:
                t += syscall
                task.current_action = None
                chan = action.channel
                chan.close()
                # EOF is a broadcast condition: wake every parked reader
                # (exclusive gets and multi-parked selects alike) so each
                # retry observes CLOSED instead of sleeping forever.
                for waiter in chan.readers.collect_wakeable(0):
                    t += self.wake_up_process(waiter, t, cpu)
                continue
            if kind is Exit:
                return self._do_exit(task, t)
            if not isinstance(action, Action):
                raise SimulationError(
                    f"{task.name} yielded {action!r}, which is not an Action"
                )
            # Dispatch is on the exact type: an Action subclass is unknown.
            raise SimulationError(f"{task.name} yielded unknown action {action!r}")

    def _do_exit(self, task: Task, t: int) -> int:
        self._exit(task)
        if self.probes.syscall:
            cpu_id = task.processor if task.processor >= 0 else -1
            self.probes.emit_syscall(SyscallEvent(t, cpu_id, task, "exit"))
        return t

    # -- timer ticks ----------------------------------------------------------------

    def _arm_tick(self, cpu: CPU, t: int) -> None:
        if cpu.tick_event is None:
            cpu.tick_event = self.events.schedule(
                t + CYCLES_PER_TICK, EventKind.TICK, cpu
            )

    def _handle_tick(self, cpu: CPU, t: int) -> None:
        cpu.tick_event = None
        if cpu.is_idle() or cpu.offline:
            return  # tick chain dies; re-armed at next dispatch
        self.total_ticks += 1
        task = cpu.current
        if self._tick(task):
            cpu.need_resched = True
        if cpu.need_resched:
            self.scheduler.stats.preemptions += 1
            if self.probes.sched:
                self.probes.emit_sched(
                    PreemptEvent(t, cpu.cpu_id, task, task.counter)
                )
            self._dispatch(cpu, t, in_place=True)
            return
        cpu.tick_event = self.events.schedule(
            t + CYCLES_PER_TICK, EventKind.TICK, cpu
        )

    # -- the event loop -----------------------------------------------------------------

    def run(
        self,
        until_seconds: Optional[float] = None,
        until_cycles: Optional[int] = None,
        max_events: int = 200_000_000,
    ) -> RunSummary:
        """Drive the simulation until the event queue drains or a horizon.

        The queue drains when every task has exited (tick chains die with
        idle CPUs).  A drained queue with live blocked tasks is a
        deadlock, reported in the summary.  ``until_seconds`` and
        ``until_cycles`` each set a horizon, 0 included; the tighter one
        wins, and a run that reaches it stops with the clock exactly
        there.
        """
        horizon: Optional[int] = None
        if until_seconds is not None:
            horizon = seconds_to_cycles(until_seconds)
        if until_cycles is not None:
            horizon = until_cycles if horizon is None else min(horizon, until_cycles)
        summary = RunSummary()
        self._horizon = math.inf if horizon is None else horizon
        self._handled, self._max_events = 0, max_events
        while True:
            event = self.events.pop()
            if event is None:
                break
            if horizon is not None and event.time > horizon:
                self.clock.advance_to(horizon)
                summary.hit_horizon = True
                break
            self.clock.advance_to(event.time)
            self._handled += 1
            if self._handled > max_events:
                raise SimulationError(f"exceeded {max_events} events — runaway?")
            kind = event.kind
            if kind is EventKind.ACTION_DONE:
                self._handle_action_done(event.payload, event.time)
            elif kind is EventKind.TICK:
                self._handle_tick(event.payload, event.time)
            elif kind is EventKind.TIMER:
                task = event.payload
                node = task.wait_node
                if node is not None:
                    # Stale timer: a spurious (fault-injected) wake ended
                    # this task's sleep early and it has since parked on a
                    # wait queue.  A real kernel would have cancelled the
                    # timer; absent a back-reference to cancel through,
                    # treat the firing as one more spurious wake — unlink
                    # first so the waker-dequeues discipline holds and the
                    # blocking action retries.  Unreachable without fault
                    # injection: a sleeping task is never queue-parked.
                    queue = getattr(node, "queue", None)
                    if queue is not None:
                        queue.remove(task)
                    else:
                        task.wait_node = None
                self.wake_up_process(task, event.time)
            elif kind is EventKind.CALLBACK:
                event.payload(self, event)
            elif kind is EventKind.HALT:
                break
            else:  # pragma: no cover - enum is closed
                raise SimulationError(f"unhandled event kind {kind}")
        # Read boundary: drain any batched probe deliveries so observers
        # (metrics, profiles) are exact before anyone snapshots them.
        if self.probes:
            self.probes.flush()
        summary.cycles = self.clock.now
        summary.seconds = self.clock.seconds
        summary.events_handled = self._handled
        summary.tasks_total = len(self._tasks)
        summary.tasks_exited = sum(1 for t in self._tasks.values() if t.exited)
        summary.tasks_blocked = sum(
            1
            for t in self._tasks.values()
            if not t.exited and t.state is not TaskState.RUNNING
        )
        summary.deadlocked = (
            not summary.hit_horizon and summary.tasks_exited < summary.tasks_total
        )
        return summary

    def _handle_action_done(self, cpu: CPU, t: int) -> None:
        cpu.run_event = None
        task = cpu.current
        action = task.current_action
        if not isinstance(action, Run):
            raise SimulationError(
                f"ACTION_DONE for {task.name} whose action is {action!r}"
            )
        self._finish_run(cpu, task, action)
        # Both calls return straight to the event loop, so Runs may finish
        # in place (``in_place`` passed by position on this hot path).
        resume_at = self._advance_task(cpu, t, True)
        if resume_at is not None:
            self._dispatch(cpu, resume_at, True)

    # -- reporting helpers -------------------------------------------------------

    def busy_fraction(self) -> float:
        """Fraction of total CPU-time spent non-idle."""
        total = self.clock.now * len(self.cpus)
        if total == 0:
            return 0.0
        idle = sum(cpu.idle_cycles for cpu in self.cpus)
        return max(0.0, 1.0 - idle / total)

    def scheduler_fraction(self) -> float:
        """Scheduler (plus lock spin) share of non-idle CPU-time.

        The statistic behind the paper's "37–55 % of kernel time in the
        scheduler" observation.
        """
        total = self.clock.now * len(self.cpus)
        idle = sum(cpu.idle_cycles for cpu in self.cpus)
        busy = total - idle
        if busy <= 0:
            return 0.0
        return min(1.0, self.scheduler.stats.total_scheduler_cycles() / busy)

    def __repr__(self) -> str:
        return (
            f"<Machine {len(self.cpus)}cpu {'smp' if self.smp else 'up'} "
            f"sched={self.scheduler.name} t={self.clock.seconds:.4f}s>"
        )
