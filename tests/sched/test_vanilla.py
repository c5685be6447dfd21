"""Behavioural tests for the stock 2.3.99 scheduler (paper section 3)."""

from __future__ import annotations

import pytest

from repro import Machine, Task, VanillaScheduler
from repro.kernel.mm import MMStruct
from repro.kernel.task import SchedPolicy
from repro.sched.goodness import goodness
from tests.conftest import attach


def rig(num_cpus=1, smp=False):
    sched = VanillaScheduler()
    machine = Machine(sched, num_cpus=num_cpus, smp=smp)
    return sched, machine


def queued_task(machine, sched, name="t", priority=20, counter=None, **kw):
    task = Task(name=name, priority=priority, **kw)
    if counter is not None:
        task.counter = counter
    attach(machine, task)
    sched.add_to_runqueue(task)
    return task


class TestRunqueueOps:
    def test_add_puts_new_tasks_at_front(self):
        sched, machine = rig()
        a = queued_task(machine, sched, "a")
        b = queued_task(machine, sched, "b")
        assert sched.runqueue_tasks() == [b, a]

    def test_double_add_rejected(self):
        sched, machine = rig()
        a = queued_task(machine, sched, "a")
        with pytest.raises(RuntimeError):
            sched.add_to_runqueue(a)

    def test_del_marks_off_queue(self):
        sched, machine = rig()
        a = queued_task(machine, sched, "a")
        sched.del_from_runqueue(a)
        assert not a.on_runqueue()
        assert sched.runqueue_len() == 0

    def test_del_missing_is_noop(self):
        sched, machine = rig()
        t = Task()
        assert sched.del_from_runqueue(t) == 0

    def test_move_first_and_last(self):
        sched, machine = rig()
        a = queued_task(machine, sched, "a")
        b = queued_task(machine, sched, "b")
        c = queued_task(machine, sched, "c")
        sched.move_first_runqueue(a)
        assert sched.runqueue_tasks()[0] is a
        sched.move_last_runqueue(a)
        assert sched.runqueue_tasks()[-1] is a
        assert sched.runqueue_len() == 3


class TestSelection:
    def test_picks_highest_goodness(self):
        sched, machine = rig()
        cpu = machine.cpus[0]
        low = queued_task(machine, sched, "low", priority=10)
        high = queued_task(machine, sched, "high", priority=40)
        decision = sched.schedule(cpu.idle_task, cpu)
        assert decision.next_task is high
        assert decision.examined == 2

    def test_front_of_list_wins_ties(self):
        # "When the scheduler finds two equivalent tasks, the one closer
        # to the front of the list is chosen."
        sched, machine = rig()
        cpu = machine.cpus[0]
        queued_task(machine, sched, "older")
        newer = queued_task(machine, sched, "newer")
        decision = sched.schedule(cpu.idle_task, cpu)
        assert decision.next_task is newer

    def test_empty_queue_schedules_idle_not_recalc(self):
        # Footnote 1: "An empty run queue will schedule the idle task
        # rather than trigger the recalculation."
        sched, machine = rig()
        cpu = machine.cpus[0]
        decision = sched.schedule(cpu.idle_task, cpu)
        assert decision.next_task is None
        assert decision.recalcs == 0
        assert sched.stats.idle_schedules == 0  # machine-side counter

    def test_skips_tasks_running_elsewhere(self):
        sched, machine = rig(num_cpus=2, smp=True)
        cpu = machine.cpus[0]
        busy = queued_task(machine, sched, "busy", priority=40)
        busy.has_cpu = True
        busy.processor = 1
        free = queued_task(machine, sched, "free", priority=10)
        decision = sched.schedule(cpu.idle_task, cpu)
        assert decision.next_task is free

    def test_realtime_beats_any_other(self):
        sched, machine = rig()
        cpu = machine.cpus[0]
        queued_task(machine, sched, "other", priority=40, counter=80)
        rt = Task(
            name="rt", policy=SchedPolicy.SCHED_FIFO, rt_priority=1, priority=1
        )
        rt.counter = 0  # even exhausted
        attach(machine, rt)
        sched.add_to_runqueue(rt)
        decision = sched.schedule(cpu.idle_task, cpu)
        assert decision.next_task is rt

    def test_mm_bonus_breaks_near_tie(self):
        sched, machine = rig()
        cpu = machine.cpus[0]
        mm = MMStruct()
        prev = Task(name="prev", mm=mm)
        prev.state = prev.state  # runnable
        attach(machine, prev)
        sched.add_to_runqueue(prev)
        prev.has_cpu = True  # it is the one calling schedule()

        stranger = queued_task(machine, sched, "stranger")
        sibling = Task(name="sibling", mm=mm)
        attach(machine, sibling)
        sched.add_to_runqueue(sibling)
        # stranger was queued first; sibling's +1 mm bonus beats it, but
        # prev earns the same +1 for its own mm, and a scanned task must
        # strictly beat prev: the exact tie keeps prev.
        decision = sched.schedule(prev, cpu)
        assert decision.next_task is prev


class TestRecalculation:
    def test_all_zero_counters_trigger_recalc(self):
        sched, machine = rig()
        cpu = machine.cpus[0]
        a = queued_task(machine, sched, "a", counter=0)
        b = queued_task(machine, sched, "b", counter=0)
        decision = sched.schedule(cpu.idle_task, cpu)
        assert decision.recalcs == 1
        assert sched.stats.recalc_entries == 1
        # counter = counter//2 + priority
        assert a.counter == a.priority
        assert b.counter == b.priority
        assert decision.next_task in (a, b)

    def test_recalc_updates_blocked_tasks_too(self):
        # "recalculating the counter values of all tasks in the system
        # (runnable or otherwise)"
        sched, machine = rig()
        cpu = machine.cpus[0]
        queued_task(machine, sched, "runnable", counter=0)
        blocked = Task(name="blocked", priority=30)
        blocked.counter = 4
        from repro.kernel.task import TaskState

        blocked.state = TaskState.INTERRUPTIBLE
        attach(machine, blocked)  # in the system, not on the queue
        sched.schedule(cpu.idle_task, cpu)
        assert blocked.counter == 4 // 2 + 30

    def test_lone_yielder_causes_recalc_then_reruns(self):
        """Section 5.2's complaint about the stock scheduler."""
        sched, machine = rig()
        cpu = machine.cpus[0]
        prev = queued_task(machine, sched, "prev")
        prev.has_cpu = True
        prev.yield_pending = True
        decision = sched.schedule(prev, cpu)
        assert decision.recalcs == 1  # the wasteful whole-system loop
        assert decision.next_task is prev  # then it reruns anyway
        assert not prev.yield_pending  # bit consumed

    def test_yield_with_alternative_runs_other_task(self):
        sched, machine = rig()
        cpu = machine.cpus[0]
        other = queued_task(machine, sched, "other")
        prev = queued_task(machine, sched, "prev", priority=40)
        prev.has_cpu = True
        prev.yield_pending = True
        decision = sched.schedule(prev, cpu)
        assert decision.next_task is other
        assert decision.recalcs == 0

    def test_recalc_cost_charged_per_system_task(self):
        sched, machine = rig()
        cpu = machine.cpus[0]
        for i in range(5):
            queued_task(machine, sched, f"t{i}", counter=0)
        before = sched.stats.scheduler_cycles
        sched.schedule(cpu.idle_task, cpu)
        charged = sched.stats.scheduler_cycles - before
        assert charged >= machine.cost.recalc_cost(5)


class TestRoundRobin:
    def test_exhausted_rr_task_refilled_and_rotated(self):
        sched, machine = rig()
        cpu = machine.cpus[0]
        rr = Task(name="rr", policy=SchedPolicy.SCHED_RR, rt_priority=10)
        rr.counter = 0
        attach(machine, rr)
        sched.add_to_runqueue(rr)
        rr.has_cpu = True
        other_rt = Task(
            name="other", policy=SchedPolicy.SCHED_RR, rt_priority=10
        )
        attach(machine, other_rt)
        sched.add_to_runqueue(other_rt)
        decision = sched.schedule(rr, cpu)
        assert rr.counter == rr.priority  # fresh quantum
        # Rotated to the back of the queue…
        assert sched.runqueue_tasks()[-1] is rr
        # …but the kernel's tie rule still keeps prev as the initial
        # candidate, so on an exact rt_priority tie prev is retained.
        assert decision.next_task is rr

    def test_rotated_rr_task_loses_once_off_cpu(self):
        """The rotation takes effect as soon as the task is not prev."""
        sched, machine = rig()
        cpu = machine.cpus[0]
        rr = Task(name="rr", policy=SchedPolicy.SCHED_RR, rt_priority=10)
        rr.counter = 0
        attach(machine, rr)
        sched.add_to_runqueue(rr)
        rr.has_cpu = True
        other_rt = Task(
            name="other", policy=SchedPolicy.SCHED_RR, rt_priority=10
        )
        attach(machine, other_rt)
        sched.add_to_runqueue(other_rt)
        sched.schedule(rr, cpu)  # rotates rr to the back
        rr.has_cpu = False
        # A different caller now scans: the front task (other) wins the tie.
        decision = sched.schedule(cpu.idle_task, cpu)
        assert decision.next_task is other_rt


class TestBlockedPrev:
    def test_blocked_prev_leaves_queue(self):
        from repro.kernel.task import TaskState

        sched, machine = rig()
        cpu = machine.cpus[0]
        prev = queued_task(machine, sched, "prev")
        prev.has_cpu = True
        prev.state = TaskState.INTERRUPTIBLE
        decision = sched.schedule(prev, cpu)
        assert not prev.on_runqueue()
        assert decision.next_task is None  # nothing else to run

    def test_examined_counts_scan_work(self):
        sched, machine = rig()
        cpu = machine.cpus[0]
        for i in range(10):
            queued_task(machine, sched, f"t{i}")
        decision = sched.schedule(cpu.idle_task, cpu)
        assert decision.examined == 10
        assert sched.stats.tasks_examined == 10


class TestInlineGoodnessMatchesFunction:
    def test_goodness_inline_matches(self):
        """The vanilla scan inlines goodness() for speed; the two
        implementations must agree on every field combination."""
        sched, machine = rig(num_cpus=2, smp=True)
        cpu = machine.cpus[0]
        mm = MMStruct()
        combos = []
        for policy, rt in ((SchedPolicy.SCHED_OTHER, 0), (SchedPolicy.SCHED_FIFO, 55)):
            for counter in (0, 7):
                for task_mm in (None, mm):
                    for processor in (-1, 0, 1):
                        task = Task(policy=policy, rt_priority=rt, mm=task_mm)
                        task.counter = counter
                        task.processor = processor
                        combos.append(task)
        for task in combos:
            attach(machine, task)
            sched.add_to_runqueue(task)
        prev = Task(name="prev", mm=mm)
        attach(machine, prev)
        sched.add_to_runqueue(prev)
        prev.has_cpu = True
        decision = sched.schedule(prev, cpu)
        # The scan must have selected the argmax of the reference goodness().
        best = max(
            (t for t in combos if not t.has_cpu),
            key=lambda t: goodness(t, cpu.cpu_id, prev.mm),
        )
        assert goodness(decision.next_task, cpu.cpu_id, prev.mm) == goodness(
            best, cpu.cpu_id, prev.mm
        )
