"""Tests for the future-work schedulers: heap, multi-queue, O(1)."""

from __future__ import annotations

import pytest

from repro import (
    Channel,
    HeapScheduler,
    Machine,
    MultiQueueScheduler,
    O1Scheduler,
    Task,
)
from repro.kernel.task import SchedPolicy, TaskState
from repro.workloads.synthetic import fanout_broadcast, pingpong_pairs, yield_storm
from tests.conftest import attach

ALT_FACTORIES = [HeapScheduler, MultiQueueScheduler, O1Scheduler]


@pytest.fixture(params=ALT_FACTORIES, ids=lambda f: f.name)
def alt_factory(request):
    return request.param


class TestBasicContract:
    def test_add_del_roundtrip(self, alt_factory):
        sched = alt_factory()
        machine = Machine(sched, num_cpus=2, smp=True)
        task = Task(name="t")
        attach(machine, task)
        sched.add_to_runqueue(task)
        assert task.on_runqueue()
        assert sched.runqueue_len() == 1
        sched.del_from_runqueue(task)
        assert not task.on_runqueue()
        assert sched.runqueue_len() == 0

    def test_double_add_rejected(self, alt_factory):
        sched = alt_factory()
        machine = Machine(sched, num_cpus=1, smp=True)
        task = Task()
        attach(machine, task)
        sched.add_to_runqueue(task)
        with pytest.raises(RuntimeError):
            sched.add_to_runqueue(task)

    def test_schedule_picks_queued_task(self, alt_factory):
        sched = alt_factory()
        machine = Machine(sched, num_cpus=1, smp=True)
        cpu = machine.cpus[0]
        task = Task(name="only")
        attach(machine, task)
        sched.add_to_runqueue(task)
        decision = sched.schedule(cpu.idle_task, cpu)
        assert decision.next_task is task
        assert task.on_runqueue()  # running-marker convention

    def test_empty_schedule_idles(self, alt_factory):
        sched = alt_factory()
        machine = Machine(sched, num_cpus=1, smp=True)
        cpu = machine.cpus[0]
        assert sched.schedule(cpu.idle_task, cpu).next_task is None

    def test_blocked_prev_removed(self, alt_factory):
        sched = alt_factory()
        machine = Machine(sched, num_cpus=1, smp=True)
        cpu = machine.cpus[0]
        prev = Task(name="prev")
        attach(machine, prev)
        sched.add_to_runqueue(prev)
        sched.schedule(cpu.idle_task, cpu)
        prev.has_cpu = True
        prev.state = TaskState.INTERRUPTIBLE
        decision = sched.schedule(prev, cpu)
        assert decision.next_task is None
        assert not prev.on_runqueue()

    def test_rt_priority_ordering(self, alt_factory):
        sched = alt_factory()
        machine = Machine(sched, num_cpus=1, smp=True)
        cpu = machine.cpus[0]
        low = Task(name="low", policy=SchedPolicy.SCHED_FIFO, rt_priority=10)
        high = Task(name="high", policy=SchedPolicy.SCHED_FIFO, rt_priority=90)
        other = Task(name="other", priority=40)
        for t in (other, low, high):
            attach(machine, t)
            sched.add_to_runqueue(t)
        decision = sched.schedule(cpu.idle_task, cpu)
        assert decision.next_task is high


class TestEndToEnd:
    def test_pingpong_completes(self, alt_factory):
        machine = Machine(alt_factory(), num_cpus=1, smp=True)
        counters = pingpong_pairs(machine, pairs=4, rounds=20)
        summary = machine.run()
        assert not summary.deadlocked
        assert counters.messages == 4 * 20

    def test_fanout_completes_on_smp(self, alt_factory):
        machine = Machine(alt_factory(), num_cpus=4, smp=True)
        counters = fanout_broadcast(machine, consumers=40, rounds=10)
        summary = machine.run()
        assert not summary.deadlocked
        assert counters.messages == 400

    def test_yield_storm_survives(self, alt_factory):
        machine = Machine(alt_factory(), num_cpus=1, smp=True)
        counters = yield_storm(machine, tasks=3, yields_each=30)
        summary = machine.run()
        assert not summary.deadlocked
        assert counters.yields == 90


class TestHeapSpecifics:
    def test_heap_key_ordering(self):
        other = Task(priority=20)
        other.counter = 20
        exhausted = Task(priority=20)
        exhausted.counter = 0
        rt = Task(policy=SchedPolicy.SCHED_FIFO, rt_priority=1)
        assert HeapScheduler.key_for(rt) > HeapScheduler.key_for(other)
        assert HeapScheduler.key_for(other) > HeapScheduler.key_for(exhausted)

    def test_recalculation_on_exhaustion(self):
        sched = HeapScheduler()
        machine = Machine(sched, num_cpus=1, smp=True)
        cpu = machine.cpus[0]
        a = Task(name="a")
        a.counter = 0
        attach(machine, a)
        sched.add_to_runqueue(a)
        decision = sched.schedule(cpu.idle_task, cpu)
        assert decision.recalcs == 1
        assert decision.next_task is a
        assert a.counter == a.priority

    def test_heap_examines_few(self):
        sched = HeapScheduler()
        machine = Machine(sched, num_cpus=1, smp=True)
        cpu = machine.cpus[0]
        for i in range(50):
            t = Task(name=f"t{i}", priority=(i % 40) + 1)
            attach(machine, t)
            sched.add_to_runqueue(t)
        decision = sched.schedule(cpu.idle_task, cpu)
        assert decision.examined <= sched.search_limit
        # The heap's winner is the global static maximum (plus bonuses).
        assert decision.next_task.priority >= 35


class TestMultiQueueSpecifics:
    def test_no_global_lock(self):
        assert MultiQueueScheduler.uses_global_lock is False

    def test_one_table_per_cpu(self):
        sched = MultiQueueScheduler()
        Machine(sched, num_cpus=4, smp=True)
        assert len(sched.queue_loads()) == 4

    def test_wakeup_goes_home(self):
        sched = MultiQueueScheduler()
        machine = Machine(sched, num_cpus=2, smp=True)
        task = Task(name="homed")
        task.processor = 1
        attach(machine, task)
        sched.add_to_runqueue(task)
        assert sched.queue_loads() == [0, 1]

    def test_idle_cpu_steals(self):
        sched = MultiQueueScheduler()
        machine = Machine(sched, num_cpus=2, smp=True)
        cpu0, cpu1 = machine.cpus
        # Load two tasks onto cpu1's table; cpu0 must steal one.
        for i in range(2):
            t = Task(name=f"t{i}")
            t.processor = 1
            attach(machine, t)
            sched.add_to_runqueue(t)
        decision = sched.schedule(cpu0.idle_task, cpu0)
        assert decision.next_task is not None

    def test_recalculation_keeps_sibling_tables_eligible(self):
        """CPU 0's recalculation must not hide CPU 1's fresh task: its
        table's ``top`` survives, so CPU 1 still picks it."""
        sched = MultiQueueScheduler()
        machine = Machine(sched, num_cpus=2, smp=True)
        cpu0, cpu1 = machine.cpus
        spent, fresh = Task(name="spent"), Task(name="fresh")
        spent.counter = 0
        for home, task in enumerate((spent, fresh)):
            task.processor = home
            attach(machine, task)
            sched.add_to_runqueue(task)
        decision = sched.schedule(cpu0.idle_task, cpu0)
        assert (decision.next_task, decision.recalcs) == (spent, 1)
        spent.has_cpu = True
        cpu0.current = spent
        assert sched.schedule(cpu1.idle_task, cpu1).next_task is fresh

    @staticmethod
    def _recalculate_under_fresh_task():
        """CPU 0's table holds an exhausted task and CPU 1's ``fresh``
        (counter 20, list 10); CPU 0's pick recalculates, raising
        ``fresh`` to counter 30, list 12.  Then ``later`` (counter 24)
        joins CPU 1's list 11."""
        sched = MultiQueueScheduler()
        machine = Machine(sched, num_cpus=2, smp=True)
        cpu0, cpu1 = machine.cpus
        spent, fresh = Task(name="spent"), Task(name="fresh")
        spent.counter, fresh.counter = 0, 20
        for home, task in enumerate((spent, fresh)):
            task.processor = home
            attach(machine, task)
            sched.add_to_runqueue(task)
        assert sched._tables[1].index_of(fresh) == 10
        assert sched.schedule(cpu0.idle_task, cpu0).recalcs == 1
        spent.has_cpu = True
        cpu0.current = spent
        later = Task(name="later")
        later.counter, later.processor = 24, 1
        attach(machine, later)
        sched.add_to_runqueue(later)
        return sched, cpu1, fresh

    def test_recalculation_reindexes_sibling_tables_eligible_tasks(self):
        sched, _cpu1, fresh = self._recalculate_under_fresh_task()
        table = sched._tables[1]
        assert fresh.counter == 30
        assert table.index_of(fresh) == table.index_for(fresh) == 12
        table.check_invariants()

    def test_sibling_table_picks_by_recalculated_goodness(self):
        """``fresh`` (static goodness 50) must beat ``later`` (44), which
        a stale list 10 would put behind ``later``'s list 11."""
        sched, cpu1, fresh = self._recalculate_under_fresh_task()
        assert sched.schedule(cpu1.idle_task, cpu1).next_task is fresh

    def test_steal_disabled(self):
        sched = MultiQueueScheduler(steal=False)
        machine = Machine(sched, num_cpus=2, smp=True)
        cpu0 = machine.cpus[0]
        t = Task(name="t")
        t.processor = 1
        attach(machine, t)
        sched.add_to_runqueue(t)
        decision = sched.schedule(cpu0.idle_task, cpu0)
        assert decision.next_task is None  # parked on cpu1, no stealing


class TestO1Specifics:
    def test_no_global_lock(self):
        assert O1Scheduler.uses_global_lock is False

    def test_never_recalculates(self):
        """The O(1) design's claim to fame: array swap, no recalc loop."""
        sched = O1Scheduler()
        machine = Machine(sched, num_cpus=1, smp=True)

        def hog(env):
            yield env.run(seconds=0.5)

        machine.spawn(hog, name="a")
        machine.spawn(hog, name="b")
        summary = machine.run()
        assert not summary.deadlocked
        assert sched.stats.recalc_entries == 0

    def test_constant_examination(self):
        sched = O1Scheduler()
        machine = Machine(sched, num_cpus=1, smp=True)
        cpu = machine.cpus[0]
        for i in range(100):
            t = Task(name=f"t{i}")
            attach(machine, t)
            sched.add_to_runqueue(t)
        decision = sched.schedule(cpu.idle_task, cpu)
        assert decision.examined == 1

    def test_higher_priority_slot_wins(self):
        sched = O1Scheduler()
        machine = Machine(sched, num_cpus=1, smp=True)
        cpu = machine.cpus[0]
        low = Task(name="low", priority=5)
        high = Task(name="high", priority=35)
        for t in (low, high):
            attach(machine, t)
            sched.add_to_runqueue(t)
        assert sched.schedule(cpu.idle_task, cpu).next_task is high

    def test_expired_swap_preserves_tasks(self):
        """Tasks that expire must come back after the array swap."""
        sched = O1Scheduler()
        machine = Machine(sched, num_cpus=1, smp=True)
        segments = []

        def hog(env, tag):
            for _ in range(4):
                yield env.run(seconds=0.25)
                segments.append(tag)

        machine.spawn(lambda env: hog(env, "a"), name="a")
        machine.spawn(lambda env: hog(env, "b"), name="b")
        summary = machine.run()
        assert not summary.deadlocked
        assert segments.count("a") == 4 and segments.count("b") == 4
        # Timeslice rotation interleaved them.
        assert segments != ["a", "a", "a", "a", "b", "b", "b", "b"]
