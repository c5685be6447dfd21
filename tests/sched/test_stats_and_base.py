"""Tests for SchedStats derivations and the Scheduler base contract."""

from __future__ import annotations

import pytest

from repro import Machine, Task, VanillaScheduler
from repro.sched.base import ProbeHost, SchedDecision, Scheduler
from repro.sched.stats import SchedStats
from repro.serve import SchedulerExecutor
from tests.conftest import attach


class TestSchedStats:
    def test_derived_metrics_safe_on_zero(self):
        stats = SchedStats()
        assert stats.cycles_per_schedule() == 0.0
        assert stats.examined_per_schedule() == 0.0
        assert stats.avg_runqueue_len() == 0.0

    def test_derived_metrics(self):
        stats = SchedStats(
            schedule_calls=10, tasks_examined=45, scheduler_cycles=1000,
            runqueue_len_sum=120,
        )
        assert stats.examined_per_schedule() == 4.5
        assert stats.cycles_per_schedule() == 100.0
        assert stats.avg_runqueue_len() == 12.0

    def test_total_includes_lock_spin(self):
        stats = SchedStats(scheduler_cycles=100, lock_spin_cycles=40)
        assert stats.total_scheduler_cycles() == 140

    def test_merged_with_sums_all_fields(self):
        a = SchedStats(schedule_calls=3, migrations=1, recalc_entries=2)
        b = SchedStats(schedule_calls=4, migrations=5)
        merged = a.merged_with(b)
        assert merged.schedule_calls == 7
        assert merged.migrations == 6
        assert merged.recalc_entries == 2

    def test_snapshot_includes_derived(self):
        snap = SchedStats(schedule_calls=2, tasks_examined=6).snapshot()
        assert snap["examined_per_schedule"] == 3.0
        assert snap["schedule_calls"] == 2


class TestBaseContract:
    def test_unbound_scheduler_rejects_cost_access(self):
        sched = VanillaScheduler()
        with pytest.raises(AssertionError):
            _ = sched.cost

    def test_bind_resets_state(self):
        sched = VanillaScheduler()
        machine = Machine(sched, num_cpus=1, smp=False)
        task = Task()
        attach(machine, task)
        sched.add_to_runqueue(task)
        sched.stats.schedule_calls = 99
        sched.bind(machine)  # re-bind wipes everything
        assert sched.runqueue_len() == 0
        assert sched.stats.schedule_calls == 0

    def test_recalculate_counters_covers_all_live_tasks(self):
        sched = VanillaScheduler()
        machine = Machine(sched, num_cpus=1, smp=False)
        tasks = [Task(priority=p) for p in (5, 20, 40)]
        for t in tasks:
            t.counter = 3
            attach(machine, t)
        exited = Task(priority=10)
        exited.counter = 7
        attach(machine, exited)
        exited.mark_exited()
        machine._live_count -= 1
        cost = sched.recalculate_counters()
        for t in tasks:
            assert t.counter == 3 // 2 + t.priority
        assert exited.counter == 7  # the dead are left in peace
        assert cost == machine.cost.recalc_cost(3)

    def test_decision_dataclass_defaults(self):
        d = SchedDecision(next_task=None, cost=10)
        assert d.examined == 0
        assert d.recalcs == 0

    def test_nr_cpus_and_smp_properties(self):
        sched = VanillaScheduler()
        machine = Machine(sched, num_cpus=4, smp=True)
        assert sched.nr_cpus == 4
        assert sched.smp

    def test_machine_satisfies_the_protocol(self):
        machine = Machine(VanillaScheduler(), num_cpus=1, smp=False)
        assert isinstance(machine, ProbeHost)

    def test_executor_satisfies_the_protocol(self):
        executor = SchedulerExecutor(VanillaScheduler())
        assert isinstance(executor, ProbeHost)
        assert executor.scheduler.machine is executor
