"""Cross-consistency: the tracer, the statistics, and the tasks must
tell the same story about one run."""

from __future__ import annotations

import pytest

from repro import ELSCScheduler, Machine, Tracer, VanillaScheduler
from repro.kernel.trace import TraceKind
from repro.obs import TracerProbe
from repro.workloads.synthetic import fanout_broadcast, pingpong_pairs
from repro.workloads.volanomark import VolanoConfig, VolanoMark


def traced(factory, num_cpus=1, smp=False):
    machine = Machine(factory(), num_cpus=num_cpus, smp=smp)
    tracer = machine.attach(TracerProbe(Tracer(capacity=1_000_000))).tracer
    return machine, tracer


class TestTraceMatchesStats:
    def test_dispatch_records_match_switch_accounting(self, paper_scheduler_factory):
        machine, tracer = traced(paper_scheduler_factory)
        pingpong_pairs(machine, pairs=3, rounds=10)
        machine.run()
        stats = machine.scheduler.stats
        dispatches = tracer.count(TraceKind.DISPATCH)
        idles = tracer.count(TraceKind.IDLE)
        # Every schedule() call either dispatched a task or idled.
        assert dispatches + idles == stats.schedule_calls
        assert idles == stats.idle_schedules

    def test_wakeups_match_enqueues(self, paper_scheduler_factory):
        machine, tracer = traced(paper_scheduler_factory)
        pingpong_pairs(machine, pairs=2, rounds=8)
        machine.run()
        # Every traced wakeup inserted into the run queue; spawns also
        # enqueue (they go through wake_up_process too).
        assert tracer.count(TraceKind.WAKEUP) == machine.scheduler.stats.enqueues

    def test_exits_match_task_population(self, paper_scheduler_factory):
        machine, tracer = traced(paper_scheduler_factory)
        fanout_broadcast(machine, consumers=10, rounds=3)
        machine.run()
        assert tracer.count(TraceKind.EXIT) == len(machine.all_tasks())

    def test_migrations_match_on_smp(self):
        machine, tracer = traced(ELSCScheduler, num_cpus=2, smp=True)
        bench = VolanoMark(
            VolanoConfig(rooms=1, users_per_room=6, messages_per_user=3)
        )
        bench.populate(machine)
        machine.run()
        assert tracer.count(TraceKind.MIGRATE) == machine.scheduler.stats.migrations

    def test_recalc_records_match(self):
        machine, tracer = traced(VanillaScheduler)
        from repro.workloads.synthetic import yield_storm

        yield_storm(machine, tasks=1, yields_each=15)
        machine.run()
        assert tracer.count(TraceKind.RECALC) == machine.scheduler.stats.recalc_entries
        assert tracer.count(TraceKind.YIELD) == 15

    def test_task_dispatch_counts_match_trace(self, paper_scheduler_factory):
        machine, tracer = traced(paper_scheduler_factory)
        pingpong_pairs(machine, pairs=2, rounds=6)
        machine.run()
        by_name: dict[str, int] = {}
        for rec in tracer.records(TraceKind.DISPATCH):
            by_name[rec.task] = by_name.get(rec.task, 0) + 1
        for task in machine.all_tasks():
            assert by_name.get(task.name, 0) == task.dispatch_count
