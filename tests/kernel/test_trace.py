"""Tests for the event tracer."""

from __future__ import annotations

import pytest

from repro import Channel, ELSCScheduler, Machine, MMStruct, VanillaScheduler
from repro.kernel.trace import TraceKind, Tracer
from repro.obs import TracerProbe


def traced_machine(factory=VanillaScheduler, num_cpus=1, smp=False, capacity=10_000):
    machine = Machine(factory(), num_cpus=num_cpus, smp=smp)
    tracer = machine.attach(TracerProbe(Tracer(capacity=capacity))).tracer
    return machine, tracer


class TestTracerUnit:
    def test_capacity_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_ring_bound_evicts_oldest(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.record(i, TraceKind.DISPATCH, 0, None, f"n{i}")
        assert len(tracer) == 3
        assert tracer.dropped() == 2
        assert [r.time for r in tracer.records()] == [2, 3, 4]

    def test_filter(self):
        tracer = Tracer()
        tracer.filter = lambda rec: rec.kind is TraceKind.EXIT
        tracer.record(0, TraceKind.DISPATCH, 0, None)
        tracer.record(1, TraceKind.EXIT, 0, None)
        assert tracer.count(TraceKind.DISPATCH) == 0
        assert tracer.count(TraceKind.EXIT) == 1

    def test_clear(self):
        tracer = Tracer()
        tracer.record(0, TraceKind.IDLE, 0, None)
        tracer.clear()
        assert len(tracer) == 0 and tracer.recorded == 0

    def test_render_contains_fields(self):
        tracer = Tracer()
        tracer.record(400, TraceKind.WAKEUP, 2, None, "hello")
        text = tracer.render()
        assert "cpu2" in text and "wakeup" in text and "hello" in text


class TestTracedSimulation:
    def test_dispatch_and_exit_traced(self):
        machine, tracer = traced_machine()

        def body(env):
            yield env.run(us=10)

        machine.spawn(body, name="t")
        machine.run()
        assert tracer.count(TraceKind.DISPATCH) >= 1
        assert tracer.count(TraceKind.EXIT) == 1
        dispatches = tracer.records(TraceKind.DISPATCH)
        assert dispatches[0].task == "t"

    def test_block_and_wakeup_traced(self):
        machine, tracer = traced_machine()
        chan = Channel(1)

        def producer(env):
            yield env.sleep(0.001)
            yield env.put(chan, 1)

        def consumer(env):
            yield env.get(chan)

        machine.spawn(producer, name="p")
        machine.spawn(consumer, name="c")
        machine.run()
        blocks = tracer.records(TraceKind.BLOCK)
        assert any(r.task == "c" and "get" in r.detail for r in blocks)
        wakeups = tracer.records(TraceKind.WAKEUP)
        assert any(r.task == "c" for r in wakeups)

    def test_yield_and_recalc_traced(self):
        machine, tracer = traced_machine(VanillaScheduler)

        def spinner(env):
            yield env.run(us=5)
            yield env.sched_yield()

        machine.spawn(spinner, name="s")
        machine.run()
        assert tracer.count(TraceKind.YIELD) == 1
        assert tracer.count(TraceKind.RECALC) == 1  # lone yield → recalc

    def test_elsc_traces_no_recalc_for_yield(self):
        machine, tracer = traced_machine(ELSCScheduler)

        def spinner(env):
            yield env.run(us=5)
            yield env.sched_yield()

        machine.spawn(spinner, name="s")
        machine.run()
        assert tracer.count(TraceKind.RECALC) == 0

    def test_migration_traced_on_smp(self):
        machine, tracer = traced_machine(ELSCScheduler, num_cpus=2, smp=True)
        chan = Channel(1)

        def hog(env):
            for _ in range(3):
                yield env.put(chan, 1)
                yield env.run(us=8000)

        def hopper(env):
            for _ in range(3):
                yield env.get(chan)
                yield env.run(us=100)

        machine.spawn(hog, name="hog")
        machine.spawn(hopper, name="hopper")
        machine.run()
        # Whether a migration occurred depends on timing; if the counter
        # says one happened, the trace must agree.
        migrations = machine.scheduler.stats.migrations
        assert tracer.count(TraceKind.MIGRATE) == migrations

    def test_untraced_machine_records_nothing(self):
        machine = Machine(VanillaScheduler(), num_cpus=1, smp=False)

        def body(env):
            yield env.run(us=10)

        machine.spawn(body)
        machine.run()
        assert machine.probes.first(TracerProbe) is None

    def test_trace_timestamps_monotonic(self):
        machine, tracer = traced_machine()
        chan = Channel(2)

        def a(env):
            for i in range(5):
                yield env.put(chan, i)
                yield env.run(us=5)

        def b(env):
            for _ in range(5):
                yield env.get(chan)
                yield env.run(us=5)

        machine.spawn(a)
        machine.spawn(b)
        machine.run()
        times = [r.time for r in tracer.records()]
        assert times == sorted(times)
