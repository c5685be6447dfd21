"""Tests for the ASCII Gantt renderer."""

from __future__ import annotations

import pytest

from repro import Channel, Machine, MMStruct, Tracer, VanillaScheduler
from repro.analysis.gantt import gantt, occupancy
from repro.kernel.trace import TraceKind
from repro.obs import TracerProbe


def traced_run():
    machine = Machine(VanillaScheduler(), num_cpus=2, smp=True)
    tracer = machine.attach(TracerProbe(Tracer(capacity=100_000))).tracer
    chan = Channel(1)

    def ping(env):
        for i in range(5):
            yield env.run(us=200)
            yield env.put(chan, i)

    def pong(env):
        for _ in range(5):
            yield env.get(chan)
            yield env.run(us=200)

    machine.spawn(ping, name="ping", mm=MMStruct())
    machine.spawn(pong, name="pong", mm=MMStruct())
    machine.run()
    return machine, tracer


class TestOccupancy:
    def test_segments_cover_both_cpus(self):
        machine, tracer = traced_run()
        segs = occupancy(tracer, machine.clock.now)
        assert set(segs) <= {0, 1}
        assert segs, "no occupancy reconstructed"
        for timeline in segs.values():
            times = [t for t, _ in timeline]
            assert times == sorted(times)

    def test_idle_segments_present(self):
        machine, tracer = traced_run()
        segs = occupancy(tracer, machine.clock.now)
        kinds = {task for timeline in segs.values() for _, task in timeline}
        assert None in kinds  # CPUs idled at some point


class TestGantt:
    def test_renders_rows_and_legend(self):
        machine, tracer = traced_run()
        text = gantt(tracer, machine.clock.now, width=40)
        assert "cpu0" in text
        assert "=ping" in text or "=pong" in text
        assert "idle" in text

    def test_row_width_respected(self):
        machine, tracer = traced_run()
        text = gantt(tracer, machine.clock.now, width=30, legend=False)
        for line in text.splitlines():
            assert len(line) == len("cpu0  ") + 30

    def test_empty_window_rejected(self):
        machine, tracer = traced_run()
        with pytest.raises(ValueError):
            gantt(tracer, 0)
        with pytest.raises(ValueError):
            gantt(tracer, machine.clock.now, width=0)

    def test_untraced_tracer_renders_placeholder(self):
        assert "no dispatch records" in gantt(Tracer(), 1000)

    def test_busy_chart_shows_tasks(self):
        machine, tracer = traced_run()
        text = gantt(tracer, machine.clock.now, width=60, legend=False)
        body = "".join(line[6:] for line in text.splitlines())
        # Some cells are tasks (letters), not all idle.
        assert any(ch.isalpha() for ch in body)
