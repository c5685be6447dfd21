"""Tests for the machine: dispatch, ticks, quanta, blocking, preemption."""

from __future__ import annotations

import pytest

from repro import (
    Channel,
    ELSCScheduler,
    Machine,
    MMStruct,
    SchedPolicy,
    SimulationError,
    Task,
    VanillaScheduler,
)
from repro.kernel.actions import Action, Run
from repro.kernel.params import CYCLES_PER_TICK, seconds_to_cycles
from repro.kernel.task import TaskState
from repro.kernel.waitqueue import WaitQueue


def up_machine(factory=VanillaScheduler, **kwargs):
    return Machine(factory(), num_cpus=1, smp=False, **kwargs)


class TestConstruction:
    def test_needs_a_cpu(self):
        with pytest.raises(ValueError):
            Machine(VanillaScheduler(), num_cpus=0)

    def test_up_build_is_single_cpu(self):
        with pytest.raises(ValueError):
            Machine(VanillaScheduler(), num_cpus=2, smp=False)

    def test_binds_scheduler(self):
        sched = VanillaScheduler()
        machine = Machine(sched, num_cpus=2)
        assert sched.machine is machine

    def test_each_cpu_has_idle_task(self):
        machine = Machine(VanillaScheduler(), num_cpus=3)
        idles = {cpu.idle_task.pid for cpu in machine.cpus}
        assert len(idles) == 3
        for cpu in machine.cpus:
            assert cpu.is_idle()


class TestBasicExecution:
    def test_single_task_runs_to_completion(self):
        machine = up_machine()
        done = []

        def body(env):
            yield env.run(us=100)
            done.append(env.now)

        machine.spawn(body, name="solo")
        summary = machine.run()
        assert not summary.deadlocked
        assert summary.tasks_exited == 1
        assert done and done[0] > 0

    def test_run_advances_virtual_time(self):
        machine = up_machine()

        def body(env):
            yield env.run(seconds=0.05)

        machine.spawn(body)
        summary = machine.run()
        # 50 ms of work plus overheads, on one CPU.
        assert 0.05 <= summary.seconds < 0.06

    def test_cpu_cycles_accounted(self):
        machine = up_machine()

        def body(env):
            yield env.run(cycles=12345)

        task = machine.spawn(body)
        machine.run()
        assert task.cpu_cycles == 12345

    def test_two_tasks_share_one_cpu(self):
        machine = up_machine()

        def body(env):
            yield env.run(seconds=0.02)

        a = machine.spawn(body, name="a")
        b = machine.spawn(body, name="b")
        summary = machine.run()
        # Serial execution: roughly the sum of both.
        assert summary.seconds >= 0.04
        assert a.exited and b.exited

    def test_empty_machine_run_is_noop(self):
        machine = up_machine()
        summary = machine.run()
        assert summary.events_handled == 0
        assert summary.seconds == 0.0


class TestTicksAndQuanta:
    def test_counter_decrements_per_tick(self):
        machine = up_machine()

        def body(env):
            yield env.run(cycles=3 * CYCLES_PER_TICK + 1000)

        task = machine.spawn(body)
        machine.run()
        assert task.ticks_consumed >= 3
        assert task.counter <= task.priority - 3

    def test_quantum_expiry_rotates_equal_tasks(self):
        """Two CPU hogs must alternate via quantum expiry."""
        machine = up_machine()
        segments = []

        def body(env, tag):
            for _ in range(3):
                yield env.run(cycles=20 * CYCLES_PER_TICK)
                segments.append(tag)

        machine.spawn(lambda env: body(env, "a"), name="a")
        machine.spawn(lambda env: body(env, "b"), name="b")
        summary = machine.run()
        assert not summary.deadlocked
        # Both made progress interleaved, not a-a-a-b-b-b.
        assert segments != sorted(segments)

    def test_recalculation_happens_under_cpu_saturation(self):
        """All counters eventually hit zero → vanilla recalculates."""
        machine = up_machine()

        def body(env):
            yield env.run(cycles=45 * CYCLES_PER_TICK)

        machine.spawn(body, name="a")
        machine.spawn(body, name="b")
        machine.run()
        assert machine.scheduler.stats.recalc_entries >= 1

    def test_fifo_task_is_not_preempted_by_quantum(self):
        machine = up_machine()
        order = []

        def rt_body(env):
            yield env.run(cycles=30 * CYCLES_PER_TICK)
            order.append("rt")

        def other_body(env):
            yield env.run(cycles=1000)
            order.append("other")

        machine.spawn(rt_body, name="rt", policy=SchedPolicy.SCHED_FIFO, rt_priority=10)
        machine.spawn(other_body, name="other")
        machine.run()
        assert order == ["rt", "other"]


class TestBlocking:
    def test_channel_pingpong(self):
        machine = up_machine()
        a2b, b2a = Channel(1), Channel(1)
        log = []

        def ping(env):
            for i in range(5):
                yield env.put(a2b, i)
                log.append(("sent", i))
                echo = yield env.get(b2a)
                assert echo == i

        def pong(env):
            for _ in range(5):
                value = yield env.get(a2b)
                log.append(("got", value))
                yield env.put(b2a, value)

        machine.spawn(ping, name="ping")
        machine.spawn(pong, name="pong")
        summary = machine.run()
        assert not summary.deadlocked
        assert log.count(("sent", 0)) == 1
        assert ("got", 4) in log

    def test_backpressure_blocks_writer(self):
        machine = up_machine()
        chan = Channel(capacity=2)
        progress = []

        def writer(env):
            for i in range(6):
                yield env.put(chan, i)
                progress.append(i)

        def slow_reader(env):
            for _ in range(6):
                yield env.sleep(0.001)
                yield env.get(chan)

        machine.spawn(writer, name="w")
        machine.spawn(slow_reader, name="r")
        summary = machine.run()
        assert not summary.deadlocked
        assert progress == list(range(6))

    def test_sleep_duration_respected(self):
        machine = up_machine()
        wake_time = []

        def body(env):
            yield env.sleep(0.030)
            wake_time.append(env.now)

        machine.spawn(body)
        machine.run()
        assert wake_time[0] >= seconds_to_cycles(0.030)

    def test_deadlock_reported(self):
        machine = up_machine()
        chan = Channel(1)

        def starved(env):
            yield env.get(chan)  # nobody ever puts

        machine.spawn(starved, name="starved")
        summary = machine.run()
        assert summary.deadlocked
        assert summary.tasks_blocked == 1

    def test_wait_on_and_wake(self):
        machine = up_machine()
        wq = WaitQueue("barrier")
        woke = []

        def waiter(env):
            yield env.wait_on(wq)
            woke.append(env.now)

        def waker(env):
            yield env.sleep(0.002)
            yield env.wake(wq, nr_exclusive=0)

        machine.spawn(waiter, name="waiter")
        machine.spawn(waker, name="waker")
        summary = machine.run()
        assert not summary.deadlocked
        assert woke and woke[0] >= seconds_to_cycles(0.002)


class TestYield:
    def test_yield_alternates_tasks(self, paper_scheduler_factory):
        machine = Machine(paper_scheduler_factory(), num_cpus=1, smp=False)
        order = []

        def body(env, tag):
            for _ in range(3):
                yield env.run(us=10)
                order.append(tag)
                yield env.sched_yield()

        machine.spawn(lambda env: body(env, "a"), name="a")
        machine.spawn(lambda env: body(env, "b"), name="b")
        summary = machine.run()
        assert not summary.deadlocked
        # A yielding task must let the other run: strict alternation.
        assert order[:4] in (["a", "b", "a", "b"], ["b", "a", "b", "a"])

    def test_lone_yielder_keeps_running(self, paper_scheduler_factory):
        machine = Machine(paper_scheduler_factory(), num_cpus=1, smp=False)
        count = []

        def body(env):
            for _ in range(10):
                yield env.run(us=5)
                yield env.sched_yield()
                count.append(1)

        machine.spawn(body, name="lone")
        summary = machine.run()
        assert not summary.deadlocked
        assert len(count) == 10

    def test_yield_counts_tracked(self):
        machine = up_machine()

        def body(env):
            yield env.run(us=1)
            yield env.sched_yield()

        task = machine.spawn(body)
        machine.run()
        assert task.yield_count == 1


class TestExitAndErrors:
    def test_explicit_exit_action(self):
        machine = up_machine()

        def body(env):
            yield env.run(us=1)
            yield env.exit()
            raise AssertionError("unreachable")

        task = machine.spawn(body)
        summary = machine.run()
        assert task.exited
        assert summary.tasks_exited == 1

    def test_non_action_yield_is_an_error(self):
        machine = up_machine()

        def body(env):
            yield "not an action"

        machine.spawn(body)
        with pytest.raises(SimulationError, match="not an Action"):
            machine.run()

    def test_body_exception_propagates_and_clears_current(self):
        machine = up_machine()

        def body(env):
            yield env.run(us=1)
            raise ValueError("body failed")

        machine.spawn(body)
        with pytest.raises(ValueError, match="body failed"):
            machine.run()
        with pytest.raises(SimulationError):
            _ = machine.handle.current

    def test_bare_action_is_unknown(self):
        machine = up_machine()

        def body(env):
            yield Action()

        machine.spawn(body)
        with pytest.raises(SimulationError, match="unknown action"):
            machine.run()

    def test_action_subclass_is_unknown(self):
        # Dispatch is on the exact type: a subclass of Run is not a Run.
        class LongRun(Run):
            __slots__ = ()

        machine = up_machine()

        def body(env):
            yield LongRun(10)

        machine.spawn(body)
        with pytest.raises(SimulationError, match="unknown action"):
            machine.run()

    def test_live_count_tracks_exits(self):
        machine = up_machine()

        def body(env):
            yield env.run(us=1)

        machine.spawn(body)
        machine.spawn(body)
        assert machine.live_count() == 2
        machine.run()
        assert machine.live_count() == 0

    def test_find_task(self):
        machine = up_machine()

        def body(env):
            yield env.run(us=1)

        machine.spawn(body, name="needle")
        assert machine.find_task("needle") is not None
        assert machine.find_task("missing") is None


class TestHorizon:
    def test_run_until_horizon(self):
        machine = up_machine()

        def forever(env):
            while True:
                yield env.run(us=100)

        machine.spawn(forever)
        summary = machine.run(until_seconds=0.05)
        assert summary.hit_horizon
        assert not summary.deadlocked
        assert machine.clock.seconds <= 0.05

    def test_spawn_from_body(self):
        machine = up_machine()
        children = []

        def child(env):
            yield env.run(us=1)
            children.append(env.current.name)

        def parent(env):
            yield env.run(us=1)
            env.spawn(child, name="kid")
            yield env.run(us=1)

        machine.spawn(parent, name="parent")
        summary = machine.run()
        assert not summary.deadlocked
        assert children == ["kid"]


class TestAccountingViews:
    def test_busy_fraction_zero_when_idle(self):
        machine = up_machine()

        def body(env):
            yield env.sleep(0.1)

        machine.spawn(body)
        machine.run()
        assert machine.busy_fraction() < 0.05

    def test_scheduler_fraction_bounded(self):
        machine = up_machine()

        def body(env):
            yield env.run(us=500)

        for _ in range(4):
            machine.spawn(body)
        machine.run()
        assert 0.0 <= machine.scheduler_fraction() <= 1.0
