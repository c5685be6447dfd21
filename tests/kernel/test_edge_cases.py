"""Edge-case tests across the kernel substrate."""

from __future__ import annotations

import pytest

from repro import (
    Channel,
    ELSCScheduler,
    Machine,
    MMStruct,
    SimulationError,
    Task,
    VanillaScheduler,
)
from repro.kernel.events import EventKind
from repro.kernel.machine import RunSummary
from tests.conftest import attach


def up(factory=VanillaScheduler):
    return Machine(factory(), num_cpus=1, smp=False)


class TestKernelHandle:
    def test_run_requires_exactly_one_unit(self):
        machine = up()
        with pytest.raises(ValueError):
            machine.handle.run()
        with pytest.raises(ValueError):
            machine.handle.run(cycles=10, us=5)

    def test_run_unit_conversions_agree(self):
        machine = up()
        assert machine.handle.run(seconds=1e-6).cycles == machine.handle.run(
            us=1.0
        ).cycles

    def test_current_outside_body_raises(self):
        machine = up()
        with pytest.raises(SimulationError):
            _ = machine.handle.current

    def test_current_inside_body(self):
        machine = up()
        names = []

        def body(env):
            names.append(env.current.name)
            yield env.run(us=1)

        machine.spawn(body, name="inner")
        machine.run()
        assert names == ["inner"]

    def test_now_and_seconds(self):
        machine = up()
        stamps = []

        def body(env):
            yield env.sleep(0.01)
            stamps.append((env.now, env.seconds))

        machine.spawn(body)
        machine.run()
        cycles, seconds = stamps[0]
        assert cycles > 0
        assert seconds == pytest.approx(cycles / 400e6)


class TestHaltEvent:
    def test_halt_stops_the_loop(self):
        machine = up()

        def forever(env):
            while True:
                yield env.run(us=100)

        machine.spawn(forever)
        machine.events.schedule(
            machine.clock.cycles_from_seconds(0.01), EventKind.HALT
        )
        summary = machine.run()
        assert machine.clock.seconds <= 0.011
        assert summary.tasks_exited == 0


class TestRunSummaryRepr:
    def test_states_render(self):
        summary = RunSummary()
        assert "drained" in repr(summary)
        summary.hit_horizon = True
        assert "horizon" in repr(summary)
        summary.hit_horizon = False
        summary.deadlocked = True
        assert "deadlocked" in repr(summary)


class TestUntilCycles:
    def test_until_cycles_horizon(self):
        machine = up()
        done = []

        def forever(env):
            while True:
                yield env.run(cycles=40_000)
                done.append(env.now)

        task = machine.spawn(forever)
        summary = machine.run(until_cycles=1_000_000)
        assert summary.hit_horizon
        assert machine.clock.now == 1_000_000
        # The Run in flight at the horizon crosses it and is not banked.
        assert done[-1] <= 1_000_000 < done[-1] + 40_000
        assert task.cpu_cycles == 40_000 * len(done)

    def test_tightest_horizon_wins(self):
        def forever(env):
            while True:
                yield env.run(us=100)

        # A horizon of 0 seconds is a horizon too, not "no horizon".
        for until_seconds, until_cycles in [(1.0, 500_000), (0.0, 500_000)]:
            machine = up()
            machine.spawn(forever)
            summary = machine.run(
                until_seconds=until_seconds, until_cycles=until_cycles
            )
            assert summary.hit_horizon
            assert machine.clock.now == min(
                machine.clock.cycles_from_seconds(until_seconds), until_cycles
            )


class TestRunsFinishedInPlace:
    """A Run that ends before every pending event finishes without one.

    Its ACTION_DONE event would be the next one handled, so the machine
    finishes it where it is armed; these pin that nothing observable
    differs from the event path.
    """

    def test_run_ending_at_a_pending_event_finishes_after_it(self):
        def stamped(stamps):
            def body(env):
                yield env.run(cycles=10_000)
                stamps.append(env.now)

            return body

        first = []
        machine = up()
        machine.spawn(stamped(first))
        machine.run()
        (stamp,) = first

        # The same run again, with callbacks at the Run's end and just
        # after: the callback pushed before the Run goes first on a tie.
        stamps, seen = [], []
        machine = up()
        machine.spawn(stamped(stamps))
        for at in (stamp, stamp + 1):
            machine.events.schedule(
                at,
                EventKind.CALLBACK,
                lambda m, event: seen.append((event.time, list(stamps))),
            )
        machine.run()
        assert seen == [(stamp, []), (stamp + 1, [stamp])]

    def test_max_events_counts_runs_finished_in_place(self):
        machine = up()
        runs = []

        def forever(env):
            while True:
                yield env.run(us=100)
                runs.append(env.now)

        machine.spawn(forever)
        with pytest.raises(SimulationError, match="exceeded 50 events"):
            machine.run(max_events=50)
        assert 0 < len(runs) <= 50

    def test_events_handled_counts_runs_finished_in_place(self):
        machine = up()

        def five_runs(env):
            for _ in range(5):
                yield env.run(us=100)

        machine.spawn(five_runs)
        summary = machine.run()
        # The wakeup's dispatch callback plus one event per Run, as when
        # every Run went through the heap.
        assert summary.events_handled == 6
        # Only the callback and the CPU's tick were pushed.
        assert machine.events.pushed == 2


class TestSchedulerEdgeOps:
    def test_vanilla_moves_ignore_offqueue_tasks(self):
        machine = up()
        sched = machine.scheduler
        loner = Task(name="loner")
        attach(machine, loner)
        sched.move_first_runqueue(loner)  # no-ops, no exception
        sched.move_last_runqueue(loner)
        assert not loner.on_runqueue()

    def test_elsc_del_of_running_task(self):
        machine = up(ELSCScheduler)
        sched = machine.scheduler
        cpu = machine.cpus[0]
        task = Task(name="t")
        attach(machine, task)
        sched.add_to_runqueue(task)
        sched.schedule(cpu.idle_task, cpu)  # picks it: running, off-list
        assert task.on_runqueue() and not task.in_a_list()
        sched.del_from_runqueue(task)
        assert not task.on_runqueue()
        assert sched.runqueue_len() == 0

    def test_elsc_moves_ignore_running_tasks(self):
        machine = up(ELSCScheduler)
        sched = machine.scheduler
        cpu = machine.cpus[0]
        task = Task(name="t")
        attach(machine, task)
        sched.add_to_runqueue(task)
        sched.schedule(cpu.idle_task, cpu)
        sched.move_first_runqueue(task)  # not in a list: must no-op
        sched.move_last_runqueue(task)
        assert task.on_runqueue() and not task.in_a_list()


class TestZombieInteractions:
    def test_wakeup_of_exited_task_is_ignored(self):
        machine = up()
        chan = Channel(1)

        def quick(env):
            yield env.run(us=1)

        task = machine.spawn(quick, name="quick")
        machine.run()
        assert task.exited
        # A stale wakeup (e.g. a timer) must not resurrect it.
        machine.wake_up_process(task, machine.clock.now)
        assert not task.on_runqueue()

    def test_stale_timer_after_exit(self):
        """A task that exits while a (programming-error) timer points at
        it: the timer fires into the void harmlessly."""
        machine = up()

        def body(env):
            yield env.run(us=1)

        task = machine.spawn(body)
        machine.events.schedule(
            machine.clock.cycles_from_seconds(0.01), EventKind.TIMER, task
        )
        summary = machine.run()
        assert not summary.deadlocked
        assert task.exited


class TestChannelStress:
    def test_many_waiters_one_channel(self):
        machine = up()
        chan = Channel(1, name="narrow")
        mm = MMStruct()
        drained = []

        def consumer(env, tag):
            value = yield env.get(chan)
            drained.append((tag, value))

        def producer(env):
            for i in range(10):
                yield env.put(chan, i)

        for i in range(10):
            machine.spawn(lambda env, t=i: consumer(env, t), name=f"c{i}", mm=mm)
        machine.spawn(producer, name="p", mm=mm)
        summary = machine.run()
        assert not summary.deadlocked
        assert sorted(v for _, v in drained) == list(range(10))

    def test_zero_capacity_is_unbounded(self):
        machine = up()
        chan = Channel(0, name="wide")

        def producer(env):
            for i in range(100):
                yield env.put(chan, i)

        def consumer(env):
            for _ in range(100):
                yield env.get(chan)

        machine.spawn(producer)
        machine.spawn(consumer)
        summary = machine.run()
        assert not summary.deadlocked
