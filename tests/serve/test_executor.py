"""Unit tests for the SchedulerExecutor adapter."""

from __future__ import annotations

import asyncio

import pytest

from repro.harness import SCHEDULERS
from repro.kernel.task import SchedPolicy, TaskState
from repro.obs.metrics import MetricsProbe
from repro.serve import SchedulerExecutor

ALL_SCHEDULERS = sorted(SCHEDULERS)


def make(name="reg", num_cpus=1, smp=False):
    return SchedulerExecutor(SCHEDULERS[name](), num_cpus=num_cpus, smp=smp)


class TestLifecycle:
    def test_registered_handler_starts_blocked(self):
        ex = make()
        task = ex.register("h0")
        assert task.state is TaskState.INTERRUPTIBLE
        assert not ex.has_runnable()
        assert ex.pick() is None

    def test_ready_then_pick_returns_the_handler(self):
        ex = make()
        task = ex.register("h0")
        assert ex.ready(task)
        assert ex.has_runnable()
        assert ex.pick() is task
        assert task.has_cpu
        assert task.processor == 0
        assert task.dispatch_count == 1

    def test_ready_is_deduplicated(self):
        ex = make()
        task = ex.register("h0")
        assert ex.ready(task)
        assert not ex.ready(task)  # spurious wake: already queued
        assert task.wakeup_count == 1

    def test_ready_while_current_just_flips_state(self):
        """The kernel's still-on-runqueue wake: no double insert."""
        ex = make()
        task = ex.register("h0")
        ex.ready(task)
        assert ex.pick() is task
        ex.release(task, blocked=True)
        assert task.state is TaskState.INTERRUPTIBLE
        # New work arrives while the task is still cpu.current.
        ex.ready(task)
        assert task.state is TaskState.RUNNING
        # And it is re-pickable on its own CPU.
        assert ex.pick() is task

    def test_deregister_clears_cpu_and_queue(self):
        ex = make()
        task = ex.register("h0")
        ex.ready(task)
        assert ex.pick() is task
        ex.deregister(task)
        assert task.exited
        assert ex.live_count() == 0
        assert ex.pick() is None
        # Idempotent.
        ex.deregister(task)

    def test_user_slot_round_trips(self):
        ex = make()
        marker = object()
        task = ex.register("h0", user=marker)
        assert task.user is marker


class TestDispatchSemantics:
    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_fifo_order_independence_single_handler(self, name):
        ex = make(name)
        task = ex.register("h0")
        ex.ready(task)
        picked = ex.pick()
        assert picked is task
        ex.release(task, blocked=True)
        assert not ex.has_runnable()

    # cfs excluded: fair-share picks by vruntime, not goodness, so the
    # high-priority handler wins *bandwidth*, not necessarily first pick.
    @pytest.mark.parametrize(
        "name", [n for n in ALL_SCHEDULERS if n != "cfs"]
    )
    def test_higher_priority_handler_wins(self, name):
        """Static goodness: the high-priority (large quantum) handler is
        picked over the low-priority one by every goodness-based policy."""
        ex = make(name)
        low = ex.register("low", priority=5)
        high = ex.register("high", priority=35)
        ex.ready(low)
        ex.ready(high)
        assert ex.pick() is high

    def test_released_runnable_handler_is_repicked(self):
        ex = make()
        task = ex.register("h0")
        ex.ready(task)
        assert ex.pick() is task
        ex.release(task, blocked=False)  # inbox still has work
        assert ex.has_runnable()
        assert ex.pick() is task

    def test_round_robin_across_virtual_cpus(self):
        """On a 2-CPU executor two ready handlers land on distinct CPUs."""
        ex = make("mq", num_cpus=2, smp=True)
        a = ex.register("a")
        b = ex.register("b")
        ex.ready(a)
        ex.ready(b)
        first = ex.pick()
        second = ex.pick()
        assert {first, second} == {a, b}
        assert first.processor != second.processor

    def test_pick_latency_sampled(self):
        ex = make()
        task = ex.register("h0")
        ex.ready(task)
        ex.pick()
        assert len(ex.pick_ns) == ex.picks >= 1
        assert all(ns >= 0 for ns in ex.pick_ns)


class TestQuantumAccounting:
    def test_charge_slice_decrements_counter(self):
        ex = make()
        task = ex.register("h0", priority=3)
        before = task.counter
        ex.charge_slice(task)
        assert task.counter == before - 1
        assert task.ticks_consumed == 1

    def test_expiry_counts_a_preemption(self):
        ex = make()
        task = ex.register("h0", priority=2)
        task.counter = 1
        ex.charge_slice(task)
        assert task.counter == 0
        assert ex.scheduler.stats.preemptions == 1
        # Further slices at zero don't underflow or double-count.
        ex.charge_slice(task)
        assert task.counter == 0
        assert ex.scheduler.stats.preemptions == 1

    def test_sched_fifo_is_untimed(self):
        ex = make()
        task = ex.register(
            "rt", policy=SchedPolicy.SCHED_FIFO, rt_priority=10
        )
        before = task.counter
        ex.charge_slice(task)
        assert task.counter == before

    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_exhausted_quanta_recover(self, name):
        """Driving a handler's counter to zero must not wedge any policy:
        the recalculation path hands out fresh quanta."""
        ex = make(name)
        task = ex.register("h0", priority=4)
        ex.ready(task)
        for _ in range(40):
            picked = ex.pick()
            assert picked is task, f"{name} lost the only runnable handler"
            ex.charge_slice(picked)
            ex.release(picked, blocked=False)
        assert task.dispatch_count == 40


class TestSharedHostCounters:
    """Counters the executor keeps by the simulated Machine's rules."""

    def test_idle_pick_after_serving_counts_a_switch(self):
        ex = make()
        metrics = ex.attach(MetricsProbe())
        task = ex.register("h0")
        ex.ready(task)
        assert ex.pick() is task
        ex.charge_slice(task)
        ex.release(task, blocked=True)
        assert ex.pick() is None  # the CPU switches to its idle task
        assert ex.scheduler.stats.switches == 2
        assert metrics.snapshot()["counters"]["switches"] == 2

    def test_cpu_dispatches_count_idle_picks(self):
        ex = make()
        task = ex.register("h0")
        ex.ready(task)
        assert ex.pick() is task
        ex.release(task, blocked=True)
        assert ex.pick() is None
        assert ex.cpus[0].dispatches == 2

    def test_sched_fifo_slice_consumes_a_tick(self):
        ex = make()
        task = ex.register(
            "rt", policy=SchedPolicy.SCHED_FIFO, rt_priority=10
        )
        before = task.counter
        ex.charge_slice(task)
        assert task.ticks_consumed == 1
        assert task.counter == before


async def _settle(turns=20):
    for _ in range(turns):
        await asyncio.sleep(0)


async def _stop(loop):
    loop.cancel()
    with pytest.raises(asyncio.CancelledError):
        await loop


def _serve_one_batch(ex, served):
    """A fake ``serve``: record the pick, charge it, put it to bed."""

    def serve(task):
        served.append(task)
        ex.charge_slice(task)
        ex.release(task, blocked=True)

    return serve


class TestDispatchForever:
    """The supervised live loop the chat server and the shard share."""

    def test_parks_on_work_while_nothing_is_runnable(self):
        async def scenario():
            ex = make()
            ex.register("h0")
            work = asyncio.Event()
            work.set()  # a stale wake: cleared, then the loop parks
            served = []
            loop = asyncio.create_task(
                ex.dispatch_forever(_serve_one_batch(ex, served), work)
            )
            await _settle()
            assert not work.is_set()
            assert ex.picks == 0 and served == []
            assert not loop.done()
            await _stop(loop)

        asyncio.run(scenario())

    def test_serves_after_ready_and_work_set(self):
        async def scenario():
            ex = make()
            task = ex.register("h0")
            work = asyncio.Event()
            served = []
            loop = asyncio.create_task(
                ex.dispatch_forever(_serve_one_batch(ex, served), work)
            )
            await _settle()
            # Wrapped on the instance after the loop started, the way a
            # tracer does: the loop must look both up on every turn.
            calls = []

            def count(name):
                inner = getattr(ex, name)

                def counted():
                    calls.append(name)
                    return inner()

                setattr(ex, name, counted)

            count("pick")
            count("has_runnable")
            ex.ready(task)
            work.set()
            await _settle()
            assert served == [task]
            assert {"pick", "has_runnable"} <= set(calls)
            await _stop(loop)

        asyncio.run(scenario())

    def test_crash_rebuilds_once_and_keeps_serving(self):
        async def scenario():
            ex = make()
            tasks = [ex.register(f"h{i}") for i in range(3)]
            work = asyncio.Event()
            served = []
            loop = asyncio.create_task(
                ex.dispatch_forever(_serve_one_batch(ex, served), work)
            )
            ex.inject_crash()
            for task in tasks:
                ex.ready(task)
            work.set()
            await _settle()
            assert ex.rebuilds == 1
            assert sorted(t.name for t in served) == ["h0", "h1", "h2"]
            assert set(ex.live_tasks()) == set(tasks)
            assert ex.live_count() == 3
            await _stop(loop)

        asyncio.run(scenario())
