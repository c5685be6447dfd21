"""Cross-validation: ELSC against the stock scheduler.

Design goal 3 (section 5): "Behave like the current scheduler as much as
possible."  These tests drive both schedulers through identical
scenarios and assert either identical selections or the specific,
documented divergences (and nothing else).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ELSCScheduler, Machine, Task, VanillaScheduler
from repro.kernel.mm import MMStruct
from repro.kernel.task import SchedPolicy
from repro.sched.goodness import goodness
from tests.conftest import attach


def build(factory, specs, smp=False, num_cpus=1):
    """One machine + queued tasks from (priority, counter, rt) specs."""
    sched = factory()
    machine = Machine(sched, num_cpus=num_cpus, smp=smp)
    tasks = []
    for i, (priority, counter, rt) in enumerate(specs):
        if rt:
            task = Task(
                name=f"t{i}",
                policy=SchedPolicy.SCHED_FIFO,
                rt_priority=rt,
                priority=priority,
            )
        else:
            task = Task(name=f"t{i}", priority=priority)
        task.counter = counter
        attach(machine, task)
        sched.add_to_runqueue(task)
        tasks.append(task)
    return sched, machine, tasks


task_specs = st.lists(
    st.tuples(
        st.integers(1, 40),            # priority
        st.integers(0, 80),            # counter
        st.sampled_from([0, 0, 0, 25, 60]),  # mostly non-RT
    ),
    min_size=1,
    max_size=15,
)


class TestSelectionAgreement:
    @given(task_specs)
    # Static goodness 84 and 76 are 8 apart but share ELSC's clamped top
    # SCHED_OTHER list (DESIGN.md), where the stock scheduler and ELSC
    # may pick differently.
    @example([(4, 80, 0)] + [(1, 75, 0)] * 5)
    @settings(max_examples=150, deadline=None)
    def test_same_static_class_of_winner(self, specs):
        """Both schedulers pick a winner from the same static-goodness
        band: under 8 points apart (adjacent 4-point ELSC lists at
        most), or in one ELSC list, or both real-time.

        Exact task identity can differ (front-of-list bias vs quantised
        lists) — the paper accepts that: "the difference between the
        goodness() values of the two tasks is small enough to ignore".
        """
        v_sched, v_machine, v_tasks = build(VanillaScheduler, specs)
        e_sched, e_machine, e_tasks = build(ELSCScheduler, specs)
        v_choice = v_sched.schedule(
            v_machine.cpus[0].idle_task, v_machine.cpus[0]
        ).next_task
        e_choice = e_sched.schedule(
            e_machine.cpus[0].idle_task, e_machine.cpus[0]
        ).next_task
        assert (v_choice is None) == (e_choice is None)
        if v_choice is None:
            return
        if v_choice.is_realtime() or e_choice.is_realtime():
            assert v_choice.is_realtime() and e_choice.is_realtime()
            assert v_choice.rt_priority == e_choice.rt_priority
            return
        v_static = v_choice.static_goodness()
        e_static = e_choice.static_goodness()
        table = e_sched.table
        assert abs(v_static - e_static) < 8 or table.other_index(
            v_static
        ) == table.other_index(e_static), (v_static, e_static)

    @given(task_specs)
    @settings(max_examples=150, deadline=None)
    def test_recalculation_agreement(self, specs):
        """Both recalculate in exactly the same situation: at least one
        runnable task and every runnable SCHED_OTHER task exhausted with
        no RT task available."""
        v_sched, v_machine, _ = build(VanillaScheduler, specs)
        e_sched, e_machine, _ = build(ELSCScheduler, specs)
        v_dec = v_sched.schedule(v_machine.cpus[0].idle_task, v_machine.cpus[0])
        e_dec = e_sched.schedule(e_machine.cpus[0].idle_task, e_machine.cpus[0])
        assert v_dec.recalcs == e_dec.recalcs

    def test_identical_pick_with_distinct_static_classes(self):
        """With clearly separated tasks the choice must be identical."""
        specs = [(10, 10, 0), (20, 30, 0), (40, 75, 0)]
        v_sched, v_machine, v_tasks = build(VanillaScheduler, specs)
        e_sched, e_machine, e_tasks = build(ELSCScheduler, specs)
        v_choice = v_sched.schedule(
            v_machine.cpus[0].idle_task, v_machine.cpus[0]
        ).next_task
        e_choice = e_sched.schedule(
            e_machine.cpus[0].idle_task, e_machine.cpus[0]
        ).next_task
        assert v_choice.name == e_choice.name == "t2"

    def test_rt_pick_identical(self):
        specs = [(20, 20, 30), (20, 20, 70), (20, 20, 0)]
        v_sched, v_machine, _ = build(VanillaScheduler, specs)
        e_sched, e_machine, _ = build(ELSCScheduler, specs)
        v_choice = v_sched.schedule(
            v_machine.cpus[0].idle_task, v_machine.cpus[0]
        ).next_task
        e_choice = e_sched.schedule(
            e_machine.cpus[0].idle_task, e_machine.cpus[0]
        ).next_task
        assert v_choice.name == e_choice.name == "t1"


class TestExaminationCosts:
    @given(st.integers(5, 60))
    @settings(max_examples=30, deadline=None)
    def test_elsc_examines_no_more_than_vanilla(self, n):
        """The scalability claim, queue-shape independent: same tasks,
        ELSC touches at most search-limit tasks, vanilla touches all."""
        rng = random.Random(n)
        specs = [
            (rng.randint(1, 40), rng.randint(1, 80), 0) for _ in range(n)
        ]
        v_sched, v_machine, _ = build(VanillaScheduler, specs)
        e_sched, e_machine, _ = build(ELSCScheduler, specs)
        v_dec = v_sched.schedule(v_machine.cpus[0].idle_task, v_machine.cpus[0])
        e_dec = e_sched.schedule(e_machine.cpus[0].idle_task, e_machine.cpus[0])
        assert v_dec.examined == n
        assert e_dec.examined <= e_sched.search_limit
        assert e_dec.examined <= v_dec.examined


class TestEndToEndEquivalence:
    """Full simulations: identical workloads must complete with identical
    results (messages delivered, fairness), whatever the scheduler."""

    def _pingpong_total(self, factory):
        from repro import Channel

        machine = Machine(factory(), num_cpus=1, smp=False)
        total = []
        a2b, b2a = Channel(2), Channel(2)

        def ping(env):
            for i in range(50):
                yield env.put(a2b, i)
                yield env.get(b2a)
            total.append(50)

        def pong(env):
            for _ in range(50):
                value = yield env.get(a2b)
                yield env.put(b2a, value)

        machine.spawn(ping)
        machine.spawn(pong)
        summary = machine.run()
        assert not summary.deadlocked
        return sum(total)

    def test_both_complete_pingpong(self):
        assert self._pingpong_total(VanillaScheduler) == 50
        assert self._pingpong_total(ELSCScheduler) == 50

    def test_fairness_between_equal_hogs(self, paper_scheduler_factory):
        """Equal-priority CPU hogs get CPU shares within 25 % of each
        other under both schedulers."""
        machine = Machine(paper_scheduler_factory(), num_cpus=1, smp=False)

        def hog(env):
            for _ in range(200):
                yield env.run(us=2000)

        a = machine.spawn(hog, name="a")
        b = machine.spawn(hog, name="b")
        machine.run(until_seconds=0.4)
        share_a, share_b = a.cpu_cycles, b.cpu_cycles
        assert share_a > 0 and share_b > 0
        ratio = share_a / share_b
        assert 0.75 < ratio < 1.33, (share_a, share_b)
