"""Unit tests for the ELSC run-queue table (paper section 5.1)."""

from __future__ import annotations

import pytest

from repro.core.table import ELSCRunqueueTable
from repro.kernel.params import ELSC_OTHER_LISTS, ELSC_TABLE_SIZE
from repro.kernel.task import SchedPolicy, Task


def other(name="t", priority=20, counter=None):
    task = Task(name=name, priority=priority)
    if counter is not None:
        task.counter = counter
    return task


def realtime(name="rt", rt_priority=50, policy=SchedPolicy.SCHED_FIFO):
    return Task(name=name, policy=policy, rt_priority=rt_priority, priority=20)


class TestIndexing:
    def test_table_has_thirty_lists(self):
        table = ELSCRunqueueTable()
        assert table.size == ELSC_TABLE_SIZE == 30
        assert len(table.lists) == 30

    def test_other_index_is_static_goodness_over_four(self):
        # "the list is determined by adding counter to priority and
        # dividing by four"
        table = ELSCRunqueueTable()
        task = other(priority=20, counter=20)
        assert table.index_for(task) == 40 // 4

    def test_other_index_clamped_to_other_range(self):
        table = ELSCRunqueueTable()
        task = other(priority=40, counter=80)  # static 120 → raw 30
        assert table.index_for(task) == ELSC_OTHER_LISTS - 1

    def test_rt_index_uses_ten_highest_lists(self):
        # "If the task is real-time, it uses one of the ten highest
        # lists, determined by dividing the rt_priority field by 10."
        table = ELSCRunqueueTable()
        assert table.index_for(realtime(rt_priority=0)) == 20
        assert table.index_for(realtime(rt_priority=55)) == 25
        assert table.index_for(realtime(rt_priority=99)) == 29

    def test_rt_always_above_other(self):
        table = ELSCRunqueueTable()
        maximal = other(priority=40, counter=80)
        assert table.index_for(realtime(rt_priority=0)) > table.index_for(maximal)

    def test_predicted_index_models_recalculation(self):
        # predicted counter = counter//2 + priority; for an exhausted
        # task that is just `priority`.
        table = ELSCRunqueueTable()
        task = other(priority=20, counter=0)
        assert table.predicted_index(task) == (20 + 20) // 4

    def test_prediction_matches_actual_recalc(self):
        """The whole point: after counter = counter//2 + priority, the
        task's real index equals the predicted one."""
        table = ELSCRunqueueTable()
        for priority in (1, 7, 20, 33, 40):
            task = other(priority=priority, counter=0)
            predicted = table.predicted_index(task)
            task.counter = (task.counter >> 1) + task.priority  # the recalc
            assert table.index_for(task) == predicted


class TestInsertRemove:
    def test_eligible_insert_goes_to_front_and_sets_top(self):
        table = ELSCRunqueueTable()
        a = other("a", counter=20)
        b = other("b", counter=20)
        table.insert(a)
        table.insert(b)
        idx = table.index_for(a)
        assert table.top == idx
        assert list(table.tasks_in(idx)) == [b, a]  # LIFO front insert
        table.check_invariants()

    def test_zero_counter_insert_goes_to_predicted_tail(self):
        # "the task is indexed into the run queue and added to the end of
        # its list … all zero counter tasks reside at the end"
        table = ELSCRunqueueTable()
        live = other("live", priority=20, counter=20)     # idx 10
        dead1 = other("dead1", priority=20, counter=0)    # predicted idx 10
        dead2 = other("dead2", priority=20, counter=0)
        table.insert(live)
        table.insert(dead1)
        table.insert(dead2)
        idx = table.index_for(live)
        assert list(table.tasks_in(idx)) == [live, dead1, dead2]
        assert table.top == idx
        assert table.next_top == idx
        table.check_invariants()

    def test_zero_counter_does_not_raise_top(self):
        table = ELSCRunqueueTable()
        low = other("low", priority=8, counter=8)   # idx 4
        dead = other("dead", priority=40, counter=0)  # predicted idx 19
        table.insert(low)
        table.insert(dead)
        assert table.top == 4
        assert table.next_top == 19
        table.check_invariants()

    def test_remove_restores_top(self):
        table = ELSCRunqueueTable()
        low = other("low", priority=8, counter=8)
        high = other("high", priority=40, counter=40)
        table.insert(low)
        table.insert(high)
        assert table.top == table.index_for(high)
        table.remove(high)
        assert table.top == table.index_for(low)
        table.remove(low)
        assert table.top is None
        table.check_invariants()

    def test_remove_restores_next_top(self):
        table = ELSCRunqueueTable()
        d1 = other("d1", priority=40, counter=0)  # predicted 19
        d2 = other("d2", priority=8, counter=0)   # predicted 4
        table.insert(d1)
        table.insert(d2)
        assert table.next_top == 19
        table.remove(d1)
        assert table.next_top == 4
        table.remove(d2)
        assert table.next_top is None
        table.check_invariants()

    def test_remove_unknown_task_raises(self):
        table = ELSCRunqueueTable()
        with pytest.raises(RuntimeError):
            table.remove(other())

    def test_double_insert_raises(self):
        table = ELSCRunqueueTable()
        task = other()
        table.insert(task)
        with pytest.raises(RuntimeError):
            table.insert(task)

    def test_rt_insert_sets_top_above_others(self):
        table = ELSCRunqueueTable()
        table.insert(other(counter=40, priority=40))
        table.insert(realtime(rt_priority=5))
        assert table.top == 20
        table.check_invariants()

    def test_rt_with_zero_counter_is_still_eligible(self):
        table = ELSCRunqueueTable()
        rt = realtime(rt_priority=30)
        rt.counter = 0
        table.insert(rt)
        assert table.top == table.rt_index(30)
        assert table.next_top is None  # RT never waits for a recalc
        table.check_invariants()

    def test_insert_at_tail_of_eligible_section(self):
        table = ELSCRunqueueTable()
        first = other("first", counter=20)
        dead = other("dead", counter=0)
        rotated = other("rot", counter=20)
        table.insert(first)
        table.insert(dead)
        table.insert(rotated, at_tail=True)
        idx = table.index_for(first)
        # rotated sits after first but before the zero-counter tail.
        assert list(table.tasks_in(idx)) == [first, rotated, dead]
        table.check_invariants()


class TestSectionMoves:
    def _mixed_list(self, table):
        a = other("a", counter=20)
        b = other("b", counter=20)
        z1 = other("z1", counter=0)
        z2 = other("z2", counter=0)
        for t in (a, b, z1, z2):
            table.insert(t)
        return a, b, z1, z2

    def test_move_first_eligible(self):
        table = ELSCRunqueueTable()
        a, b, z1, z2 = self._mixed_list(table)
        idx = table.index_of(a)
        table.move_first(a)
        assert list(table.tasks_in(idx)) == [a, b, z1, z2]
        table.check_invariants()

    def test_move_last_eligible_stays_before_zero_tail(self):
        # "These functions behave appropriately when faced with
        # mixed-counter lists."
        table = ELSCRunqueueTable()
        a, b, z1, z2 = self._mixed_list(table)
        idx = table.index_of(b)
        table.move_last(b)
        assert list(table.tasks_in(idx)) == [a, b, z1, z2]
        table.move_last(a)
        assert list(table.tasks_in(idx)) == [b, a, z1, z2]
        table.check_invariants()

    def test_move_first_zero_counter_goes_to_section_start(self):
        table = ELSCRunqueueTable()
        a, b, z1, z2 = self._mixed_list(table)
        idx = table.index_of(z2)
        table.move_first(z2)
        assert list(table.tasks_in(idx)) == [b, a, z2, z1]
        table.check_invariants()

    def test_move_last_zero_counter_goes_to_list_tail(self):
        table = ELSCRunqueueTable()
        a, b, z1, z2 = self._mixed_list(table)
        idx = table.index_of(z1)
        table.move_last(z1)
        assert list(table.tasks_in(idx)) == [b, a, z2, z1]
        table.check_invariants()


class TestTestRoutines:
    """The paper's "two test routines that determine whether a list
    contains tasks with zero or non-zero counter values"."""

    def test_list_has_eligible(self):
        table = ELSCRunqueueTable()
        task = other(counter=20)
        table.insert(task)
        assert table.list_has_eligible(table.index_of(task))
        assert not table.list_has_zero(table.index_of(task))

    def test_list_has_zero(self):
        table = ELSCRunqueueTable()
        task = other(counter=0)
        table.insert(task)
        assert table.list_has_zero(table.index_of(task))
        assert not table.list_has_eligible(table.index_of(task))


class TestRecalculationPromotion:
    def test_after_recalculate_promotes_next_top(self):
        # "A next_top pointer is used to keep track of the highest
        # priority list containing a runnable task after counters are
        # reset."
        table = ELSCRunqueueTable()
        dead = other("dead", priority=20, counter=0)
        table.insert(dead)
        assert table.top is None
        assert table.next_top == table.predicted_index(dead)
        dead.counter = (dead.counter >> 1) + dead.priority  # the recalc
        table.after_recalculate()
        assert table.top == table.index_for(dead)
        assert table.next_top is None
        table.check_invariants()

    def test_after_recalculate_reindexes_eligible_tasks(self):
        # An eligible task whose recalculated counter gives it another
        # list moves there, in front of the promoted exhausted task.
        table = ELSCRunqueueTable()
        eligible = other("eligible", priority=20, counter=6)   # 26 -> list 6
        dead = other("dead", priority=20, counter=0)           # predicted 10
        table.insert(eligible)
        table.insert(dead)
        for task in (eligible, dead):
            task.counter = (task.counter >> 1) + task.priority  # the recalc
        table.after_recalculate()
        assert table.index_of(eligible) == table.index_for(eligible) == 10
        assert list(table.tasks_in(10)) == [eligible, dead]
        table.check_invariants()

    def test_check_invariants_catches_a_task_in_the_wrong_list(self):
        table = ELSCRunqueueTable()
        task = other("t", priority=20, counter=20)
        table.insert(task)
        table.check_invariants()
        task.counter = 8  # list 7 now, but it still sits in list 10
        with pytest.raises(AssertionError, match="belongs in 7"):
            table.check_invariants()

    def test_descend_helper(self):
        table = ELSCRunqueueTable()
        low = other("low", priority=8, counter=8)    # idx 4
        high = other("high", priority=40, counter=40)  # idx 19 (clamped 20)
        table.insert(low)
        table.insert(high)
        below = table.next_eligible_below(table.index_for(high))
        assert below == table.index_for(low)
        assert table.next_eligible_below(below) is None


class TestConstruction:
    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            ELSCRunqueueTable(size=20, other_lists=20)

    def test_all_resident_orders_high_to_low(self):
        table = ELSCRunqueueTable()
        low = other("low", priority=8, counter=8)
        high = other("high", priority=40, counter=40)
        rt = realtime(rt_priority=10)
        for t in (low, high, rt):
            table.insert(t)
        names = [t.name for t in table.all_resident()]
        assert names == ["rt", "high", "low"]
