"""Property-based fuzzing of the ELSC table invariants.

Random interleavings of insert / remove / move / recalculate must keep
the structural invariants (``check_invariants``): index consistency,
zero-counter tasks strictly behind eligible ones in every list, and the
``top``/``next_top`` cursors exactly tracking the highest eligible /
zero-holding lists.  An order oracle mirrors every list front to back
and checks the order inside each section too.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.table import ELSCRunqueueTable
from repro.kernel.task import SchedPolicy, Task


class _Pool:
    """A pool of tasks whose membership we mirror in a plain set."""

    def __init__(self, specs):
        self.tasks = []
        for i, (kind, priority, counter, rt) in enumerate(specs):
            if kind == "rt":
                task = Task(
                    name=f"rt{i}",
                    policy=SchedPolicy.SCHED_RR,
                    rt_priority=rt,
                    priority=priority,
                )
            else:
                task = Task(name=f"t{i}", priority=priority)
            task.counter = counter
            self.tasks.append(task)
        self.resident: set[int] = set()


class _OrderModel:
    """Each table list front to back, as its two sections.

    Applies the placement rules the ``insert``, ``remove``,
    ``move_first``, ``move_last`` and ``after_recalculate`` docstrings
    state, with plain Python lists: eligible tasks enter at the front of
    their list (``at_tail``: at the end of the eligible section),
    exhausted ones at the tail of their predicted list; a move goes to
    the front or the end of the task's own section; recalculation turns
    each zero section into the eligible one, and re-indexes each task
    that was eligible already: the SCHED_OTHER lists from the lowest up,
    each from back to front, every task whose list changed goes to the
    front of its new list.
    """

    def __init__(self, table: ELSCRunqueueTable) -> None:
        self.table = table
        self.eligible: list[list[Task]] = [[] for _ in range(table.size)]
        self.zero: list[list[Task]] = [[] for _ in range(table.size)]

    def _section(self, task: Task) -> list[Task]:
        for section in (*self.eligible, *self.zero):
            if task in section:
                return section
        raise AssertionError(f"{task.name} is not modelled")

    def insert(self, task: Task, at_tail: bool) -> None:
        table = self.table
        if table.is_eligible(task):
            section = self.eligible[table.index_for(task)]
            section.insert(len(section) if at_tail else 0, task)
        else:
            self.zero[table.predicted_index(task)].append(task)

    def remove(self, task: Task) -> None:
        self._section(task).remove(task)

    def move_first(self, task: Task) -> None:
        section = self._section(task)
        section.remove(task)
        section.insert(0, task)

    def move_last(self, task: Task) -> None:
        section = self._section(task)
        section.remove(task)
        section.append(task)

    def recalculate(self) -> None:
        table = self.table
        noted = [
            task
            for idx in range(table.other_lists)
            for task in reversed(self.eligible[idx])
        ]
        for eligible, zero in zip(self.eligible, self.zero):
            eligible.extend(zero)
            zero.clear()
        for task in noted:
            section = self.eligible[table.index_for(task)]
            if task not in section:
                self._section(task).remove(task)
                section.insert(0, task)

    def check(self) -> None:
        for idx in range(self.table.size):
            expected = self.eligible[idx] + self.zero[idx]
            assert list(self.table.tasks_in(idx)) == expected, idx


task_spec = st.tuples(
    st.sampled_from(["other", "rt"]),
    st.integers(1, 40),    # priority
    st.integers(0, 80),    # counter
    st.integers(0, 99),    # rt_priority
)

op = st.tuples(
    st.sampled_from(["insert", "insert_tail", "remove", "move_first", "move_last", "recalc"]),
    st.integers(0, 11),
)


#: Three exhausted tasks and two eligible ones that all share list 10,
#: so both sections hold several tasks; random draws rarely build that.
_SHARED_LIST = [("other", 20, 0, 0)] * 3 + [("other", 20, 21, 0)] * 2


@given(st.lists(task_spec, min_size=1, max_size=12), st.lists(op, max_size=60))
@example(
    _SHARED_LIST,
    [("insert", 0), ("insert", 1), ("insert", 2), ("insert", 3), ("insert_tail", 4),
     ("move_last", 0), ("move_first", 2), ("move_first", 4), ("move_last", 3),
     ("move_last", 1), ("remove", 2), ("move_first", 1), ("remove", 4)],
)
@example(
    _SHARED_LIST,
    [("insert", 0), ("insert", 1), ("insert", 2), ("recalc", 0), ("insert", 3),
     ("move_first", 2), ("move_last", 0), ("insert_tail", 4), ("remove", 1)],
)
# An eligible task whose recalculated counter moves it from list 1 to
# list 0: it must be re-indexed, not left where it was.
@example([("other", 1, 3, 0)], [("insert", 0), ("recalc", 0)])
@settings(max_examples=200, deadline=None)
def test_random_ops_preserve_invariants(specs, ops):
    pool = _Pool(specs)
    table = ELSCRunqueueTable()
    model = _OrderModel(table)
    for action, raw_idx in ops:
        idx = raw_idx % len(pool.tasks)
        task = pool.tasks[idx]
        if action in ("insert", "insert_tail") and idx not in pool.resident:
            model.insert(task, at_tail=(action == "insert_tail"))
            table.insert(task, at_tail=(action == "insert_tail"))
            pool.resident.add(idx)
        elif action == "remove" and idx in pool.resident:
            table.remove(task)
            model.remove(task)
            task.run_list.next = None
            task.run_list.prev = None
            pool.resident.discard(idx)
        elif action == "move_first" and idx in pool.resident:
            table.move_first(task)
            model.move_first(task)
        elif action == "move_last" and idx in pool.resident:
            table.move_last(task)
            model.move_last(task)
        elif action == "recalc":
            # Any time: the multiqueue scheduler recalculates while other
            # CPUs' tables still hold eligible tasks.
            for t in pool.tasks:
                t.counter = (t.counter >> 1) + t.priority
            table.after_recalculate()
            model.recalculate()
        table.check_invariants()
        model.check()
    assert table.resident == len(pool.resident)


@given(st.lists(task_spec, min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_search_order_sorted_by_static_class(specs):
    """Walking lists from top downward yields non-increasing list
    indices, and every eligible task is reachable at or below top."""
    pool = _Pool(specs)
    table = ELSCRunqueueTable()
    for i, task in enumerate(pool.tasks):
        table.insert(task)
    table.check_invariants()
    if table.top is not None:
        seen = []
        idx = table.top
        while idx is not None:
            seen.append(idx)
            idx = table.next_eligible_below(idx)
        assert seen == sorted(seen, reverse=True)
        eligible = [t for t in pool.tasks if table.is_eligible(t)]
        reachable = set()
        for i in seen:
            reachable.update(
                t.pid for t in table.tasks_in(i) if table.is_eligible(t)
            )
        assert reachable == {t.pid for t in eligible}


@given(
    st.integers(1, 40),
    st.integers(0, 80),
    st.integers(0, 6),
)
@settings(max_examples=300, deadline=None)
def test_prediction_invariant(priority, counter, recalcs):
    """predicted_index always equals the index after one recalculation,
    for any starting counter (not just zero)."""
    table = ELSCRunqueueTable()
    task = Task(priority=priority)
    task.counter = counter
    predicted = table.predicted_index(task)
    task.counter = (task.counter >> 1) + task.priority
    assert table.index_for(task) == predicted
