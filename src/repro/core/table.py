"""The ELSC run-queue table (paper section 5.1, Figure 1b).

An array of 30 lists replaces the single unsorted run queue.  Each list
holds tasks in one *static goodness* range:

* SCHED_OTHER tasks live in lists 0–19, indexed by
  ``(counter + priority) // 4`` (clamped);
* real-time tasks live in the ten highest lists 20–29, indexed by
  ``rt_priority // 10``.

Two cursor pointers make selection and recalculation O(1):

``top``
    the highest-indexed list containing an *eligible* task — one that is
    real-time or has a non-zero counter.  ``None`` means no eligible
    task anywhere (either the table is empty or everything runnable has
    an exhausted quantum).

``next_top``
    the highest-indexed list containing exhausted (zero-counter)
    SCHED_OTHER tasks.  Those tasks are inserted at the **tail** of the
    list matching their *predicted* post-recalculation static goodness
    (``counter//2 + priority`` is what the recalculation loop will give
    them), so that when recalculation finally happens no re-indexing is
    needed: each list's zero section becomes its eligible section in
    place, and for ELSC, which recalculates only when ``top`` is
    ``None``, ``next_top`` becomes ``top``.

Within a list, non-zero-counter tasks occupy the front section (newest
first, matching the stock front-of-queue insert) and zero-counter tasks
the tail section (in exhaustion order); the search loop stops at the
first zero-counter task it meets.

Each of the 30 lists is a contiguous Python list of task references
stored *back-to-front* (the physical list front is the end of the Python
list), so the common eligible front insert is an O(1) C-level ``append``
and searches iterate with C-level ``reversed``.  Removal and the
intra-list moves find their task from the physical front too: the task
removed is almost always the one ``schedule()`` just picked, within
``search_limit`` of the front, so finding it costs a handful of
comparisons instead of a walk over the whole list (``list.index``
searches from the Python head, the physical back — the
O(n)-per-decision cost ELSC exists to avoid).  Per-list zero-section
sizes (``n_zero``) plus two integer bitmaps (``elig_bits`` /
``zero_bits`` — bit *i* set when list *i* has an eligible / exhausted
resident) make cursor repair after a removal a bit-mask and
``bit_length`` instead of a scan down the table.  Section membership is
decided by *position*, which is sound because a resident task's counter
only changes in the whole-system recalculation (running tasks are
physically off the table) — ``check_invariants`` cross-checks the
positional sections against the live counters.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..kernel.params import (
    ELSC_OTHER_LISTS,
    ELSC_TABLE_SIZE,
    MAX_RT_PRIORITY,
)
from ..kernel.task import SchedPolicy, Task

__all__ = ["ELSCRunqueueTable"]

#: Bound once: a class attribute load on an Enum costs several times a
#: global load, and ``insert`` reads it on every call.
_OTHER = SchedPolicy.SCHED_OTHER


class ELSCRunqueueTable:
    """The sorted, table-structured run queue.

    ``lists[i]`` is a plain Python list storing list *i* back-to-front;
    ``n_zero[i]`` counts its zero-counter tail section (Python indices
    ``[0, n_zero[i])``); ``elig_bits`` / ``zero_bits`` are bitmaps over
    list indices used for O(1) ``top`` / ``next_top`` repair.
    """

    __slots__ = (
        "size",
        "other_lists",
        "lists",
        "n_zero",
        "elig_bits",
        "zero_bits",
        "top",
        "next_top",
        "resident",
        "_index",
    )

    def __init__(
        self, size: int = ELSC_TABLE_SIZE, other_lists: int = ELSC_OTHER_LISTS
    ) -> None:
        if size <= other_lists:
            raise ValueError("table must reserve lists above the SCHED_OTHER range")
        self.size = size
        self.other_lists = other_lists
        self.lists: list[list[Task]] = [[] for _ in range(size)]
        self.n_zero = [0] * size
        self.elig_bits = 0
        self.zero_bits = 0
        self.top: Optional[int] = None
        self.next_top: Optional[int] = None
        #: Number of tasks physically resident in the lists.
        self.resident = 0
        #: pid -> list index for every resident task.
        self._index: dict[int, int] = {}

    # -- the indexing rules of section 5.1 -------------------------------------------

    def other_index(self, static_goodness: int) -> int:
        """List for a SCHED_OTHER task: static goodness / 4, clamped."""
        return max(0, min(static_goodness // 4, self.other_lists - 1))

    def rt_index(self, rt_priority: int) -> int:
        """List for a real-time task: one of the ten highest lists."""
        rt = max(0, min(rt_priority, MAX_RT_PRIORITY))
        per_list = (MAX_RT_PRIORITY + 1) // (self.size - self.other_lists)
        return self.other_lists + rt // per_list

    def index_for(self, task: Task) -> int:
        """Where ``task`` belongs right now."""
        if task.is_realtime():
            return self.rt_index(task.rt_priority)
        return self.other_index(task.counter + task.priority)

    def predicted_index(self, task: Task) -> int:
        """Where an exhausted task will belong *after* recalculation.

        The recalculation loop sets ``counter = counter//2 + priority``;
        add_to_runqueue exploits "its knowledge of how the scheduler
        resets them" to place zero-counter tasks at their future home.
        """
        predicted_counter = (task.counter >> 1) + task.priority
        return self.other_index(predicted_counter + task.priority)

    @staticmethod
    def is_eligible(task: Task) -> bool:
        """Selectable without a recalculation: real-time or quantum left."""
        return task.is_realtime() or task.counter > 0

    # -- the two "test routines" of section 5.1 ------------------------------------

    def list_has_eligible(self, idx: int) -> bool:
        """Does list ``idx`` contain a task with a non-zero counter (or RT)?"""
        return len(self.lists[idx]) > self.n_zero[idx]

    def list_has_zero(self, idx: int) -> bool:
        """Does list ``idx`` contain an exhausted SCHED_OTHER task?"""
        return self.n_zero[idx] > 0

    # -- insertion -------------------------------------------------------------------

    def insert(self, task: Task, at_tail: bool = False) -> int:
        """Link ``task`` into its list; returns the chosen index.

        Eligible tasks go to the *front* of their static-goodness list
        (like the stock front-of-queue insert); ``at_tail`` forces a tail
        insert within the eligible section (SCHED_RR rotation).
        Zero-counter tasks go to the tail of their *predicted* list.

        The list is computed here, in one pass over ``policy``,
        ``counter`` and ``priority``, with the arithmetic of
        ``is_eligible``, ``index_for`` and ``predicted_index``; those stay
        the reference that ``check_invariants`` and the tests hold every
        placement to.
        """
        if task.pid in self._index:
            raise RuntimeError(f"{task.name} is already in the ELSC table")
        counter = task.counter
        if task.policy is not _OTHER:
            idx = self.rt_index(task.rt_priority)
            exhausted = False
        else:
            exhausted = counter <= 0
            if exhausted:
                # The recalculation will give it counter//2 + priority.
                idx = ((counter >> 1) + 2 * task.priority) // 4
            else:
                idx = (counter + task.priority) // 4
            top_other = self.other_lists - 1
            if idx > top_other:
                idx = top_other
            if idx < 0:
                idx = 0
        if not exhausted:
            lst = self.lists[idx]
            if at_tail:
                # End of the eligible section = just above the zero tail.
                lst.insert(self.n_zero[idx], task)
            else:
                lst.append(task)  # physical front
            self.elig_bits |= 1 << idx
            if self.top is None or idx > self.top:
                self.top = idx
        else:
            self.lists[idx].insert(0, task)  # physical back
            self.n_zero[idx] += 1
            self.zero_bits |= 1 << idx
            if self.next_top is None or idx > self.next_top:
                self.next_top = idx
        # Self-loop sentinel: "on the run queue, in a list" for the
        # kernel's pointer conventions, without linked structure.
        node = task.run_list
        node.next = node
        node.prev = node
        self._index[task.pid] = idx
        self.resident += 1
        return idx

    # -- removal ----------------------------------------------------------------------

    def remove(self, task: Task) -> None:
        """Unlink ``task`` and repair ``top``/``next_top`` if needed.

        Leaves the task's run_list sentinel in place (caller applies its
        on/off-queue convention), exactly like kernel ``list_del``.
        """
        idx = self._index.pop(task.pid, None)
        if idx is None:
            raise RuntimeError(f"{task.name} is not in the ELSC table")
        lst = self.lists[idx]
        pos = self._find(lst, task)
        del lst[pos]
        if pos < self.n_zero[idx]:
            nz = self.n_zero[idx] = self.n_zero[idx] - 1
            if nz == 0:
                self.zero_bits &= ~(1 << idx)
                if idx == self.next_top:
                    zb = self.zero_bits
                    self.next_top = zb.bit_length() - 1 if zb else None
        elif len(lst) == self.n_zero[idx]:
            self.elig_bits &= ~(1 << idx)
            if idx == self.top:
                eb = self.elig_bits
                self.top = eb.bit_length() - 1 if eb else None
        self.resident -= 1

    # -- intra-list moves (tie biasing) ---------------------------------------------------

    def move_first(self, task: Task) -> None:
        """To the *front of its section* — wins goodness ties."""
        idx = self._require_index(task)
        lst = self.lists[idx]
        pos = self._find(lst, task)
        nz = self.n_zero[idx]
        del lst[pos]
        if pos < nz:
            lst.insert(nz - 1, task)  # front of the zero section
        else:
            lst.append(task)  # physical front
        # Bitmaps, counts and cursors are untouched: the task stays in
        # the same list and section.

    def move_last(self, task: Task) -> None:
        """To the *end of its section* — loses goodness ties."""
        idx = self._require_index(task)
        lst = self.lists[idx]
        pos = self._find(lst, task)
        nz = self.n_zero[idx]
        del lst[pos]
        if pos < nz:
            lst.insert(0, task)  # physical back
        else:
            lst.insert(nz, task)  # end of the eligible section

    @staticmethod
    def _find(lst: list[Task], task: Task) -> int:
        """Python index of ``task`` in ``lst``, searched from the physical front.

        Callers have checked that ``task`` is resident, so the walk stops
        at it; a missing task would wrap round through negative indices
        and end in IndexError.
        """
        pos = len(lst) - 1
        while lst[pos] is not task:
            pos -= 1
        return pos

    def _require_index(self, task: Task) -> int:
        idx = self._index.get(task.pid)
        if idx is None:
            raise RuntimeError(f"{task.name} is not in the ELSC table")
        return idx

    def index_of(self, task: Task) -> Optional[int]:
        """Which list ``task`` currently occupies (None if not resident)."""
        return self._index.get(task.pid)

    # -- recalculation bookkeeping ------------------------------------------------------

    def after_recalculate(self) -> None:
        """Re-file every resident task after a counter recalculation.

        Called right after the whole-system counter recalculation, which
        leaves every resident task holding a fresh quantum.  The
        exhausted tasks sit in their post-recalculation lists already, so
        the zero sections *are* the new eligible sections, and ``top``
        becomes the highest list holding any task.  A SCHED_OTHER task
        that was eligible already may belong in another list now: each
        one whose list changed is removed and inserted again.  They are
        noted from the lowest list up, each list from back to front,
        before the promotion, so tasks that land in one list keep their
        order at its front.  ELSC recalculates only when ``top`` is
        ``None``, so it has none to note or move and ``next_top`` simply
        becomes ``top``; the multiqueue scheduler recalculates while
        sibling tables still hold eligible tasks.
        """
        lists = self.lists
        n_zero = self.n_zero
        eligible: list[Task] = []
        eb = self.elig_bits & ((1 << self.other_lists) - 1)
        while eb:
            low = eb & -eb
            idx = low.bit_length() - 1
            eligible.extend(lists[idx][n_zero[idx]:])
            eb ^= low
        zb = self.zero_bits
        while zb:
            low = zb & -zb
            n_zero[low.bit_length() - 1] = 0
            zb ^= low
        eb = self.elig_bits = self.elig_bits | self.zero_bits
        self.zero_bits = 0
        self.top = eb.bit_length() - 1 if eb else None
        self.next_top = None
        for task in eligible:
            if self._index[task.pid] != self.index_for(task):
                self.remove(task)
                self.insert(task)

    # -- descent & iteration -----------------------------------------------------------

    def next_eligible_below(self, idx: int) -> Optional[int]:
        """The next populated-with-eligible-tasks list under ``idx``."""
        below = self.elig_bits & ((1 << idx) - 1)
        return below.bit_length() - 1 if below else None

    def tasks_in(self, idx: int) -> Iterator[Task]:
        """Tasks resident in list ``idx``, front to back."""
        return reversed(self.lists[idx])

    def all_resident(self) -> list[Task]:
        """Every task in the table, highest list first, list order within."""
        out: list[Task] = []
        for idx in range(self.size - 1, -1, -1):
            out.extend(reversed(self.lists[idx]))
        return out

    def check_invariants(self) -> None:
        """Structural self-check used by tests and property-based fuzzing.

        Beyond index consistency, section ordering and exact cursors,
        this cross-checks the cached section counts and bitmaps against
        the live task counters, and each task's list against the one its
        counter gives (``index_for``, or ``predicted_index`` once it is
        exhausted).
        """
        seen = 0
        max_eligible = None
        max_zero = None
        for idx in range(self.size):
            lst = self.lists[idx]
            nz = self.n_zero[idx]
            assert 0 <= nz <= len(lst), (
                f"list {idx}: n_zero={nz} outside 0..{len(lst)}"
            )
            zero_seen = False
            for pos in range(len(lst) - 1, -1, -1):  # front to back
                task = lst[pos]
                assert self._index.get(task.pid) == idx, (
                    f"{task.name} indexed at {self._index.get(task.pid)} but "
                    f"resident in list {idx}"
                )
                seen += 1
                if self.is_eligible(task):
                    assert self.index_for(task) == idx, (
                        f"eligible {task.name} in list {idx} belongs in "
                        f"{self.index_for(task)}"
                    )
                    assert not zero_seen, (
                        f"eligible {task.name} behind a zero-counter task in "
                        f"list {idx}"
                    )
                    assert pos >= nz, (
                        f"eligible {task.name} counted in list {idx}'s zero section"
                    )
                    if max_eligible is None or idx > max_eligible:
                        max_eligible = idx
                else:
                    zero_seen = True
                    assert self.predicted_index(task) == idx, (
                        f"exhausted {task.name} in list {idx} belongs in "
                        f"{self.predicted_index(task)}"
                    )
                    assert pos < nz, (
                        f"exhausted {task.name} outside list {idx}'s zero section"
                    )
                    if max_zero is None or idx > max_zero:
                        max_zero = idx
            assert (self.elig_bits >> idx) & 1 == (1 if len(lst) > nz else 0), (
                f"elig_bits bit {idx} disagrees with list occupancy"
            )
            assert (self.zero_bits >> idx) & 1 == (1 if nz else 0), (
                f"zero_bits bit {idx} disagrees with zero-section count"
            )
        assert seen == self.resident == len(self._index), (
            f"resident mismatch: walked {seen}, resident={self.resident}, "
            f"index={len(self._index)}"
        )
        assert self.top == max_eligible, (
            f"top={self.top} but highest eligible list is {max_eligible}"
        )
        assert self.next_top == max_zero, (
            f"next_top={self.next_top} but highest zero list is {max_zero}"
        )

    def __len__(self) -> int:
        return self.resident

    def __repr__(self) -> str:
        return (
            f"<ELSCRunqueueTable resident={self.resident} top={self.top} "
            f"next_top={self.next_top}>"
        )
