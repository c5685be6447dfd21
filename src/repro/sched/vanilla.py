"""The stock Linux 2.3.99-pre4 scheduler (the paper's baseline, "reg").

A faithful re-implementation of the behaviour described in the paper's
section 3 (and the corresponding kernel source):

* the run queue is a single circular queue, unsorted; newly woken tasks
  go to the front;
* ``schedule()`` walks the **whole** queue evaluating ``goodness()`` for
  every runnable task not currently executing on another CPU, keeping
  the first-seen maximum (front-of-queue wins ties);
* the previous task is the initial candidate; a pending SCHED_YIELD
  makes its goodness zero for this pass (and the bit is consumed);
* if the best goodness is exactly zero — at least one runnable task
  exists but every quantum is exhausted (or the lone candidate just
  yielded) — the scheduler **recalculates the counter of every task in
  the system** (``counter = counter//2 + priority``) and rescans;
* an exhausted SCHED_RR previous task is given a fresh quantum and moved
  to the back of the queue before the scan;
* running tasks *stay on the run queue* (``has_cpu`` guards the scan).

Costs are charged per the machine's cost model: a goodness evaluation
per examined task, plus the whole-system recalculation loops.  This is
the O(n)-per-entry, redundant-recalculation design the ELSC scheduler
replaces.

Two queue layouts implement the same semantics (``impl=`` selects one;
``tests/sched/test_vanilla_argmax.py`` and
``tests/bench/test_runqueue_identity.py`` pin them bit-identical):

``array`` (default)
    The simulator must *charge* the O(n) scan — ``examined`` and the
    cycles billed for it — but it need not *pay* for it as a Python
    loop.  The queue is a front-first ``list[Task]``, and for each CPU
    ``c`` two int rows run parallel to it:

    ``rows[c][i]``
        goodness of queued task ``i`` on CPU ``c`` without the mm
        bonus: ``1000 + rt_priority`` for a real-time task, 0 for an
        exhausted quantum, otherwise ``counter + priority`` with the +15
        affinity bonus pre-added in the row of the task's ``processor``;
    ``keys[c][i]``
        ``rows[c][i] << 20 | slot``, where ``slot`` numbers the task's
        address space from 1 (0 for no mm, and for the real-time and
        exhausted tasks that earn no mm bonus).

    A pick on CPU ``c`` for a caller whose mm has slot ``s`` is then a
    few C-level builtin calls (:func:`_argmax`): ``m = max(row)``; the
    front-most key ``m << 20 | s`` is an mm-bonus winner at ``m + 1``;
    failing that, the winner is the earlier of ``row.index(m)`` and a key
    ``(m - 1) << 20 | s`` in front of it.  That is ``goodness()``'s argmax
    under the front-of-queue tie rule, exactly.

    The rows are sound because a waiting task's ``counter + priority``
    does not change (paper section 3.3.1), and neither does its
    ``processor``: ticks and dispatch touch only running tasks,
    recalculation rebuilds every row, and the parameter syscalls requeue
    through ``del``/``add``.  A running task's entries do go stale, so
    for the length of a call the scan **masks** (writes -1 over) the
    entries of every queued task some CPU is running — each
    ``cpu.current`` with ``has_cpu`` set, ``prev`` included — and puts
    them back on the way out.  ``prev``'s entries are rewritten from its
    live fields then, in every CPU's rows, since ``prev`` is the task
    that just stopped running here.  ``examined`` is then
    ``len(queue) - masked`` (+1 for an eligible ``prev``), exact on every
    host because there ``has_cpu`` means "is some CPU's current".  A
    winner that still has ``has_cpu`` set (tests set it by hand) is
    masked and the search repeats: the lazy skip the other policies use.

    The ``run_list`` sentinel pointers are still maintained so the
    kernel's ``on_runqueue()``/``in_a_list()`` conventions hold.

``list``
    the literal reference: the kernel's circular doubly-linked
    ``ListHead`` walk, evaluating ``goodness()`` from live task fields.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..kernel.listops import ListHead
from ..kernel.params import MM_BONUS, PROC_CHANGE_PENALTY, RT_GOODNESS_BASE
from ..kernel.task import SchedPolicy, Task
from .base import SchedDecision, Scheduler
from .goodness import goodness
from .registry import register_scheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.cpu import CPU
    from ..kernel.mm import MMStruct

__all__ = ["VanillaScheduler"]

#: Hard cap on recalculate-and-rescan rounds per schedule() call.  The
#: real kernel needs no such guard (each recalculation strictly raises
#: some counter); this exists to turn a simulator bug into a loud error
#: instead of a hang.
_MAX_REPEATS = 64

#: Enum members bound once: a class attribute load on an Enum costs
#: several times a global load, and these are read on every call.
_OTHER = SchedPolicy.SCHED_OTHER
_RR = SchedPolicy.SCHED_RR

#: Key bits below the weight: the mm slot.
_SLOT_BITS = 20
#: Row and key value of a masked entry.  Below every weight, and never a
#: searched key: searches run only for ``m > 0``, so their keys are >= 1.
_MASKED = -1


def _argmax(row: list[int], keys: list[int], slot: int) -> tuple[int, int]:
    """``(index, goodness)`` of the first-seen best entry; ``(-1, -1)``
    when every entry is masked.

    Goodness is ``row[i]``, plus the +1 mm bonus where ``keys[i]``
    carries ``slot`` (the searches below rely on the bonus being 1).
    Sentinels keep the misses allocation- and exception-free: the bonus
    search past ``i`` ends on an appended ``hi``, and the search in
    front of ``i`` ends on ``lo`` written over ``keys[i]``.
    """
    m = max(row) if row else _MASKED
    if m < 0:
        return -1, -1
    i = row.index(m)
    if slot and m:
        hi = m << _SLOT_BITS | slot
        if keys[i] == hi:
            return i, m + 1
        keys.append(hi)
        j = keys.index(hi, i + 1)
        keys.pop()
        if j < len(row):
            return j, m + 1
        if i:
            lo = (m - 1) << _SLOT_BITS | slot
            key = keys[i]
            keys[i] = lo
            j = keys.index(lo)
            keys[i] = key
            return j, m
    return i, m


@register_scheduler(
    "reg",
    aliases=("vanilla", "current"),
    summary="the 2.3.99 global-runqueue goodness scan",
)
class VanillaScheduler(Scheduler):
    """The current (2.3.99-pre4) Linux scheduler — Figure 1a's run queue."""

    name = "reg"

    def __init__(self, impl: str = "array") -> None:
        super().__init__()
        if impl not in ("array", "list"):
            raise ValueError(f"impl must be array|list, got {impl!r}")
        self.impl = impl
        self._array = impl == "array"
        #: array impl: the queue, front first.
        self._q: list[Task] = []
        #: array impl: ``(cpu_id, row, keys)`` per CPU (module docstring).
        self._lanes: list[tuple[int, list[int], list[int]]] = []
        #: array impl: address space -> key slot (from 1; 0 is no mm).
        self._slots: dict["MMStruct", int] = {}
        #: array impl: per CPU, the other CPUs (whose currents it masks).
        self._peers: list[list["CPU"]] = []
        #: list impl: circular doubly-linked queue head.
        self._head = ListHead()
        self._len = 0

    def reset(self) -> None:
        super().reset()
        cpus = [] if self.machine is None else list(self.machine.cpus)
        ncpus = max(1, len(cpus))
        self._peers = [[p for p in cpus if p is not cpu] for cpu in cpus]
        self._q = []
        self._lanes = [(c, [], []) for c in range(ncpus)]
        self._slots = {}
        self._head = ListHead()
        self._len = 0

    # -- array impl: the per-CPU rows -----------------------------------------

    def _encode(self, task: Task) -> tuple[int, int, int]:
        """``(weight, processor, slot)``: ``task``'s row entry is
        ``weight``, +15 on CPU ``processor``; its key adds ``slot``."""
        if task.policy is _OTHER:
            counter = task.counter
            if counter:
                mm = task.mm
                slot = 0 if mm is None else self._slots.get(mm) or self._new_slot(mm)
                return counter + task.priority, task.processor, slot
            return 0, -1, 0
        return RT_GOODNESS_BASE + task.rt_priority, -1, 0

    def _new_slot(self, mm: "MMStruct") -> int:
        slot = len(self._slots) + 1
        if slot >> _SLOT_BITS:
            raise OverflowError(
                f"more than {(1 << _SLOT_BITS) - 1} address spaces on one run queue"
            )
        self._slots[mm] = slot
        return slot

    def _put(self, task: Task, i: int) -> None:
        """Rewrite ``task``'s entries at index ``i`` of every row."""
        weight, proc, slot = self._encode(task)
        for c, row, keys in self._lanes:
            w = weight + PROC_CHANGE_PENALTY if c == proc else weight
            row[i] = w
            keys[i] = w << _SLOT_BITS | slot

    def _move(self, task: Task, to: int) -> None:
        q = self._q
        i = q.index(task)
        q.insert(to, q.pop(i))
        for _, row, keys in self._lanes:
            row.insert(to, row.pop(i))
            keys.insert(to, keys.pop(i))

    # -- run-queue manipulation (paper section 3.2) ---------------------------

    def add_to_runqueue(self, task: Task) -> int:
        """Insert at the *front* of the queue (newly woken tasks lead)."""
        if task.on_runqueue():
            raise RuntimeError(f"{task.name} is already on the run queue")
        if self._array:
            self._q.insert(0, task)
            weight, proc, slot = self._encode(task)
            for c, row, keys in self._lanes:
                w = weight + PROC_CHANGE_PENALTY if c == proc else weight
                row.insert(0, w)
                keys.insert(0, w << _SLOT_BITS | slot)
            # Self-loop sentinel: "on the run queue, in a list" for the
            # kernel's pointer conventions, without a linked structure.
            node = task.run_list
            node.next = node
            node.prev = node
        else:
            task.run_list.init()
            task.run_list.add(self._head)
        self._len += 1
        self.stats.enqueues += 1
        return self.cost.list_op

    def del_from_runqueue(self, task: Task) -> int:
        if not task.on_runqueue():
            return 0
        if self._array:
            i = self._q.index(task)
            del self._q[i]
            for _, row, keys in self._lanes:
                del row[i]
                del keys[i]
        else:
            task.run_list.del_()
        task.run_list.next = None
        task.run_list.prev = None
        self._len -= 1
        self.stats.dequeues += 1
        return self.cost.list_op

    def move_first_runqueue(self, task: Task) -> None:
        if not task.in_a_list():
            return
        if self._array:
            self._move(task, 0)
        else:
            task.run_list.move(self._head)

    def move_last_runqueue(self, task: Task) -> None:
        if not task.in_a_list():
            return
        if self._array:
            self._move(task, len(self._q))
        else:
            task.run_list.move_tail(self._head)

    # -- schedule() (paper section 3.3.2) -------------------------------------

    def schedule(self, prev: Task, cpu: "CPU") -> SchedDecision:
        self.stats.schedule_calls += 1
        self.stats.runqueue_len_sum += self._len
        idle = cpu.idle_task
        cost = 0
        examined_total = 0
        recalcs = 0
        recalc_cycles = 0

        # Exhausted round-robin real-time tasks get a fresh quantum and go
        # to the back of the line before the scan.
        if (
            prev is not idle
            and prev.policy is _RR
            and prev.counter == 0
            and prev.is_runnable()
        ):
            prev.counter = prev.priority
            self.move_last_runqueue(prev)

        # A previous task that stopped being runnable leaves the queue.
        if prev is not idle and not prev.is_runnable():
            cost += self.del_from_runqueue(prev)

        prev_eligible = prev is not idle and prev.is_runnable()
        this_cpu = cpu.cpu_id
        this_mm = prev.mm
        array = self._array
        if array:
            q = self._q
            _, row, keys = self._lanes[this_cpu]
            slot = self._slots.get(this_mm, 0)
            # For this call, mask every queued task some CPU is running:
            # its entries went stale while it ran (see module docstring).
            # Other CPUs' entries are restored as saved in ``hidden``.
            hidden = []
            for peer in self._peers[this_cpu]:
                cur = peer.current
                if cur.has_cpu and cur.run_list.next is not None:
                    i = q.index(cur)
                    hidden.append((i, row[i], keys[i]))
                    row[i] = keys[i] = _MASKED
            prev_i = -1
            if prev.has_cpu and prev.run_list.next is not None:
                prev_i = q.index(prev)
                row[prev_i] = keys[prev_i] = _MASKED
            visible = len(q) - len(hidden) - (prev_i >= 0)

        for _round in range(_MAX_REPEATS):
            c = -1000
            next_task: Optional[Task] = None
            examined = 0
            if prev_eligible:
                # prev_goodness: a pending yield reads as zero and the bit
                # is consumed, so the post-recalculation rescan sees the
                # task's true goodness.
                if prev.yield_pending:
                    prev.yield_pending = False
                    c = 0
                else:
                    c = goodness(prev, this_cpu, this_mm)
                next_task = prev
                examined += 1
            if array:
                i, weight = _argmax(row, keys, slot)
                while i >= 0 and q[i].has_cpu:
                    hidden.append((i, row[i], keys[i]))
                    row[i] = keys[i] = _MASKED
                    visible -= 1
                    i, weight = _argmax(row, keys, slot)
                examined += visible
                if i >= 0 and weight > c:
                    c = weight
                    next_task = q[i]
            else:
                head = self._head
                node = head.next
                while node is not head:
                    task = node.owner
                    node = node.next
                    if task.has_cpu:
                        continue  # running somewhere (prev included)
                    examined += 1
                    if task.policy is _OTHER:
                        counter = task.counter
                        if counter == 0:
                            weight = 0
                        else:
                            weight = counter + task.priority
                            if task.mm is this_mm and this_mm is not None:
                                weight += MM_BONUS
                            if task.processor == this_cpu:
                                weight += PROC_CHANGE_PENALTY
                    else:
                        weight = RT_GOODNESS_BASE + task.rt_priority
                    if weight > c:
                        c = weight
                        next_task = task
            examined_total += examined
            if c != 0:
                break
            # Every candidate's quantum is spent: recalculate the counter
            # of every task in the system and search again.
            recalc_charge = self.recalculate_counters()
            cost += recalc_charge
            recalc_cycles += recalc_charge
            recalcs += 1
            if array:
                # The rebuild rewrote the masked entries: save and mask again.
                hidden = [(i, row[i], keys[i]) for i, _, _ in hidden]
                for i, _, _ in hidden:
                    row[i] = keys[i] = _MASKED
                if prev_i >= 0:
                    row[prev_i] = keys[prev_i] = _MASKED
        else:
            raise RuntimeError("vanilla scheduler failed to converge")

        if array:
            for i, weight, key in hidden:
                row[i] = weight
                keys[i] = key
            if prev_i >= 0:
                # prev's counter ticked down (and its processor moved)
                # while it ran: rewrite its entries from live fields.
                self._put(prev, prev_i)
        cost += self.cost.vanilla_schedule_cost(examined_total)
        self.stats.tasks_examined += examined_total
        self.stats.scheduler_cycles += cost
        return SchedDecision(
            next_task=next_task,
            cost=cost,
            examined=examined_total,
            recalcs=recalcs,
            eval_cycles=self.cost.goodness_eval * examined_total,
            recalc_cycles=recalc_cycles,
        )

    def recalculate_counters(self) -> int:
        """Recalculate, then rebuild every row from the new counters.

        The rebuild is simulator bookkeeping, not simulated work: the
        cycle charge is the inherited recalc cost, identical for both
        queue layouts (the bit-identity suites depend on that).
        """
        charge = super().recalculate_counters()
        if self._array:
            for i, task in enumerate(self._q):
                self._put(task, i)
        return charge

    # -- introspection --------------------------------------------------------

    def runqueue_len(self) -> int:
        return self._len

    def runqueue_tasks(self) -> list[Task]:
        if self._array:
            return list(self._q)
        return [node.owner for node in self._head]
