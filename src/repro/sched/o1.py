"""An O(1)-style scheduler — the design that eventually replaced both.

Linux 2.5 replaced the goodness scan with Ingo Molnár's O(1) scheduler:
per-CPU run queues, each holding an *active* and an *expired* priority
array with a find-first-set bitmap.  A task that exhausts its timeslice
moves to the expired array; when the active array drains the two arrays
swap — no whole-system recalculation loop at all.

This module implements that design scaled to the 2.3.99 task model so it
can run unmodified against the same machine, workloads, and benches as
the paper's schedulers:

* priority slots 0–99: real-time (``rt_priority`` 99 → slot 0);
* slots 100–139: SCHED_OTHER (``priority`` 40 → slot 100), so the
  existing 1–40 priority field maps onto the array directly;
* timeslice granted on expiry is the task's ``priority`` in ticks, the
  same refill the 2.3.99 recalculation would converge to;
* wakeups enqueue on the task's last CPU (least-loaded for new tasks);
  an idle CPU steals the highest-priority queued task elsewhere.

The bitmap is a Python integer; find-first-set is ``bit_length`` on the
isolated lowest bit — O(1) in spirit and in charged cycles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..kernel.listops import ListHead
from ..kernel.task import SchedPolicy, Task
from .base import SchedDecision, Scheduler
from .registry import register_scheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.cpu import CPU

__all__ = ["O1Scheduler"]

#: Total priority slots: 100 real-time + 40 time-sharing.
_NR_SLOTS = 140
_RT_SLOTS = 100


def _slot_for(task: Task) -> int:
    """Array slot (lower = more important)."""
    if task.is_realtime():
        return _RT_SLOTS - 1 - min(task.rt_priority, _RT_SLOTS - 1)
    return _RT_SLOTS + (40 - task.priority)


class _PriorityArray:
    """One active/expired half: 140 FIFO lists plus a bitmap."""

    __slots__ = ("queues", "bitmap", "count")

    def __init__(self) -> None:
        self.queues = [ListHead() for _ in range(_NR_SLOTS)]
        self.bitmap = 0
        self.count = 0

    def enqueue(self, task: Task, slot: int, front: bool = False) -> None:
        node = task.run_list
        node.init()
        if front:
            node.add(self.queues[slot])
        else:
            node.add_tail(self.queues[slot])
        self.bitmap |= 1 << slot
        self.count += 1

    def dequeue(self, task: Task, slot: int) -> None:
        task.run_list.del_()
        self.count -= 1
        if self.queues[slot].empty():
            self.bitmap &= ~(1 << slot)

    def first_slot(self) -> Optional[int]:
        if self.bitmap == 0:
            return None
        lowest = self.bitmap & -self.bitmap
        return lowest.bit_length() - 1

    def first_task(self) -> Optional[Task]:
        slot = self.first_slot()
        if slot is None:
            return None
        node = self.queues[slot].first()
        return node.owner if node is not None else None


class _RunQueue:
    """One CPU's pair of arrays."""

    __slots__ = ("active", "expired")

    def __init__(self) -> None:
        self.active = _PriorityArray()
        self.expired = _PriorityArray()

    def swap_if_drained(self) -> bool:
        if self.active.count == 0 and self.expired.count > 0:
            self.active, self.expired = self.expired, self.active
            return True
        return False

    @property
    def total(self) -> int:
        return self.active.count + self.expired.count


@register_scheduler(
    "o1",
    summary="per-CPU active/expired bitmap arrays (2.6-style O(1))",
)
class O1Scheduler(Scheduler):
    """Per-CPU active/expired bitmap arrays (the 2.5-era design)."""

    name = "o1"
    uses_global_lock = False

    def __init__(self, steal: bool = True) -> None:
        super().__init__()
        self.steal = steal
        self._queues: list[_RunQueue] = []
        #: pid -> (cpu index, array, slot) while queued.
        self._where: dict[int, tuple[int, _PriorityArray, int]] = {}
        self._running_onqueue = 0

    def reset(self) -> None:
        super().reset()
        count = len(self.machine.cpus) if self.machine is not None else 1
        self._queues = [_RunQueue() for _ in range(count)]
        self._where = {}
        self._running_onqueue = 0

    # -- placement ------------------------------------------------------------------

    def _pick_cpu(self, task: Task) -> int:
        if 0 <= task.processor < len(self._queues):
            return task.processor
        loads = [q.total for q in self._queues]
        return loads.index(min(loads))

    def _enqueue(
        self,
        task: Task,
        cpu_idx: Optional[int] = None,
        expired: bool = False,
        front: bool = False,
    ) -> None:
        if task.on_runqueue() and task.run_list.prev is None:
            self._running_onqueue -= 1
        idx = self._pick_cpu(task) if cpu_idx is None else cpu_idx
        rq = self._queues[idx]
        array = rq.expired if expired else rq.active
        slot = _slot_for(task)
        array.enqueue(task, slot, front=front)
        self._where[task.pid] = (idx, array, slot)

    # -- run-queue interface ------------------------------------------------------------

    def add_to_runqueue(self, task: Task) -> int:
        if task.on_runqueue():
            raise RuntimeError(f"{task.name} is already on the run queue")
        if task.counter == 0:
            task.counter = task.priority  # fresh timeslice on wakeup
        self._enqueue(task)
        self.stats.enqueues += 1
        return self.cost.list_op + self.cost.elsc_index

    def del_from_runqueue(self, task: Task) -> int:
        if not task.on_runqueue():
            return 0
        where = self._where.pop(task.pid, None)
        if where is not None:
            _, array, slot = where
            array.dequeue(task, slot)
        elif task.run_list.prev is None:
            self._running_onqueue -= 1
        task.run_list.next = None
        task.run_list.prev = None
        self.stats.dequeues += 1
        return self.cost.list_op

    def move_first_runqueue(self, task: Task) -> None:
        where = self._where.get(task.pid)
        if where is None:
            return
        cpu_idx, array, slot = where
        array.dequeue(task, slot)
        array.enqueue(task, slot, front=True)

    def move_last_runqueue(self, task: Task) -> None:
        where = self._where.get(task.pid)
        if where is None:
            return
        cpu_idx, array, slot = where
        array.dequeue(task, slot)
        array.enqueue(task, slot, front=False)

    # -- schedule ------------------------------------------------------------------------

    def schedule(self, prev: Task, cpu: "CPU") -> SchedDecision:
        self.stats.schedule_calls += 1
        idle = cpu.idle_task
        cost_cycles = 0
        examined = 0
        prev_yielded = prev is not idle and prev.yield_pending
        my = cpu.cpu_id if cpu.cpu_id < len(self._queues) else 0
        rq = self._queues[my]

        if prev is not idle:
            if prev.is_runnable():
                if prev.counter == 0:
                    # Timeslice expired: refill and park in the expired
                    # array (real-time FIFO tasks never expire here; RR
                    # rotates within the active array).
                    if prev.policy is SchedPolicy.SCHED_FIFO:
                        self._enqueue(prev, cpu_idx=my, front=True)
                    else:
                        prev.counter = prev.priority
                        if prev.policy is SchedPolicy.SCHED_RR:
                            self._enqueue(prev, cpu_idx=my)
                        else:
                            self._enqueue(prev, cpu_idx=my, expired=True)
                elif prev_yielded:
                    # sched_yield: back of the current slot.
                    self._enqueue(prev, cpu_idx=my)
                else:
                    self._enqueue(prev, cpu_idx=my, front=True)
            elif prev.on_runqueue():
                cost_cycles += self.del_from_runqueue(prev)

        self.stats.runqueue_len_sum += self.runqueue_len()

        rq.swap_if_drained()
        chosen = self._dequeue_first(my, prev)
        if chosen is None and self.steal:
            victim = self._steal_victim(my)
            if victim is not None:
                chosen = self._dequeue_first(victim, prev)
        if chosen is not None:
            examined += 1
            chosen.run_list.next = chosen.run_list
            chosen.run_list.prev = None
            self._running_onqueue += 1
            if prev_yielded and chosen is prev:
                self.stats.yield_reruns += 1
        if prev is not idle and prev.yield_pending:
            prev.yield_pending = False

        # O(1): entry overhead plus a constant per decision — no scan.
        cost_cycles += self.cost.schedule_entry + self.cost.elsc_examine
        self.stats.tasks_examined += examined
        self.stats.scheduler_cycles += cost_cycles
        return SchedDecision(
            next_task=chosen,
            cost=cost_cycles,
            examined=examined,
            eval_cycles=self.cost.elsc_examine,
        )

    def _dequeue_first(self, cpu_idx: int, prev: Task) -> Optional[Task]:
        rq = self._queues[cpu_idx]
        rq.swap_if_drained()
        array = rq.active
        slot = array.first_slot()
        while slot is not None:
            for node in array.queues[slot]:
                task: Task = node.owner
                if task.has_cpu and task is not prev:
                    continue
                array.dequeue(task, slot)
                self._where.pop(task.pid, None)
                return task
            # Every task in this slot is running elsewhere; mask it out
            # of consideration by walking to the next set bit.
            higher = array.bitmap >> (slot + 1)
            if higher == 0:
                break
            lowest = higher & -higher
            slot = slot + 1 + lowest.bit_length() - 1
        return None

    def _steal_victim(self, my: int) -> Optional[int]:
        best = None
        best_load = 0
        for i, rq in enumerate(self._queues):
            if i == my:
                continue
            if rq.total > best_load:
                best = i
                best_load = rq.total
        return best

    # -- introspection ------------------------------------------------------------------------

    def runqueue_len(self) -> int:
        return sum(rq.total for rq in self._queues) + self._running_onqueue

    def runqueue_tasks(self) -> list[Task]:
        out: list[Task] = []
        for rq in self._queues:
            for array in (rq.active, rq.expired):
                for queues in array.queues:
                    out.extend(node.owner for node in queues)
        return out
