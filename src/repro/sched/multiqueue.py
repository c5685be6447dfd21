"""A per-CPU multi-queue scheduler — the paper's second future-work idea (§8).

    "Or perhaps a multi-priority-queue solution would be more beneficial
    to help the scheduler scale to multiple processors well."

Each CPU owns a private ELSC table
(:class:`~repro.core.table.ELSCRunqueueTable`); ``schedule()`` on a CPU
only consults its own table, and wakeups enqueue onto the waked task's
last-run CPU (falling back to the least-loaded).  An idle CPU with an
empty table *steals* from the most loaded one.  Because no structure is
shared, the global runqueue lock disappears (``uses_global_lock`` is
False and the machine charges only uncontended lock costs) — this is the
design direction Linux actually took in 2.4/2.5.

Counters stay global, so a CPU whose table holds only exhausted tasks
recalculates every task in the system, and every table then re-files
its residents (``ELSCRunqueueTable.after_recalculate``): it promotes its
zero sections and re-indexes each eligible task whose new counter moved
it to another list, so every table stays sorted by static goodness.

Trade-offs this makes visible in the ablations:

* near-zero lock contention at any CPU count;
* weaker global decisions: a CPU can run a mediocre local task while a
  better one waits elsewhere (mitigated, not fixed, by stealing);
* processor affinity is implicit (tasks stay on their home queue), so
  migrations only happen through stealing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core.table import ELSCRunqueueTable
from ..kernel.task import SchedPolicy, Task
from .base import SchedDecision, Scheduler
from .goodness import dynamic_bonus
from .registry import register_scheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.cpu import CPU

__all__ = ["MultiQueueScheduler"]

_MAX_REPEATS = 64


@register_scheduler(
    "mq",
    aliases=("multiqueue",),
    summary="lock-per-queue per-CPU runqueues with idle steal",
)
class MultiQueueScheduler(Scheduler):
    """One ELSC table per CPU, idle stealing, no global lock."""

    name = "mq"
    uses_global_lock = False

    def __init__(self, steal: bool = True) -> None:
        super().__init__()
        self.steal = steal
        self._tables: list[ELSCRunqueueTable] = []
        self._home: dict[int, int] = {}  # pid -> table index while queued
        self._running_onqueue = 0

    def reset(self) -> None:
        super().reset()
        count = len(self.machine.cpus) if self.machine is not None else 1
        self._tables = [ELSCRunqueueTable() for _ in range(count)]
        self._home = {}
        self._running_onqueue = 0

    @property
    def search_limit(self) -> int:
        return self.nr_cpus // 2 + 5

    # -- placement -----------------------------------------------------------------

    def _pick_home(self, task: Task) -> int:
        if 0 <= task.processor < len(self._tables):
            return task.processor
        # Least-loaded placement for never-ran tasks.
        loads = [t.resident for t in self._tables]
        return loads.index(min(loads))

    def _insert(self, task: Task, home: Optional[int] = None, at_tail: bool = False) -> int:
        if task.on_runqueue() and not task.in_a_list():
            self._running_onqueue -= 1
        idx = self._pick_home(task) if home is None else home
        self._tables[idx].insert(task, at_tail=at_tail)
        self._home[task.pid] = idx
        return idx

    # -- run-queue interface ---------------------------------------------------------

    def add_to_runqueue(self, task: Task) -> int:
        if task.on_runqueue():
            raise RuntimeError(f"{task.name} is already on the run queue")
        self._insert(task)
        self.stats.enqueues += 1
        return self.cost.list_op + self.cost.elsc_index

    def del_from_runqueue(self, task: Task) -> int:
        if not task.on_runqueue():
            return 0
        if task.in_a_list():
            home = self._home.pop(task.pid)
            self._tables[home].remove(task)
        else:
            self._running_onqueue -= 1
        task.run_list.next = None
        task.run_list.prev = None
        self.stats.dequeues += 1
        return self.cost.list_op

    def move_first_runqueue(self, task: Task) -> None:
        if task.in_a_list():
            self._tables[self._home[task.pid]].move_first(task)

    def move_last_runqueue(self, task: Task) -> None:
        if task.in_a_list():
            self._tables[self._home[task.pid]].move_last(task)

    # -- schedule ----------------------------------------------------------------------

    def schedule(self, prev: Task, cpu: "CPU") -> SchedDecision:
        self.stats.schedule_calls += 1
        idle = cpu.idle_task
        cost_cycles = 0
        examined = 0
        indexed = 0
        recalcs = 0
        recalc_cycles = 0
        prev_yielded = prev is not idle and prev.yield_pending
        my = cpu.cpu_id if cpu.cpu_id < len(self._tables) else 0

        if prev is not idle:
            if prev.is_runnable():
                at_tail = False
                if prev.policy is SchedPolicy.SCHED_RR and prev.counter == 0:
                    prev.counter = prev.priority
                    at_tail = True
                self._insert(prev, home=my, at_tail=at_tail)
                indexed += 1
            elif prev.on_runqueue():
                cost_cycles += self.del_from_runqueue(prev)

        self.stats.runqueue_len_sum += self.runqueue_len()

        chosen: Optional[Task] = None
        table_idx = my
        for _round in range(_MAX_REPEATS):
            table = self._tables[table_idx]
            if table.top is None:
                if table.next_top is not None:
                    recalc_charge = self._recalculate()
                    cost_cycles += recalc_charge
                    recalc_cycles += recalc_charge
                    recalcs += 1
                    continue
                # My queue is empty: steal from the busiest table.
                victim = self._steal_victim(my)
                if victim is None:
                    break  # idle
                table_idx = victim
                continue
            candidate, exam = self._search_table(table, prev, cpu)
            examined += exam
            if candidate is not None:
                chosen = candidate
                break
            break
        else:  # pragma: no cover
            raise RuntimeError("multiqueue scheduler failed to converge")

        if chosen is not None:
            home = self._home.pop(chosen.pid)
            self._tables[home].remove(chosen)
            chosen.run_list.next = chosen.run_list
            chosen.run_list.prev = None
            self._running_onqueue += 1
            if prev_yielded and chosen is prev:
                self.stats.yield_reruns += 1
        if prev is not idle and prev.yield_pending:
            prev.yield_pending = False

        cost_cycles += self.cost.elsc_schedule_cost(examined, indexed)
        self.stats.tasks_examined += examined
        self.stats.scheduler_cycles += cost_cycles
        return SchedDecision(
            next_task=chosen,
            cost=cost_cycles,
            examined=examined,
            recalcs=recalcs,
            eval_cycles=self.cost.elsc_examine * examined,
            recalc_cycles=recalc_cycles,
        )

    def _recalculate(self) -> int:
        # Counters are a global property, so every per-CPU table re-files
        # its residents, the eligible tasks of sibling tables included.
        cost = super().recalculate_counters()
        for table in self._tables:
            table.after_recalculate()
        return cost

    def _steal_victim(self, my: int) -> Optional[int]:
        if not self.steal:
            return None
        best = None
        best_load = 0
        for i, table in enumerate(self._tables):
            if i == my:
                continue
            if table.top is not None and table.resident > best_load:
                best = i
                best_load = table.resident
        return best

    def _search_table(
        self, table: ELSCRunqueueTable, prev: Task, cpu: "CPU"
    ) -> tuple[Optional[Task], int]:
        limit = self.search_limit
        idx: Optional[int] = table.top
        examined = 0
        while idx is not None:
            rt_list = idx >= table.other_lists
            best: Optional[Task] = None
            best_utility = -1
            yielded_fallback: Optional[Task] = None
            seen = 0
            for task in table.tasks_in(idx):
                if not rt_list and task.counter == 0:
                    break
                seen += 1
                examined += 1
                if task.has_cpu and task is not prev:
                    if seen >= limit:
                        break
                    continue
                if rt_list:
                    if best is None or task.rt_priority > best.rt_priority:
                        best = task
                elif task.yield_pending:
                    if yielded_fallback is None:
                        yielded_fallback = task
                else:
                    utility = task.static_goodness() + dynamic_bonus(
                        task, cpu.cpu_id, prev.mm
                    )
                    if utility > best_utility:
                        best = task
                        best_utility = utility
                if seen >= limit:
                    break
            if best is not None:
                return best, examined
            if yielded_fallback is not None:
                return yielded_fallback, examined
            idx = table.next_eligible_below(idx)
        return None, examined

    # -- introspection ---------------------------------------------------------------------

    def runqueue_len(self) -> int:
        return sum(t.resident for t in self._tables) + self._running_onqueue

    def runqueue_tasks(self) -> list[Task]:
        out: list[Task] = []
        for table in self._tables:
            out.extend(table.all_resident())
        return out

    def queue_loads(self) -> list[int]:
        """Resident count per CPU table (for balance assertions)."""
        return [t.resident for t in self._tables]
