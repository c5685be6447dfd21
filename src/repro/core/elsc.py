"""The ELSC scheduler (paper section 5) — the paper's contribution.

ELSC ("Enhanced Linux SCheduler") keeps the run queue sorted by *static
goodness* in a :class:`~repro.core.table.ELSCRunqueueTable` so that
``schedule()`` examines a handful of tasks instead of every runnable
one.  Behavioural summary (section 5.2):

1. a still-runnable previous task is re-inserted into the table first
   (running tasks are physically removed from the lists, so this also
   unifies the prev-handling path); exhausted SCHED_RR tasks are
   refilled and rotated to the end of their list;
2. if ``top`` is unset: a set ``next_top`` means every runnable quantum
   is exhausted → recalculate all counters and promote ``next_top``;
   both unset means the table is empty → idle;
3. otherwise search only the ``top`` list: skip tasks running on another
   CPU, stop at the first zero-counter task (the tail section), demote a
   task that just yielded to candidate-of-last-resort, add the dynamic
   mm/affinity bonuses to the static goodness of everyone else, and keep
   the best; at most ``nr_cpus/2 + 5`` tasks are examined;
4. on a uniprocessor build, end the search immediately on a memory-map
   match (no better dynamic bonus is possible);
5. the chosen task is *manually* removed from its list — its
   ``run_list.prev`` becomes ``None``, marking "on the run queue but not
   in any list" — and a pending SCHED_YIELD on the previous task is
   cleared after the decision.

The behavioural differences the paper concedes (section 5.2 end) follow
from the algorithm: a bonused task in the second-highest list can lose
to an unbonused one in the highest, and a yielding sole-runnable task is
simply rerun instead of triggering a whole-system recalculation (the
Figure 2 effect).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..kernel.task import SchedPolicy, Task
from ..sched.base import SchedDecision, Scheduler
from ..sched.registry import register_scheduler
from .table import ELSCRunqueueTable

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.cpu import CPU

__all__ = ["ELSCScheduler"]

#: Safety bound on recalculate-and-retry rounds (see vanilla counterpart).
_MAX_REPEATS = 64


@register_scheduler(
    "elsc",
    summary="the paper's ELSC priority-table design",
)
class ELSCScheduler(Scheduler):
    """The table-based ELSC scheduler — Figure 1b's run queue.

    ``search_limit`` overrides the per-list examination bound (paper
    default: half the number of processors plus five); ``up_shortcut``
    disables the uniprocessor memory-map early exit for ablations.
    """

    name = "elsc"

    def __init__(
        self,
        search_limit: Optional[int] = None,
        up_shortcut: bool = True,
        table_size: Optional[int] = None,
        other_lists: Optional[int] = None,
    ) -> None:
        super().__init__()
        self._search_limit_override = search_limit
        self._up_shortcut = up_shortcut
        self._table_size = table_size
        self._other_lists = other_lists
        self.table = self._make_table()
        #: Tasks "on the run queue" by convention but resident in no list
        #: (they are executing on some CPU).
        self._running_onqueue = 0

    def _make_table(self) -> ELSCRunqueueTable:
        kwargs = {}
        if self._table_size is not None:
            kwargs["size"] = self._table_size
        if self._other_lists is not None:
            kwargs["other_lists"] = self._other_lists
        return ELSCRunqueueTable(**kwargs)

    def reset(self) -> None:
        super().reset()
        self.table = self._make_table()
        self._running_onqueue = 0

    @property
    def search_limit(self) -> int:
        """Tasks examined per list: ``nr_cpus // 2 + 5`` unless overridden."""
        if self._search_limit_override is not None:
            return self._search_limit_override
        return self.nr_cpus // 2 + 5

    # -- run-queue manipulation (section 5.1) -------------------------------------

    def _mark_running_offlist(self, task: Task) -> None:
        """Manual removal convention: on the run queue, in no list."""
        task.run_list.next = task.run_list  # non-None ⇒ "on the run queue"
        task.run_list.prev = None           # None ⇒ not resident in a list
        self._running_onqueue += 1

    def _insert(self, task: Task, at_tail: bool = False) -> None:
        """Put a task into the table, handling the running-off-list state."""
        if task.on_runqueue() and not task.in_a_list():
            self._running_onqueue -= 1
        self.table.insert(task, at_tail=at_tail)

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
            self.table.remove(task)
        else:
            self._running_onqueue -= 1
        task.run_list.next = None
        task.run_list.prev = None
        self.stats.dequeues += 1
        return self.cost.list_op

    def move_first_runqueue(self, task: Task) -> None:
        if task.in_a_list():
            self.table.move_first(task)

    def move_last_runqueue(self, task: Task) -> None:
        if task.in_a_list():
            self.table.move_last(task)

    # -- recalculation (section 5.2) --------------------------------------------------

    def recalculate_counters(self) -> int:
        cost = super().recalculate_counters()
        # The exhausted tasks were pre-inserted at their predicted lists;
        # promoting next_top is all the structure maintenance needed.
        self.table.after_recalculate()
        return cost

    # -- schedule() (section 5.2) --------------------------------------------------------

    def schedule(self, prev: Task, cpu: "CPU") -> SchedDecision:
        self.stats.schedule_calls += 1
        idle = cpu.idle_task
        cost_cycles = 0
        examined = 0
        indexed = 0
        recalcs = 0
        recalc_cycles = 0
        prev_yielded = prev is not idle and prev.yield_pending

        # Step 1: the previous task goes back into the table if it is
        # still runnable ("we insert the task in the table now lest we
        # lose track of it"), with SCHED_RR rotation applied.
        if prev is not idle:
            if prev.is_runnable():
                if prev.policy is SchedPolicy.SCHED_RR and prev.counter == 0:
                    prev.counter = prev.priority
                    self._insert(prev, at_tail=True)
                else:
                    self._insert(prev)
                indexed += 1
            elif prev.on_runqueue():
                cost_cycles += self.del_from_runqueue(prev)

        self.stats.runqueue_len_sum += self.runqueue_len()

        chosen: Optional[Task] = None
        for _round in range(_MAX_REPEATS):
            top = self.table.top
            if top is None:
                if self.table.next_top is not None:
                    # Step 2: all quanta exhausted — recalculate and retry.
                    recalc_charge = self.recalculate_counters()
                    cost_cycles += recalc_charge
                    recalc_cycles += recalc_charge
                    recalcs += 1
                    continue
                chosen = None  # empty table: idle
                break
            # Step 3: search, descending through populated lists only
            # when every examined task was ineligible (SMP-only case).
            idx: Optional[int] = top
            while idx is not None:
                candidate, exam = self._search_list(idx, prev, cpu)
                examined += exam
                if candidate is not None:
                    chosen = candidate
                    break
                idx = self.table.next_eligible_below(idx)
            break
        else:  # pragma: no cover - guarded impossibility
            raise RuntimeError("ELSC scheduler failed to converge")

        if chosen is not None:
            # Step 5: manual removal — the task stays "on the run queue"
            # while holding a processor, but lives in no list.
            self.table.remove(chosen)
            self._mark_running_offlist(chosen)
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

    def _search_list(
        self, idx: int, prev: Task, cpu: "CPU"
    ) -> tuple[Optional[Task], int]:
        """Pick the best candidate from list ``idx``.

        Returns ``(candidate, tasks_examined)``; candidate is ``None``
        only when every task seen was running on another CPU (or the
        list's eligible section was empty).
        """
        limit = self.search_limit
        examined = 0
        rt_list = idx >= self.table.other_lists
        best: Optional[Task] = None
        best_utility = -1
        yielded_fallback: Optional[Task] = None
        # Iterate the list front to back (the Python list stores it
        # back-to-front) with static_goodness()/dynamic_bonus() inlined:
        # same arithmetic, and the reference functions stay the oracle in
        # tests.  The shortcut test moves ahead of the utility
        # computation — it returns regardless of the utility value.
        this_cpu = cpu.cpu_id
        this_mm = prev.mm
        shortcut = self._up_shortcut and not self.smp and this_mm is not None
        for task in reversed(self.table.lists[idx]):
            if not rt_list and task.counter == 0:
                # The zero-counter tail section begins: "the rest of the
                # list is either empty or unusable".
                break
            examined += 1
            if task.has_cpu and task is not prev:
                if examined >= limit:
                    break
                continue
            if rt_list:
                # Real-time search: highest rt_priority wins, no bonuses,
                # no yield demotion (section 5.2).
                if best is None or task.rt_priority > best.rt_priority:
                    best = task
            elif task.yield_pending:
                # A yielder runs "only if we cannot find another task".
                if yielded_fallback is None:
                    yielded_fallback = task
            else:
                if shortcut and task.mm is this_mm:
                    # Step 4, the uniprocessor shortcut: an mm match is the
                    # best dynamic bonus available — stop looking.
                    return task, examined
                utility = task.counter + task.priority
                if task.mm is this_mm and this_mm is not None:
                    utility += 1
                if task.processor == this_cpu:
                    utility += 15
                if utility > best_utility:
                    best = task
                    best_utility = utility
            if examined >= limit:
                break
        if best is not None:
            return best, examined
        return yielded_fallback, examined

    # -- introspection ---------------------------------------------------------------------

    def runqueue_len(self) -> int:
        return self.table.resident + self._running_onqueue

    def runqueue_tasks(self) -> list[Task]:
        return self.table.all_resident()
