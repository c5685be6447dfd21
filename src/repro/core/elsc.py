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

from ..kernel.task import SchedPolicy, Task, TaskState
from ..sched.base import SchedDecision, Scheduler
from ..sched.registry import register_scheduler
from .table import ELSCRunqueueTable

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.cpu import CPU

__all__ = ["ELSCScheduler"]

#: Safety bound on recalculate-and-retry rounds (see vanilla counterpart).
_MAX_REPEATS = 64

#: Enum members bound once: a class attribute load on an Enum costs
#: several times a global load, and these are read on every pick.
_RUNNING = TaskState.RUNNING
_RR = SchedPolicy.SCHED_RR


@register_scheduler(
    "elsc",
    summary="the paper's ELSC priority-table design",
)
class ELSCScheduler(Scheduler):
    """The table-based ELSC scheduler — Figure 1b's run queue.

    ``search_limit`` overrides the per-list examination bound (paper
    default: half the number of processors plus five); ``up_shortcut``
    disables the uniprocessor memory-map early exit for ablations.

    The limit and whether the shortcut applies (``up_shortcut`` on a
    non-SMP host) depend only on the bound host, so ``reset()`` fixes
    them once per bind.  The cost model is read from the host once per
    call instead: a ``lock_stretch`` fault swaps the host's ``cost``
    mid-run.  ``schedule()`` and the run-queue operations read task
    fields and run-list pointers directly rather than through the
    ``Task`` helpers; decisions, charges and counts are the same.
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
        # Both depend only on the bound host, so they are fixed per bind.
        self._limit = self.search_limit
        self._shortcut = self._up_shortcut and not self.smp

    @property
    def search_limit(self) -> int:
        """Tasks examined per list: ``nr_cpus // 2 + 5`` unless overridden."""
        if self._search_limit_override is not None:
            return self._search_limit_override
        return self.nr_cpus // 2 + 5

    # -- run-queue manipulation (section 5.1) -------------------------------------
    #
    # These and schedule() read the run_list pointers directly: a non-None
    # ``next`` means "on the run queue" (Task.on_runqueue), and a None
    # ``prev`` on such a task means "running, resident in no list"
    # (Task.in_a_list is False).

    def add_to_runqueue(self, task: Task) -> int:
        if task.run_list.next is not None:
            raise RuntimeError(f"{task.name} is already on the run queue")
        self.table.insert(task)
        self.stats.enqueues += 1
        cost = self.machine.cost
        return cost.list_op + cost.elsc_index

    def del_from_runqueue(self, task: Task) -> int:
        node = task.run_list
        if node.next is None:
            return 0
        if node.prev is not None:
            self.table.remove(task)
        else:
            self._running_onqueue -= 1
        node.next = None
        node.prev = None
        self.stats.dequeues += 1
        return self.machine.cost.list_op

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
        stats = self.stats
        stats.schedule_calls += 1
        table = self.table
        # Read once per call, never cached across calls: a lock_stretch
        # fault replaces the host's cost model mid-run.
        cost = self.machine.cost
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
            node = prev.run_list
            if prev.state is _RUNNING and not prev.exited:
                if node.next is not None and node.prev is None:
                    self._running_onqueue -= 1  # it was running off-list
                if prev.policy is _RR and prev.counter == 0:
                    prev.counter = prev.priority
                    table.insert(prev, True)
                else:
                    table.insert(prev)
                indexed += 1
            elif node.next is not None:
                cost_cycles += self.del_from_runqueue(prev)

        stats.runqueue_len_sum += table.resident + self._running_onqueue

        chosen: Optional[Task] = None
        for _round in range(_MAX_REPEATS):
            top = table.top
            if top is None:
                if table.next_top is not None:
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
                idx = table.next_eligible_below(idx)
            break
        else:  # pragma: no cover - guarded impossibility
            raise RuntimeError("ELSC scheduler failed to converge")

        if chosen is not None:
            # Step 5: manual removal — the task stays "on the run queue"
            # while holding a processor, but lives in no list.
            table.remove(chosen)
            node = chosen.run_list
            node.next = node  # non-None ⇒ "on the run queue"
            node.prev = None  # None ⇒ not resident in a list
            self._running_onqueue += 1
            if prev_yielded and chosen is prev:
                stats.yield_reruns += 1
        if prev is not idle and prev.yield_pending:
            prev.yield_pending = False

        cost_cycles += cost.elsc_schedule_cost(examined, indexed)
        stats.tasks_examined += examined
        stats.scheduler_cycles += cost_cycles
        # By position (keywords cost about twice as much per pick):
        # next_task, cost, examined, recalcs, eval_cycles, recalc_cycles.
        return SchedDecision(
            chosen, cost_cycles, examined, recalcs,
            cost.elsc_examine * examined, recalc_cycles,
        )

    def _search_list(
        self, idx: int, prev: Task, cpu: "CPU"
    ) -> tuple[Optional[Task], int]:
        """Pick the best candidate from list ``idx``.

        Returns ``(candidate, tasks_examined)``; candidate is ``None``
        only when every task seen was running on another CPU (or the
        list's eligible section was empty).
        """
        limit = self._limit
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
        shortcut = self._shortcut and this_mm is not None
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
