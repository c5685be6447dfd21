"""The goodness-row argmax against a reference walk, step by step.

``VanillaScheduler`` picks with C-level builtins over per-CPU weight
rows; :class:`ReferenceWalk` is the stock pick spelled out, a linked
queue walked front to back with ``goodness()`` evaluated from live task
fields.  Hypothesis drives both through one operation sequence on a
host that dispatches the way ``Machine._dispatch`` does (``has_cpu``,
``processor``, ``cpu.current``) and ticks running tasks the way
``Machine._handle_tick`` does, and every decision, the queue order and
the scheduler statistics must match after every step.

VolanoMark and kernbench never queue real-time tasks or tasks without
an mm, so whole-workload fingerprints cannot catch a wrong tie rule;
the generated tasks here cover both.  The named cases pin the tie
shapes the key row must get right, and the mask across a
recalculation, which random sequences reach too rarely.  Between calls
the array side must also count every key of every lane exactly, with
no entry left masked: a stale count names a best weight no entry holds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, MMStruct, Task, VanillaScheduler
from repro.kernel.listops import ListHead
from repro.kernel.task import SchedPolicy, TaskState
from repro.sched.base import SchedDecision, Scheduler
from repro.sched.goodness import goodness
from tests.conftest import attach

OTHER, FIFO, RR = SchedPolicy.SCHED_OTHER, SchedPolicy.SCHED_FIFO, SchedPolicy.SCHED_RR
MAX_TASKS = 10

#: Host operations; task ops take a task index, the rest a CPU index.
#: ``schedule`` is listed three times to make picks the common step.
TASK_OPS = ("add", "del", "move_first", "move_last", "wake")
CPU_OPS = ("schedule", "schedule", "schedule", "tick", "yield", "block")


@st.composite
def task_spec(draw, ncpus: int) -> dict:
    policy = draw(st.sampled_from((OTHER, OTHER, OTHER, FIFO, RR)))
    # Small common values make exact and off-by-one goodness ties, which
    # the tie rule decides, as likely as distinct weights.
    return {
        "policy": policy,
        "rt_priority": 0 if policy is OTHER else draw(st.integers(1, 2)),
        "priority": draw(st.one_of(st.sampled_from((1, 2, 20)), st.integers(1, 40))),
        "counter": draw(st.one_of(st.sampled_from((0, 1, 2)), st.integers(0, 80))),
        "mm": draw(st.sampled_from((None, "A", "B"))),
        "yield_pending": draw(st.booleans()),
        "processor": draw(st.integers(-1, ncpus - 1)),
    }


@st.composite
def scenario(draw, ncpus: int):
    specs = draw(st.lists(task_spec(ncpus), min_size=1, max_size=MAX_TASKS))
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.sampled_from(TASK_OPS), st.integers(0, len(specs) - 1)),
                st.tuples(st.sampled_from(CPU_OPS), st.integers(0, ncpus - 1)),
            ),
            max_size=80,
        )
    )
    return specs, ops


class ReferenceWalk(Scheduler):
    """The 2.3.99 pick, literally: one ``ListHead`` queue, newly queued
    tasks at the front; ``prev`` is the first candidate, then every
    queued task not running on a CPU, front to back, and the first-seen
    maximum ``goodness()`` wins.  A best goodness of exactly 0
    recalculates every counter and rescans."""

    name = "reg-walk"

    def reset(self) -> None:
        super().reset()
        self.head = ListHead()

    def add_to_runqueue(self, task: Task) -> int:
        task.run_list.add(self.head)
        self.stats.enqueues += 1
        return self.cost.list_op

    def del_from_runqueue(self, task: Task) -> int:
        if not task.on_runqueue():
            return 0
        task.run_list.del_()
        task.run_list.next = task.run_list.prev = None
        self.stats.dequeues += 1
        return self.cost.list_op

    def move_first_runqueue(self, task: Task) -> None:
        if task.in_a_list():
            task.run_list.move(self.head)

    def move_last_runqueue(self, task: Task) -> None:
        if task.in_a_list():
            task.run_list.move_tail(self.head)

    def schedule(self, prev: Task, cpu) -> SchedDecision:
        self.stats.schedule_calls += 1
        self.stats.runqueue_len_sum += self.runqueue_len()
        cost = examined = recalcs = recalc_cycles = 0
        runnable = prev is not cpu.idle_task and prev.is_runnable()
        if runnable and prev.policy is RR and prev.counter == 0:
            prev.counter = prev.priority
            self.move_last_runqueue(prev)
        elif prev is not cpu.idle_task and not runnable:
            cost += self.del_from_runqueue(prev)
        while True:
            best, c = None, -1000
            if runnable:
                # A pending yield reads as zero once, then is consumed.
                best, c = prev, 0 if prev.yield_pending else goodness(prev, cpu.cpu_id, prev.mm)
                prev.yield_pending = False
                examined += 1
            for task in self.runqueue_tasks():
                if not task.has_cpu:
                    examined += 1
                    weight = goodness(task, cpu.cpu_id, prev.mm)
                    if weight > c:
                        best, c = task, weight
            if c:
                break
            charge = self.recalculate_counters()
            cost += charge
            recalc_cycles += charge
            recalcs += 1
        cost += self.cost.vanilla_schedule_cost(examined)
        self.stats.tasks_examined += examined
        self.stats.scheduler_cycles += cost
        return SchedDecision(
            best, cost, examined, recalcs, self.cost.goodness_eval * examined, recalc_cycles
        )

    def runqueue_len(self) -> int:
        return len(self.runqueue_tasks())

    def runqueue_tasks(self) -> list[Task]:
        return list(self.head.owners())


#: The two sides of every comparison, by the queue layout each keeps.
SIDES = {"array": VanillaScheduler, "list": ReferenceWalk}


class Host:
    """One scheduler on a Machine, driven op by op without task bodies;
    every task starts queued (the last spec at the front)."""

    def __init__(self, side: str, ncpus: int, specs: list[dict]) -> None:
        self.sched = SIDES[side]()
        self.machine = Machine(self.sched, num_cpus=ncpus, smp=ncpus > 1)
        mms = {None: None, "A": MMStruct("A"), "B": MMStruct("B")}
        self.tasks = []
        for n, spec in enumerate(specs):
            task = Task(
                name=f"t{n}",
                mm=mms[spec["mm"]],
                priority=spec["priority"],
                policy=spec["policy"],
                rt_priority=spec["rt_priority"],
            )
            task.counter = spec["counter"]
            task.processor = spec["processor"]
            task.yield_pending = spec["yield_pending"]
            attach(self.machine, task)
            self.sched.add_to_runqueue(task)
            self.tasks.append(task)

    def apply(self, op: str, arg: int):
        sched = self.sched
        if op in TASK_OPS:
            task = self.tasks[arg]
            if op == "add" and not task.on_runqueue() and task.is_runnable():
                sched.add_to_runqueue(task)
            elif op == "del":
                sched.del_from_runqueue(task)
            elif op == "move_first":
                sched.move_first_runqueue(task)
            elif op == "move_last":
                sched.move_last_runqueue(task)
            elif op == "wake" and task.state is TaskState.INTERRUPTIBLE:
                # wake_up_process: a blocked task still some CPU's current
                # is still queued and only flips back to RUNNING.
                task.state = TaskState.RUNNING
                if not task.on_runqueue():
                    sched.add_to_runqueue(task)
            return None
        cpu = self.machine.cpus[arg]
        current = cpu.current
        if op == "schedule":
            decision = sched.schedule(current, cpu)
            current.has_cpu = False
            chosen = decision.next_task
            if chosen is None:
                cpu.current = cpu.idle_task
                cpu.idle_task.has_cpu = True
            else:
                chosen.has_cpu = True
                chosen.processor = cpu.cpu_id
                cpu.current = chosen
            return (None if chosen is None else chosen.name,) + astuple(decision)[1:]
        if current is not cpu.idle_task:
            if op == "tick" and current.policy is not FIFO and current.counter:
                current.counter -= 1
            elif op == "yield":
                current.yield_pending = True
            elif op == "block":
                current.state = TaskState.INTERRUPTIBLE
        return None

    def state(self):
        return (
            [t.name for t in self.sched.runqueue_tasks()],
            self.sched.runqueue_len(),
            [(t.counter, t.has_cpu, t.processor, t.yield_pending) for t in self.tasks],
            [cpu.current.name for cpu in self.machine.cpus],
            astuple(self.sched.stats),
        )


def _counts_hold(sched: VanillaScheduler) -> bool:
    """Every lane counts exactly its keys, and no entry is masked."""
    return all(
        counts == Counter(keys) and -1 not in row for _, row, keys, counts in sched._lanes
    )


def _replay(ncpus: int, specs: list[dict], ops) -> Host:
    """Drive both sides through ``ops``; every step must match."""
    array, walk = Host("array", ncpus, specs), Host("list", ncpus, specs)
    assert _counts_hold(array.sched)
    for step, (op, arg) in enumerate(ops):
        got, want = array.apply(op, arg), walk.apply(op, arg)
        assert got == want, f"step {step} {op}({arg})"
        assert array.state() == walk.state(), f"step {step} {op}({arg})"
        assert _counts_hold(array.sched), f"step {step} {op}({arg})"
    return array


def _other(counter: int, priority: int = 20, mm: str | None = None) -> dict:
    """A SCHED_OTHER task spec, never run (by default at priority 20, no mm)."""
    return {"policy": OTHER, "rt_priority": 0, "priority": priority, "counter": counter,
            "mm": mm, "yield_pending": False, "processor": -1}


def _entry(host: Host, cpu: int, name: str) -> tuple[int, int]:
    """``(row weight, count of its key)`` of task ``name`` in CPU ``cpu``'s lane."""
    sched = host.sched
    i = [t.name for t in sched.runqueue_tasks()].index(name)
    _, row, keys, counts = sched._lanes[cpu]
    return row[i], counts.get(keys[i], 0)


@pytest.mark.parametrize("ncpus", [1, 2, 4])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_array_matches_reference_walk_step_by_step(ncpus, data):
    _replay(ncpus, *data.draw(scenario(ncpus)))


def _near_tie(
    side: str,
    sibling_counter: int,
    sibling_in_front: bool,
    stranger_counter: int = 10,
    prev_counter: int | None = None,
) -> tuple[Task, Task, Task]:
    """A stranger and a same-mm sibling, queued in either order.  By
    default prev blocks, so it is no candidate, but its mm still decides
    who earns the +1 bonus.  With ``prev_counter`` prev keeps running
    and is the first candidate, and all three last ran on CPU 0 (+15)."""
    sched = SIDES[side]()
    machine = Machine(sched, num_cpus=1, smp=False)
    cpu = machine.cpus[0]
    mm = MMStruct()
    prev = Task(name="prev", mm=mm)
    stranger = Task(name="stranger", mm=MMStruct())
    stranger.counter = stranger_counter  # weight 20 + counter
    sibling = Task(name="sibling", mm=mm)
    sibling.counter = sibling_counter  # weight 20 + counter, +1 after prev
    if prev_counter is not None:
        prev.counter = prev_counter
        for task in (prev, stranger, sibling):
            task.processor = 0
    attach(machine, prev, stranger, sibling)
    sched.add_to_runqueue(prev)
    prev.has_cpu = True
    cpu.current = prev
    queued = (stranger, sibling) if sibling_in_front else (sibling, stranger)
    for task in queued:
        sched.add_to_runqueue(task)  # the later add is the front
    if prev_counter is None:
        prev.state = TaskState.INTERRUPTIBLE
    decision = sched.schedule(prev, cpu)
    return decision.next_task, stranger, sibling


@pytest.mark.parametrize("side", SIDES)
def test_same_mm_task_one_below_in_front_of_stranger_wins(side):
    winner, _stranger, sibling = _near_tie(side, 9, sibling_in_front=True)
    assert winner is sibling


@pytest.mark.parametrize("side", SIDES)
def test_same_mm_task_one_below_behind_stranger_loses(side):
    winner, stranger, _sibling = _near_tie(side, 9, sibling_in_front=False)
    assert winner is stranger


@pytest.mark.parametrize("side", SIDES)
def test_same_mm_task_level_with_stranger_wins_from_behind(side):
    winner, _stranger, sibling = _near_tie(side, 10, sibling_in_front=False)
    assert winner is sibling


@pytest.mark.parametrize("sibling_in_front", [True, False], ids=["in_front", "behind"])
@pytest.mark.parametrize("side", SIDES)
def test_same_mm_bonus_beats_running_prev_level_with_the_row(side, sibling_in_front):
    """prev runs at goodness 46 (counter 10, +15, +1); the sibling and
    the stranger wait at row 46 (counter 11, +15).  Only the sibling's
    +1 beats prev, which wins every tie: an argmax that scores the
    bonus winner at its row value hands the pick back to prev."""
    winner, _stranger, sibling = _near_tie(
        side, 11, sibling_in_front, stranger_counter=11, prev_counter=10
    )
    assert winner is sibling


def test_recalculation_keeps_other_cpus_current_masked():
    """CPU 1 runs the only fresh task, so CPU 0's pick finds every
    candidate exhausted and recalculates; the rebuilt rows must not
    expose CPU 1's current to the rescan (nor count it as examined)."""
    specs = [_other(0), _other(0), _other(30)]
    array = _replay(2, specs, [("schedule", 1), ("schedule", 0)])
    assert array.sched.stats.recalc_entries == 1


def test_yielded_prev_keeps_its_affinity_in_the_rows():
    """t0 (41) yields to t1 (40) and its entries are rewritten on the way
    out; with both at +15 on CPU 0, t0 must then beat the running t1.
    Random sequences rarely line up yield, counters and two picks."""
    ops = [("schedule", 0), ("yield", 0), ("schedule", 0), ("schedule", 0)]
    array = _replay(1, [_other(21), _other(20)], ops)
    assert array.machine.cpus[0].current.name == "t0"


def test_running_prev_alone_at_the_top_weight_is_counted_again():
    """t0 (32) runs, then yields: its entries, the only ones at the top
    weight, are masked for the call, so the pick is t1 at the next
    weight (30), and t0 is counted again at its rewritten 47 (+15)."""
    ops = [("schedule", 0), ("yield", 0), ("schedule", 0)]
    array = _replay(1, [_other(12), _other(10), _other(5)], ops)
    assert array.machine.cpus[0].current.name == "t1"
    assert _entry(array, 0, "t0") == (47, 1)


def test_other_cpus_current_alone_at_the_top_weight_is_counted_again():
    """CPU 1 runs t0 (32), the only task at the top weight; CPU 0 must
    pick t1 at the next weight (30) and count t0's entry again after."""
    ops = [("schedule", 1), ("schedule", 0)]
    array = _replay(2, [_other(12), _other(10), _other(5)], ops)
    assert [cpu.current.name for cpu in array.machine.cpus] == ["t1", "t0"]
    assert _entry(array, 0, "t0") == (32, 1)


def test_same_mm_task_at_neither_bonus_weight_leaves_the_first_best():
    """prev (mm A) blocks; its sibling t3 waits in front at 23, neither
    the best weight 30 nor 29, so the pick is the first entry at 30."""
    specs = [_other(40, mm="A"), _other(10), _other(10, mm="B"), _other(3, mm="A")]
    array = _replay(1, specs, [("schedule", 0), ("block", 0), ("schedule", 0)])
    assert array.machine.cpus[0].current.name == "t2"


def test_recalculation_remasks_prev_and_other_cpus_current():
    """CPU 1 runs t1 and CPU 0 runs t0 down to counter 0, so CPU 0's next
    pick sees only exhausted candidates and recalculates.  The rebuild
    puts t1 at 81 over t2's 80; both running tasks must be masked and
    uncounted again, so CPU 0 picks t2 over prev t0 (55)."""
    specs = [_other(1), _other(2, priority=40), _other(0, priority=40)]
    ops = [("schedule", 1), ("schedule", 0), ("tick", 0), ("schedule", 0)]
    array = _replay(2, specs, ops)
    assert array.sched.stats.recalc_entries == 1
    assert [cpu.current.name for cpu in array.machine.cpus] == ["t2", "t1"]
