"""The goodness-row argmax against the reference walk, step by step.

``VanillaScheduler()`` picks with C-level builtins over per-CPU weight
rows; ``VanillaScheduler(impl="list")`` walks the linked queue and
evaluates ``goodness()`` from live task fields.  Hypothesis drives both
through one operation sequence on a host that dispatches the way
``Machine._dispatch`` does (``has_cpu``, ``processor``, ``cpu.current``)
and ticks running tasks the way ``Machine._handle_tick`` does, and every
decision and the queue order must match after every step.

VolanoMark and kernbench never queue real-time tasks or tasks without
an mm, so whole-workload fingerprints cannot catch a wrong tie rule;
the generated tasks here cover both.  The named cases pin the tie
shapes the key row must get right, and the mask across a
recalculation, which random sequences reach too rarely.
"""

from __future__ import annotations

from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, MMStruct, Task, VanillaScheduler
from repro.kernel.task import SchedPolicy, TaskState
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


class Host:
    """One scheduler on a Machine, driven op by op without task bodies;
    every task starts queued (the last spec at the front)."""

    def __init__(self, impl: str, ncpus: int, specs: list[dict]) -> None:
        self.sched = VanillaScheduler(impl=impl)
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
        )


@pytest.mark.parametrize("ncpus", [1, 2, 4])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_array_matches_reference_walk_step_by_step(ncpus, data):
    specs, ops = data.draw(scenario(ncpus))
    array = Host("array", ncpus, specs)
    walk = Host("list", ncpus, specs)
    for step, (op, arg) in enumerate(ops):
        got, want = array.apply(op, arg), walk.apply(op, arg)
        assert got == want, f"step {step} {op}({arg})"
        assert array.state() == walk.state(), f"step {step} {op}({arg})"


def _near_tie(
    impl: str, sibling_counter: int, sibling_in_front: bool
) -> tuple[Task, Task, Task]:
    """A stranger at weight 30 and a same-mm sibling, queued in either
    order; prev blocks, so it is no candidate, but its mm still decides
    who earns the +1 bonus."""
    sched = VanillaScheduler(impl=impl)
    machine = Machine(sched, num_cpus=1, smp=False)
    cpu = machine.cpus[0]
    mm = MMStruct()
    prev = Task(name="prev", mm=mm)
    stranger = Task(name="stranger", mm=MMStruct())
    stranger.counter = 10  # weight 30
    sibling = Task(name="sibling", mm=mm)
    sibling.counter = sibling_counter  # weight 20 + counter, +1 after prev
    attach(machine, prev, stranger, sibling)
    sched.add_to_runqueue(prev)
    prev.has_cpu = True
    cpu.current = prev
    queued = (stranger, sibling) if sibling_in_front else (sibling, stranger)
    for task in queued:
        sched.add_to_runqueue(task)  # the later add is the front
    prev.state = TaskState.INTERRUPTIBLE
    decision = sched.schedule(prev, cpu)
    return decision.next_task, stranger, sibling


@pytest.mark.parametrize("impl", ["array", "list"])
def test_same_mm_task_one_below_in_front_of_stranger_wins(impl):
    winner, _stranger, sibling = _near_tie(impl, 9, sibling_in_front=True)
    assert winner is sibling


@pytest.mark.parametrize("impl", ["array", "list"])
def test_same_mm_task_one_below_behind_stranger_loses(impl):
    winner, stranger, _sibling = _near_tie(impl, 9, sibling_in_front=False)
    assert winner is stranger


@pytest.mark.parametrize("impl", ["array", "list"])
def test_same_mm_task_level_with_stranger_wins_from_behind(impl):
    winner, _stranger, sibling = _near_tie(impl, 10, sibling_in_front=False)
    assert winner is sibling


def test_recalculation_keeps_other_cpus_current_masked():
    """CPU 1 runs the only fresh task, so CPU 0's pick finds every
    candidate exhausted and recalculates; the rebuilt rows must not
    expose CPU 1's current to the rescan (nor count it as examined)."""
    specs = [
        {"policy": OTHER, "rt_priority": 0, "priority": 20, "counter": counter,
         "mm": None, "yield_pending": False, "processor": -1}
        for counter in (0, 0, 30)
    ]
    array, walk = Host("array", 2, specs), Host("list", 2, specs)
    for op, arg in (("schedule", 1), ("schedule", 0)):
        assert array.apply(op, arg) == walk.apply(op, arg)
        assert array.state() == walk.state()
    assert array.sched.stats.recalc_entries == 1
