"""``Machine._reschedule_idle`` against the ``goodness()`` oracle.

When no CPU is free to dispatch a woken task, the wakeup sets
``need_resched`` on the lowest-numbered online CPU whose current task
the woken one beats by the widest positive
:func:`~repro.sched.goodness.preemption_goodness` margin, and on no CPU
when no margin is positive.  The machine computes that margin inline;
these tests hold it to the reference functions in ``repro.sched.goodness``.

Every rig leaves each CPU busy, dispatch-pending or offline, so the two
idle scans find nothing and the preemption test decides.  A current
whose ``processor`` differs from its CPU cannot arise in a real run, so
only these tests see the current's +15 term.
"""

from __future__ import annotations

from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, MMStruct, Task, VanillaScheduler
from repro.kernel.task import SchedPolicy
from repro.sched.goodness import preemption_goodness

NCPUS = 4
OTHER = SchedPolicy.SCHED_OTHER
FIFO = SchedPolicy.SCHED_FIFO
RR = SchedPolicy.SCHED_RR


def _task(
    counter: int = 20,
    priority: int = 20,
    mm: Optional[MMStruct] = None,
    processor: int = -1,
    policy: SchedPolicy = OTHER,
    rt_priority: int = 0,
) -> Task:
    task = Task(priority=priority, mm=mm, policy=policy, rt_priority=rt_priority)
    task.counter = counter
    task.processor = processor
    return task


#: CPU states for :func:`_rig`: a Task runs it, ``PENDING`` is idle with a
#: dispatch already queued, ``OFFLINE`` (or ``(OFFLINE, task)``) is offline.
PENDING = "pending"
OFFLINE = "offline"


def _rig(*states) -> Machine:
    machine = Machine(VanillaScheduler(), num_cpus=NCPUS, smp=True)
    for cpu, state in zip(machine.cpus, states, strict=True):
        current = state
        if isinstance(state, tuple):
            _, current = state
            cpu.offline = True
        elif state == OFFLINE:
            current = None
            cpu.offline = True
        elif state == PENDING:
            current = None
            cpu.dispatch_pending = True
        if current is not None:
            cpu.idle_task.has_cpu = False
            current.has_cpu = True
            cpu.current = current
        assert not cpu.is_idle() or cpu.dispatch_pending or cpu.offline
    return machine


def _expected(machine: Machine, task: Task) -> Optional[int]:
    """The lowest-numbered online CPU with the largest positive margin."""
    margins = {
        cpu.cpu_id: preemption_goodness(task, cpu.current, cpu.cpu_id)
        for cpu in machine.cpus
        if not cpu.offline
    }
    widest = max(margins.values(), default=0)
    if widest <= 0:
        return None
    return min(cpu_id for cpu_id, margin in margins.items() if margin == widest)


def _flagged(machine: Machine, task: Task) -> Optional[int]:
    """Wake ``task`` at t=1000 and return the CPU left with need_resched."""
    queued = len(machine.events)
    machine._reschedule_idle(task, 1000)
    assert len(machine.events) == queued, "no CPU was free, yet one was dispatched"
    flagged = [cpu.cpu_id for cpu in machine.cpus if cpu.need_resched]
    assert len(flagged) <= 1, f"several CPUs flagged: {flagged}"
    return flagged[0] if flagged else None


# -- the case table: (woken task, four CPU states, the CPU flagged) ----------


def _rt_woken():
    # 1000 + 10 beats every time-sharing current; CPU 2's is the weakest.
    return _task(policy=FIFO, rt_priority=10), (
        _task(30), _task(30), _task(5), _task(30),
    ), 2


def _rt_current():
    # RT currents score 1000 + rt_priority too: only CPU 3's is beaten.
    return _task(policy=RR, rt_priority=40), (
        _task(policy=RR, rt_priority=45), _task(policy=FIFO, rt_priority=50),
        _task(policy=FIFO, rt_priority=40), _task(policy=RR, rt_priority=20),
    ), 3


def _exhausted_woken():
    # goodness 0 beats nothing, not even an exhausted current (margin 0).
    return _task(counter=0), (_task(30), _task(counter=0), _task(1), _task(30)), None


def _exhausted_current():
    # An exhausted current scores 0, so CPU 3 has the widest margin.
    return _task(10), (_task(30), _task(20), _task(30), _task(counter=0)), 3


def _shared_mm():
    # Equal currents, each +1 for its own mm; the woken task shares CPU 2's.
    mms = [MMStruct() for _ in range(NCPUS)]
    return _task(30, mm=mms[2]), tuple(_task(20, mm=mm) for mm in mms), 2


def _different_mm():
    # CPU 1's current has no mm, so it misses the +1 the others get.
    return _task(30, mm=MMStruct()), (
        _task(20, mm=MMStruct()), _task(20), _task(20, mm=MMStruct()),
        _task(20, mm=MMStruct()),
    ), 1


def _none_mm():
    # Both CPUs 0 and 1 score 45 (29+1+15 and 30+15): no +1 for None == None.
    return _task(30), (
        _task(9, mm=MMStruct(), processor=0), _task(10, processor=1),
        _task(30), _task(30),
    ), 0


def _last_cpu():
    # The woken task last ran on CPU 2: +15 there only.
    return _task(30, processor=2), tuple(_task(20) for _ in range(NCPUS)), 2


def _another_cpu():
    # Last ran on CPU 0, but CPU 3's current is 16 weaker: 15 is not enough.
    return _task(30, processor=0), (_task(20), _task(20), _task(20), _task(4)), 3


def _pending_idle():
    # CPU 1 is idle with a dispatch queued: its idle task scores 1+1+15.
    return _task(30), (_task(40), PENDING, _task(40), _task(40)), 1


def _offline():
    # CPU 3's current is the weakest, but CPU 3 is offline.
    return _task(30), (_task(25), _task(20), _task(25), (OFFLINE, _task(1))), 1


def _offline_idle():
    # Offline idle CPUs are neither dispatched to nor flagged.
    return _task(30), (OFFLINE, _task(20), OFFLINE, _task(25)), 1


def _tie():
    # CPUs 1 and 3 tie for the widest margin: the lower-numbered wins.
    return _task(30), (_task(25), _task(10), _task(25), _task(10)), 1


def _no_margin():
    # Every current is as good as the woken task: no CPU is flagged.
    return _task(20), tuple(_task(20) for _ in range(NCPUS)), None


def _processor_differs():
    # Every current last ran on its CPU (+15) but CPU 2's, which names CPU 0.
    return _task(30), (
        _task(20, processor=0), _task(20, processor=1),
        _task(20, processor=0), _task(20, processor=3),
    ), 2


CASES = [
    _rt_woken, _rt_current, _exhausted_woken, _exhausted_current,
    _shared_mm, _different_mm, _none_mm, _last_cpu, _another_cpu,
    _pending_idle, _offline, _offline_idle, _tie, _no_margin,
    _processor_differs,
]


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__.lstrip("_"))
def test_case_table(case):
    task, states, want = case()
    machine = _rig(*states)
    assert _expected(machine, task) == want
    assert _flagged(machine, task) == want


# -- random fields -----------------------------------------------------------


@st.composite
def _fields(draw, mms):
    policy = draw(st.sampled_from([OTHER, OTHER, OTHER, FIFO, RR]))
    return _task(
        counter=draw(st.integers(0, 40)),
        priority=draw(st.integers(1, 40)),
        mm=draw(st.sampled_from(mms)),
        processor=draw(st.integers(-1, NCPUS - 1)),
        policy=policy,
        rt_priority=draw(st.integers(0, 99)) if policy is not OTHER else 0,
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_fields_match_the_oracle(data):
    mms = [None, MMStruct(), MMStruct()]
    states = []
    for _ in range(NCPUS):
        kind = data.draw(st.sampled_from(["busy", "busy", "busy", PENDING, OFFLINE]))
        if kind == "busy":
            states.append(data.draw(_fields(mms)))
        elif kind == PENDING:
            states.append(PENDING)
        elif data.draw(st.booleans()):
            states.append((OFFLINE, data.draw(_fields(mms))))
        else:
            states.append(OFFLINE)
    task = data.draw(_fields(mms))
    machine = _rig(*states)
    assert _flagged(machine, task) == _expected(machine, task)
