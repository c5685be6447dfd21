"""Differential conformance: executor dispatch == Machine dispatch.

Extends the differential suite to the live layer.  The same
arrival trace is replayed through two hosts of the *same* policy
(:func:`repro.scenario.fuzz.replay_executor` and
:func:`~repro.scenario.fuzz.replay_machine`, the replays the
stress-parity fuzzer runs per scenario):

* the :class:`SchedulerExecutor` public API (``ready``/``pick``/
  ``charge_slice``/``release``), and
* a reference bound to a **real** :class:`~repro.kernel.machine.Machine`
  whose wakeups go through the machine's actual ``wake_up_process``
  (the authoritative kernel wake path, dedup rules included), with a
  hand-written pick loop and quantum rule around direct ``schedule()``
  calls.

Both hosts share :class:`~repro.kernel.host.SchedHost`, so this is a
cross-check of that shared bookkeeping against an independent oracle:
if it drifts from the reference — dedup semantics, ``has_cpu``
windows, ``prev`` requeue handling — the two disagree on *which
handler runs next*, and hypothesis hands us the minimal trace that
shows it.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.harness import MACHINE_SPECS, SCHEDULERS
from repro.scenario.fuzz import replay_executor, replay_machine

#: The replay hosts register three handlers.
N_HANDLERS = 3

#: A trace op is ("arrive", handler_index) or ("serve",).
_ops = st.one_of(
    st.tuples(st.just("arrive"), st.integers(0, N_HANDLERS - 1)),
    st.tuples(st.just("serve")),
)
_traces = st.lists(_ops, min_size=1, max_size=40)
_sched_names = st.sampled_from(sorted(SCHEDULERS))
_spec_names = st.sampled_from(sorted(MACHINE_SPECS))


@settings(max_examples=120, deadline=None)
@given(sched=_sched_names, spec=_spec_names, trace=_traces)
def test_executor_matches_machine_dispatch_order(sched, spec, trace):
    assert replay_executor(sched, spec, trace) == replay_machine(
        sched, spec, trace
    )


def test_known_trace_all_schedulers():
    """A fixed trace covering wake-while-current, quantum decay, and
    idle picks, asserted for every policy × every machine spec."""
    trace = [
        ("arrive", 0),
        ("serve",),
        ("arrive", 1),
        ("arrive", 0),
        ("serve",),
        ("serve",),
        ("serve",),
        ("arrive", 2),
        ("arrive", 2),
        ("serve",),
        ("serve",),
        ("serve",),
    ]
    for sched in sorted(SCHEDULERS):
        for spec in sorted(MACHINE_SPECS):
            assert replay_executor(sched, spec, trace) == replay_machine(
                sched, spec, trace
            ), f"{sched}/{spec} diverged"
