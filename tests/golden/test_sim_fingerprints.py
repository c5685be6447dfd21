"""Every registered policy's simulation outputs, pinned bit-for-bit.

``sim_fingerprints.json`` holds 24 deterministic cells (6 policies x
UP/4P x volano/kernbench), copied from ``BENCH_10.json``, a trajectory
file of the deleted bench command that git history keeps, and never
re-recorded: each entry names the workload, scheduler, machine and
config of a cell and its fingerprint, the full ``SchedStats`` plus the
workload's extracted metrics.  Each cell is recomputed in this process
and must match exactly, so a change to the kernel loop, a run-queue
layout or a policy that alters any simulated outcome fails here.

``faulted_fingerprints.json`` pins four cells of the same shape with a
fault plan in their config: a small volano run under ``reg`` on UP and
2P, each with one ``task_crash`` or ``task_hang`` fault that hits 40
tasks at once.  The injector's CALLBACK stops, exits or parks each
victim and re-dispatches its CPU in turn, so these cells check that a
dispatch made from inside a fault keeps the event path for its Runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.faults import FaultPlan
from repro.harness.runner import execute_spec
from repro.harness.spec import RunSpec
from repro.sched.registry import scheduler_names


def _load(name: str) -> list:
    return json.loads(Path(__file__).with_name(name).read_text(encoding="utf-8"))


GOLDEN = _load("sim_fingerprints.json")
FAULTED = _load("faulted_fingerprints.json")


def _cell_id(cell: dict) -> str:
    return f"{cell['workload']}/{cell['scheduler']}/{cell['machine']}"


def _fingerprint(cell: dict) -> dict:
    spec = RunSpec(
        workload=cell["workload"],
        scheduler=cell["scheduler"],
        machine=cell["machine"],
        config=cell["config"],
    )
    result = execute_spec(spec, metrics=True)
    return {"stats": dict(result.stats), "metrics": dict(result.metrics)}


def test_golden_covers_every_policy_machine_and_workload():
    cells = {(c["workload"], c["scheduler"], c["machine"]) for c in GOLDEN}
    assert len(cells) == len(GOLDEN)
    assert cells == {
        (workload, scheduler, machine)
        for workload in ("volano", "kernbench")
        for scheduler in scheduler_names()
        for machine in ("UP", "4P")
    }


@pytest.mark.parametrize("cell", GOLDEN, ids=[_cell_id(c) for c in GOLDEN])
def test_fingerprint_matches(cell):
    assert _fingerprint(cell) == cell["fingerprint"]


@pytest.mark.parametrize(
    "cell",
    FAULTED,
    ids=[
        f"{_cell_id(c)}/"
        + FaultPlan.from_config(c["config"]["fault_plan"]).faults[0].kind
        for c in FAULTED
    ],
)
def test_faulted_fingerprint_matches(cell):
    assert _fingerprint(cell) == cell["fingerprint"]
