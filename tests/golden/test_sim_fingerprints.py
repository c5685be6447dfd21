"""Every registered policy's simulation outputs, pinned bit-for-bit.

``sim_fingerprints.json`` holds 32 deterministic cells (8 policies x
UP/4P x volano/kernbench), copied from ``BENCH_10.json``, a trajectory
file of the deleted bench command that git history keeps, and never
re-recorded: each entry names the workload, scheduler, machine and
config of a cell and its fingerprint, the full ``SchedStats`` plus the
workload's extracted metrics.  Each cell is recomputed in this process
and must match exactly, so a change to the kernel loop, a run-queue
layout or a policy that alters any simulated outcome fails here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness.runner import execute_spec
from repro.harness.spec import RunSpec
from repro.sched.registry import scheduler_names

GOLDEN = json.loads(
    Path(__file__).with_name("sim_fingerprints.json").read_text(encoding="utf-8")
)


def test_golden_covers_every_policy_machine_and_workload():
    cells = {(c["workload"], c["scheduler"], c["machine"]) for c in GOLDEN}
    assert len(cells) == len(GOLDEN)
    assert cells == {
        (workload, scheduler, machine)
        for workload in ("volano", "kernbench")
        for scheduler in scheduler_names()
        for machine in ("UP", "4P")
    }


@pytest.mark.parametrize(
    "cell",
    GOLDEN,
    ids=[f"{c['workload']}/{c['scheduler']}/{c['machine']}" for c in GOLDEN],
)
def test_fingerprint_matches(cell):
    spec = RunSpec(
        workload=cell["workload"],
        scheduler=cell["scheduler"],
        machine=cell["machine"],
        config=cell["config"],
    )
    result = execute_spec(spec, metrics=True)
    got = {"stats": dict(result.stats), "metrics": dict(result.metrics)}
    assert got == cell["fingerprint"]
