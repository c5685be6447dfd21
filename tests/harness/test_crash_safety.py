"""Crash-safe worker pool: killed workers retried, bad cells quarantined.

The SIGKILL test uses the ``worker_kill`` fault: the first pool worker
to pick the cell writes a marker file and kills itself mid-cell, the
runner detects the broken pool, backs off, and reruns on a fresh pool —
where the marker disarms the fault and the cell completes.
"""

from __future__ import annotations

import json

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.harness import ParallelRunner, ResultCache, RunSpec

TINY = {"rooms": 1, "users_per_room": 3, "messages_per_user": 2}


def _read_manifest(path):
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    events = [rec for rec in lines if rec.get("event") == "retry"]
    cells = [rec for rec in lines if "key" in rec and "event" not in rec]
    return events, cells


def test_sigkilled_worker_is_retried(tmp_path):
    token = tmp_path / "kill.token"
    plan = FaultPlan(
        name="kill-worker",
        faults=(FaultSpec(kind="worker_kill", token=str(token)),),
    )
    specs = [
        RunSpec("volano", sched, "2P",
                dict(TINY, fault_plan=plan.to_config()))
        for sched in ("elsc", "reg")
    ]
    manifest = tmp_path / "manifest.jsonl"
    runner = ParallelRunner(
        jobs=2,
        cache=ResultCache(tmp_path / "cache"),
        manifest_path=manifest,
        max_retries=2,
        backoff_base_s=0.05,
    )
    results = runner.run(specs)
    assert all(r is not None for r in results)
    assert token.exists()  # the fault armed exactly once
    events, cells = _read_manifest(manifest)
    assert len(events) == 1
    assert events[0]["attempt"] == 1
    assert events[0]["backoff_s"] > 0
    assert events[0]["reasons"] == ["worker died (BrokenProcessPool)"]
    assert all(c["outcome"] == "ok" for c in cells)
    # The killed cell is retried; the sibling cell is too, unless it
    # finished before the pool broke and so kept its first result.
    retried = set(events[0]["keys"])
    assert retried
    assert all(c.get("attempts", 1) == (2 if c["key"] in retried else 1) for c in cells)


def test_deterministic_error_is_not_retried_and_raises(tmp_path):
    bad = RunSpec("volano", "elsc", "2P",
                  dict(TINY, fault_plan="{not json"))
    manifest = tmp_path / "manifest.jsonl"
    runner = ParallelRunner(
        jobs=2, cache=None, manifest_path=manifest, backoff_base_s=0.01
    )
    good = RunSpec("volano", "reg", "2P", TINY)
    with pytest.raises(RuntimeError, match="1 of 2 cells failed"):
        runner.run([bad, good])
    events, cells = _read_manifest(manifest)
    assert events == []  # an in-cell traceback is never retried
    outcomes = {c["scheduler"]: c["outcome"] for c in cells}
    assert outcomes == {"elsc": "error", "reg": "ok"}


def test_quarantine_records_spec_and_continues(tmp_path):
    bad = RunSpec("volano", "elsc", "2P",
                  dict(TINY, fault_plan="{not json"))
    good = RunSpec("volano", "reg", "2P", TINY)
    manifest = tmp_path / "manifest.jsonl"
    runner = ParallelRunner(
        jobs=1, cache=None, manifest_path=manifest, on_error="quarantine"
    )
    results = runner.run([bad, good])
    assert results[0] is None
    assert results[1] is not None
    _, cells = _read_manifest(manifest)
    by_sched = {c["scheduler"]: c for c in cells}
    record = by_sched["elsc"]
    assert record["outcome"] == "quarantined"
    # The failing RunSpec — fault plan included — is replayable verbatim.
    assert record["spec"]["config"]["fault_plan"] == "{not json"
    assert RunSpec.from_dict(record["spec"]).key == bad.key
    assert "error" in record
    assert by_sched["reg"]["outcome"] == "ok"


def test_wedged_worker_times_out_and_quarantines(tmp_path):
    # A task_hang with no wake and no horizon strands the housekeeping
    # loops: the simulation never terminates, i.e. a wedged worker.
    plan = FaultPlan(
        name="wedge",
        faults=(FaultSpec(kind="task_hang", at_s=0.0005, target="*.cr"),),
    )
    spec = RunSpec("volano", "elsc", "2P",
                   dict(TINY, fault_plan=plan.to_config()))
    other = RunSpec("volano", "reg", "2P", TINY)
    manifest = tmp_path / "manifest.jsonl"
    runner = ParallelRunner(
        jobs=2,
        cache=None,
        manifest_path=manifest,
        max_retries=0,
        cell_timeout_s=5.0,
        on_error="quarantine",
    )
    results = runner.run([spec, other])
    assert results[0] is None
    assert results[1] is not None
    _, cells = _read_manifest(manifest)
    by_sched = {c["scheduler"]: c for c in cells}
    assert by_sched["elsc"]["outcome"] == "quarantined"
    assert "timed out" in by_sched["elsc"]["error"]
    assert by_sched["reg"]["outcome"] == "ok"


def test_invalid_runner_options_rejected():
    with pytest.raises(ValueError):
        ParallelRunner(on_error="explode")
    with pytest.raises(ValueError):
        ParallelRunner(max_retries=-1)
