"""End-to-end cluster runs: real processes, real sockets, real SIGKILL.

Structure-only assertions (counts and invariants, never wall-clock
values), same discipline as the live serve tests.  Two headline
contracts live here, each under both framings:

* **survival** — a shard SIGKILLed mid-loadtest with respawn off, the
  follower promoted, and *zero* dropped completions in degraded mode;
* **self-healing** — the same kill with respawn on: the supervisor
  respawns the shard, the router hands its original slots back, and the
  run must restore full N-way capacity (``recovered``) on top of the
  zero-drop bar, with the slot table ending exactly where it began.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster import ClusterConfig, build_slot_map, run_cluster_loadtest
from repro.faults.plans import NAMED_PLANS

#: Small enough for ~1s runs; duration_s is a deadline, not a target.
TINY = dict(
    shards=2,
    rooms=4,
    clients_per_room=2,
    messages_per_client=5,
    message_interval_ms=2.0,
    duration_s=8.0,
    seed=7,
)

#: Load that is still in flight when the plan's kill lands at t=1s.
#: ``respawn=False`` pins the historical degraded-mode semantics: the
#: kill sticks and the cluster finishes the run on one shard.
CHAOS = dict(
    shards=2,
    rooms=4,
    clients_per_room=2,
    messages_per_client=25,
    message_interval_ms=80.0,
    duration_s=12.0,
    seed=7,
    respawn=False,
)

#: The self-healing run: respawn on (the default), and a send schedule
#: (60 × 60ms ≈ 3.6s) that outlives kill + respawn + handback by a wide
#: margin so the post-recovery throughput window measures steady state.
HEAL = dict(
    shards=2,
    rooms=4,
    clients_per_room=2,
    messages_per_client=60,
    message_interval_ms=60.0,
    duration_s=15.0,
    seed=7,
)


@pytest.mark.parametrize("framing", ["json", "binary"])
def test_cluster_completes_all_messages(framing):
    config = ClusterConfig(framing=framing, **TINY)
    report = asyncio.run(run_cluster_loadtest(config))
    load = report.load
    # Every offered message round-tripped, exactly once.
    assert load.sent == 4 * 2 * 5
    assert load.echoes == load.sent
    assert load.unacked == 0
    assert load.connect_failures == 0
    # Fan-out arithmetic: every member of a 2-client room gets a copy.
    assert load.received == load.sent * 2
    # Rooms hash across both shards, so forwarding genuinely happened
    # (r1/r4/r6 home on shard 0, the rest on 1 — see test_routing).
    assert report.aggregate["forwarded"] > 0
    assert report.aggregate["fwd_in"] == report.aggregate["forwarded"]
    # A miss here has two known readings: a timer retry ran a message
    # twice (completed > sent, retries > 0), or a shard's metrics reply
    # timed out (that shard missing from report.shards, completed < sent).
    per_shard = {
        sid: payload.get("counters", {}).get("completed")
        for sid, payload in report.shards.items()
    }
    assert report.aggregate["completed"] == load.sent, (
        f"completed {report.aggregate['completed']} != sent {load.sent}: "
        f"retries={load.retries} duplicates={load.duplicates} "
        f"completed per shard={per_shard} shards reporting={sorted(report.shards)}"
    )
    # The per-shard schedulers, not asyncio, did the dispatching.
    assert report.aggregate["picks"] > 0
    # Replication streamed state entries around the ring.
    assert report.aggregate["repl_entries_out"] > 0
    assert report.promotions == []
    assert report.survived
    # Nothing died, so the self-healing machinery stayed quiet and the
    # recovery gate is vacuous.
    assert report.respawns == [] and report.handbacks == []
    assert report.recovery == {}
    assert report.recovered


@pytest.mark.parametrize("framing", ["json", "binary"])
def test_shard_kill_loses_nothing(framing):
    config = ClusterConfig(
        framing=framing, fault_plan="kill-one-shard", **CHAOS
    )
    report = asyncio.run(run_cluster_loadtest(config))
    load = report.load
    # The seeded plan picked its victim deterministically (seed 11 over
    # two alive shards pins shard-1) and actually killed it.
    assert report.killed == [1]
    assert any(e["kind"] == "worker_kill" for e in report.fault_log)
    # The follower was promoted, exactly once, and adopted real state.
    assert len(report.promotions) == 1
    promo = report.promotions[0]
    assert promo["dead"] == 1 and promo["promoted"] == 0
    assert promo["sessions"] > 0 and promo["rooms"] > 0
    assert report.router["epoch"] == 2
    assert report.router["alive_shards"] == 1
    # Respawn is off: the kill stuck and the survivor owns every slot.
    assert report.respawns == [] and report.handbacks == []
    assert report.router["slots"] == {"0": 64}
    # The headline: at-least-once delivery + dedup = nothing lost, ever.
    assert load.sent == 4 * 2 * 25
    assert load.echoes == load.sent
    assert report.dropped_completions == 0
    assert load.connect_failures == 0
    assert report.survived
    # No respawn was promised, so the recovery gate stays vacuous.
    assert report.recovered


@pytest.mark.parametrize("framing", ["json", "binary"])
def test_shard_kill_respawn_restores_capacity(framing):
    config = ClusterConfig(
        framing=framing, fault_plan="kill-respawn-shard", **HEAL
    )
    report = asyncio.run(run_cluster_loadtest(config))
    load = report.load
    # One kill landed (seed 13 over two alive shards pins shard-0), the
    # follower was promoted, the supervisor respawned the victim, and
    # the promoted owner handed the slots back.
    assert report.killed == [0]
    assert len(report.promotions) == 1
    assert [e["kind"] for e in report.respawns] == ["respawn"]
    assert report.router["respawns"] == 1
    assert len(report.handbacks) == 1
    handback = report.handbacks[0]
    assert handback["from"] == 1 and handback["to"] == 0
    # Slot handback restored the original room→shard homing exactly:
    # the victim got back precisely the slots the full-membership map
    # assigns it, and the end-state table equals the initial one.
    original = build_slot_map(config.shards)
    assert handback["slots"] == original.count(0)
    assert report.router["slots"] == {
        str(s): original.count(s) for s in range(config.shards)
    }
    # The promoted owner shipped real state back, not an empty shell.
    assert handback["sessions"] > 0
    # Epoch walk: initial broadcast, death, respawn arrival, handback.
    assert report.router["epoch"] == 4
    # Full N-way capacity came back and the recovery timeline is sane.
    assert report.router["alive_shards"] == 2
    assert report.recovery["capacity_restored"]
    assert report.recovery["ttr_s"] is not None
    assert report.recovery["ttr_s"] > 0
    assert (
        report.recovery["down_t_s"] < report.recovery["restored_t_s"]
    )
    # Zero-drop survives the whole kill→respawn→handback cycle, across
    # the two epoch bumps the recovery adds.
    assert load.sent == 4 * 2 * 60
    assert load.echoes == load.sent
    assert report.dropped_completions == 0
    assert load.connect_failures == 0
    assert report.survived
    assert report.recovered


def test_kill_one_shard_plan_is_registered():
    plan = NAMED_PLANS["kill-one-shard"]
    kinds = {spec.kind for spec in plan.faults}
    assert kinds == {"worker_kill"}
    assert all(spec.target == "shard-*" for spec in plan.faults)


def test_kill_respawn_shard_plan_is_registered():
    plan = NAMED_PLANS["kill-respawn-shard"]
    kinds = {spec.kind for spec in plan.faults}
    assert kinds == {"worker_kill"}
    assert all(spec.target == "shard-*" for spec in plan.faults)
    assert plan.seed != NAMED_PLANS["kill-one-shard"].seed
