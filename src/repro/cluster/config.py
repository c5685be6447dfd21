"""Configuration and deterministic placement for the serve cluster.

:class:`ClusterConfig` is the single scalar-field knob surface of one
cluster run — topology (shard count, framing, replication, respawn),
the per-shard scheduling policy, and the offered load (the same
VolanoMark-shaped knobs as :class:`~repro.serve.config.ServeConfig`,
which it projects out for the load generator).

Placement goes through a fixed **slot ring**: a room or session first
maps onto one of :data:`NUM_SLOTS` slots by CRC-32 (stable across
processes and Python versions, unlike the salted builtin ``hash``), and
the slot maps onto a shard through an explicit slot→shard table that
the router carries in every epoch broadcast.  The table itself is a
pure function of the shard count, built by :func:`build_slot_map` —
consistent in the load-balancing sense:

* **balanced** — at every shard count each shard owns ``floor`` or
  ``ceil`` of ``NUM_SLOTS / N`` slots (so no shard owns more than
  ``ceil(NUM_SLOTS/N) + 1``);
* **minimal movement** — going ``N → N+1`` moves exactly
  ``floor(NUM_SLOTS/(N+1))`` slots, all of them *to* the new shard;
  every other slot stays put.  Handing a respawned shard its slots
  back is the same property run in reverse: restoring the full-
  membership map moves exactly the dead shard's original slots.

Construction is incremental steal (the Redis-resharding move): the map
for one shard owns everything; each next shard steals its quota from
whichever shard is currently most loaded, picking the highest-scoring
slots under a salted CRC-32 so the choice is deterministic everywhere.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, fields
from functools import lru_cache

from ..serve.config import ServeConfig

__all__ = [
    "ClusterConfig",
    "NUM_SLOTS",
    "build_slot_map",
    "room_shard",
    "room_slot",
    "session_shard",
    "session_slot",
    "slot_map_hash",
]

#: Fixed size of the placement ring.  Slots never change identity;
#: membership changes only reassign slot *ownership*.
NUM_SLOTS = 64

#: Salt for the steal-order scoring.  Pinned: changing it remaps every
#: cluster's placement (the golden slot-map hash test will fail loudly).
_SLOT_SALT = 4


def room_slot(room: str) -> int:
    """Ring slot of ``room`` — a pure function of the name alone."""
    return zlib.crc32(room.encode()) % NUM_SLOTS


def session_slot(cid: int) -> int:
    """Ring slot of client session ``cid``."""
    return cid % NUM_SLOTS


@lru_cache(maxsize=64)
def build_slot_map(num_shards: int) -> tuple[int, ...]:
    """The slot→shard table for ``num_shards`` shards (see module doc).

    Deterministic across processes and platforms (CRC-32 scoring, pure
    integer arithmetic), balanced to floor/ceil at every ``N``, and
    minimal-movement under ``N → N±1`` — the properties
    ``tests/cluster/test_slotmap.py`` pins.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    owners = [0] * NUM_SLOTS
    for new in range(1, num_shards):
        quota = NUM_SLOTS // (new + 1)
        loads = {shard: owners.count(shard) for shard in range(new)}
        for _ in range(quota):
            donor = max(loads, key=lambda s: (loads[s], -s))
            slot = max(
                (s for s in range(NUM_SLOTS) if owners[s] == donor),
                key=lambda s: (zlib.crc32(f"{_SLOT_SALT}/{s}".encode()), -s),
            )
            owners[slot] = new
            loads[donor] -= 1
    return tuple(owners)


def slot_map_hash(max_shards: int = 8) -> str:
    """SHA-256 over the maps for 1..``max_shards`` shards.

    Any drift in the ring size, salt, or construction severs every
    pinned placement at once, and the golden test makes that loud
    instead of subtle.
    """
    payload = {
        str(n): list(build_slot_map(n)) for n in range(1, max_shards + 1)
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def room_shard(room: str, num_shards: int) -> int:
    """Home shard of ``room``: owns membership, ordering, and fan-out."""
    return build_slot_map(num_shards)[room_slot(room)]


def session_shard(cid: int, num_shards: int) -> int:
    """Scheduling shard of client session ``cid`` (slot-mapped)."""
    return build_slot_map(num_shards)[session_slot(cid)]


@dataclass(frozen=True)
class ClusterConfig:
    """Parameters of one cluster serve/loadtest run (scalars only)."""

    #: Shard OS processes behind the router.
    shards: int = 2
    #: Interior-link framing: ``json`` or ``binary`` (see
    #: :mod:`repro.cluster.wire`).
    framing: str = "json"
    #: Stream every shard's state changes to a ring follower and promote
    #: it when the leader dies.  Off = a killed shard loses its rooms.
    replication: bool = True
    #: Self-heal: the supervisor monitors shard processes, respawns a
    #: dead one (seeded exponential backoff, bounded by
    #: ``respawn_budget``), and the router hands its original slots
    #: back once the replacement is re-primed.  Off = a kill degrades
    #: the cluster to N-1 shards for the rest of the run.
    respawn: bool = True
    #: Respawns allowed per shard per run before the supervisor gives
    #: up and leaves the cluster degraded.
    respawn_budget: int = 3
    #: Base delay before the first respawn attempt; doubles per attempt
    #: (seeded jitter on top).
    respawn_backoff_ms: float = 50.0
    #: Canonical scheduler key each shard's executor runs (per-shard
    #: policy instance — the multiqueue-of-multiqueues move).
    scheduler: str = "reg"
    #: Machine spec name: virtual CPUs of each shard's executor.
    machine: str = "UP"
    #: Advertised in every shed reply (admission or failover window).
    retry_after_ms: float = 100.0
    #: Load-generator resend period for unacknowledged messages.
    retry_interval_ms: float = 150.0
    #: Attach a per-shard :class:`~repro.obs.MetricsProbe`.
    metrics: bool = True
    # -- offered load (mirrors ServeConfig) ---------------------------
    rooms: int = 4
    clients_per_room: int = 4
    messages_per_client: int = 10
    message_interval_ms: float = 2.0
    arrival_jitter: float = 0.3
    payload_bytes: int = 32
    batch: int = 8
    #: Per-shard admission bound (queued requests across its sessions).
    max_pending: int = 4096
    duration_s: float = 10.0
    seed: int = 42
    #: Router client-facing TCP port (0 = ephemeral).
    port: int = 0
    #: Fault plan for chaos runs: named plan, inline JSON, or ``@file``.
    #: ``worker_kill`` SIGKILLs a shard; ``executor_crash`` crashes one
    #: shard's scheduler adapter; ``overload`` clamps every shard's
    #: admission bound.
    fault_plan: str = ""
    #: Offered-load profile: canonical
    #: :class:`~repro.serve.config.LoadSchedule` JSON.  When set, it
    #: replaces the flat ``message_interval_ms`` ×
    #: ``messages_per_client`` pacing, exactly as on a single-process
    #: serve run.  "" = flat load.
    load_schedule: str = ""

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"cluster needs >= 1 shard, got {self.shards}")
        if self.shards > NUM_SLOTS:
            raise ValueError(
                f"cluster is capped at {NUM_SLOTS} shards (one per slot), "
                f"got {self.shards}"
            )
        if self.respawn_budget < 0:
            raise ValueError(
                f"respawn_budget must be >= 0, got {self.respawn_budget}"
            )
        from .wire import FRAMINGS  # local import: avoid cycle at import

        if self.framing not in FRAMINGS:
            raise ValueError(
                f"unknown framing {self.framing!r}; "
                f"choose from {sorted(FRAMINGS)}"
            )
        if self.load_schedule:
            from ..serve.config import LoadSchedule  # fail fast, not mid-run

            LoadSchedule.from_config(self.load_schedule)
        # Canonicalise the scheduler through the single registry so an
        # unknown name dies here, not inside a shard subprocess, and an
        # alias ("multiqueue") never reaches the wire config.
        from ..sched.registry import resolve as resolve_scheduler

        try:
            canonical = resolve_scheduler(self.scheduler)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from exc
        if canonical != self.scheduler:
            object.__setattr__(self, "scheduler", canonical)

    def serve_config(self) -> ServeConfig:
        """The load generator's view of this run."""
        return ServeConfig(
            rooms=self.rooms,
            clients_per_room=self.clients_per_room,
            messages_per_client=self.messages_per_client,
            message_interval_ms=self.message_interval_ms,
            arrival_jitter=self.arrival_jitter,
            payload_bytes=self.payload_bytes,
            batch=self.batch,
            max_pending=self.max_pending,
            duration_s=self.duration_s,
            seed=self.seed,
            load_schedule=self.load_schedule,
        )

    @classmethod
    def from_scenario(cls, scenario, **overrides) -> "ClusterConfig":
        """Project a ``serve`` :class:`~repro.scenario.ScenarioSpec` onto
        a cluster run.

        The scenario supplies everything one experiment file composes —
        offered-load shape, per-shard scheduler and machine, fault plan,
        load schedule, seed.  What a single process has no word for
        (shard count, interior framing, replication) comes from
        ``overrides``, so ``from_scenario(spec, shards=4)`` is the whole
        bridge: the same content-addressed scenario that drives
        ``repro scenario run`` drives ``repro cluster chaos``.
        """
        if scenario.workload != "serve":
            raise ValueError(
                f"cluster runs map the 'serve' workload only; scenario "
                f"{scenario.name!r} is {scenario.workload!r}"
            )
        known = {f.name for f in fields(cls)}
        mapped = {
            k: v for k, v in scenario.config_dict.items() if k in known
        }
        mapped["scheduler"] = scenario.scheduler
        mapped["machine"] = scenario.machine
        if not scenario.fault_plan.is_empty:
            mapped["fault_plan"] = scenario.fault_plan.to_config()
        if not scenario.load.is_empty:
            mapped["load_schedule"] = scenario.load.to_config()
        mapped.update(overrides)
        return cls(**mapped)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterConfig":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})
