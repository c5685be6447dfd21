"""The pinned BENCH cell matrix and its content hash.

A BENCH file is only comparable to another BENCH file if both ran the
same cells with the same configs.  This module *is* that definition:
every cell, pair, and the cluster row are spelled out here as frozen
descriptors, and :func:`matrix_hash` folds their canonical JSON into a
SHA-256 that gets stamped into the report.  ``repro bench compare``
refuses to diff files whose hashes disagree unless told otherwise —
a wall-clock delta between different matrices is noise, not signal.

The matrix is deliberately smoke-scale (the full run takes minutes,
not hours): the point is a *trajectory* — the same cells re-measured
every PR — not an exhaustive sweep.  ``repro sweep`` remains the tool
for result-space exploration; ``repro bench`` measures the simulator
itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from ..harness.registry import SCHEDULERS

__all__ = [
    "SCHEMA_VERSION",
    "BENCH_ID",
    "BenchCell",
    "BenchPair",
    "matrix_cells",
    "pair_cells",
    "cluster_row_config",
    "matrix_hash",
]

#: BENCH file format version; bumped on any schema change so stale
#: tooling fails loudly instead of misreading fields.
SCHEMA_VERSION = 1

#: The trajectory point this tree produces (PR number of record).
BENCH_ID = "BENCH_10"

#: Machine axes of the matrix: SMP adds per-CPU work the uniprocessor
#: never does (the global runqueue lock, per-CPU queues, sched/vanilla.py
#: masking other CPUs' running tasks), so both must stay on the
#: trajectory.
MACHINES = ("UP", "4P")

#: Workload axes: one scan-bound simulated benchmark, one fork-heavy
#: simulated benchmark, one live asyncio serving workload.
MATRIX_WORKLOADS = ("volano", "kernbench", "serve")

#: Pinned per-workload configs.  Small enough that the full matrix is
#: minutes of wall clock, large enough that a cell's wall time is
#: dominated by simulation work rather than setup.
MATRIX_CONFIGS: dict[str, dict[str, Any]] = {
    "volano": {"rooms": 6, "users_per_room": 15, "messages_per_user": 5},
    "kernbench": {"files": 600, "jobs": 4, "mean_compile_seconds": 0.3,
                  "link_seconds": 1.0},
    "serve": {"rooms": 2, "clients_per_room": 4, "messages_per_client": 6,
              "duration_s": 3.0},
}

#: Simulated workloads replay a seeded discrete-event run: their stats
#: and metrics are exactly reproducible and ``compare`` gates them on
#: bit-identity.  The live serve workload (and the cluster row) run on
#: real clocks and sockets; only their wall/throughput trend is gated.
DETERMINISTIC_WORKLOADS = frozenset({"volano", "kernbench"})

#: The scan-heavy volano cell used by the before/after pairs: 600 chat
#: users keep the run queue long, so scheduler pick cost dominates the
#: wall clock — the configuration where the array-backed runqueue work
#: is measurable above container timing noise (see docs/performance.md).
PAIR_VOLANO_CONFIG: dict[str, Any] = {
    "rooms": 20, "users_per_room": 30, "messages_per_user": 3,
}

#: A lighter volano cell for the probe-batching pair (the probe
#: pipeline's cost is per-event, not per-queued-task, so a long run
#: queue buys nothing there).
BATCH_VOLANO_CONFIG: dict[str, Any] = {
    "rooms": 8, "users_per_room": 16, "messages_per_user": 4,
}


@dataclass(frozen=True)
class BenchCell:
    """One metered matrix cell (a ``RunSpec`` plus bench bookkeeping)."""

    workload: str
    scheduler: str
    machine: str
    config: tuple = field(default=())
    deterministic: bool = False
    #: Cells marked True form the reduced CI matrix (``--smoke``).
    smoke: bool = False

    @property
    def cell_id(self) -> str:
        return f"cell/{self.workload}/{self.scheduler}/{self.machine}"

    def descriptor(self) -> dict[str, Any]:
        """Canonical identity dict — the unit :func:`matrix_hash` folds."""
        return {
            "id": self.cell_id,
            "kind": "cell",
            "workload": self.workload,
            "scheduler": self.scheduler,
            "machine": self.machine,
            "config": dict(self.config),
            "deterministic": self.deterministic,
        }


@dataclass(frozen=True)
class BenchPair:
    """One before/after hot-path pair, timed interleaved.

    ``dimension`` names the optimisation under test; the runner maps it
    to the private before-side factory (``impl="list"``,
    ``table_impl="list"``, or a probe batch-size of 1).  Those
    before-sides are deliberately *not* in the scheduler registry — the
    registry is the experiment vocabulary, and the legacy layouts exist
    only as the measured baseline and behavioural cross-check.
    """

    dimension: str  # "runqueue" | "elsc-table" | "probe-batch"
    workload: str
    scheduler: str
    machine: str
    config: tuple = field(default=())
    #: Both sides must produce bit-identical simulation results; the
    #: runner records (and ``compare`` gates) the check.
    identical_expected: bool = True

    @property
    def cell_id(self) -> str:
        return f"pair/{self.dimension}/{self.scheduler}/{self.machine}"

    def descriptor(self) -> dict[str, Any]:
        return {
            "id": self.cell_id,
            "kind": "pair",
            "dimension": self.dimension,
            "workload": self.workload,
            "scheduler": self.scheduler,
            "machine": self.machine,
            "config": dict(self.config),
            "identical_expected": self.identical_expected,
        }


def _cfg(mapping: dict[str, Any]) -> tuple:
    return tuple(sorted(mapping.items()))


def matrix_cells(smoke: bool = False) -> list[BenchCell]:
    """The pinned metered matrix: every registered scheduler × UP/4P ×
    volano/kernbench/serve.  ``smoke=True`` returns the reduced CI
    subset (deterministic workloads, UP, the two paper schedulers)."""
    cells = []
    for workload in MATRIX_WORKLOADS:
        config = _cfg(MATRIX_CONFIGS[workload])
        deterministic = workload in DETERMINISTIC_WORKLOADS
        for scheduler in SCHEDULERS:
            for machine in MACHINES:
                cells.append(
                    BenchCell(
                        workload=workload,
                        scheduler=scheduler,
                        machine=machine,
                        config=config,
                        deterministic=deterministic,
                        smoke=(
                            deterministic
                            and machine == "UP"
                            and scheduler in ("reg", "elsc")
                        ),
                    )
                )
    if smoke:
        return [c for c in cells if c.smoke]
    return cells


def pair_cells(smoke: bool = False) -> list[BenchPair]:
    """The before/after hot-path pairs (see each dimension's module).

    ``smoke=True`` keeps only the acceptance pair — interleaved A/B
    timing is robust to host noise, so this is the one wall-clock gate
    CI can apply meaningfully (docs/performance.md)."""
    scan_heavy = _cfg(PAIR_VOLANO_CONFIG)
    if smoke:
        return [BenchPair("runqueue", "volano", "reg", "UP", scan_heavy)]
    return [
        # sched/vanilla.py: builtin argmax over per-CPU goodness rows vs
        # the reference linked-list walk.  The UP cell is the acceptance
        # pair.
        BenchPair("runqueue", "volano", "reg", "UP", scan_heavy),
        BenchPair("runqueue", "volano", "reg", "4P", scan_heavy),
        # core/table.py: ELSCRunqueueTable (array lists + bitmaps) vs
        # ELSCListTable (linked nodes + linear cursor repair).
        BenchPair("elsc-table", "volano", "elsc", "UP", scan_heavy),
        # obs/probe.py: batched event emission vs per-event dispatch
        # (batch size forced to 1 on the before side).
        BenchPair(
            "probe-batch", "volano", "reg", "UP", _cfg(BATCH_VOLANO_CONFIG)
        ),
    ]


def cluster_row_config() -> dict[str, Any]:
    """The pinned cluster-loadtest throughput row (real processes and
    sockets: never deterministic, always trend-gated only)."""
    return {
        "shards": 2,
        "scheduler": "elsc",
        "machine": "UP",
        "rooms": 4,
        "clients_per_room": 4,
        "messages_per_client": 10,
        "duration_s": 10.0,
        "seed": 42,
    }


def matrix_hash(smoke: bool = False) -> str:
    """SHA-256 over the canonical JSON of every descriptor in the
    matrix — the stamp that makes two BENCH files comparable.

    The full and smoke matrices hash differently on purpose: a smoke
    file is only comparable to another smoke file (``compare`` can
    still do a subset diff across them with ``--allow-matrix-drift``).
    """
    descriptors = [c.descriptor() for c in matrix_cells(smoke=smoke)]
    descriptors += [p.descriptor() for p in pair_cells(smoke=smoke)]
    if not smoke:
        descriptors.append(
            {"id": "cluster/loadtest", "kind": "cluster",
             "config": cluster_row_config()}
        )
    canonical = json.dumps(descriptors, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
