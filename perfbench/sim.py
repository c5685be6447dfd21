"""The two simulator workloads: VolanoMark cells run in this process.

Both use the paper's thread-heavy VolanoMark population (20 rooms x 30
users, four threads per user) through the public harness entry point
``WORKLOADS["volano"].run`` with a factory from ``SCHEDULERS``:

* ``sim-scan-up`` — stock ``reg`` policy on UP, probes off: the run queue
  stays long, so the O(n) goodness() scan dominates host time;
* ``sim-elsc-4p-metered`` — ELSC on 4P with a ``MetricsProbe`` attached:
  the scheduler is a minority share and the kernel loop, SMP lock path,
  ELSC table and probe pipeline show.

Measured runs go back to back, each scaled to the reference host speed
by the calibrations on either side of it (``common.HostSpeed``).

Run as a script (``python3 perfbench/sim.py <workload> <seed>``) it is
the set-up probe: it builds the cell, prints ``ready`` the moment
``Machine.run`` is entered, then its own calibration, and exits.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from common import HostSpeed, median, peak_rss_mb, time_calibration, time_to_ready, timing
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent

#: The population every sim workload uses; only the jitter seed varies.
ROOMS = 20
USERS_PER_ROOM = 30
MESSAGES_PER_USER = 1

#: Seed of the warm-up run, whose fingerprint must match ``golden.json``.
PINNED_SEED = 42

#: Fresh processes timed from start to ``Machine.run`` entry, per run;
#: each calibrates its own vCPU right after (see ``time_to_ready``).
SETUP_SAMPLES = 9
#: Fewest measured runs.
MIN_RUNS = 3
#: Runs on the same seeds without, then with, tracing in a traced run.
#: A fixed count keeps the per-layer counts exactly repeatable.
TRACED_RUNS = 2


@dataclass(frozen=True)
class SimWorkload:
    name: str
    scheduler: str
    spec: str
    metered: bool


SIM_WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload("sim-scan-up", "reg", "UP", metered=False),
        SimWorkload("sim-elsc-4p-metered", "elsc", "4P", metered=True),
    )
}


def volano_config(seed: int):
    from repro.workloads.volanomark import VolanoConfig

    return VolanoConfig(
        rooms=ROOMS,
        users_per_room=USERS_PER_ROOM,
        messages_per_user=MESSAGES_PER_USER,
        seed=seed,
    )


@dataclass
class SimRun:
    seconds: float
    deliveries: int
    result: Any
    probe: Any
    error: Optional[str] = None


def run_cell(
    wl: SimWorkload,
    seed: int,
    wrap_scheduler: Optional[Callable[[Any], Any]] = None,
    run_wrapper: Optional[Callable[[Callable], Callable]] = None,
) -> SimRun:
    """One VolanoMark run of ``wl``; a failed completion check is an error.

    ``run_wrapper`` wraps the workload entry point itself (the traced
    phase records it as the root span of the run).
    """
    from repro.harness.registry import MACHINE_SPECS, SCHEDULERS, WORKLOADS
    from repro.obs.metrics import MetricsProbe

    factory = SCHEDULERS[wl.scheduler]
    if wrap_scheduler is not None:
        base = factory
        factory = lambda: wrap_scheduler(base())  # noqa: E731
    probe = MetricsProbe() if wl.metered else None
    entry = WORKLOADS["volano"].run
    if run_wrapper is not None:
        entry = run_wrapper(entry)
    cfg = volano_config(seed)
    t0 = time.perf_counter()
    try:
        result = entry(factory, MACHINE_SPECS[wl.spec], cfg, metrics=probe)
    except RuntimeError as exc:  # the workload's own completion check
        return SimRun(time.perf_counter() - t0, 0, None, probe, str(exc))
    seconds = time.perf_counter() - t0
    error = None
    if result.messages_delivered != cfg.deliveries_expected:
        error = f"delivered {result.messages_delivered} of {cfg.deliveries_expected}"
    return SimRun(seconds, result.messages_delivered, result, probe, error)


def fingerprint(run: SimRun) -> dict[str, Any]:
    """Exact, host-independent outputs of one run: SchedStats and metrics."""
    sim = run.result.sim
    doc = {
        "sched_stats": sim.stats.snapshot(),
        "events_handled": sim.summary.events_handled,
        "cycles": sim.summary.cycles,
        "deliveries": run.deliveries,
        "metrics": run.probe.snapshot() if run.probe is not None else None,
    }
    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return {
        "sha256": digest,
        "schedule_calls": sim.stats.schedule_calls,
        "events_handled": sim.summary.events_handled,
        "deliveries": run.deliveries,
    }


def load_golden() -> dict[str, Any]:
    return json.loads((HERE / "golden.json").read_text())


class Tally:
    """Attempted/failed operations and the reasons for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, run: SimRun) -> SimRun:
        self.attempted += 1
        if run.error is not None:
            self.failed += 1
            self.errors.append(run.error)
        return run

    def outcome(self, metrics: dict[str, float], notes: list[str]) -> dict[str, Any]:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "valid": True,
            "metrics": metrics,
            "notes": notes + [f"FAILED: {e}" for e in self.errors],
        }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Set-up samples, a golden warm-up run, then the measured phases."""
    wl = SIM_WORKLOADS[name]
    tally = Tally()
    setup = [
        time_to_ready(["perfbench/sim.py", name, str(seed * 1000 + i)])
        for i in range(SETUP_SAMPLES)
    ]
    warm = tally.add(run_cell(wl, PINNED_SEED))
    if warm.error is None:
        want = load_golden()[name]
        got = fingerprint(warm)
        if got != want:
            tally.failed += 1
            tally.errors.append(f"pinned-seed fingerprint {got} != golden {want}")
    del warm
    seeds = (seed * 1000 + 100 + i for i in itertools.count())
    if trace:
        return tally.outcome(_traced_phases(wl, seeds, tally), [])

    # Runs go back to back, each on a fresh seed; only the host-speed
    # scaled duration and the delivery count of each are kept, so earlier
    # runs' heaps do not burden the collector in later ones.
    run_s: list[float] = []
    raw_s: list[float] = []
    rates: list[float] = []
    speed = HostSpeed()
    deadline = time.perf_counter() + seconds
    while len(run_s) < MIN_RUNS or time.perf_counter() + raw_s[-1] < deadline:
        run = tally.add(run_cell(wl, next(seeds)))
        raw_s.append(run.seconds)
        run_s.append(run.seconds * speed.factor())
        rates.append(run.deliveries / run_s[-1])
    sat_p50, sat_tail, sat_q = timing([s * 1e3 for s in run_s])
    # A batch of simulations has no arrival process: each run is due when
    # the one before it ends, so the time from due time is the service time.
    _, paced_tail, paced_q = timing([s * 1e3 for s in run_s], 90.0)
    metrics = {
        "run_s": median(run_s),
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "msgs_per_s": median(rates),
        "sat_rtt_p50_ms": sat_p50,
        "sat_rtt_p99_ms": sat_tail,
        "paced_rtt_p50_ms": sat_p50,
        "paced_rtt_p90_ms": paced_tail,
    }
    notes = [
        f"setup samples: {len(setup)}",
        f"runs back to back: {len(run_s)} (service-time tail is p{sat_q:g}, "
        f"due-time tail is p{paced_q:g}); unscaled median {median(raw_s):.4f} s",
        speed.note(),
    ]
    return tally.outcome(metrics, notes)


def _traced_phases(wl: SimWorkload, seeds, tally: Tally) -> dict[str, float]:
    """Untraced then traced runs on the same seeds; the per-layer split."""
    from instrument import instrument_scheduler, instrument_sim, sched_metrics, span_field

    plan = [next(seeds) for _ in range(TRACED_RUNS)]
    plain = [tally.add(run_cell(wl, s)) for s in plan]
    rec = SpanRecorder()
    instrument_sim(rec)
    traced = [
        tally.add(
            run_cell(
                wl, s,
                wrap_scheduler=lambda sched: instrument_scheduler(sched, rec),
                run_wrapper=lambda fn: rec.wrap(fn, "workloads.run"),
            )
        )
        for s in plan
    ]
    totals = rec.totals()
    span = span_field(totals)
    ok = [r for r in traced if r.result is not None]
    stats = [r.result.sim.stats for r in ok]
    events = sum(r.result.sim.summary.events_handled for r in ok)
    schedules = sum(s.schedule_calls for s in stats)
    total_s = span("workloads.run", "incl_s")
    sched_self = span("sched.schedule", "self_s") + span("sched.runqueue_op", "self_s")
    obs_self = span("obs.emit", "self_s") + span("obs.probe", "self_s")
    kernel_self = span("kernel.run", "self_s")
    return {
        **sched_metrics(totals),
        "sched.examined_per_schedule": (
            sum(s.tasks_examined for s in stats) / schedules if schedules else 0.0
        ),
        "sched.recalc_n": sum(s.recalc_entries for s in stats),
        "sched.share": sched_self / total_s if total_s else 0.0,
        "obs.emit_s": span("obs.emit", "incl_s"),
        "obs.emit_n": span("obs.emit", "n"),
        "obs.probe_s": span("obs.probe", "incl_s"),
        "obs.share": obs_self / total_s if total_s else 0.0,
        "kernel.events_n": events,
        "kernel.self_s": kernel_self,
        "kernel.ns_per_event": kernel_self / events * 1e9 if events else 0.0,
        "kernel.share": kernel_self / total_s if total_s else 0.0,
        "workloads.populate_s": span("workloads.run", "self_s"),
        "trace.overhead_run_s": (
            median([r.seconds for r in traced]) - median([r.seconds for r in plain])
        ),
        "trace.overhead_msgs_per_s": (
            median([r.deliveries / r.seconds for r in traced])
            - median([r.deliveries / r.seconds for r in plain])
        ),
    }


def _setup_probe(name: str, seed: int) -> None:
    """Build one cell, then report and exit at ``Machine.run`` entry."""
    from repro.kernel.machine import Machine

    def entered(self, *args, **kwargs):
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        sys.stdout.write(f"{time_calibration()!r}\n")
        sys.stdout.flush()
        os._exit(0)

    Machine.run = entered
    run_cell(SIM_WORKLOADS[name], seed)
    os._exit(3)  # Machine.run was never entered


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    _setup_probe(sys.argv[1], int(sys.argv[2]))
