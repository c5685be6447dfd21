"""Continuous stress-parity fuzzing over the scenario space.

The simulator's correctness story rests on a handful of *exact*
invariants that ordinary tests pin at a few hand-picked points.  This
module turns them into a property checked across the whole scenario
space: a seeded generator perturbs valid :class:`ScenarioSpec`\\ s within
:class:`FuzzBounds`, runs each one, and asserts four parity contracts —

``dispatch_parity``
    The live :class:`~repro.serve.SchedulerExecutor` and a reference
    real :class:`~repro.kernel.machine.Machine` replay the same seeded
    arrival trace and must agree on every pick, CPU placement, and
    remaining quantum (the PR-4 conformance property, re-derived per
    scenario from its content hash).
``probe_identity``
    Attaching the profiler + metrics probes must not perturb the
    simulation: workload metrics and SchedStats counters are compared
    field-for-field between an unprobed and a fully-probed run.
``cycle_conservation``
    :func:`repro.prof.conservation_errors` — the profiler's scheduler
    phases sum exactly to ``SchedStats.scheduler_cycles`` and
    ``lock_wait`` equals ``lock_spin_cycles``.
``metrics_reconciliation``
    :func:`repro.obs.reconcile_with_stats` — every MetricsProbe
    aggregate agrees exactly with the machine's own ledger.

Everything is a pure function of the spec: the arrival trace derives
from the scenario's content hash, so a diverging case written to
quarantine (:func:`write_quarantine`) is a **self-contained repro
file** — ``repro scenario run <file>`` reloads the spec, re-derives the
same trace, and replays the exact divergence.

Entry points: ``tools/stress_parity.py`` (CLI + CI job) and
``tests/scenario/test_fuzz.py``.  See ``docs/scenarios.md``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from ..harness.registry import MACHINE_SPECS, SCHEDULERS
from ..harness.runner import execute_spec
from ..kernel.simulator import make_machine
from ..kernel.task import SchedPolicy, Task, TaskState
from ..obs.metrics import reconcile_with_stats
from ..prof.profiler import conservation_errors
from ..serve.executor import SchedulerExecutor
from .spec import ScenarioSpec

__all__ = [
    "FuzzBounds",
    "Divergence",
    "FuzzReport",
    "CHECKS",
    "generate_scenario",
    "mutate",
    "replay_executor",
    "replay_machine",
    "check_scenario",
    "write_quarantine",
    "run_fuzz",
]

#: The parity contracts, in the order they run per scenario.
CHECKS = (
    "dispatch_parity",
    "probe_identity",
    "cycle_conservation",
    "metrics_reconciliation",
)

#: Handlers in the dispatch-parity replay (matches the PR-4 suite).
_N_HANDLERS = 3


@dataclass(frozen=True)
class FuzzBounds:
    """The documented envelope fuzzed scenarios stay inside.

    Bounds are deliberately small: the fuzzer's power comes from *many
    cheap* scenarios, not big ones — every case runs its workload twice
    (unprobed + probed) plus a trace replay, and CI sweeps dozens per
    job.  Widen locally when hunting, but keep the defaults smoke-fast.
    """

    #: Simulated workloads under fuzz.  ``serve`` is excluded: it runs a
    #: real asyncio server on wall-clock time, so its results are not
    #: bit-reproducible and probe-identity cannot hold by construction.
    workloads: tuple = ("volano", "select-chat", "kernbench", "webserver")
    #: Machine specs scenarios may land on.
    machines: tuple = ("UP", "2P", "4P", "8P")
    #: Named kernel fault plans the fuzzer may attach ("" = none).  A
    #: safe subset of :data:`repro.faults.plans.NAMED_PLANS`: kernel
    #: faults only, all bounded, all conservation-preserving.
    fault_plans: tuple = ("", "", "spurious-storm", "clock-skew", "hang-one-worker")
    #: volano/select-chat shape.
    rooms: tuple = (1, 3)
    users_per_room: tuple = (2, 5)
    messages_per_user: tuple = (1, 3)
    #: kernbench shape.
    files: tuple = (8, 32)
    jobs: tuple = (1, 4)
    #: webserver shape.
    workers: tuple = (2, 4)
    clients: tuple = (2, 8)
    requests_per_client: tuple = (2, 6)
    #: Arrival jitter range (volano family), rounded to 3 decimals so
    #: the value is JSON-stable.
    jitter: tuple = (0.0, 0.5)
    #: Workload RNG seed range.
    seeds: tuple = (0, 9999)
    #: Ops in each dispatch-parity arrival trace.
    trace_len: int = 40
    #: Field mutations applied per :func:`mutate` call.
    mutations: tuple = (1, 3)


def _rand_config(workload: str, rng: random.Random, bounds: FuzzBounds) -> dict:
    """A workload config drawn uniformly inside the bounds."""
    config: dict = {"seed": rng.randint(*bounds.seeds)}
    if workload in ("volano", "select-chat"):
        config.update(
            rooms=rng.randint(*bounds.rooms),
            users_per_room=rng.randint(*bounds.users_per_room),
            messages_per_user=rng.randint(*bounds.messages_per_user),
            jitter=round(rng.uniform(*bounds.jitter), 3),
        )
    elif workload == "kernbench":
        config.update(
            files=rng.randint(*bounds.files),
            jobs=rng.randint(*bounds.jobs),
        )
    elif workload == "webserver":
        config.update(
            workers=rng.randint(*bounds.workers),
            clients=rng.randint(*bounds.clients),
            requests_per_client=rng.randint(*bounds.requests_per_client),
        )
    else:
        raise ValueError(f"workload {workload!r} is outside the fuzz bounds")
    return config


def generate_scenario(
    name: str,
    rng: random.Random,
    bounds: FuzzBounds = FuzzBounds(),
    scheduler: Optional[str] = None,
) -> ScenarioSpec:
    """One valid scenario drawn uniformly inside the bounds."""
    workload = rng.choice(bounds.workloads)
    return ScenarioSpec(
        name=name,
        workload=workload,
        scheduler=scheduler if scheduler else rng.choice(sorted(SCHEDULERS)),
        machine=rng.choice(bounds.machines),
        config=_rand_config(workload, rng, bounds),
        fault_plan=rng.choice(bounds.fault_plans),
        probes=("metrics", "profile"),
    )


def mutate(
    base: ScenarioSpec,
    rng: random.Random,
    bounds: FuzzBounds = FuzzBounds(),
) -> ScenarioSpec:
    """A valid neighbour of ``base``: 1–3 fields re-drawn in bounds.

    Mutations stay inside the same workload family when perturbing shape
    fields, and may also flip the machine, the fault plan, or the seed —
    the axes along which parity bugs historically hide (SMP wake dedup,
    fault-path accounting, seed-dependent recalc timing).
    """
    workload = base.workload
    config = dict(base.config)
    machine = base.machine
    fault_plan = base.fault_plan
    kinds = ["machine", "fault_plan", "seed", "shape"]
    for _ in range(rng.randint(*bounds.mutations)):
        kind = rng.choice(kinds)
        if kind == "machine":
            machine = rng.choice(bounds.machines)
        elif kind == "fault_plan":
            fault_plan = rng.choice(bounds.fault_plans)
        elif kind == "seed":
            config["seed"] = rng.randint(*bounds.seeds)
        else:
            fresh = _rand_config(workload, rng, bounds)
            fresh.pop("seed")
            field_name = rng.choice(sorted(fresh))
            config[field_name] = fresh[field_name]
    return ScenarioSpec(
        name=base.name,
        workload=workload,
        scheduler=base.scheduler,
        machine=machine,
        config=config,
        fault_plan=fault_plan,
        probes=base.probes,
    )


@dataclass(frozen=True)
class Divergence:
    """One violated contract on one scenario."""

    check: str
    detail: str

    def to_dict(self) -> dict:
        return {"check": self.check, "detail": self.detail}


# -- dispatch parity ---------------------------------------------------------


def _derive_trace(spec: ScenarioSpec, trace_len: int) -> list:
    """The scenario's arrival trace: a pure function of its content
    hash, so quarantined repros re-derive it bit-identically."""
    rng = random.Random(f"{spec.key}/dispatch-trace")
    trace: list = []
    for _ in range(trace_len):
        if rng.random() < 0.5:
            trace.append(("arrive", rng.randrange(_N_HANDLERS)))
        else:
            trace.append(("serve",))
    return trace


def _charge(task: Task) -> None:
    """The quantum rule, written out independently of the hosts."""
    if task.policy is SchedPolicy.SCHED_FIFO:
        return
    if task.counter > 0:
        task.counter -= 1


def replay_executor(sched_name: str, spec_name: str, trace: Sequence) -> list:
    """Replay an arrival trace through the executor's public API.

    ``trace`` holds ``("arrive", handler)`` and ``("serve",)`` ops; the
    result is each serve's ``(name, cpu)`` (``None`` for an idle pick)
    followed by the handlers' final counters.
    """
    spec = MACHINE_SPECS[spec_name]
    executor = SchedulerExecutor(
        SCHEDULERS[sched_name](), num_cpus=spec.num_cpus, smp=spec.smp
    )
    tasks = [executor.register(f"h{i}") for i in range(_N_HANDLERS)]
    pending = [0] * _N_HANDLERS
    order: list = []
    for op in trace:
        if op[0] == "arrive":
            i = op[1]
            pending[i] += 1
            executor.ready(tasks[i])
        else:
            picked = executor.pick()
            if picked is None:
                order.append(None)
                continue
            i = tasks.index(picked)
            if pending[i] > 0:
                pending[i] -= 1
            executor.charge_slice(picked)
            executor.release(picked, blocked=pending[i] == 0)
            order.append((picked.name, picked.processor))
    return order + [[t.counter for t in tasks]]


def replay_machine(sched_name: str, spec_name: str, trace: Sequence) -> list:
    """The same replay on a reference host: a real Machine's
    ``wake_up_process``, with a hand-written pick loop and quantum rule
    standing in for the shared host bookkeeping (the oracle)."""
    scheduler = SCHEDULERS[sched_name]()
    machine = make_machine(scheduler, MACHINE_SPECS[spec_name])
    tasks = [Task(name=f"h{i}") for i in range(_N_HANDLERS)]
    for task in tasks:
        task.state = TaskState.INTERRUPTIBLE
        machine._tasks[task.pid] = task
        machine._live_count += 1
    pending = [0] * _N_HANDLERS
    cursor = 0
    order: list = []
    ncpu = len(machine.cpus)
    for op in trace:
        if op[0] == "arrive":
            i = op[1]
            pending[i] += 1
            machine.wake_up_process(tasks[i], machine.clock.now)
        else:
            picked = None
            for _ in range(ncpu):
                cpu = machine.cpus[cursor]
                cursor = (cursor + 1) % ncpu
                prev = cpu.current
                decision = scheduler.schedule(prev, cpu)
                prev.has_cpu = False
                nxt = decision.next_task
                if nxt is None:
                    cpu.current = cpu.idle_task
                    cpu.idle_task.has_cpu = True
                    continue
                nxt.has_cpu = True
                nxt.processor = cpu.cpu_id
                cpu.current = nxt
                picked = nxt
                break
            if picked is None:
                order.append(None)
                continue
            i = tasks.index(picked)
            if pending[i] > 0:
                pending[i] -= 1
            _charge(picked)
            picked.state = (
                TaskState.RUNNING if pending[i] else TaskState.INTERRUPTIBLE
            )
            order.append((picked.name, picked.processor))
    return order + [[t.counter for t in tasks]]


def _check_dispatch_parity(spec: ScenarioSpec, trace_len: int) -> list[Divergence]:
    trace = _derive_trace(spec, trace_len)
    live = replay_executor(spec.scheduler, spec.machine, trace)
    reference = replay_machine(spec.scheduler, spec.machine, trace)
    if live == reference:
        return []
    for step, (got, want) in enumerate(zip(live, reference)):
        if got != want:
            return [
                Divergence(
                    "dispatch_parity",
                    f"step {step}/{len(trace)}: executor={got!r} "
                    f"machine={want!r} (trace derives from scenario key)",
                )
            ]
    return [
        Divergence(
            "dispatch_parity",
            f"replay lengths differ: executor={len(live)} machine={len(reference)}",
        )
    ]


# -- simulation parity -------------------------------------------------------


def _dict_diff(label: str, got: dict, want: dict) -> list[str]:
    lines = []
    for key in sorted(set(got) | set(want)):
        a, b = got.get(key), want.get(key)
        if a != b:
            lines.append(f"{label}[{key}]: probed={a!r} plain={b!r}")
    return lines


def check_scenario(
    spec: ScenarioSpec, trace_len: int = FuzzBounds().trace_len
) -> list[Divergence]:
    """Every parity contract on one scenario; empty list = all hold.

    Pure in the spec: the same spec (same content hash) always replays
    the same trace and the same two simulation runs, which is what makes
    quarantined repro files exact.
    """
    divergences = _check_dispatch_parity(spec, trace_len)

    run_spec = spec.to_run_spec()
    plain = execute_spec(run_spec)
    probed = execute_spec(run_spec, profile=True, metrics=True)

    identity = _dict_diff("stats", probed.stats, plain.stats) + _dict_diff(
        "metrics", probed.metrics, plain.metrics
    )
    divergences += [Divergence("probe_identity", line) for line in identity]
    divergences += [
        Divergence("cycle_conservation", line)
        for line in conservation_errors(probed.profiler(), probed.stats)
    ]
    divergences += [
        Divergence("metrics_reconciliation", line)
        for line in reconcile_with_stats(probed.metrics_probe(), probed.stats)
    ]
    return divergences


# -- quarantine --------------------------------------------------------------


def write_quarantine(
    spec: ScenarioSpec,
    divergences: Sequence[Divergence],
    quarantine_dir: Path,
) -> Path:
    """Persist a diverging scenario as a self-contained repro file.

    The file is a valid ``repro scenario run`` input: the spec travels
    under the ``scenario`` key (``ScenarioSpec.from_dict`` unwraps it),
    alongside the observed divergences and a replay hint.  The CLI spots
    the ``divergences`` key and re-checks automatically on replay.
    """
    quarantine_dir = Path(quarantine_dir)
    quarantine_dir.mkdir(parents=True, exist_ok=True)
    path = quarantine_dir / f"scenario-{spec.key[:12]}.json"
    payload = {
        "scenario": spec.to_dict(),
        "key": spec.key,
        "divergences": [d.to_dict() for d in divergences],
        "replay": f"python -m repro scenario run {path}",
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# -- the fuzz loop -----------------------------------------------------------


@dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` sweep."""

    seed: int
    count: int
    checks_run: dict[str, int] = field(default_factory=dict)
    #: (scenario, divergences) for every diverging case.
    divergent: list = field(default_factory=list)
    #: Quarantine files written (empty when no dir was given).
    quarantined: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergent

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "checks_run": dict(self.checks_run),
            "divergent": [
                {
                    "scenario": spec.to_dict(),
                    "key": spec.key,
                    "divergences": [d.to_dict() for d in divs],
                }
                for spec, divs in self.divergent
            ],
            "quarantined": [str(p) for p in self.quarantined],
            "ok": self.ok,
        }


def run_fuzz(
    seed: int,
    count: int,
    schedulers: Optional[Sequence[str]] = None,
    bounds: FuzzBounds = FuzzBounds(),
    quarantine_dir: Optional[Path] = None,
    progress: Optional[Callable[[int, ScenarioSpec, list], None]] = None,
) -> FuzzReport:
    """Fuzz ``count`` scenarios from ``seed``; deterministic end to end.

    Scheduler coverage is forced, not sampled: case ``i`` runs on
    ``schedulers[i % len(schedulers)]`` (default: every registered
    scheduler), so even a tiny CI sweep exercises all policies.  Each
    case is a fresh generate + mutate, giving both uniform draws and
    near-neighbour pairs across the sweep.
    """
    schedulers = list(schedulers) if schedulers else sorted(SCHEDULERS)
    rng = random.Random(f"stress-parity/{seed}")
    report = FuzzReport(seed=seed, count=count)
    report.checks_run = {check: 0 for check in CHECKS}
    for i in range(count):
        scheduler = schedulers[i % len(schedulers)]
        base = generate_scenario(f"fuzz-{seed}-{i}", rng, bounds, scheduler)
        spec = mutate(base, rng, bounds)
        divergences = check_scenario(spec, trace_len=bounds.trace_len)
        for check in CHECKS:
            report.checks_run[check] += 1
        if divergences:
            report.divergent.append((spec, divergences))
            if quarantine_dir is not None:
                report.quarantined.append(
                    write_quarantine(spec, divergences, quarantine_dir)
                )
        if progress is not None:
            progress(i, spec, divergences)
    return report
