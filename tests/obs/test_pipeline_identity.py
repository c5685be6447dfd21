"""Bit-identity contract of the probe pipeline.

The refactor's load-bearing promise: observation never perturbs the
simulation.  An empty :class:`ProbeSet` (the default) must produce the
same :class:`RunSummary` and :class:`SchedStats` as a run with the full
observer stack attached — tracer, profiler, and an empty-plan fault
injector all at once — for **every** registered scheduler, and
attach/detach must leave a machine indistinguishable from one that
never had probes.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan
from repro.faults.injector import FaultInjector
from repro.harness import MACHINE_SPECS, SCHEDULERS, RunSpec, execute_spec
from repro.kernel.machine import RunSummary
from repro.kernel.simulator import make_machine
from repro.obs import MetricsProbe, ProfilerProbe, TracerProbe
from repro.sched.stats import SchedStats
from repro.workloads.volanomark import VolanoConfig, VolanoMark, run_volanomark

TINY = {"rooms": 2, "users_per_room": 4, "messages_per_user": 3}


def _run_machine(scheduler_name: str, spec_name: str, probes=()):
    """One volano run at machine level, returning (summary, stats)."""
    bench = VolanoMark(VolanoConfig(**TINY))
    scheduler = SCHEDULERS[scheduler_name]()
    machine = make_machine(scheduler, MACHINE_SPECS[spec_name])
    for probe in probes:
        machine.attach(probe)
    bench.populate(machine)
    summary = machine.run()
    return machine, summary, scheduler.stats


def _summary_tuple(summary: RunSummary) -> tuple:
    return tuple(getattr(summary, f) for f in RunSummary.__slots__)


def _stats_tuple(stats: SchedStats) -> tuple:
    return tuple(
        getattr(stats, f) for f in SchedStats.__dataclass_fields__
    )


@pytest.mark.parametrize("spec_name", ["UP", "2P"])
@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
def test_stacked_probes_are_bit_identical_to_detached(
    scheduler_name, spec_name
):
    _, plain_summary, plain_stats = _run_machine(scheduler_name, spec_name)
    stacked = [
        TracerProbe(),
        ProfilerProbe(),
        MetricsProbe(),
        FaultInjector(FaultPlan()),
    ]
    machine, summary, stats = _run_machine(
        scheduler_name, spec_name, probes=stacked
    )
    assert _summary_tuple(summary) == _summary_tuple(plain_summary)
    assert _stats_tuple(stats) == _stats_tuple(plain_stats)
    # The stack really observed: the tracer ring and profiler have data.
    assert len(machine.probes.first(TracerProbe).tracer.records()) > 0
    assert machine.probes.first(ProfilerProbe) is not None


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
def test_attach_then_detach_restores_detached_state(scheduler_name):
    _, plain_summary, plain_stats = _run_machine(scheduler_name, "2P")
    bench = VolanoMark(VolanoConfig(**TINY))
    scheduler = SCHEDULERS[scheduler_name]()
    machine = make_machine(scheduler, MACHINE_SPECS["2P"])
    probe = machine.attach(TracerProbe())
    machine.detach(probe)
    assert not machine.probes
    assert machine.probes.first(TracerProbe) is None
    assert machine.probes.first(ProfilerProbe) is None
    assert machine.probes.first(FaultInjector) is None
    bench.populate(machine)
    summary = machine.run()
    assert _summary_tuple(summary) == _summary_tuple(plain_summary)
    assert _stats_tuple(scheduler.stats) == _stats_tuple(plain_stats)


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
def test_metered_cell_scalars_match_plain_cell(scheduler_name):
    spec = RunSpec("volano", scheduler_name, "2P", TINY)
    plain = execute_spec(spec)
    metered = execute_spec(spec, metrics=True)
    assert plain.metrics == metered.metrics
    assert plain.stats == metered.stats
    assert not plain.metered and metered.metered


@pytest.mark.parametrize("spec_name", ["UP", "4P"])
def test_probe_batch_size_does_not_change_metrics(spec_name, monkeypatch):
    """Batched delivery is pure mechanism: forcing per-event delivery
    (``DEFAULT_BATCH_SIZE = 1``, read when a ProbeSet is built) must
    leave the metrics snapshot and the simulation bit-identical."""
    from repro.obs import probe as probe_mod

    def metered():
        probe = MetricsProbe()
        result = run_volanomark(
            SCHEDULERS["reg"],
            MACHINE_SPECS[spec_name],
            VolanoConfig(rooms=3, users_per_room=6, messages_per_user=4),
            metrics=probe,
        )
        return _stats_tuple(result.sim.stats), probe.to_dict()

    batched = metered()
    monkeypatch.setattr(probe_mod, "DEFAULT_BATCH_SIZE", 1)
    assert metered() == batched


@pytest.mark.parametrize("spec_name", ["UP", "2P"])
@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
def test_stacked_conservation(scheduler_name, spec_name):
    """With all three legacy observers stacked as probes, the profiler's
    phase ledger still conserves against the machine's own counters."""
    probes = [TracerProbe(), ProfilerProbe(), FaultInjector(FaultPlan())]
    machine, _, stats = _run_machine(scheduler_name, spec_name, probes=probes)
    prof = machine.probes.first(ProfilerProbe).sink
    assert prof.scheduler_cycles() == stats.scheduler_cycles
    assert prof.phase_total("lock_wait") == stats.lock_spin_cycles


@pytest.mark.parametrize("spec_name", ["UP", "4P"])
@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
def test_scenario_bit_identical_to_plain_invocation(scheduler_name, spec_name):
    """A ScenarioSpec with an empty fault plan and empty probe set is
    *transparent*: its cell result is bit-identical — cache key, scalar
    metrics, SchedStats, the full canonical payload — to the equivalent
    plain CLI invocation's cell (what ``repro sweep`` would compute)."""
    from repro.scenario import ScenarioSpec, run_scenario

    scenario = ScenarioSpec(
        name="identity",
        workload="volano",
        scheduler=scheduler_name,
        machine=spec_name,
        config=TINY,
    )
    assert scenario.fault_plan.is_empty and not scenario.probes
    plain_spec = RunSpec("volano", scheduler_name, spec_name, TINY)
    assert scenario.to_run_spec().key == plain_spec.key
    via_scenario = run_scenario(scenario)
    via_plain = execute_spec(plain_spec)
    assert via_scenario.canonical() == via_plain.canonical()
