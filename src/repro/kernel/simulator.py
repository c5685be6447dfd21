"""High-level simulation driver: build a machine, run it, collect results.

:class:`Simulator` is the convenience layer the workloads and benches
use — it wires a scheduler to a machine configuration, runs to
completion (or a horizon), and bundles the numbers every experiment
needs into a :class:`SimResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..sched.base import Scheduler
from ..sched.stats import SchedStats
from .cost_model import CostModel
from .machine import Machine, RunSummary

__all__ = ["Simulator", "SimResult", "MachineSpec", "make_machine"]


@dataclass(frozen=True)
class MachineSpec:
    """A named machine configuration, as the paper's experiment axes.

    The paper distinguishes *UP* (kernel compiled without SMP: no lock
    overhead) from *1P* (SMP kernel on one processor), plus 2P and 4P.
    """

    num_cpus: int = 1
    smp: bool = True
    label: str = ""

    @staticmethod
    def up() -> "MachineSpec":
        return MachineSpec(num_cpus=1, smp=False, label="UP")

    @staticmethod
    def smp_n(n: int) -> "MachineSpec":
        return MachineSpec(num_cpus=n, smp=True, label=f"{n}P")

    @property
    def name(self) -> str:
        return self.label or (f"{self.num_cpus}P" if self.smp else "UP")


#: The paper's four machine configurations, in presentation order.
PAPER_SPECS = (
    MachineSpec.up(),
    MachineSpec.smp_n(1),
    MachineSpec.smp_n(2),
    MachineSpec.smp_n(4),
)


def make_machine(
    scheduler: Scheduler,
    spec: MachineSpec,
    cost: Optional[CostModel] = None,
) -> Machine:
    """Build a machine for a spec (tiny helper shared by all experiments)."""
    return Machine(
        scheduler=scheduler, num_cpus=spec.num_cpus, smp=spec.smp, cost=cost
    )


@dataclass
class SimResult:
    """Everything an experiment wants to know after one run."""

    summary: RunSummary
    stats: SchedStats
    seconds: float
    scheduler_name: str
    spec: MachineSpec
    scheduler_fraction: float
    busy_fraction: float
    #: Workload-specific payload (e.g. messages delivered).
    payload: dict[str, Any] = field(default_factory=dict)
    #: Injection log/counts when a fault plan was attached; {} otherwise.
    fault_summary: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.summary.deadlocked


class Simulator:
    """Run one workload-population function on one machine configuration."""

    def __init__(
        self,
        scheduler_factory: Callable[[], Scheduler],
        spec: MachineSpec,
        cost: Optional[CostModel] = None,
        prof: Optional[Any] = None,
        fault_plan: Optional[Any] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self.scheduler_factory = scheduler_factory
        self.spec = spec
        self.cost = cost
        #: Optional cycle-attribution sink (repro.prof); attached to the
        #: machine before the run, denominators finalised after it.
        self.prof = prof
        #: Optional FaultPlan (repro.faults); its horizon bounds the run
        #: when the caller gives none, since injected faults can strand
        #: workload completion conditions forever.
        self.fault_plan = fault_plan
        #: Optional MetricsProbe (repro.obs); attached before the run so
        #: its counters/histograms cover the whole event stream.
        self.metrics = metrics

    def run(
        self,
        populate: Callable[[Machine], Optional[dict[str, Any]]],
        until_seconds: Optional[float] = None,
    ) -> SimResult:
        """Build a fresh machine, let ``populate`` spawn tasks, and run.

        ``populate`` receives the machine and may return a payload dict;
        callable values are invoked *after* the run (so workloads can
        expose counters their task bodies update during the simulation).
        """
        scheduler = self.scheduler_factory()
        machine = make_machine(scheduler, self.spec, self.cost)
        if self.prof is not None:
            from ..obs.probes import ProfilerProbe  # layering

            machine.attach(ProfilerProbe(self.prof))
        if self.metrics is not None:
            machine.attach(self.metrics)
        injector = None
        if self.fault_plan is not None:
            from ..faults.injector import FaultInjector  # layering

            injector = machine.attach(FaultInjector(self.fault_plan))
            if until_seconds is None and self.fault_plan.horizon_s > 0:
                until_seconds = self.fault_plan.horizon_s
        payload = populate(machine) or {}
        summary = machine.run(until_seconds=until_seconds)
        if self.prof is not None:
            finalize = getattr(self.prof, "set_denominators", None)
            if finalize is not None:
                total = machine.clock.now * len(machine.cpus)
                idle = sum(cpu.idle_cycles for cpu in machine.cpus)
                finalize(total - idle, total)
        resolved: dict[str, Any] = {}
        for key, value in payload.items():
            resolved[key] = value() if callable(value) else value
        return SimResult(
            summary=summary,
            stats=scheduler.stats,
            seconds=summary.seconds,
            scheduler_name=scheduler.name,
            spec=self.spec,
            scheduler_fraction=machine.scheduler_fraction(),
            busy_fraction=machine.busy_fraction(),
            payload=resolved,
            fault_summary=injector.summary() if injector is not None else {},
        )
