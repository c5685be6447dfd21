"""The "serve" workload: a live loadtest as one harness cell.

:func:`run_serve_loadtest` has the same shape as every simulated
workload entry point — ``run(scheduler_factory, machine_spec, config)``
returning an object with a ``.sim`` exposing ``stats`` and
``scheduler_name`` — so ``execute_spec`` runs it unchanged and a live
run becomes an addressable, cacheable :class:`~repro.harness.RunSpec`
cell next to the simulated ones.

The machine spec maps onto the executor's *virtual* CPUs: a ``4P`` live
cell drives the policy through four round-robin CPU contexts, so
per-CPU designs exercise their real multi-queue paths.

Latencies are wall-clock and therefore machine-dependent; the harness
cache keys on the config alone, so a repeated identical cell is a cache
hit by construction (the acceptance property), and cross-machine
comparisons should rerun with ``--no-cache``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..kernel.simulator import MachineSpec
from ..obs.probes import ProfilerProbe
from ..sched.base import Scheduler
from ..sched.stats import SchedStats
from .config import ServeConfig
from .executor import SchedulerExecutor
from .loadgen import LoadReport, run_loadgen
from .metrics import LatencySummary
from .server import ChatServer

__all__ = ["LoadtestResult", "run_serve_loadtest"]


@dataclass
class _SimShim:
    """What ``execute_spec`` reads off a workload result's ``.sim``."""

    stats: SchedStats
    scheduler_name: str


class LoadtestResult:
    """Everything one live loadtest produced."""

    def __init__(
        self,
        scheduler: Scheduler,
        executor: SchedulerExecutor,
        server_counters: dict[str, Any],
        report: LoadReport,
        fault_events: Optional[list[dict[str, Any]]] = None,
    ) -> None:
        # merged_stats() spans executor rebuilds — a supervised restart
        # mid-run must not zero the accounting.
        self.sim = _SimShim(
            stats=executor.merged_stats(), scheduler_name=scheduler.name
        )
        self.executor = executor
        self.server_counters = server_counters
        self.report = report
        self.fault_events = fault_events or []
        self.pick_latency_us = LatencySummary.from_samples(
            [ns / 1e3 for ns in executor.pick_ns]
        )

    @property
    def elapsed_seconds(self) -> float:
        return self.report.elapsed_seconds

    @property
    def throughput(self) -> float:
        return self.report.throughput

    def metrics(self) -> dict[str, Any]:
        """The scalar export (what the harness records for the cell)."""
        out: dict[str, Any] = {
            "throughput": self.throughput,
            "elapsed_seconds": self.elapsed_seconds,
            **{
                k: self.server_counters[k]
                for k in (
                    "completed",
                    "deliveries",
                    "shed",
                    "shed_retry_after",
                    "expired",
                    "executor_restarts",
                    "dropped_fanout",
                    "sessions_total",
                    "queue_depth_avg",
                    "queue_depth_max",
                )
            },
            "sent": self.report.sent,
            "received": self.report.received,
            "echoes": self.report.echoes,
            "connect_failures": self.report.connect_failures,
            **self.report.latency.to_dict("latency_ms_"),
            **self.pick_latency_us.to_dict("pick_us_"),
            "picks": self.executor.picks,
            "idle_picks": self.executor.idle_picks,
            "fault_events": len(self.fault_events),
        }
        return out


async def _run(
    scheduler: Scheduler,
    spec: MachineSpec,
    config: ServeConfig,
    prof: Any = None,
    metrics: Any = None,
    scheduler_factory: Optional[Callable[[], Scheduler]] = None,
) -> LoadtestResult:
    executor = SchedulerExecutor(
        scheduler,
        num_cpus=spec.num_cpus,
        smp=spec.smp,
        factory=scheduler_factory,
    )
    if prof is not None:
        executor.attach(ProfilerProbe(prof))
    if metrics is not None:
        executor.attach(metrics)
    server = ChatServer(executor, config)
    driver = None
    if config.fault_plan:
        from ..faults import LiveFaultDriver, resolve_plan

        driver = LiveFaultDriver(resolve_plan(config.fault_plan), server, executor)
    await server.start()
    if driver is not None:
        driver.start()
    try:
        report = await run_loadgen("127.0.0.1", server.port, config)
    finally:
        if driver is not None:
            await driver.stop()
        counters = server.counters()
        await server.stop()
    if prof is not None:
        finalize = getattr(prof, "set_denominators", None)
        if finalize is not None:
            # Live runs have no idle-cycle ledger; the denominator is
            # all attributed (virtual) work, so the Table-1 fraction
            # reads "scheduler share of modelled kernel work".
            total = getattr(prof, "total_cycles", executor.clock.now)
            finalize(total, total)
    return LoadtestResult(
        scheduler,
        executor,
        counters,
        report,
        fault_events=driver.log if driver is not None else None,
    )


def run_serve_loadtest(
    scheduler_factory: Callable[[], Scheduler],
    spec: MachineSpec,
    config: ServeConfig,
    prof: Any = None,
    metrics: Any = None,
) -> LoadtestResult:
    """One live serve cell: start server, drive the load, tear down."""
    scheduler = scheduler_factory()
    return asyncio.run(
        _run(
            scheduler,
            spec,
            config,
            prof=prof,
            metrics=metrics,
            scheduler_factory=scheduler_factory,
        )
    )
