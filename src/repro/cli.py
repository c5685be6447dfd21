"""Command-line runners for every experiment.

Usage (also available as the ``elsc-repro`` console script)::

    python -m repro volano   --scheduler elsc --spec 4P --rooms 10
    python -m repro kernbench --scheduler reg  --spec UP
    python -m repro webserver --scheduler elsc --spec 2P
    python -m repro figure3  --messages 6 --jobs 4   # full Figure 3 sweep
    python -m repro figure4  --messages 6            # scaling factors
    python -m repro sweep --schedulers elsc,reg --specs UP,2P --rooms 5,10
    python -m repro schedstat --scheduler elsc --spec 1P --rooms 10
    python -m repro profile --workload volanomark --sched vanilla,multiqueue

Every run-style command turns its flags into
:class:`~repro.scenario.ScenarioSpec` cells in one place
(:func:`_scenario`) and runs them through one runner
(:func:`~repro.scenario.run_scenarios`); ``chaos`` and ``schedstat``,
which read the raw simulation, and the ``cluster`` commands build their
configs from the same specs.  The commands with ``--jobs`` and cache
flags (``figure3``, ``figure4``, ``sweep``, ``metrics``, ``loadtest``,
``scenario run``) hand them to the runner: independent cells fan out
across a process pool (``--jobs``, default one worker per CPU) and
completed cells land in a content-addressed cache under
``results/cache/``, so re-running a sweep — even the full ``--paper``
grid — only computes missing cells.  The others run in-process and
uncached.  See ``docs/harness.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import replace
from typing import Optional, Sequence

from .analysis.metrics import Series
from .analysis.tables import format_figure, format_kv, format_minutes, format_table
from .cli_common import (
    machine_vocab,
    resolve_machine_list,
    resolve_scheduler_arg,
    resolve_scheduler_list,
    resolve_workload_arg,
    scheduler_vocab,
    workload_vocab,
)
from .harness import MACHINE_SPECS, SCHEDULERS, WORKLOADS, CellResult, ResultCache
from .harness.cache import DEFAULT_CACHE_DIR
from .harness.runner import (
    DEFAULT_MANIFEST_PATH,
    DEFAULT_PROFILE_TICKS,
    default_jobs,
)
from .scenario import PROBE_KINDS, ScenarioSpec, run_scenarios
from .workloads.volanomark import VolanoConfig

#: Canonical name → factory/spec registries (shared with the harness).
SPECS = MACHINE_SPECS

_VOLANO_FLAGS = {
    "rooms": "rooms",
    "messages": "messages_per_user",
    "users": "users_per_room",
    "seed": "seed",
}

#: Workload flag (argparse ``dest``) → config field, per workload: the
#: one place a command-line flag becomes part of a cell.  A command
#: maps the flags its parser defines and ignores the rest.
_FLAG_FIELDS: dict[str, dict[str, str]] = {
    "volano": _VOLANO_FLAGS,
    "select-chat": _VOLANO_FLAGS,
    "kernbench": {"files": "files", "make_jobs": "jobs", "seed": "seed"},
    "webserver": {"clients": "clients", "workers": "workers", "seed": "seed"},
    "serve": {
        "rooms": "rooms",
        "clients": "clients_per_room",
        "messages": "messages_per_client",
        "interval_ms": "message_interval_ms",
        "duration": "duration_s",
        "batch": "batch",
        "max_pending": "max_pending",
        "seed": "seed",
        "deadline_ms": "request_deadline_ms",
    },
}


def _scenario(
    args: argparse.Namespace,
    workload: str,
    scheduler: str,
    machine: str,
    probes: Sequence[str] = (),
    **flags,
) -> ScenarioSpec:
    """The cell a command's flags describe.

    ``flags`` supply or override flag values by ``dest`` (a sweep
    cell's ``rooms=``, chaos's ``fault_plan=``).  ``--paper`` pins the
    paper's VolanoMark parameters over ``--messages``; ``--fault-plan``
    and ``--load-schedule`` become the scenario's own fields; and
    ``--profile``/``--metrics`` add their probes to ``probes``.
    """
    values = {**vars(args), **flags}
    config = {
        field: values[flag]
        for flag, field in _FLAG_FIELDS[workload].items()
        if flag in values
    }
    if values.get("paper"):
        paper = VolanoConfig.paper()
        config["users_per_room"] = paper.users_per_room
        config["messages_per_user"] = paper.messages_per_user
    try:
        return ScenarioSpec(
            name=args.command,
            workload=workload,
            scheduler=scheduler,
            machine=machine,
            config=config,
            fault_plan=values.get("fault_plan"),
            probes=[*probes, *(p for p in PROBE_KINDS if values.get(p))],
            load=values.get("load_schedule"),
        )
    except (OSError, ValueError) as exc:
        raise SystemExit(f"{args.command}: {exc}")


def _run(
    args: argparse.Namespace, scenarios: Sequence[ScenarioSpec], progress=None
) -> list[CellResult]:
    """Run ``scenarios`` through the harness, results in input order.

    Commands with ``--jobs`` and cache flags get the pool, cache and
    manifest they ask for; the others run in-process and uncached.
    """
    jobs = getattr(args, "jobs", 1)
    if jobs < 0:
        raise SystemExit(f"--jobs must be >= 0 (0 = auto), got {jobs}")
    cache = None if getattr(args, "no_cache", True) else ResultCache(args.cache_dir)
    return run_scenarios(
        scenarios,
        jobs=jobs,
        cache=cache,
        manifest_path=getattr(args, "manifest", "") or None,
        progress=progress,
        profile_ticks=getattr(args, "ticks", DEFAULT_PROFILE_TICKS),
    )


def _write(args: argparse.Namespace, path: str, text: str, what: str) -> None:
    """Write ``text`` to ``path``; ``-`` is stdout."""
    if path == "-":
        args.stdout.write(text)
        return
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"({what} written to {path})", file=sys.stderr)


def _write_json(args: argparse.Namespace, payload: dict, what: str) -> None:
    """The ``--json`` writer of every command (``-`` = stdout; :func:`main`
    then sends the tables to stderr)."""
    _write(args, args.json, json.dumps(payload, indent=1, sort_keys=True) + "\n", what)


def _add_common(
    parser: argparse.ArgumentParser, scheduler: str = "elsc", spec: str = "UP"
) -> None:
    parser.add_argument(
        "--scheduler",
        choices=scheduler_vocab(),
        default=scheduler,
        help="scheduling policy (canonical name or alias)",
    )
    parser.add_argument(
        "--spec",
        choices=machine_vocab(),
        default=spec,
        help="machine configuration (UP = non-SMP build)",
    )


#: Help for the flags of :func:`_add_flags`, by ``dest``.
_FLAG_HELP = {
    "paper": "the paper's VolanoMark parameters (overrides --messages)",
    "profile": "attach the cycle-attribution profiler and print its tables",
    "metrics": "attach the MetricsProbe and print its counters",
    "rooms": "chat rooms",
    "messages": "messages per user (serve: per client)",
    "users": "users per chat room",
    "files": "kernbench files",
    "clients": "webserver clients (serve: clients per room)",
    "workers": "webserver workers",
    "interval_ms": "open-loop arrival period per client",
    "duration": "hard deadline of a serve run, seconds",
    "deadline_ms": "per-request deadline; queued past it is answered 'expired'",
    "fault_plan": "run under a fault plan: named, inline JSON, or @file",
    "load_schedule": "phased offered load: canonical LoadSchedule JSON "
    "(replaces --messages/--interval-ms pacing)",
    "json": "also write the report as JSON here ('-' = stdout, tables to stderr)",
}


def _add_flags(parser: argparse.ArgumentParser, **defaults) -> None:
    """Add the flags commands share (those :func:`_scenario` reads, and
    ``--json``), by ``dest``, at ``defaults``; ``False`` makes a switch."""
    for dest, default in defaults.items():
        kind = {"action": "store_true"} if default is False else {"type": type(default)}
        parser.add_argument(
            "--" + dest.replace("_", "-"),
            default=default,
            help=_FLAG_HELP.get(dest),
            **kind,
        )


def _add_harness_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="parallel worker processes (0 = one per CPU, 1 = serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=str(DEFAULT_CACHE_DIR),
        help="result-cache directory",
    )
    parser.add_argument(
        "--manifest",
        default=str(DEFAULT_MANIFEST_PATH),
        help="run-manifest JSONL path ('' to disable)",
    )


#: The single-cell commands, by workload: the title and the rows each
#: prints from the cell's metrics ``m``, SchedStats ``s`` and config ``c``.
_CELL_REPORTS = {
    "volano": (
        "VolanoMark — {sched}/{machine}, {c.rooms} rooms",
        lambda m, s, c: [
            ("threads", c.threads),
            ("messages delivered", m["messages_delivered"]),
            ("elapsed (virtual s)", f"{m['elapsed_seconds']:.3f}"),
            ("throughput (msg/s)", f"{m['throughput']:.0f}"),
            ("schedule() calls", s.schedule_calls),
            ("tasks examined / call", f"{s.examined_per_schedule():.2f}"),
            ("cycles / schedule()", f"{s.cycles_per_schedule():.0f}"),
            ("recalculate entries", s.recalc_entries),
            ("migrations", s.migrations),
            ("scheduler fraction", f"{m['scheduler_fraction']:.3f}"),
        ],
    ),
    "select-chat": (
        "select()-server chat — {sched}/{machine}, {c.rooms} rooms",
        lambda m, s, c: [
            ("threads", m["threads"]),
            ("messages delivered", m["messages_delivered"]),
            ("throughput (msg/s)", f"{m['throughput']:.0f}"),
            ("tasks examined / call", f"{s.examined_per_schedule():.2f}"),
            ("scheduler fraction", f"{m['scheduler_fraction']:.3f}"),
        ],
    ),
    "kernbench": (
        "Kernel compile — {sched}/{machine}",
        lambda m, s, c: [
            ("files", c.files),
            ("make -j", c.jobs),
            ("time", format_minutes(m["elapsed_seconds"])),
            ("scheduler fraction", f"{m['scheduler_fraction']:.5f}"),
        ],
    ),
    "webserver": (
        "Web server — {sched}/{machine}",
        lambda m, s, c: [
            ("workers", c.workers),
            ("clients", c.clients),
            ("throughput (req/s)", f"{m['throughput']:.0f}"),
            ("mean latency", f"{m['mean_latency_seconds'] * 1e3:.2f} ms"),
            ("p99 latency", f"{m['p99_latency_seconds'] * 1e3:.2f} ms"),
            ("scheduler fraction", f"{m['scheduler_fraction']:.4f}"),
        ],
    ),
}


def cmd_cell(args: argparse.Namespace) -> int:
    """One simulated cell of the command's workload, as a table."""
    scenario = _scenario(args, args.command, args.scheduler, args.spec)
    (cell,) = _run(args, [scenario])
    title, rows = _CELL_REPORTS[scenario.workload]
    config = scenario.to_run_spec().build_config()
    print(
        format_kv(
            title.format(sched=scenario.scheduler, machine=scenario.machine, c=config),
            rows(cell.metrics, cell.sched_stats(), config),
        )
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import ReportConfig, build_report

    cfg = ReportConfig(
        messages_per_user=args.messages,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        manifest_path=args.manifest or None,
        progress=lambda text: print(f"  ran {text}", file=sys.stderr),
    )
    text = build_report(cfg)
    print(text)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"(written to {args.output})", file=sys.stderr)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the live chat server in the foreground until interrupted."""
    import asyncio

    from .serve import ChatServer, SchedulerExecutor, ServeConfig

    sched_name = resolve_scheduler_arg(args.scheduler)
    spec = SPECS[args.spec]
    config = ServeConfig(port=args.port)

    async def _main() -> None:
        scheduler = SCHEDULERS[sched_name]()
        executor = SchedulerExecutor(
            scheduler, num_cpus=spec.num_cpus, smp=spec.smp
        )
        if args.metrics:
            from .obs import MetricsProbe

            executor.attach(MetricsProbe())
        server = ChatServer(executor, config)
        await server.start(args.host)
        print(
            f"serving on {args.host}:{server.port} "
            f"(scheduler={sched_name}, spec={args.spec}) — ctrl-C to stop",
            file=sys.stderr,
        )
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop()
            print(
                format_kv(
                    f"Serve session — {sched_name}/{args.spec}",
                    sorted(server.counters().items()),
                )
            )

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    """One end-to-end localhost loadtest, recorded as a harness cell."""
    scenario = _scenario(args, "serve", args.scheduler, args.spec)
    spec = scenario.to_run_spec()
    cached = [False]

    def progress(s: ScenarioSpec, cell: CellResult, hit: bool) -> None:
        cached[0] = hit

    (cell,) = _run(args, [scenario], progress)
    stats = cell.sched_stats()
    m = cell.metrics
    print(
        format_kv(
            f"Live loadtest — {scenario.scheduler}/{args.spec}, "
            f"{args.rooms} rooms × {args.clients} clients"
            + (" [cached]" if cached[0] else ""),
            [
                ("cell key", spec.key[:12]),
                ("elapsed (s)", f"{m['elapsed_seconds']:.2f}"),
                ("messages sent", m["sent"]),
                ("requests completed", m["completed"]),
                ("fan-out deliveries", m["deliveries"]),
                ("shed (admission)", m["shed"]),
                ("shed w/ retry-after", m["shed_retry_after"]),
                ("expired (deadline)", m["expired"]),
                ("executor restarts", m["executor_restarts"]),
                ("dropped (outbox)", m["dropped_fanout"]),
                ("throughput (msg/s)", f"{m['throughput']:.0f}"),
                ("latency p50 (ms)", f"{m['latency_ms_p50']:.2f}"),
                ("latency p95 (ms)", f"{m['latency_ms_p95']:.2f}"),
                ("latency p99 (ms)", f"{m['latency_ms_p99']:.2f}"),
                ("pick p50 (µs)", f"{m['pick_us_p50']:.1f}"),
                ("pick p99 (µs)", f"{m['pick_us_p99']:.1f}"),
                ("queue depth avg/max",
                 f"{m['queue_depth_avg']:.1f}/{m['queue_depth_max']}"),
                ("schedule() calls", stats.schedule_calls),
                ("preemptions", stats.preemptions),
                ("migrations", stats.migrations),
            ],
        )
    )
    if args.profile and cell.profiled:
        from .prof import flat_table

        print()
        print(flat_table(cell.profiler()))
    if args.metrics and cell.metered:
        from .obs import format_metrics

        print()
        print(format_metrics(cell.metrics_probe().snapshot()))
    if args.json:
        payload = {
            "spec": spec.to_dict(),
            "key": spec.key,
            "cached": cached[0],
            "metrics": m,
            "stats": cell.stats,
        }
        if cell.profiled:
            payload["profile"] = cell.profile
        if cell.metered:
            payload["obs_metrics"] = cell.obs_metrics
        _write_json(args, payload, "metrics")
    return 0


def _figure3_series(args: argparse.Namespace, specs: Sequence[str]) -> list[Series]:
    rooms_axis = [int(r) for r in args.rooms_list.split(",")]
    cells: list[ScenarioSpec] = []
    for sched_name in ("elsc", "reg"):
        for spec_name in specs:
            for rooms in rooms_axis:
                cells.append(_scenario(args, "volano", sched_name, spec_name, rooms=rooms))
    results = _run(args, cells)
    series: list[Series] = []
    index = 0
    for sched_name in ("elsc", "reg"):
        for spec_name in specs:
            s = Series(f"{sched_name}-{spec_name.lower()}")
            for rooms in rooms_axis:
                cell = results[index]
                index += 1
                s.add(rooms, cell.throughput)
                print(
                    f"  {s.name} rooms={rooms}: {cell.throughput:.0f} msg/s",
                    file=sys.stderr,
                )
            series.append(s)
    return series


def cmd_figure3(args: argparse.Namespace) -> int:
    series = _figure3_series(args, ["UP", "1P", "2P", "4P"])
    print(
        format_figure(
            "Figure 3 — VolanoMark message throughput (messages/second)",
            "rooms",
            series,
        )
    )
    return 0


def cmd_figure4(args: argparse.Namespace) -> int:
    series = _figure3_series(args, ["UP", "1P", "2P", "4P"])
    rooms_axis = [int(r) for r in args.rooms_list.split(",")]
    base, high = rooms_axis[0], rooms_axis[-1]
    rows = []
    for s in series:
        rows.append([s.name, f"{s.scaling(base, high):.3f}"])
    print(
        format_table(
            f"Figure 4 — scaling factor ({high}-room / {base}-room throughput)",
            ["config", "scaling"],
            rows,
        )
    )
    return 0


#: Per sweepable workload: the flag its axis sweeps, and the headline
#: metric (and unit) of the sweep table.
_SWEEP: dict[str, tuple[str, str, str]] = {
    "volano": ("rooms", "throughput", "msg/s"),
    "select-chat": ("rooms", "throughput", "msg/s"),
    "kernbench": ("files", "elapsed_seconds", "time"),
    "webserver": ("clients", "throughput", "req/s"),
}


def cmd_sweep(args: argparse.Namespace) -> int:
    schedulers = resolve_scheduler_list(args.schedulers)
    spec_names = resolve_machine_list(args.specs)
    axis_name, metric, unit = _SWEEP[args.workload]
    axis = [int(x) for x in str(getattr(args, axis_name)).split(",")]
    base_seed = WORKLOADS[args.workload].config_cls.seed

    cells: list[ScenarioSpec] = []
    labels: list[tuple[str, str, int, int]] = []
    for sched_name in schedulers:
        for spec_name in spec_names:
            for x in axis:
                for rep in range(args.repeats):
                    # Each repeat perturbs the seed; repeat 0 keeps the default.
                    seed = base_seed + rep
                    cells.append(
                        _scenario(
                            args, args.workload, sched_name, spec_name, seed=seed,
                            **{axis_name: x},
                        )
                    )
                    labels.append((sched_name, spec_name, x, rep))

    computed = [0]

    def progress(scenario: ScenarioSpec, cell: CellResult, cached: bool) -> None:
        verb = "cache" if cached else "ran  "
        computed[0] += 0 if cached else 1
        spec = scenario.to_run_spec()
        print(f"  {verb} {spec.label} {spec.key[:12]}", file=sys.stderr)

    start = time.perf_counter()
    results = _run(args, cells, progress)
    wall = time.perf_counter() - start

    rows = []
    for (sched_name, spec_name, x, rep), cell in zip(labels, results):
        value = cell.metric(metric)
        rendered = (
            format_minutes(value) if metric == "elapsed_seconds" else f"{value:.0f}"
        )
        rows.append(
            [f"{sched_name}-{spec_name.lower()}", x, rep, rendered]
        )
    print(
        format_table(
            f"Sweep — {args.workload} ({unit}), jobs={args.jobs or default_jobs()}",
            ["config", axis_name, "rep", unit],
            rows,
        )
    )
    if args.profile:
        from .prof import SCHEDULER_PHASES

        prows = []
        for (sched_name, spec_name, x, rep), cell in zip(labels, results):
            prof = cell.profiler()
            prows.append(
                [f"{sched_name}-{spec_name.lower()}", x, rep]
                + [
                    f"{100.0 * prof.phase_fraction(p):.2f}"
                    for p in SCHEDULER_PHASES
                ]
                + [
                    f"{100.0 * prof.phase_fraction('lock_wait'):.2f}",
                    f"{100.0 * prof.scheduler_fraction():.2f}",
                ]
            )
        print()
        print(
            format_table(
                "Profile — % of busy CPU-time per phase",
                ["config", axis_name, "rep", *SCHEDULER_PHASES,
                 "lock_wait", "sched%"],
                prows,
            )
        )
    if args.metrics:
        mrows = []
        for (sched_name, spec_name, x, rep), cell in zip(labels, results):
            c = cell.obs_metrics.get("counters", {})
            t = cell.obs_metrics.get("totals", {})
            picks = c.get("picks", 0)
            per_pick = t.get("decision_cycles", 0) / picks if picks else 0.0
            mrows.append(
                [
                    f"{sched_name}-{spec_name.lower()}", x, rep,
                    picks,
                    c.get("preemptions", 0),
                    c.get("migrations", 0),
                    c.get("lock_contentions", 0),
                    f"{per_pick:.0f}",
                ]
            )
        print()
        print(
            format_table(
                "Metrics — probe counters per cell",
                ["config", axis_name, "rep", "picks", "preempt",
                 "migrate", "contend", "cyc/pick"],
                mrows,
            )
        )
    print(
        f"  {len(cells)} cells, {computed[0]} computed, "
        f"{len(cells) - computed[0]} cached, {wall:.1f}s wall",
        file=sys.stderr,
    )
    return 0


def _sched_scenarios(
    args: argparse.Namespace, probe: str
) -> tuple[str, list[ScenarioSpec]]:
    """``profile``/``metrics``: one ``probe``-carrying cell per ``--sched``."""
    workload = resolve_workload_arg(args.workload)
    sched_names = resolve_scheduler_list(args.sched)
    if not sched_names:
        raise SystemExit("--sched must name at least one scheduler")
    # serve: library defaults; use `loadtest --profile` for full control.
    flags = args if workload != "serve" else argparse.Namespace(command=args.command)
    return workload, [
        _scenario(flags, workload, name, args.spec, probes=(probe,))
        for name in sched_names
    ]


def cmd_profile(args: argparse.Namespace) -> int:
    """Cycle-attribution profile: one workload × one or more schedulers."""
    from .prof import collapsed_stacks, flat_table, table1_comparison

    workload, scenarios = _sched_scenarios(args, "profile")
    if args.ticks < 1:
        raise SystemExit(f"--ticks must be >= 1, got {args.ticks}")

    profiles = {
        scenario.scheduler: cell.profiler()
        for scenario, cell in zip(scenarios, _run(args, scenarios))
    }

    print(
        f"Profile — {workload}/{args.spec}, "
        f"series bucket = {args.ticks} ticks"
    )
    for prof in profiles.values():
        print()
        print(flat_table(prof, top_tasks=args.top))
    if len(profiles) > 1:
        print()
        print(table1_comparison(profiles))

    if args.collapsed:
        text = "".join(collapsed_stacks(p) for p in profiles.values())
        _write(args, args.collapsed, text, "collapsed stacks")
    if args.json:
        payload = {
            "workload": workload,
            "machine": args.spec,
            "config": scenarios[0].config_dict,
            "bucket_ticks": args.ticks,
            "profiles": {n: p.to_dict() for n, p in profiles.items()},
        }
        _write_json(args, payload, "profile JSON")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Probe-pipeline counters/histograms: one workload × schedulers.

    Runs through the harness, so metered cells land in the result cache
    with the same superset semantics as profiled ones: a metered entry
    serves plain requests, a plain entry is recomputed with the probe
    attached and overwritten in place.
    """
    from .obs import format_metrics

    workload, scenarios = _sched_scenarios(args, "metrics")
    cells = _run(args, scenarios)

    print(f"Metrics — {workload}/{args.spec}")
    snapshots = {}
    for scenario, cell in zip(scenarios, cells):
        snapshot = cell.metrics_probe().snapshot()
        snapshots[scenario.scheduler] = snapshot
        print()
        print(f"[{scenario.scheduler}]")
        print(format_metrics(snapshot))

    if args.json:
        payload = {
            "workload": workload,
            "machine": args.spec,
            "config": scenarios[0].config_dict,
            "metrics": snapshots,
        }
        _write_json(args, payload, "metrics JSON")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run one workload under a fault plan and report survival stats.

    The same cell is run twice — clean, then with the plan attached —
    so the output shows what the injected faults actually cost.
    """
    from .faults import resolve_plan

    try:
        plan = resolve_plan(args.plan)
    except (KeyError, OSError, ValueError) as exc:
        raise SystemExit(f"chaos: {exc}")
    workload_name = resolve_workload_arg(args.workload)
    workload = WORKLOADS[workload_name]
    burst = {}
    if workload_name == "serve":  # a short live burst
        burst = {"clients": 4, "messages": max(args.messages, 10)}
    clean = _scenario(args, workload_name, args.scheduler, args.spec, **burst)
    sched_name = clean.scheduler

    def run(scenario: ScenarioSpec):
        # The raw result, not a CellResult: the report reads the
        # injector's log and the deadlock flag off the simulation.
        spec = scenario.to_run_spec()
        return workload.run(
            SCHEDULERS[spec.scheduler], SPECS[spec.machine], spec.build_config()
        )

    baseline_raw = run(clean)
    faulted_raw = run(replace(clean, fault_plan=plan))

    summary = getattr(faulted_raw.sim, "fault_summary", {}) or {}
    deadlocked = bool(
        getattr(getattr(faulted_raw.sim, "summary", None), "deadlocked", False)
    )
    baseline = workload.extract(baseline_raw)
    faulted = workload.extract(faulted_raw)

    by_kind = summary.get("by_kind", {})
    injected = summary.get("injected", len(summary.get("log", [])) or None)
    if injected is None:
        # Live plans log through the driver, surfaced as fault_events.
        injected = faulted.get("fault_events", 0)
    print(
        format_kv(
            f"Chaos — plan {plan.name!r} on "
            f"{workload_name}/{sched_name}/{args.spec}",
            [
                ("faults in plan", len(plan.faults)),
                ("faults injected", injected),
                ("by kind", ", ".join(
                    f"{k}×{v}" for k, v in sorted(by_kind.items())
                ) or "-"),
                ("survived", "no (deadlock)" if deadlocked else "yes"),
            ],
        )
    )
    shared = [
        k
        for k in faulted
        if k in baseline and isinstance(faulted[k], (int, float))
    ]
    rows = [
        [k, f"{baseline[k]:.6g}", f"{faulted[k]:.6g}"] for k in shared
    ]
    print()
    print(
        format_table(
            "Baseline vs faulted", ["metric", "baseline", "faulted"], rows
        )
    )
    for event in summary.get("log", []):
        print(
            f"  t={event['t_s']:.6f}s {event['kind']} "
            f"{event.get('target', '')} {event['outcome']}: "
            f"{event.get('detail', '')}",
            file=sys.stderr,
        )
    if args.json:
        payload = {
            "plan": plan.to_dict(),
            "workload": workload_name,
            "scheduler": sched_name,
            "machine": args.spec,
            "config": clean.config_dict,
            "injected": injected,
            "by_kind": by_kind,
            "log": summary.get("log", []),
            "survived": not deadlocked,
            "baseline": baseline,
            "faulted": faulted,
        }
        _write_json(args, payload, "chaos report")
    return 1 if deadlocked else 0


def _cluster_config_from_args(args: argparse.Namespace):
    from .cluster import ClusterConfig
    from .scenario import resolve_scenario

    # Topology is a runtime decision even when a scenario drives the run.
    topology = dict(
        shards=args.shards,
        framing=args.framing,
        replication=not getattr(args, "no_replication", False),
        respawn=not getattr(args, "no_respawn", False),
        port=getattr(args, "port", 0),
    )
    try:
        if getattr(args, "scenario", ""):
            scenario = resolve_scenario(args.scenario)
        else:
            scenario = _scenario(args, "serve", args.scheduler, args.spec)
        return ClusterConfig.from_scenario(scenario, **topology)
    except (KeyError, OSError, ValueError) as exc:
        raise SystemExit(f"cluster: {exc}")


def _print_cluster_report(title: str, report) -> None:
    load = report.load
    agg = report.aggregate
    latency = load.latency
    recovery = report.recovery
    slots = report.router.get("slots") or {}
    rows = [
        ("shards", f"{report.config.shards} ({report.config.framing})"),
        ("alive at end", report.router.get("alive_shards")),
        ("epoch", report.router.get("epoch")),
        ("slot balance", " ".join(f"{s}:{n}" for s, n in sorted(slots.items()))),
        ("messages sent", load.sent),
        ("echoes confirmed", load.echoes),
        ("retries", load.retries),
        ("duplicates deduped", load.duplicates),
        ("replays deduped", load.replays),
        ("shed", load.shed),
        ("client failovers", load.failovers),
        ("cross-shard forwards", agg.get("forwarded", 0)),
        ("replication entries", agg.get("repl_entries_out", 0)),
        ("promotions", len(report.promotions)),
        ("shards killed", report.killed or "-"),
        ("respawns", len(report.respawns)),
        ("slot handbacks", len(report.handbacks)),
        ("dropped completions", report.dropped_completions),
        ("survived", "yes" if report.survived else "NO"),
    ]
    if recovery:
        ttr = recovery.get("ttr_s")
        ratio = recovery.get("throughput_ratio")
        rows += [
            ("time to recovery (s)", "-" if ttr is None else f"{ttr:.3f}"),
            (
                "capacity restored",
                "yes" if recovery.get("capacity_restored") else "NO",
            ),
            (
                "post/pre throughput",
                "-" if ratio is None else f"{ratio:.2f}",
            ),
            ("recovered", "yes" if report.recovered else "NO"),
        ]
    rows += [
        ("throughput (msg/s)", f"{load.throughput:.0f}"),
        ("latency p50 (ms)", f"{latency.p50:.2f}"),
        ("latency p99 (ms)", f"{latency.p99:.2f}"),
    ]
    print(format_kv(title, rows))


def cmd_cluster_serve(args: argparse.Namespace) -> int:
    """Run router + shard processes in the foreground until interrupted."""
    import asyncio

    from .cluster import ClusterRouter, ClusterSupervisor

    config = _cluster_config_from_args(args)

    async def _main() -> None:
        router = ClusterRouter(config)
        await router.start(args.host)
        supervisor = ClusterSupervisor(config)
        supervisor.spawn_all(router.control_port)
        try:
            await router.wait_ready()
            print(
                f"cluster serving on {args.host}:{router.client_port} "
                f"({config.shards} shards, {config.framing} interior "
                f"framing, scheduler={config.scheduler}) — ctrl-C to stop",
                file=sys.stderr,
            )
            await asyncio.Event().wait()
        finally:
            await router.stop()
            supervisor.stop_all()
            print(
                format_kv(
                    "Cluster session", sorted(router.counters().items())
                )
            )

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_cluster_loadtest(args: argparse.Namespace) -> int:
    """One end-to-end loadtest against a freshly spawned cluster."""
    import asyncio

    from .cluster import run_cluster_loadtest

    config = _cluster_config_from_args(args)
    report = asyncio.run(run_cluster_loadtest(config))
    _print_cluster_report(
        f"Cluster loadtest — {config.shards}×{config.scheduler}"
        f"/{config.machine}, {config.rooms} rooms × "
        f"{config.clients_per_room} clients",
        report,
    )
    if args.json:
        _write_json(args, report.to_dict(), "cluster report")
    return 0 if report.survived else 1


def cmd_cluster_chaos(args: argparse.Namespace) -> int:
    """Kill cluster components mid-loadtest and assert nothing is lost."""
    import asyncio

    from .cluster import run_cluster_loadtest
    from .faults import resolve_plan

    config = _cluster_config_from_args(args)
    plan = None
    if args.plan:
        try:
            plan = resolve_plan(args.plan)
        except (KeyError, OSError, ValueError) as exc:
            raise SystemExit(f"cluster chaos: {exc}")
    elif not config.fault_plan:
        raise SystemExit(
            "cluster chaos: give --plan, or --scenario with a fault plan"
        )
    report = asyncio.run(run_cluster_loadtest(config, plan))
    _print_cluster_report(
        f"Cluster chaos — plan {report.plan_name!r}, {config.shards} "
        f"shards ({config.framing})",
        report,
    )
    for event in report.fault_log:
        print(
            f"  t={event['t_s']:.3f}s {event['kind']}: {event['detail']}",
            file=sys.stderr,
        )
    for event in report.events:
        print(
            f"  t={event['t_s']:.3f}s {event['kind']}: {event['detail']}",
            file=sys.stderr,
        )
    if args.json:
        _write_json(args, report.to_dict(), "cluster report")
    return 0 if report.survived and report.recovered else 1


def cmd_clean_cache(args: argparse.Namespace) -> int:
    """Clear the result cache, or list/purge its quarantined entries."""
    cache = ResultCache(args.cache_dir)
    if args.quarantined:
        entries = cache.quarantined_entries()
        for path in entries:
            print(path)
        if args.purge:
            removed = cache.purge_quarantined()
            print(f"purged {removed} quarantined entries", file=sys.stderr)
        elif not entries:
            print("no quarantined entries", file=sys.stderr)
        return 0
    removed = cache.clear()
    print(
        f"removed {removed} cache entries from {cache.root}", file=sys.stderr
    )
    return 0


def _gather_scenarios(args: argparse.Namespace):
    """Resolve the run/render target set: (scenarios, any_quarantine).

    Each positional ref may be a registry name, ``@file``, inline JSON,
    or a bare file path; ``--match`` adds every registry scenario whose
    name fits the glob.  A file whose payload carries a ``divergences``
    key is a quarantined repro — flagged so ``run`` re-checks it even
    without ``--check``.
    """
    import fnmatch
    from pathlib import Path

    from .scenario import load_scenario_payload, named_scenarios, resolve_scenario

    scenarios = []
    any_quarantine = False
    for ref in args.refs:
        try:
            scenarios.append(resolve_scenario(ref))
        except (KeyError, ValueError) as exc:
            raise SystemExit(str(exc.args[0] if exc.args else exc))
        try:
            _, payload = load_scenario_payload(Path(ref.removeprefix("@")))
        except (OSError, ValueError):
            continue  # a registry name or inline JSON, not a file
        any_quarantine = any_quarantine or "divergences" in payload
    if getattr(args, "match", None):
        registry = named_scenarios()
        matched = [
            registry[name]
            for name in sorted(registry)
            if fnmatch.fnmatch(name, args.match)
        ]
        if not matched:
            raise SystemExit(f"no registered scenario matches {args.match!r}")
        scenarios.extend(matched)
    if not scenarios:
        raise SystemExit(
            "no scenarios selected; pass names/files or --match GLOB "
            "(see `repro scenario list`)"
        )
    return scenarios, any_quarantine


def cmd_scenario_list(args: argparse.Namespace) -> int:
    import fnmatch
    import json as json_mod

    from .scenario import named_scenarios

    registry = named_scenarios()
    names = sorted(registry)
    if args.match:
        names = [n for n in names if fnmatch.fnmatch(n, args.match)]
    if args.json:
        print(
            json_mod.dumps(
                {name: registry[name].to_dict() for name in names}, indent=2
            )
        )
        return 0
    for name in names:
        spec = registry[name]
        extras = []
        if not spec.fault_plan.is_empty:
            extras.append(f"faults={spec.fault_plan.name}")
        if spec.probes:
            extras.append(f"probes={','.join(spec.probes)}")
        if not spec.load.is_empty:
            extras.append(f"load={len(spec.load.phases)} phases")
        suffix = f"  ({'; '.join(extras)})" if extras else ""
        print(
            f"{name:<36} {spec.workload}/{spec.scheduler}-{spec.machine}{suffix}"
        )
    print(f"{len(names)} scenarios", file=sys.stderr)
    return 0


def cmd_scenario_render(args: argparse.Namespace) -> int:
    """Print a scenario's canonical JSON (the scenario-file format)."""
    import json as json_mod

    scenarios, _ = _gather_scenarios(args)
    for spec in scenarios:
        if args.compact:
            print(spec.to_config())
        else:
            print(json_mod.dumps(spec.to_dict(), indent=2, sort_keys=True))
        print(f"# key {spec.key}", file=sys.stderr)
    return 0


def cmd_scenario_run(args: argparse.Namespace) -> int:
    import json as json_mod

    from .scenario import check_scenario

    scenarios, any_quarantine = _gather_scenarios(args)
    check = args.check or any_quarantine
    if check:
        # Parity mode: re-derive each scenario's trace and probed runs
        # and assert the four contracts — the quarantine replay path.
        failed = 0
        records = []
        for spec in scenarios:
            divergences = check_scenario(spec)
            records.append(
                {
                    "name": spec.name,
                    "key": spec.key,
                    "divergences": [d.to_dict() for d in divergences],
                }
            )
            if divergences:
                failed += 1
                print(f"DIVERGED  {spec.label}")
                for d in divergences:
                    print(f"  [{d.check}] {d.detail}")
            else:
                print(f"ok        {spec.label}")
        if args.json:
            print(json_mod.dumps(records, indent=2))
        print(
            f"{len(scenarios) - failed}/{len(scenarios)} scenarios hold "
            f"all parity contracts",
            file=sys.stderr,
        )
        return 1 if failed else 0

    done = {"count": 0}

    def progress(spec, result, cached) -> None:
        done["count"] += 1
        tag = "cached" if cached else "ran"
        print(
            f"[{done['count']}/{len(scenarios)}] {tag:<6} {spec.label}",
            file=sys.stderr,
        )

    results = _run(args, scenarios, progress)
    if args.json:
        print(
            json_mod.dumps(
                [
                    {
                        "name": spec.name,
                        "key": spec.key,
                        "cell": result.to_dict() if result else None,
                    }
                    for spec, result in zip(scenarios, results)
                ],
                indent=2,
            )
        )
        return 0
    width = max(len(s.name) for s in scenarios)
    for spec, result in zip(scenarios, results):
        if result is None:
            print(f"{spec.name:<{width}}  (failed)")
            continue
        metrics = result.metrics
        shown = ", ".join(
            f"{k}={metrics[k]:.4g}" if isinstance(metrics[k], float) else f"{k}={metrics[k]}"
            for k in sorted(metrics)[:4]
        )
        print(
            f"{spec.name:<{width}}  {spec.workload}/{spec.scheduler}-"
            f"{spec.machine}  {shown}"
        )
    return 0


def cmd_schedstat(args: argparse.Namespace) -> int:
    from .kernel.proc import render_runqueue, render_schedstat, render_tasks
    from .kernel.simulator import make_machine
    from .workloads.volanomark import VolanoMark

    # A direct run, not a cell: the tables read the live Machine.
    spec = _scenario(args, "volano", args.scheduler, args.spec).to_run_spec()
    bench = VolanoMark(spec.build_config())
    machine = make_machine(SCHEDULERS[spec.scheduler](), SPECS[spec.machine])
    bench.populate(machine)
    machine.run()
    print(render_schedstat(machine))
    if args.tasks:
        print()
        print(render_tasks(machine, limit=args.tasks))
    if args.runqueue:
        print()
        print(render_runqueue(machine))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elsc-repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("volano", help="one VolanoMark run")
    _add_common(p)
    _add_flags(p, rooms=10, messages=10, paper=False)
    p.set_defaults(func=cmd_cell)

    p = sub.add_parser("select-chat", help="the select()-server counterfactual")
    _add_common(p)
    _add_flags(p, rooms=10, messages=10, paper=False)
    p.set_defaults(func=cmd_cell)

    p = sub.add_parser("report", help="run the full evaluation and print it")
    _add_flags(p, messages=6)
    p.add_argument("--output", default="", help="also write to this file")
    _add_harness_args(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("kernbench", help="one simulated kernel compile")
    _add_common(p)
    _add_flags(p, files=400)
    p.add_argument("--jobs", dest="make_jobs", type=int, default=4, help="make -j")
    p.set_defaults(func=cmd_cell)

    p = sub.add_parser("webserver", help="one Apache-style server run")
    _add_common(p)
    _add_flags(p, workers=16, clients=64)
    p.set_defaults(func=cmd_cell)

    p = sub.add_parser("figure3", help="regenerate Figure 3's series")
    p.add_argument("--rooms-list", default="5,10,15,20")
    _add_flags(p, messages=6, paper=False)
    _add_harness_args(p)
    p.set_defaults(func=cmd_figure3)

    p = sub.add_parser("figure4", help="regenerate Figure 4's scaling factors")
    p.add_argument("--rooms-list", default="5,10,15,20")
    _add_flags(p, messages=6, paper=False)
    _add_harness_args(p)
    p.set_defaults(func=cmd_figure4)

    p = sub.add_parser(
        "sweep", help="ad-hoc experiment grid through the parallel harness"
    )
    p.add_argument(
        "--workload",
        choices=sorted(_SWEEP),
        default="volano",
        help="its axis flag (--rooms, --files or --clients) takes a "
        "comma-separated list",
    )
    p.add_argument("--schedulers", default="elsc,reg", help="comma-separated")
    p.add_argument("--specs", default="UP", help="comma-separated machine specs")
    _add_flags(
        p, rooms="5,10,15,20", messages=6, users=20, files="400", clients="64",
        workers=16,
    )
    p.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="repetitions per cell (seed perturbed per repeat)",
    )
    _add_flags(p, profile=False, metrics=False)
    _add_harness_args(p)
    p.set_defaults(func=cmd_sweep)

    def _add_sched_list_args(p: argparse.ArgumentParser) -> None:
        # profile and metrics: one workload under each listed scheduler.
        p.add_argument("--workload", choices=workload_vocab(), default="volano")
        p.add_argument(
            "--sched",
            "--schedulers",
            dest="sched",
            default="vanilla",
            help="comma-separated schedulers (aliases accepted)",
        )
        p.add_argument("--spec", choices=machine_vocab(), default="UP")
        _add_flags(
            p, rooms=10, messages=6, users=20, files=400, clients=64, workers=16,
            json="",
        )

    p = sub.add_parser(
        "profile",
        help="kernprof-style cycle attribution (flat table, Table 1 for "
        "two or more schedulers, flamegraph stacks)",
    )
    _add_sched_list_args(p)
    p.add_argument(
        "--ticks",
        type=int,
        default=DEFAULT_PROFILE_TICKS,
        help="timer ticks per time-series bucket",
    )
    p.add_argument(
        "--top", type=int, default=10, help="hottest tasks per flat table"
    )
    p.add_argument(
        "--collapsed",
        default="",
        help="write flamegraph collapsed stacks here ('-' = stdout)",
    )
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "metrics",
        help="probe-pipeline counters and histograms for one workload "
        "(cached like profiled cells)",
    )
    _add_sched_list_args(p)
    _add_harness_args(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "serve", help="run the live scheduler-driven chat server (foreground)"
    )
    _add_common(p, scheduler="vanilla")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7100)
    p.add_argument(
        "--metrics",
        action="store_true",
        help="attach a live MetricsProbe; clients can snapshot it with "
        'a {"op": "metrics"} frame',
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadtest",
        help="live localhost loadtest through the harness (one RunSpec cell)",
    )
    _add_common(p, scheduler="vanilla")
    _add_flags(
        p, rooms=2, clients=8, messages=10, interval_ms=2.0, duration=10.0,
        batch=8, max_pending=4096, seed=42, deadline_ms=0.0, fault_plan="",
        profile=False, metrics=False, json="",
    )
    _add_harness_args(p)
    p.set_defaults(func=cmd_loadtest)

    p = sub.add_parser(
        "chaos",
        help="run one workload under a fault plan and report survival",
    )
    p.add_argument(
        "--plan",
        required=True,
        help="named fault plan, inline JSON, or @file (see docs/faults.md)",
    )
    p.add_argument("--workload", choices=workload_vocab(), default="volano")
    _add_common(p, spec="2P")
    _add_flags(
        p, rooms=1, messages=2, users=3, files=50, clients=8, workers=4,
        duration=3.0, json="",
    )
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "cluster",
        help="sharded serving cluster: router + N shard processes",
    )
    cluster_sub = p.add_subparsers(dest="cluster_command", required=True)

    def _add_cluster_args(cp: argparse.ArgumentParser) -> None:
        cp.add_argument("--shards", type=int, default=2)
        cp.add_argument(
            "--framing",
            choices=["json", "binary"],
            default="json",
            help="interior-link framing (router↔shard, shard↔shard)",
        )
        cp.add_argument(
            "--no-replication",
            action="store_true",
            help="disable leader→follower replication (failover loses state)",
        )
        cp.add_argument(
            "--no-respawn",
            action="store_true",
            help="disable the self-healing monitor (a killed shard stays "
            "dead and the cluster runs degraded)",
        )
        _add_common(cp, scheduler="vanilla")
        _add_flags(
            cp, rooms=4, clients=4, messages=10, interval_ms=2.0,
            duration=10.0, seed=42, load_schedule="",
        )
        cp.add_argument(
            "--scenario",
            default="",
            help="drive the run from a serve ScenarioSpec (registry "
            "name, @file, or inline JSON): the scenario supplies load "
            "shape, scheduler, machine, fault plan, and load schedule; "
            "--shards/--framing/--no-replication still apply",
        )

    cp = cluster_sub.add_parser(
        "serve", help="run the cluster in the foreground"
    )
    _add_cluster_args(cp)
    cp.add_argument("--host", default="127.0.0.1")
    cp.add_argument("--port", type=int, default=7200)
    cp.set_defaults(func=cmd_cluster_serve)

    cp = cluster_sub.add_parser(
        "loadtest", help="spawn a cluster, drive the load, report"
    )
    _add_cluster_args(cp)
    _add_flags(cp, fault_plan="", json="")
    cp.set_defaults(func=cmd_cluster_loadtest)

    cp = cluster_sub.add_parser(
        "chaos",
        help="kill shards mid-loadtest; exit nonzero on any lost "
        "completion or (with respawn) unrestored capacity",
    )
    _add_cluster_args(cp)
    cp.add_argument(
        "--plan",
        default="",
        help="fault plan: e.g. kill-one-shard, kill-respawn-shard "
        "(see docs/cluster.md); optional when --scenario carries one",
    )
    _add_flags(cp, json="")
    cp.set_defaults(func=cmd_cluster_chaos)

    p = sub.add_parser(
        "scenario",
        help="run, list, or render named experiment scenarios",
        description=(
            "A scenario composes workload shape, machine spec, scheduler, "
            "fault plan, probe set, and load schedule into one loadable, "
            "content-addressed JSON value (see docs/scenarios.md)."
        ),
    )
    scen_sub = p.add_subparsers(dest="scenario_command", required=True)

    sp = scen_sub.add_parser(
        "run",
        help="run scenarios (names, @files, inline JSON, or --match GLOB)",
    )
    sp.add_argument(
        "refs",
        nargs="*",
        help="scenario refs: registry name, @file, inline JSON, or file path",
    )
    sp.add_argument(
        "--match",
        default="",
        help="also run every registered scenario matching this glob",
    )
    sp.add_argument(
        "--check",
        action="store_true",
        help=(
            "assert the stress-parity contracts instead of reporting "
            "metrics (automatic for quarantined repro files)"
        ),
    )
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    _add_harness_args(sp)
    sp.set_defaults(func=cmd_scenario_run)

    sp = scen_sub.add_parser("list", help="list the named-scenario catalogue")
    sp.add_argument("--match", default="", help="filter names by glob")
    sp.add_argument("--json", action="store_true", help="emit full specs as JSON")
    sp.set_defaults(func=cmd_scenario_list)

    sp = scen_sub.add_parser(
        "render", help="print a scenario's canonical JSON form"
    )
    sp.add_argument("refs", nargs="+", help="scenario refs (as for run)")
    sp.add_argument(
        "--compact",
        action="store_true",
        help="one canonical line (the hashed form) instead of pretty JSON",
    )
    sp.set_defaults(func=cmd_scenario_render)

    p = sub.add_parser(
        "clean-cache",
        help="clear the result cache or manage quarantined entries",
    )
    p.add_argument(
        "--cache-dir",
        default=str(DEFAULT_CACHE_DIR),
        help="result-cache directory",
    )
    p.add_argument(
        "--quarantined",
        action="store_true",
        help="list quarantined (corrupt) entries instead of clearing",
    )
    p.add_argument(
        "--purge",
        action="store_true",
        help="with --quarantined: delete the listed entries",
    )
    p.set_defaults(func=cmd_clean_cache)

    p = sub.add_parser("schedstat", help="/proc-style scheduler statistics")
    _add_common(p)
    _add_flags(p, rooms=10, messages=6, paper=False)
    p.add_argument("--tasks", type=int, default=0, help="also list first N tasks")
    p.add_argument("--runqueue", action="store_true")
    p.set_defaults(func=cmd_schedstat)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.stdout = sys.stdout
    if getattr(args, "json", "") != "-":
        return args.func(args)
    # `--json -`: the JSON document owns stdout; the tables go to stderr.
    with contextlib.redirect_stdout(sys.stderr):
        return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
