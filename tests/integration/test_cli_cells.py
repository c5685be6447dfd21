"""Golden cell identity for the run-style ``repro`` commands.

Every invocation of a run-style command in ``README.md``, ``docs/*.md``,
the CI workflow, the ``Makefile`` and the verify recipe is listed in
``cli_cells.json`` (CI loop variables and ``$(JOBS)`` expanded), plus a
few lines that reach the flags and irregular mappings no document uses.
Each runs through :func:`repro.cli.main` with the harness patched to
record what the command would run and then stop, so nothing is
simulated.  What is pinned, per invocation:

* ``cells`` — the ordered ``RunSpec`` keys a harness run gets, and the
  runner settings (``runner``) it gets them with;
* ``chaos`` — the baseline and faulted keys of a ``chaos`` run;
* ``cluster`` — ``ClusterConfig.to_dict()`` (and ``plan``) of a cluster run;
* ``check`` — the keys ``scenario run --check`` re-checks;
* ``exit`` — the message of an invocation that exits before running.

The parser surface — every subcommand's option strings, defaults and
choices — is pinned alongside.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import shlex
from pathlib import Path

import pytest

import repro.cluster
import repro.scenario
from repro import cli
from repro.harness import MACHINE_SPECS, SCHEDULERS, WORKLOADS, ParallelRunner, RunSpec
from repro.harness import runner as runner_module
from repro.workloads.volanomark import VolanoMark

GOLDEN = json.loads(Path(__file__).with_name("cli_cells.json").read_text())

#: What ``default_jobs()`` reports while recording, so ``--jobs 0``
#: (one worker per CPU) pins the same value on every host.
AUTO_JOBS = 1000


class _Stop(Exception):
    """Raised by a recorder once it holds what the command would run."""


def _machine_name(num_cpus: int, smp: bool) -> str:
    return next(
        name
        for name, spec in MACHINE_SPECS.items()
        if (spec.num_cpus, spec.smp) == (num_cpus, smp)
    )


def _key(workload: str, factory, machine_spec, config) -> str:
    scheduler = next(n for n, f in SCHEDULERS.items() if f is factory)
    machine = _machine_name(machine_spec.num_cpus, machine_spec.smp)
    return RunSpec(workload, scheduler, machine, dataclasses.asdict(config)).key


def record(argv: list[str], monkeypatch: pytest.MonkeyPatch) -> dict:
    """What ``repro <argv>`` would run, without running it."""
    seen: dict = {}

    def runner_run(self, specs):
        seen["cells"] = [spec.key for spec in specs]
        seen["runner"] = {
            "jobs": self.jobs,
            "cache": None if self.cache is None else str(self.cache.root),
            "manifest": None if self.manifest_path is None else str(self.manifest_path),
            "profile": self.profile,
            "metrics": self.metrics,
            "ticks": self.profile_ticks,
        }
        raise _Stop

    def workload_run(name):
        def run(factory, machine_spec, config, **_):
            runs = seen.setdefault("chaos", [])
            runs.append(_key(name, factory, machine_spec, config))
            if len(runs) == 2:
                raise _Stop

        return run

    def populate(self, machine):
        machine_name = _machine_name(len(machine.cpus), machine.smp)
        spec = RunSpec(
            "volano",
            machine.scheduler.name,
            machine_name,
            dataclasses.asdict(self.config),
        )
        seen["cells"] = [spec.key]
        raise _Stop

    def check_scenario(spec):
        seen.setdefault("check", []).append(spec.to_run_spec().key)
        raise _Stop

    def run_cluster_loadtest(config, plan=None):
        seen["cluster"] = config.to_dict()
        seen["plan"] = None if plan is None else plan.to_dict()
        raise _Stop

    monkeypatch.setattr(ParallelRunner, "run", runner_run)
    monkeypatch.setattr(runner_module, "default_jobs", lambda: AUTO_JOBS)
    for name, workload in WORKLOADS.items():
        monkeypatch.setitem(
            WORKLOADS, name, dataclasses.replace(workload, run=workload_run(name))
        )
    monkeypatch.setattr(VolanoMark, "populate", populate)
    monkeypatch.setattr(repro.scenario, "check_scenario", check_scenario)
    monkeypatch.setattr(repro.cluster, "run_cluster_loadtest", run_cluster_loadtest)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            cli.main(argv)
        except _Stop:
            pass
        except SystemExit as exc:
            seen["exit"] = str(exc.code)
    return seen


def parser_surface(parser: argparse.ArgumentParser, path: str = "") -> dict:
    """``{subcommand: {options: {default, choices}}}`` for a parser tree."""
    surface: dict = {}
    options: dict = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                surface.update(parser_surface(sub, f"{path} {name}".strip()))
        elif not isinstance(action, argparse._HelpAction):
            options[",".join(action.option_strings) or action.dest] = {
                "default": action.default,
                "choices": None if action.choices is None else list(action.choices),
            }
    if path:
        surface[path] = options
    return surface


@pytest.mark.parametrize("command", sorted(GOLDEN["invocations"]))
def test_invocation_runs_the_golden_cells(command, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert record(shlex.split(command), monkeypatch) == GOLDEN["invocations"][command]


def test_parser_surface_is_pinned():
    assert parser_surface(cli.build_parser()) == GOLDEN["parser"]
