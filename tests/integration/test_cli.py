"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import SCHEDULERS, SPECS, build_parser, main


class TestParser:
    def test_all_schedulers_available(self):
        assert set(SCHEDULERS) == {
            "reg", "elsc", "heap", "mq", "o1", "cfs", "clutch", "relaxed_mq",
        }

    def test_all_specs_available(self):
        assert list(SPECS) == ["UP", "1P", "2P", "4P", "8P"]

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_scheduler(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["volano", "--scheduler", "bfs"])


class TestCommands:
    def test_volano_command(self, capsys):
        rc = main(
            [
                "volano",
                "--scheduler", "elsc",
                "--spec", "UP",
                "--rooms", "2",
                "--messages", "3",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "throughput (msg/s)" in out
        assert "recalculate entries" in out

    def test_kernbench_command(self, capsys):
        rc = main(
            ["kernbench", "--scheduler", "reg", "--spec", "UP", "--files", "12"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "time" in out

    def test_webserver_command(self, capsys):
        rc = main(
            [
                "webserver",
                "--scheduler", "o1",
                "--spec", "2P",
                "--workers", "4",
                "--clients", "6",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "p99 latency" in out

    def test_schedstat_command(self, capsys):
        rc = main(
            [
                "schedstat",
                "--scheduler", "reg",
                "--spec", "UP",
                "--rooms", "2",
                "--messages", "2",
                "--runqueue",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "schedule_calls" in out
        assert "runqueue" in out

    def test_figure4_command(self, capsys):
        rc = main(["figure4", "--rooms-list", "2,4", "--messages", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "scaling" in out
        assert "elsc-up" in out


class TestSweep:
    TINY = [
        "sweep", "--workload", "volano", "--specs", "UP", "--rooms", "1",
        "--messages", "1", "--users", "2", "--jobs", "1", "--no-cache",
        "--manifest", "",
    ]

    def test_scheduler_aliases_name_the_same_cells(self, capsys):
        assert main([*self.TINY, "--schedulers", "vanilla,elsc"]) == 0
        aliased = capsys.readouterr().out
        assert main([*self.TINY, "--schedulers", "reg,elsc"]) == 0
        assert aliased == capsys.readouterr().out
        assert "reg-up" in aliased

    def test_workload_choices_are_the_swept_workloads(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "--workload", "serve"])
        assert exc.value.code == 2


LIVE = ["--rooms", "1", "--clients", "1", "--messages", "2"]


@pytest.mark.parametrize(
    "argv, title",
    [
        (["profile", "--rooms", "1", "--messages", "1", "--users", "2"], "Profile"),
        (
            ["metrics", "--rooms", "1", "--messages", "1", "--users", "2",
             "--no-cache", "--manifest", ""],
            "Metrics",
        ),
        (["chaos", "--plan", "kill-one-worker"], "Chaos"),
        (
            ["loadtest", *LIVE, "--interval-ms", "1", "--duration", "3",
             "--no-cache", "--manifest", ""],
            "Live loadtest",
        ),
        (["cluster", "loadtest", "--shards", "1", *LIVE, "--duration", "5"],
         "Cluster loadtest"),
        (
            ["cluster", "chaos", "--plan", '{"name": "none", "faults": []}',
             "--shards", "1", *LIVE, "--duration", "5"],
            "Cluster chaos",
        ),
    ],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_json_dash_owns_stdout(argv, title, tmp_path, monkeypatch, capsys):
    """``--json -`` writes the document to stdout and moves the tables
    to stderr, for every command with a ``--json`` report."""
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--json", "-"]) == 0
    out, err = capsys.readouterr()
    assert isinstance(json.loads(out), dict)
    assert f"{title} —" in err
    assert not (tmp_path / "-").exists()
