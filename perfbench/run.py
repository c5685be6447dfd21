"""Repository benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-scan-up --seed 1 --seconds 30 --trace 0

``--trace 0`` measures with the program unmodified and reports every
``end_to_end`` metric of ``BENCHMARK.json``; ``--trace 1`` adds a traced
phase that wraps each layer's public methods and reports every
``per_layer`` metric (a layer a workload does not exercise reads 0).
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it repeat every metric by name
and unit and say how many samples each timing rests on.

``--write-golden`` re-records ``golden.json``, the pinned-seed
fingerprints every sim run's warm-up must match.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import live
    import sim

    if args.write_golden:
        golden = {
            name: sim.fingerprint(sim.run_cell(wl, sim.PINNED_SEED))
            for name, wl in sim.SIM_WORKLOADS.items()
        }
        (HERE / "golden.json").write_text(json.dumps(golden, indent=2) + "\n")
        return 0

    spec = _load_spec()
    declared = {w["name"] for w in spec["workloads"]}
    if args.workload not in declared:
        print(f"unknown workload {args.workload!r}; choose from {sorted(declared)}",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    if args.workload in sim.SIM_WORKLOADS:
        out = sim.measure(args.workload, args.seed, args.seconds, trace)
    else:
        out = live.measure(args.seed, args.seconds, trace)

    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        value = out["metrics"].get(entry["name"])
        if value is None:
            if not trace:
                raise RuntimeError(f"workload did not measure {entry['name']}")
            value = 0.0  # a layer this workload does not exercise
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    extra = set(out["metrics"]) - set(metrics)
    if extra:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")

    attempted, failed = out["attempted"], out["failed"]
    for note in out["notes"]:
        print(f"# {note}")
    print(f"# failed_frac = {failed / attempted:.6g} frac ({failed} of {attempted})")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0 and out["valid"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
