#!/usr/bin/env python3
"""Profile a VolanoMark run the way IBM profiled the kernel.

Section 4 cites a kernel profile taken *during* the VolanoMark runs
("between 37 and 55 percent of total time spent in the kernel during
the test is spent in the scheduler").  This example reproduces the
methodology: a :class:`TimelineSampler` snapshots the run queue depth
and the scheduler's share of busy time every 10 ms of virtual time,
and an event :class:`Tracer` captures the final milliseconds of
scheduling decisions.

Run:

    python examples/kernel_profile.py
    python examples/kernel_profile.py --scheduler elsc --rooms 10
"""

from __future__ import annotations

import argparse

from repro import ELSCScheduler, Machine, Tracer, VanillaScheduler
from repro.analysis.timeline import TimelineSampler
from repro.obs import TracerProbe
from repro.workloads.volanomark import VolanoConfig, VolanoMark

SCHEDULERS = {"reg": VanillaScheduler, "elsc": ELSCScheduler}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scheduler", choices=sorted(SCHEDULERS), default="reg")
    parser.add_argument("--rooms", type=int, default=5)
    parser.add_argument("--messages", type=int, default=4)
    parser.add_argument("--trace-lines", type=int, default=15)
    args = parser.parse_args()

    machine = Machine(SCHEDULERS[args.scheduler](), num_cpus=1, smp=False)
    tracer = machine.attach(TracerProbe(Tracer(capacity=50_000))).tracer
    sampler = TimelineSampler(machine, period_s=0.01)
    bench = VolanoMark(
        VolanoConfig(rooms=args.rooms, messages_per_user=args.messages)
    )
    bench.populate(machine)
    machine.run()

    print(sampler.render(f"{args.scheduler} profile, {args.rooms} rooms"))
    print()
    print(
        f"peak run queue: {sampler.peak_runqueue():.0f}   "
        f"mean run queue: {sampler.mean_runqueue():.1f}   "
        f"final scheduler share: {machine.scheduler_fraction():.1%}"
    )
    print()
    print(f"last {args.trace_lines} scheduler events:")
    print(tracer.render(last=args.trace_lines))

    from repro.analysis.gantt import gantt

    window = machine.clock.now
    print()
    print("CPU occupancy (whole run):")
    print(gantt(tracer, window, width=70))


if __name__ == "__main__":
    main()
