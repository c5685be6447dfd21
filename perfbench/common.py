"""Statistics and process helpers shared by the workloads."""

from __future__ import annotations

import heapq
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Percentiles a timing may report, highest last; anything above p99 is
#: too noisy to hold to a bound.
TAIL_LADDER = (50.0, 90.0, 99.0)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    if not samples:
        raise ValueError("percentile of no samples")
    data = sorted(samples)
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(n: int, ladder: Sequence[float] = TAIL_LADDER) -> float:
    """Highest percentile of ``ladder`` with ``MIN_BEYOND`` samples beyond it.

    Of ``n`` samples, ``n * (1 - q/100)`` lie beyond the ``q``-th
    percentile.  Falls back to the median when even p50 has too few
    beyond it, since a median is always reported.
    """
    best = 50.0
    for q in ladder:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:
            best = max(best, q)
    return best


def timing(samples: Sequence[float], tail: float = 99.0) -> tuple[float, float, float]:
    """Median and tail of ``samples``: ``(p50, tail value, tail percentile)``.

    The tail is the ``tail`` percentile when the sample supports it, else
    the highest percentile below it that does (see :func:`tail_percentile`).
    """
    q = tail_percentile(len(samples), [p for p in TAIL_LADDER if p <= tail])
    return median(samples), percentile(samples, q), q


def windowed_timing(
    samples: Sequence[float], window: int, tail: float
) -> tuple[float, float]:
    """Median over consecutive windows of each window's p50 and ``tail``.

    One host stall puts a burst of slow samples into one or two windows;
    a percentile over the whole phase would move with it, the median of
    per-window percentiles does not.  ``window`` must give the ``tail``
    percentile its ten samples beyond.
    """
    if tail_percentile(window, (tail,)) < tail:
        raise ValueError(f"a window of {window} samples cannot support p{tail:g}")
    chunks = [samples[i:i + window] for i in range(0, len(samples) - window + 1, window)]
    if not chunks:
        raise RuntimeError(f"fewer than {window} samples")
    return (
        median([median(c) for c in chunks]),
        median([percentile(c, tail) for c in chunks]),
    )


#: Wall seconds ``calibration_kernel()`` takes on the reference host (one
#: vCPU of a shared 2-vCPU x86-64 VM, CPython 3.11).  Scaled timings read
#: as seconds on a host of that speed.
CALIBRATION_REF_S = 0.15
CALIBRATION_STEPS = 200_000


def calibration_kernel(steps: int = CALIBRATION_STEPS) -> int:
    """A fixed pure-Python load: heap-ordered events and dict counters.

    It is the benchmark's own code and never changes, so its run time
    measures only the speed the host gives this process right now.  It
    allocates only floats and ints, which the cyclic collector does not
    track, so a collection over the program's heap never lands in it.
    """
    rng = random.Random(7)
    heap = [rng.random() for _ in range(512)]
    heapq.heapify(heap)
    counts: dict[int, int] = {}
    for _ in range(steps):
        due = heapq.heappop(heap)
        key = int(due * 1024.0) & 63
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(heap, due + rng.random())
    return len(counts)


def time_calibration() -> float:
    """Wall seconds of one ``calibration_kernel()`` in this process."""
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


#: How far a piece of work is scaled toward the calibration: the
#: program's time moves less than the kernel's.  Over about 90 runs of each
#: sim workload and 80 closed-loop live segments, medians of ten
#: consecutive pieces were steadiest for exponents of 0.5 to 1 (and spread
#: up to 4x wider unscaled); 0.75 serves all three.
ELASTICITY = 0.75


def speed_factor(calibration_s: float) -> float:
    """Multiplier taking a time measured beside ``calibration_s`` to the
    reference host's speed."""
    return (CALIBRATION_REF_S / calibration_s) ** ELASTICITY


class HostSpeed:
    """Scale each measured piece of work to the reference host's speed.

    The speed a shared host gives one vCPU drifts by up to 2x over
    seconds to minutes, for all code alike: CPU time tracks wall time and
    steal stays at zero, so this is not preemption.  The two vCPUs drift
    independently, so the kernel must run on the vCPU that did the work
    (``calibrate`` may time it in another process).  It runs before the
    first piece and after each one; a piece is scaled by the mean of the
    calibrations on either side of it.  A change to the program moves the
    piece but not the kernel, so it shows in full.
    """

    def __init__(self, calibrate: Callable[[], float] = time_calibration) -> None:
        self.calibrate = calibrate
        self.samples = [calibrate()]

    def factor(self) -> float:
        """Call right after a piece of work: the factor that scales it."""
        self.samples.append(self.calibrate())
        return speed_factor((self.samples[-2] + self.samples[-1]) / 2)

    def note(self) -> str:
        return (
            f"host speed: {len(self.samples)} calibrations, median "
            f"{median(self.samples):.4f} s (reference {CALIBRATION_REF_S} s)"
        )


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spawn(argv: list[str]) -> subprocess.Popen:
    """Start a Python child from the checkout root with piped stdio."""
    return subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )


def stop(proc: subprocess.Popen) -> None:
    """Make sure ``proc`` has ended, killing it if it lingers."""
    if proc.poll() is None:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()


def time_to_ready(argv: list[str]) -> float:
    """Seconds from spawning ``argv`` until its first stdout line, scaled
    to the reference host speed.

    The child prints ``ready`` at the point set-up ends, then the seconds
    of one ``time_calibration()`` on its own vCPU, and exits.
    """
    t0 = time.perf_counter()
    proc = spawn(argv)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        if line.strip() != "ready":
            raise RuntimeError(f"set-up child {argv} said {line!r}")
        return elapsed * speed_factor(float(proc.stdout.readline()))
    finally:
        proc.stdin.close()
        stop(proc)
