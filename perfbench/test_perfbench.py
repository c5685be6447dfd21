"""Tests of the benchmark's own arithmetic and bookkeeping.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from common import percentile, tail_percentile, timing, windowed_timing  # noqa: E402
from spans import SpanRecorder, covered, self_time  # noqa: E402


# -- self time: parent minus the interval its children cover ----------------


def test_self_time_subtracts_disjoint_children():
    assert self_time(0, 100, [(10, 20), (50, 80)]) == 60


def test_self_time_counts_overlapping_children_once():
    assert self_time(0, 100, [(10, 40), (30, 60), (35, 50)]) == 50


def test_self_time_clips_children_to_the_parent():
    assert self_time(10, 50, [(0, 20), (40, 90), (60, 70)]) == 20


def test_self_time_without_children_is_the_duration():
    assert self_time(5, 9, []) == 4
    assert covered(0, 10, [(10, 20), (-5, 0)]) == 0


def test_recorder_attributes_nested_calls_to_their_parent():
    rec = SpanRecorder()
    clock = iter([0, 10, 30, 40, 70, 100])
    import spans

    real = spans.time.perf_counter_ns
    spans.time.perf_counter_ns = lambda: next(clock)
    try:
        inner = rec.wrap(lambda: None, "inner")
        outer = rec.wrap(lambda: (inner(), inner()), "outer")
        outer()
    finally:
        spans.time.perf_counter_ns = real
    totals = rec.totals()
    assert totals["inner"]["n"] == 2
    assert totals["inner"]["incl_s"] == pytest.approx(50e-9)
    assert totals["outer"]["incl_s"] == pytest.approx(100e-9)
    assert totals["outer"]["self_s"] == pytest.approx(50e-9)
    assert list(rec.parent) == [-1, 0, 0]


def test_recorder_closes_a_span_when_the_call_raises():
    rec = SpanRecorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap(boom, "boom")()
    assert rec.totals()["boom"]["n"] == 1
    assert rec.end[0] >= rec.start[0]
    assert rec.wrap(lambda: 7, "after")() == 7
    assert rec.parent[1] == SpanRecorder.ROOT


# -- the highest percentile with at least ten samples beyond it -------------


@pytest.mark.parametrize(
    "n, expected",
    [(1, 50.0), (19, 50.0), (20, 50.0), (99, 50.0), (100, 90.0),
     (999, 90.0), (1000, 99.0), (10**6, 99.0)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_timing_reports_p99_only_when_supported():
    samples = list(range(1, 1001))
    p50, tail, q = timing(samples)
    assert q == 99.0
    assert p50 == 500.5
    assert tail == pytest.approx(percentile(samples, 99))
    _, tail, q = timing(samples[:500])
    assert q == 90.0
    assert tail == pytest.approx(percentile(samples[:500], 90))
    assert timing(samples, 90.0)[2] == 90.0


def test_windowed_timing_ignores_a_stall_in_one_window():
    calm = [1.0] * 990 + [2.0] * 10
    stalled = [1.0] * 900 + [50.0] * 100
    p50, p99 = windowed_timing(calm + stalled + calm, 1000, 99.0)
    assert p50 == 1.0
    assert p99 == pytest.approx(percentile(calm, 99))
    assert percentile(calm + stalled + calm, 99) == 50.0


def test_windowed_timing_p90_needs_a_hundred_late_samples_per_window():
    stalls = [1.0] * 950 + [9.0] * 50
    _, p99 = windowed_timing(stalls * 3, 1000, 99.0)
    _, p90 = windowed_timing(stalls * 3, 1000, 90.0)
    assert p99 == 9.0
    assert p90 == 1.0
    assert windowed_timing([1.0] * 100, 100, 90.0) == (1.0, 1.0)


def test_windowed_timing_refuses_windows_too_small_for_p99():
    with pytest.raises(ValueError):
        windowed_timing([1.0] * 5000, 999, 99.0)
    with pytest.raises(RuntimeError):
        windowed_timing([1.0] * 999, 1000, 99.0)


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([7], 99) == 7


# -- host-speed scaling ------------------------------------------------------


def test_speed_factor_is_one_at_the_reference_speed():
    import common

    assert common.speed_factor(common.CALIBRATION_REF_S) == pytest.approx(1.0)
    slow = common.speed_factor(2 * common.CALIBRATION_REF_S)
    assert slow == pytest.approx(0.5 ** common.ELASTICITY)


def test_host_speed_scales_each_piece_by_its_neighbouring_calibrations():
    import common
    from common import HostSpeed

    ref = common.CALIBRATION_REF_S
    readings = iter([ref, 3 * ref, ref])
    speed = HostSpeed(lambda: next(readings))
    assert speed.factor() == pytest.approx(common.speed_factor(2 * ref))
    assert speed.factor() == pytest.approx(common.speed_factor(2 * ref))
    assert speed.samples == [ref, 3 * ref, ref]


def test_calibration_kernel_allocates_nothing_the_collector_tracks():
    import gc

    from common import calibration_kernel

    before = gc.get_count()[0]
    gc.disable()
    try:
        calibration_kernel(2000)
        after = gc.get_count()[0]
    finally:
        gc.enable()
    assert after - before < 50


def test_live_segments_scale_server_timings_but_not_generator_lag():
    from live import _joined, _scaled

    one = _scaled({"rtt": [1.0, 2.0], "blocks": [0.5], "cpu_s": 1.0, "wall_s": 2.0}, 2.0)
    two = _scaled({"rtt": [3.0], "blocks": [], "cpu_s": 0.5, "wall_s": 1.0}, 0.5)
    assert _joined([one, two]) == {
        "rtt": [2.0, 4.0, 1.5], "blocks": [1.0], "cpu_s": 1.5, "wall_s": 3.0,
    }
    paced = _scaled({"rtt": [1.0], "lag": [0.25]}, 2.0)
    assert paced == {"rtt": [2.0], "lag": [0.25]}


# -- the live generator's frames are exactly what the protocol encodes ------


def test_frame_template_matches_protocol_encode():
    from live import frame_template
    from repro.serve import protocol

    head, tail = frame_template(protocol.encode, 1, "pad0")
    for seq in (0, 7, 123456):
        want = protocol.encode(
            {"op": "msg", "room": "r0", "user": "u1", "seq": seq, "pad": "pad0"}
        )
        assert b"%s%d%s" % (head, seq, tail) == want
        assert protocol.encode(protocol.decode(want)) == want


# -- BENCHMARK.json and the metric map agree ---------------------------------


def test_map_covers_every_declared_metric_and_workload():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    mapping = json.loads((HERE / "map.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    assert set(mapping["workloads"]) == workloads
    assert set(mapping["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(mapping["per_layer"]) == {m["name"] for m in spec["per_layer"]}
    for entry in mapping["per_layer"].values():
        assert set(entry["on"]) <= workloads


# -- the live generator's correctness bookkeeping ----------------------------


class _Sink:
    def __init__(self) -> None:
        self.out: list[bytes] = []


def _generator():
    from live import LoadGen

    gen = LoadGen(seed=3)
    gen.conns = [_Sink(), _Sink()]
    return gen


def _echo(gen, origin: int, frame: bytes) -> None:
    for receiver in range(2):
        gen.on_frame(receiver, frame.rstrip(b"\n"))


def test_intact_copies_complete_their_messages():
    gen = _generator()
    gen.send(0, 0.0)
    gen.send(1, 0.0)
    for origin in (0, 1):
        _echo(gen, origin, gen.conns[origin].out[0])
    assert gen.failed == set()
    assert gen.completed == 2 and len(gen.rtt) == 2
    assert gen.outstanding() == 0


def test_a_shed_message_fails_alone():
    gen = _generator()
    gen.send(0, 0.0)
    gen.send(0, 0.0)
    gen.on_frame(0, b'{"op":"shed","seq":0}')
    _echo(gen, 0, gen.conns[0].out[1])
    assert gen.failed == {(0, 0)}
    assert gen.completed == 1
    assert gen.outstanding() == 0


def test_an_altered_copy_fails_its_message():
    gen = _generator()
    gen.send(1, 0.0)
    good = gen.conns[1].out[0]
    gen.on_frame(0, good.rstrip(b"\n"))
    gen.on_frame(1, good.rstrip(b"\n").replace(b'"pad":"', b'"pad":"X'))
    assert gen.failed == {(1, 0)}
    assert gen.completed == 0
    assert gen.outstanding() == 0


def test_copies_still_missing_after_the_drain_fail(monkeypatch):
    import asyncio

    import live

    monkeypatch.setattr(live, "DRAIN_S", 0.0)
    gen = _generator()
    gen.send(0, 0.0)
    gen.on_frame(0, gen.conns[0].out[0].rstrip(b"\n"))
    asyncio.run(gen.drain())
    assert gen.failed == {(0, 0)}
    assert gen.outstanding() == 0
