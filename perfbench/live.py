"""The ``live-chat`` workload: a real server process driven over TCP.

The server (``server.py``) runs ``ChatServer`` + ``SchedulerExecutor``
with the ``elsc`` policy in its own process.  This process is the load
generator: one asyncio loop, one room, two connections, since the server
and the generator each keep a core busy on a two-core host.  Every
message fans out to both room members, the sender included.

Phases, after a one-second warm-up, each in one-second segments with a
host-speed calibration in the server between them (``HostSpeed``):

* closed loop — each connection keeps ``WINDOW`` messages in flight and
  sends the next when its own echo returns; gives ``msgs_per_s``,
  ``run_s`` (seconds per block of ``BLOCK`` round trips) and
  ``sat_rtt_*`` timed from each send;
* open loop — sends at ``PACED_RATE`` messages/s in all, on a fixed
  schedule, well below saturation; gives ``paced_rtt_*`` timed from each
  send's due time, and the generator's own lateness.

Correctness: the server re-encodes each frame it fans out, and JSON keeps
key order, so every copy must equal the sent bytes.  Each receiver checks
each origin's frames in send order; a shed, expired, corrupted or missing
copy fails its message.
"""

from __future__ import annotations

import asyncio
import json
import random
import selectors
import time
from collections import deque
from typing import Any, Optional

from common import HostSpeed, median, spawn, speed_factor, stop, windowed_timing

CONNECTIONS = 2
ROOM = "r0"
PAD_BYTES = 64
WINDOW = 8
BLOCK = 2000
#: Both loops run in segments of this many seconds, with the server's
#: host-speed calibration between them (see ``HostSpeed``); an open-loop
#: segment is one latency window.  The shares of ``--seconds`` each loop
#: gets leave room for the calibrations, warm-up and set-up.
SEGMENT_S = 1.0
SAT_SHARE = 0.5
PACED_SHARE = 0.35
WARMUP_S = 1.0
PACED_RATE = 1000.0
DRAIN_S = 5.0
SETUP_SAMPLES = 9
#: Round trips per window of the latency percentiles: 50 ms of the closed
#: loop, whose p99 has ten samples beyond it, and one second of the open
#: loop.  There the tail is p90: host stalls of a few ms recur within most
#: seconds and set every window's p99, while p90 needs 100 late sends.
RTT_WINDOW = 1000
#: The generator must stay below this share of one core in the closed
#: loop, and below this lateness in the open loop (median over windows of
#: ``RTT_WINDOW`` sends of each window's p99), for the run to measure the
#: server rather than itself.  Host stalls make some windows late by tens of ms; a
#: generator that cannot keep up falls further behind in every window.
LOADGEN_CPU_BOUND = 0.9
LOADGEN_LAG_BOUND_MS = 50.0


def _seq_of(line: bytes) -> int:
    """The seq of a frame that failed the byte check, or -1."""
    try:
        return int(json.loads(line)["seq"])
    except (ValueError, KeyError, TypeError):
        return -1


def frame_template(encode, origin: int, pad: str) -> tuple[bytes, bytes]:
    """``encode`` of origin's message, split where the seq number goes."""
    frame = encode(
        {"op": "msg", "room": ROOM, "user": f"u{origin}", "seq": 0, "pad": pad}
    )
    head, tail = frame.split(b'"seq":0', 1)
    return head + b'"seq":', tail


class Conn(asyncio.Protocol):
    """One client connection: line framing, join handshake, then frames."""

    def __init__(self, gen: "LoadGen", index: int) -> None:
        self.gen, self.index = gen, index
        self.buf = b""
        self.transport: Optional[asyncio.Transport] = None
        #: Frames sent while handling one read, written with one call.
        self.out: list[bytes] = []
        self.joined = asyncio.get_running_loop().create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        lines = (self.buf + data).split(b"\n")
        self.buf = lines.pop()
        on_frame = self.gen.on_frame
        for line in lines:
            if self.joined.done():
                on_frame(self.index, line)
            elif line.startswith(b'{"op":"joined"'):
                self.joined.set_result(True)
        self.gen.flush()

    def connection_lost(self, exc) -> None:
        if not self.joined.done():
            self.joined.set_exception(ConnectionError("closed before join"))


class LoadGen:
    """Sends, checks and times messages over ``CONNECTIONS`` connections."""

    def __init__(self, seed: int) -> None:
        from repro.serve import protocol

        self.encode = protocol.encode
        rng = random.Random(seed)
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
        self.pads = [
            "".join(rng.choice(alphabet) for _ in range(PAD_BYTES))
            for _ in range(CONNECTIONS)
        ]
        #: Each origin's frame split around its seq: what
        #: ``protocol.encode`` gives, without encoding per message.
        self.templates = [frame_template(self.encode, i, pad) for i, pad in enumerate(self.pads)]
        self.prefixes = [head for head, _ in self.templates]
        self.conns: list[Conn] = []
        #: expected[receiver][origin]: (frame, seq, t_ref) in send order.
        self.expected = [
            [deque() for _ in range(CONNECTIONS)] for _ in range(CONNECTIONS)
        ]
        self.seq = [0] * CONNECTIONS
        self.failed: set[tuple[int, int]] = set()
        self.attempted = 0
        self.closed_loop = False
        self.reset()

    def reset(self) -> None:
        """Start a phase: fresh latency samples and block clock."""
        self.rtt: list[float] = []
        self.completed = 0
        self.block_marks = [time.perf_counter()]

    async def connect(self, port: int) -> None:
        loop = asyncio.get_running_loop()
        for i in range(CONNECTIONS):
            _, conn = await loop.create_connection(
                lambda i=i: Conn(self, i), "127.0.0.1", port
            )
            self.conns.append(conn)
            conn.transport.write(
                self.encode({"op": "join", "room": ROOM, "user": f"u{i}"})
            )
        await asyncio.gather(*(c.joined for c in self.conns))

    def close(self) -> None:
        for conn in self.conns:
            conn.transport.close()

    # -- sending and checking ----------------------------------------------

    def send(self, origin: int, t_ref: float) -> None:
        seq = self.seq[origin]
        self.seq[origin] = seq + 1
        head, tail = self.templates[origin]
        frame = b"%s%d%s" % (head, seq, tail)
        for receiver in range(CONNECTIONS):
            self.expected[receiver][origin].append((frame, seq, t_ref))
        self.attempted += 1
        self.conns[origin].out.append(frame)

    def flush(self) -> None:
        """Write every connection's pending frames, one call each."""
        for conn in self.conns:
            if conn.out:
                conn.transport.writelines(conn.out)
                conn.out.clear()

    def on_frame(self, receiver: int, line: bytes) -> None:
        frame = line + b"\n"
        for origin, prefix in enumerate(self.prefixes):
            if frame.startswith(prefix):
                break
        else:
            self._fail_frame(receiver, line)
            return
        queue = self.expected[receiver][origin]
        if queue and queue[0][0] != frame:
            self._skip_missing(queue, origin, line)
        if not queue or queue[0][0] != frame:
            self._fail_copy(queue, receiver, origin, line)
            return
        _, _, t_ref = queue.popleft()
        if origin == receiver:
            now = time.perf_counter()
            self.rtt.append((now - t_ref) * 1e3)
            self.completed += 1
            if self.completed % BLOCK == 0:
                self.block_marks.append(now)
            if self.closed_loop:
                self.send(origin, now)

    def _fail_frame(self, receiver: int, line: bytes) -> None:
        """A shed/expired reply or a frame from no known origin."""
        try:
            msg = json.loads(line)
            key = (int(str(msg.get("user", f"u{receiver}"))[1:]), int(msg["seq"]))
        except (ValueError, KeyError, TypeError):
            key = (-1, len(self.failed))
        self.failed.add(key)
        if self.closed_loop:
            self.send(receiver, time.perf_counter())

    def _skip_missing(self, queue: deque, origin: int, line: bytes) -> None:
        """Copies sent before this frame's seq never arrived: they failed."""
        seq = _seq_of(line)
        while queue and queue[0][1] < seq:
            self.failed.add((origin, queue.popleft()[1]))

    def _fail_copy(self, queue: deque, receiver: int, origin: int, line: bytes) -> None:
        """An altered, repeated or unexpected copy fails its message."""
        seq = _seq_of(line)
        if queue and queue[0][1] == seq:
            queue.popleft()
        self.failed.add((origin, seq))
        if self.closed_loop and origin == receiver:
            self.send(origin, time.perf_counter())

    def outstanding(self) -> int:
        return sum(len(q) for per in self.expected for q in per)

    async def drain(self) -> None:
        """Wait for in-flight copies; any still missing then have failed."""
        deadline = time.perf_counter() + DRAIN_S
        while self.outstanding() and time.perf_counter() < deadline:
            await asyncio.sleep(0.005)
        for per in self.expected:
            for origin, queue in enumerate(per):
                while queue:
                    self.failed.add((origin, queue.popleft()[1]))

    # -- phases -------------------------------------------------------------

    async def saturate(self, seconds: float) -> dict[str, Any]:
        """Closed loop for ``seconds``; returns samples and generator CPU."""
        self.reset()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        self.closed_loop = True
        for _ in range(WINDOW):
            for origin in range(CONNECTIONS):
                self.send(origin, time.perf_counter())
        self.flush()
        await asyncio.sleep(seconds)
        self.closed_loop = False
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        marks = self.block_marks
        blocks = [b - a for a, b in zip(marks, marks[1:])]
        await self.drain()
        return {"rtt": self.rtt, "blocks": blocks, "cpu_s": cpu, "wall_s": wall}

    async def paced(self, seconds: float) -> dict[str, Any]:
        """Open loop at ``PACED_RATE``; latency from each due time.

        The generator polls the sockets without blocking until each due
        time, so its vCPU never halts and the host's wake-up latency for
        it is not added to what it measures.
        """
        self.reset()
        interval = 1.0 / PACED_RATE
        lag: list[float] = []
        t0 = time.perf_counter()
        k = 0
        while (due := t0 + k * interval) < t0 + seconds:
            while (now := time.perf_counter()) < due:
                await asyncio.sleep(0)
            lag.append((now - due) * 1e3)
            self.send(k % CONNECTIONS, due)
            self.flush()
            k += 1
        await self.drain()
        return {"rtt": self.rtt, "lag": lag}


class ServerProc:
    """The server child process and its command channel."""

    def __init__(self) -> None:
        self.proc = spawn(["perfbench/server.py"])
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "listening":
            stop(self.proc)
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line[1])

    def command(self, name: str) -> dict[str, Any]:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        stop(self.proc)


async def _set_up(seed: int) -> tuple[ServerProc, LoadGen, float]:
    """Process start until the server listens with every client joined.

    The seconds are scaled by a calibration the server runs right after,
    on its own vCPU: its start-up is most of the set-up.
    """
    t0 = time.perf_counter()
    server = ServerProc()
    try:
        gen = LoadGen(seed)
        await gen.connect(server.port)
        elapsed = time.perf_counter() - t0
        calibration = server.command("calibrate")["calibration_s"]
    except BaseException:
        server.close()
        raise
    return server, gen, elapsed * speed_factor(calibration)


def _scaled(segment: dict, factor: float) -> dict:
    """A segment's server-bound timings scaled to the reference host speed.

    The generator's own lateness (``lag``) is not the server's work and
    stays as measured.
    """
    return {
        **segment,
        **{k: [x * factor for x in segment[k]] for k in ("rtt", "blocks") if k in segment},
    }


def _joined(segments: list[dict]) -> dict:
    """One phase from its segments: samples concatenated, seconds summed."""
    return {
        key: [x for s in segments for x in s[key]] if isinstance(value, list)
        else sum(s[key] for s in segments)
        for key, value in segments[0].items()
    }


async def _measure(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    setup: list[float] = []
    for _ in range(SETUP_SAMPLES - 1):
        server, gen, elapsed = await _set_up(seed)
        setup.append(elapsed)
        gen.close()
        server.close()
    server, gen, elapsed = await _set_up(seed)
    setup.append(elapsed)
    try:
        await gen.saturate(WARMUP_S)
        if trace:
            share = (seconds - WARMUP_S) / 3
            plain = await gen.saturate(share)
            server.command("trace")
            traced = await gen.saturate(share)
            report = server.command("report")
            paced = await gen.paced(share)
            metrics = _layers(plain, traced, report, paced)
            sat = traced
        else:
            server.command("mark")
            speed = HostSpeed(lambda: server.command("calibrate")["calibration_s"])
            sat = _joined([
                _scaled(await gen.saturate(SEGMENT_S), speed.factor())
                for _ in range(max(1, round(SAT_SHARE * seconds / SEGMENT_S)))
            ])
            report = server.command("report")
            paced = _joined([
                _scaled(await gen.paced(SEGMENT_S), speed.factor())
                for _ in range(max(1, round(PACED_SHARE * seconds / SEGMENT_S)))
            ])
            metrics = _end_to_end(sat, paced, report, setup)
    finally:
        gen.close()
        server.close()
    notes, valid = _validity(sat, paced)
    if not trace:
        notes[:0] = [
            f"setup samples: {len(setup)}",
            f"closed-loop round trips: {len(sat['rtt'])} in {len(sat['blocks'])} "
            f"blocks of {BLOCK}; rtt percentiles are medians over windows of "
            f"{RTT_WINDOW}",
            f"paced round trips: {len(paced['rtt'])} at {PACED_RATE:g}/s",
        ]
    failed = len(gen.failed)
    server_failures = report["shed"] + report["expired"] + report["protocol_errors"]
    if server_failures and not failed:
        notes.append(f"server reports {server_failures} failures the clients missed")
        failed = server_failures
    return {
        "attempted": gen.attempted,
        "failed": failed,
        "valid": valid,
        "metrics": metrics,
        "notes": notes,
    }


def _validity(sat: dict, paced: dict) -> tuple[list[str], bool]:
    """Was the generator, rather than the server, the bottleneck?"""
    cpu_share = sat["cpu_s"] / sat["wall_s"]
    lag_p99 = _lag_p99(paced)
    notes = [
        f"loadgen: {cpu_share:.0%} of a core in the closed loop, "
        f"p99 lateness {lag_p99:.3f} ms in the open loop"
    ]
    valid = cpu_share < LOADGEN_CPU_BOUND and lag_p99 < LOADGEN_LAG_BOUND_MS
    if not valid:
        notes.append("INVALID: the load generator was the bottleneck")
    return notes, valid


def _lag_p99(paced: dict) -> float:
    return windowed_timing(paced["lag"], RTT_WINDOW, 99.0)[1]


def _rate(sat: dict) -> tuple[float, float]:
    """Median seconds per block and round trips per second."""
    blocks = sat["blocks"]
    if not blocks:
        raise RuntimeError("closed loop completed no full block")
    return median(blocks), median([BLOCK / b for b in blocks])


def _end_to_end(sat: dict, paced: dict, report: dict, setup: list) -> dict:
    run_s, msgs_per_s = _rate(sat)
    sat_p50, sat_tail = windowed_timing(sat["rtt"], RTT_WINDOW, 99.0)
    paced_p50, paced_tail = windowed_timing(paced["rtt"], RTT_WINDOW, 90.0)
    return {
        "run_s": run_s,
        "setup_s": median(setup),
        "peak_rss_mb": report["peak_rss_mb"],
        "msgs_per_s": msgs_per_s,
        "sat_rtt_p50_ms": sat_p50,
        "sat_rtt_p99_ms": sat_tail,
        "paced_rtt_p50_ms": paced_p50,
        "paced_rtt_p90_ms": paced_tail,
    }


def _layers(plain: dict, traced: dict, report: dict, paced: dict) -> dict:
    from instrument import sched_metrics, span_field

    totals = report["spans"]
    span = span_field(totals)
    completed = len(traced["rtt"])
    picks = span("serve.pick", "n")
    cpu_s = report["cpu_s"]
    traced_s = sum(row["self_s"] for row in totals.values())
    plain_run, plain_rate = _rate(plain)
    traced_run, traced_rate = _rate(traced)
    return {
        **sched_metrics(totals),
        "sched.examined_per_schedule": (
            report["tasks_examined"] / report["schedule_calls"]
            if report["schedule_calls"] else 0.0
        ),
        "sched.recalc_n": report["recalc_entries"],
        "serve.protocol.encode_s": span("serve.encode", "incl_s"),
        "serve.protocol.encode_n": span("serve.encode", "n"),
        "serve.protocol.decode_s": span("serve.decode", "incl_s"),
        "serve.protocol.decode_n": span("serve.decode", "n"),
        "serve.encodes_per_msg": (
            span("serve.encode", "n") / completed if completed else 0.0
        ),
        "serve.executor.pick_s": span("serve.pick", "incl_s"),
        "serve.executor.pick_n": picks,
        "serve.executor.has_runnable_n": span("serve.has_runnable", "n"),
        "serve.executor.has_runnable_per_pick": (
            span("serve.has_runnable", "n") / picks if picks else 0.0
        ),
        "serve.cpu_s": cpu_s,
        "serve.cpu_us_per_msg": cpu_s / completed * 1e6 if completed else 0.0,
        "serve.other_s": cpu_s - traced_s,
        "loadgen.cpu_s": traced["cpu_s"],
        "loadgen.lag_p99_ms": _lag_p99(paced),
        "trace.overhead_run_s": traced_run - plain_run,
        "trace.overhead_msgs_per_s": traced_rate - plain_rate,
    }


def _select_loop() -> asyncio.AbstractEventLoop:
    # select() over this handful of sockets; the open loop polls it with
    # zero timeouts until each due time, and elsewhere it takes
    # microsecond timeouts where epoll rounds up to whole milliseconds.
    return asyncio.SelectorEventLoop(selectors.SelectSelector())


def measure(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    with asyncio.Runner(loop_factory=_select_loop) as runner:
        return runner.run(_measure(seed, seconds, trace))
