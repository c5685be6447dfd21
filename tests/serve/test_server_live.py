"""Live end-to-end runs: real sockets, real scheduler, real latencies.

These bind to an ephemeral localhost port, drive a deterministic load,
and assert on *structure* (everything offered was served, fan-out
arithmetic holds) — never on wall-clock values, which vary by machine.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.harness import MACHINE_SPECS, SCHEDULERS
from repro.serve import (
    ChatServer,
    SchedulerExecutor,
    ServeConfig,
    protocol,
    run_loadgen,
    run_serve_loadtest,
)
from repro.serve.server import _CLOSE, Session

#: Small enough for sub-second runs; duration_s is a deadline, not a
#: target — clients finish as soon as their schedule is sent and drained.
TINY = ServeConfig(
    rooms=2,
    clients_per_room=3,
    messages_per_client=4,
    message_interval_ms=1.0,
    duration_s=8.0,
)


@pytest.mark.parametrize(
    "sched_name,spec_name", [("reg", "UP"), ("mq", "2P"), ("elsc", "1P")]
)
def test_live_loadtest_end_to_end(sched_name, spec_name):
    result = run_serve_loadtest(
        SCHEDULERS[sched_name], MACHINE_SPECS[spec_name], TINY
    )
    m = result.metrics()
    assert result.sim.scheduler_name == sched_name
    # Every offered message was admitted and served.
    assert m["sent"] == TINY.messages_expected
    assert m["completed"] == m["sent"]
    assert m["shed"] == 0
    # Room fan-out arithmetic: each served message reaches every member.
    assert (
        m["deliveries"] + m["dropped_fanout"]
        == m["completed"] * TINY.clients_per_room
    )
    # Each client saw its own echoes, so latency samples exist.
    assert m["echoes"] == m["sent"]
    assert m["latency_ms_count"] == m["echoes"]
    assert 0 < m["latency_ms_p50"] <= m["latency_ms_p99"]
    # The policy, not asyncio, did the dispatching.
    assert result.sim.stats.schedule_calls > 0
    assert m["picks"] > 0
    assert m["pick_us_p99"] >= m["pick_us_p50"] > 0
    assert m["connect_failures"] == 0


def test_admission_control_sheds_over_capacity():
    config = ServeConfig(
        rooms=1,
        clients_per_room=4,
        messages_per_client=20,
        message_interval_ms=0.1,
        max_pending=1,  # essentially everything beyond in-flight is shed
        duration_s=8.0,
    )

    async def scenario():
        executor = SchedulerExecutor(SCHEDULERS["reg"]())
        server = ChatServer(executor, config)
        await server.start()
        # Stall dispatch so arrivals outrun service and pile into
        # admission control.
        server._dispatcher.cancel()
        try:
            await server._dispatcher
        except asyncio.CancelledError:
            pass
        report = await run_loadgen("127.0.0.1", server.port, config)
        counters = server.counters()
        await server.stop()
        return report, counters

    report, counters = asyncio.run(scenario())
    assert counters["shed"] > 0
    assert report.shed == counters["shed"]  # clients were told each time
    # The bound held: queued work never exceeded max_pending.
    assert counters["queue_depth_max"] <= config.max_pending


def test_session_outbox_bounded_drops_counted():
    config = ServeConfig(
        rooms=1,
        clients_per_room=2,
        messages_per_client=6,
        session_outbox=1,
        duration_s=8.0,
    )

    async def scenario():
        executor = SchedulerExecutor(SCHEDULERS["reg"]())
        server = ChatServer(executor, config)
        await server.start()
        report = await run_loadgen("127.0.0.1", server.port, config)
        counters = server.counters()
        await server.stop()
        return report, counters

    report, counters = asyncio.run(scenario())
    # Conservation: every fan-out copy was either delivered or counted
    # as an outbox drop, never silently lost.
    assert (
        counters["deliveries"] + counters["dropped_fanout"]
        == counters["completed"] * config.clients_per_room
    )
    assert report.received <= counters["deliveries"]


def test_fan_out_relays_the_received_bytes():
    """Every room member, the sender included, reads back the sender's
    frame as received: stripped and ``\\n``-terminated, not re-encoded
    (the key order, spacing and raw UTF-8 here are not ``encode``'s)."""
    frame = (
        b'  {"seq": 7, "user": "u0", "op": "msg", "room": "r0", '
        + '"pad": "caf\u00e9"}\r\n'.encode()
    )
    config = ServeConfig(rooms=1, clients_per_room=3, duration_s=8.0)

    async def scenario():
        server = ChatServer(SchedulerExecutor(SCHEDULERS["reg"]()), config)
        await server.start()
        clients = []
        for i in range(config.clients_per_room):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                protocol.encode({"op": "join", "room": "r0", "user": f"u{i}"})
            )
            for _ in range(2):  # welcome, joined
                await asyncio.wait_for(reader.readline(), 5.0)
            clients.append((reader, writer))
        clients[0][1].write(frame)
        copies = [
            await asyncio.wait_for(reader.readline(), 5.0)
            for reader, _ in clients
        ]
        for _, writer in clients:
            writer.close()
        await server.stop()
        return copies

    copies = asyncio.run(scenario())
    assert copies == [frame.strip() + b"\n"] * config.clients_per_room


class _StubWriter:
    """A stream writer that logs the calls a writer coroutine makes."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def write(self, data: bytes) -> None:
        self.calls.append(("write", data))

    async def drain(self) -> None:
        self.calls.append(("drain",))

    def close(self) -> None:
        self.calls.append(("close",))


def _stub_session(server: ChatServer, sid: int = 1) -> Session:
    session = Session(sid, None, _StubWriter())
    session.task = server.executor.register(f"session-{sid}", user=session)
    server.sessions[sid] = session
    return session


def test_writer_loop_writes_each_wakeup_with_one_call():
    frames = [protocol.encode({"op": "msg", "seq": i}) for i in range(5)]

    async def scenario():
        server = ChatServer(SchedulerExecutor(SCHEDULERS["reg"]()), ServeConfig())
        session = _stub_session(server)
        for frame in frames:
            assert server._send(session, frame)
        server._close_session(session)
        await asyncio.wait_for(server._writer_loop(session), 5.0)
        return session.writer.calls

    assert asyncio.run(scenario()) == [
        ("write", b"".join(frames)),
        ("drain",),
        ("close",),
    ]


def test_writer_loop_propagates_cancellation():
    async def scenario():
        server = ChatServer(SchedulerExecutor(SCHEDULERS["reg"]()), ServeConfig())
        session = _stub_session(server)
        pump = asyncio.create_task(server._writer_loop(session))
        await asyncio.sleep(0)  # parked on its empty outbox
        pump.cancel()
        await asyncio.gather(pump, return_exceptions=True)
        return pump, session.writer.calls

    pump, calls = asyncio.run(scenario())
    assert pump.cancelled()
    assert calls == [("close",)]


def test_unencodable_reply_ends_only_its_session():
    """An ``expired`` reply too long to encode closes that session from
    the dispatch path; the dispatcher and the other sessions go on."""
    # Each ``é`` is escaped to six bytes: the reply exceeds the limit.
    seq = "\u00e9" * (protocol.MAX_LINE_BYTES // 2)
    config = ServeConfig(request_deadline_ms=1.0)

    async def scenario():
        server = ChatServer(SchedulerExecutor(SCHEDULERS["reg"]()), config)
        bad, good = _stub_session(server, 1), _stub_session(server, 2)
        bad.inbox.append(({"op": "msg", "seq": seq}, b"{}\n", 0.0))
        server.pending = 1
        server.executor.ready(bad.task)
        task = server.executor.pick()
        assert task is bad.task
        server._serve(task)
        return server, bad, good

    server, bad, good = asyncio.run(scenario())
    assert server.expired == 1 and server.pending == 0
    assert bad.closing and bad.task.exited and list(bad.outbox) == [_CLOSE]
    assert bad.task.ticks_consumed == 0  # a closed handler is not charged
    assert not good.closing and not good.task.exited
    assert list(server.sessions) == [good.sid]


def test_metrics_frame_returns_live_snapshot():
    """A ``{"op": "metrics"}`` frame answers with the server counters
    and, when a MetricsProbe is attached, its live snapshot."""
    import json

    from repro.obs import MetricsProbe
    from repro.serve import protocol

    config = ServeConfig(rooms=1, clients_per_room=1, duration_s=8.0)

    async def scenario(attach_probe: bool):
        executor = SchedulerExecutor(SCHEDULERS["reg"]())
        if attach_probe:
            executor.attach(MetricsProbe())
        server = ChatServer(executor, config)
        await server.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)

        async def frames_until(op: str) -> dict:
            while True:
                frame = json.loads(await reader.readline())
                if frame["op"] == op:
                    return frame

        await frames_until(protocol.OP_WELCOME)
        writer.write(protocol.encode({"op": "join", "room": "r0", "user": "u"}))
        writer.write(
            protocol.encode(
                {"op": "msg", "room": "r0", "user": "u", "seq": 1, "t": 0}
            )
        )
        await writer.drain()
        # Wait for our own fan-out echo: the request definitely went
        # through the scheduler before we snapshot.
        await frames_until(protocol.OP_MSG)
        writer.write(protocol.encode({"op": "metrics"}))
        await writer.drain()
        frame = await frames_until(protocol.OP_METRICS)
        writer.close()
        await server.stop()
        return frame

    frame = asyncio.run(scenario(attach_probe=True))
    assert frame["counters"]["completed"] == 1
    assert frame["metrics"]["counters"]["picks"] > 0
    assert frame["metrics"]["schedulers"]["reg"]["picks"] > 0

    # Without a probe the frame still succeeds; metrics is just empty.
    frame = asyncio.run(scenario(attach_probe=False))
    assert frame["counters"]["completed"] == 1
    assert frame["metrics"] == {}
