"""The live chat server: VolanoMark semantics over real sockets.

One asyncio process, N rooms × M clients, every message fanned out to
the whole room — but *which session gets served next* is not asyncio's
FIFO callback order.  Ready sessions are handed to a
:class:`~repro.serve.executor.SchedulerExecutor` and the wrapped kernel
policy's ``schedule()`` picks the next handler, so ``vanilla`` and
``multiqueue`` produce genuinely different service orders (and latency
tails) on the same offered load.

Overload is handled in two bounded stages:

* **admission control** — at most ``config.max_pending`` requests may be
  queued across all sessions; an arrival beyond that is answered with
  ``{"op": "shed"}`` and never enters the scheduler's world;
* **fan-out backpressure** — each session's outbound queue holds at most
  ``config.session_outbox`` frames; a slow consumer's overflow is
  dropped and counted (``dropped_fanout``), never buffered unboundedly.

A chat message is decoded once, for admission and routing, and never
encoded again: every room member is sent the bytes the server received.
Each session's writer sends everything queued for it with one write and
one ``drain()`` per wakeup.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any, Optional

from ..kernel.task import Task
from . import protocol
from .config import ServeConfig
from .executor import SchedulerExecutor
from .metrics import DepthTracker

__all__ = ["ChatServer", "Session"]

#: Outbox sentinel, always its last item: the writer coroutine writes
#: the frames queued before it and closes the transport.
_CLOSE = object()


class Session:
    """One connected client: socket streams plus its scheduler Task."""

    __slots__ = (
        "sid",
        "reader",
        "writer",
        "task",
        "room",
        "user_name",
        "inbox",
        "outbox",
        "outbox_wake",
        "closing",
    )

    def __init__(
        self,
        sid: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.sid = sid
        self.reader = reader
        self.writer = writer
        self.task: Optional[Task] = None
        self.room: Optional[str] = None
        self.user_name = f"anon{sid}"
        #: Requests accepted by admission control, awaiting dispatch:
        #: ``(message, frame, admitted_at)``, where ``frame`` is the line
        #: received, stripped and ``\n``-terminated, and the timestamp
        #: feeds the per-request deadline check.
        self.inbox: deque[tuple[dict[str, Any], bytes, float]] = deque()
        #: Encoded frames awaiting the writer coroutine, then ``_CLOSE``.
        self.outbox: deque[Any] = deque()
        self.outbox_wake = asyncio.Event()
        self.closing = False


class ChatServer:
    """Scheduler-driven chat server on a localhost TCP socket."""

    def __init__(self, executor: SchedulerExecutor, config: ServeConfig) -> None:
        self.executor = executor
        self.config = config
        self.rooms: dict[str, set[Session]] = {}
        self.sessions: dict[int, Session] = {}
        self._next_sid = 0
        #: Requests admitted but not yet dispatched, across all sessions.
        self.pending = 0
        #: Current admission bound; starts at the configured cap and is
        #: lowered/restored by chaos drivers (overload windows).
        self._admission_limit = config.max_pending
        #: Advertised in shed replies while > 0 (overload window width).
        self._retry_after_ms = 0.0
        self._work = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._writers: set[asyncio.Task] = set()
        self.port = 0
        # -- counters -------------------------------------------------
        self.completed = 0
        self.shed = 0
        #: Sheds that carried a retry-after hint (overload-window sheds).
        self.shed_retry_after = 0
        #: Requests that aged past ``config.request_deadline_ms`` queued.
        self.expired = 0
        self.dropped_fanout = 0
        self.deliveries = 0
        self.protocol_errors = 0
        self.sessions_total = 0
        self.depth = DepthTracker()

    # -- admission control --------------------------------------------------

    @property
    def admission_limit(self) -> int:
        return self._admission_limit

    def set_admission_limit(
        self, limit: int, retry_after_ms: float = 0.0
    ) -> None:
        """Adjust the admission bound at runtime (chaos/overload hook).

        ``retry_after_ms`` > 0 is advertised in every shed reply while
        the bound is in force, so well-behaved clients know when the
        overload window is expected to lift.
        """
        self._admission_limit = max(0, limit)
        self._retry_after_ms = max(0.0, retry_after_ms)

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1") -> None:
        self._server = await asyncio.start_server(
            self._handle_client, host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.create_task(
            self.executor.dispatch_forever(self._serve, self._work),
            name="serve-dispatch",
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        for session in list(self.sessions.values()):
            self._close_session(session)
        for writer in list(self._writers):
            writer.cancel()
        if self._writers:
            await asyncio.gather(*self._writers, return_exceptions=True)

    # -- connection handling ------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._next_sid += 1
        session = Session(self._next_sid, reader, writer)
        session.task = self.executor.register(
            f"session-{session.sid}", user=session
        )
        self.sessions[session.sid] = session
        self.sessions_total += 1
        pump = asyncio.create_task(
            self._writer_loop(session), name=f"serve-out-{session.sid}"
        )
        self._writers.add(pump)
        pump.add_done_callback(self._writers.discard)
        self._reply(session, {"op": protocol.OP_WELCOME, "session": session.sid})
        try:
            while not session.closing:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not line:
                    break  # EOF: client went away or half-closed
                try:
                    message = protocol.decode(line)
                except protocol.ProtocolError:
                    self.protocol_errors += 1
                    break
                if message is None:
                    continue
                if not self._handle_frame(session, message, line):
                    break
        finally:
            self._close_session(session)

    def _handle_frame(self, session: Session, message: dict[str, Any], line: bytes) -> bool:
        """Apply one client frame, decoded from ``line``; False ends the connection."""
        op = message.get("op")
        if op == protocol.OP_JOIN:
            room = str(message.get("room", "lobby"))
            session.user_name = str(message.get("user", session.user_name))
            self._leave_room(session)
            session.room = room
            members = self.rooms.setdefault(room, set())
            members.add(session)
            self._reply(
                session,
                {
                    "op": protocol.OP_JOINED,
                    "room": room,
                    "members": len(members),
                },
            )
            return True
        if op == protocol.OP_MSG:
            if self.pending >= self._admission_limit:
                # Admission control: the request never reaches the
                # scheduler; the client learns immediately.
                self.shed += 1
                reply = {"op": protocol.OP_SHED, "seq": message.get("seq")}
                if self._retry_after_ms > 0:
                    reply["retry_after_ms"] = self._retry_after_ms
                    self.shed_retry_after += 1
                self._reply(session, reply)
                return True
            session.inbox.append((message, line.strip() + b"\n", time.monotonic()))
            self.pending += 1
            assert session.task is not None
            self.executor.ready(session.task)
            self._work.set()
            return True
        if op == protocol.OP_METRICS:
            self._reply(session, self._metrics_frame())
            return True
        if op == protocol.OP_QUIT:
            self._reply(session, {"op": protocol.OP_BYE})
            return False
        # Unknown op: tolerate (forward-compatible), ignore.
        return True

    def _leave_room(self, session: Session) -> None:
        if session.room is not None:
            members = self.rooms.get(session.room)
            if members is not None:
                members.discard(session)
        session.room = None

    def _close_session(self, session: Session) -> None:
        if session.closing:
            return
        session.closing = True
        self._leave_room(session)
        self.sessions.pop(session.sid, None)
        # Unserved requests die with the connection.
        self.pending -= len(session.inbox)
        session.inbox.clear()
        if session.task is not None:
            self.executor.deregister(session.task)
        session.outbox.append(_CLOSE)
        session.outbox_wake.set()

    # -- outbound path ------------------------------------------------------

    def _send(self, session: Session, frame: bytes) -> bool:
        """Queue one encoded frame for a session, bounded; False when dropped."""
        if session.closing:
            return False
        if len(session.outbox) >= self.config.session_outbox:
            self.dropped_fanout += 1
            return False
        session.outbox.append(frame)
        session.outbox_wake.set()
        return True

    def _reply(self, session: Session, message: dict[str, Any]) -> None:
        """Encode a control frame once and queue it.

        A frame that cannot be encoded (over ``MAX_LINE_BYTES``) ends
        this session, and only this one.
        """
        try:
            frame = protocol.encode(message)
        except protocol.ProtocolError:
            self._close_session(session)
            return
        self._send(session, frame)

    async def _writer_loop(self, session: Session) -> None:
        writer = session.writer
        outbox = session.outbox
        try:
            while True:
                await session.outbox_wake.wait()
                session.outbox_wake.clear()
                frames = list(outbox)
                outbox.clear()
                close = frames[-1] is _CLOSE
                if close:
                    frames.pop()
                writer.write(b"".join(frames))
                # drain() is the real backpressure edge: a slow client
                # stalls only its own pump while frames pile into (and
                # overflow out of) its bounded outbox.
                await writer.drain()
                if close:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    # -- serving one dispatched session ------------------------------------

    def _serve(self, task: Task) -> None:
        """Serve up to ``config.batch`` queued requests of one session
        (the executor's dispatch loop calls this once per pick)."""
        self.depth.observe(self.pending)
        session: Session = task.user
        budget = self.config.batch
        deadline_s = self.config.request_deadline_ms / 1e3
        now = time.monotonic() if deadline_s > 0 else 0.0
        while session.inbox and budget > 0:
            message, frame, admitted_at = session.inbox.popleft()
            self.pending -= 1
            budget -= 1
            if deadline_s > 0 and now - admitted_at > deadline_s:
                # Queued past its deadline: answering late would be
                # worse than answering "expired" now.
                self.expired += 1
                self._reply(
                    session,
                    {"op": protocol.OP_EXPIRED, "seq": message.get("seq")},
                )
                continue
            self._fan_out(session, frame)
            self.completed += 1
        self.executor.charge_slice(task)
        self.executor.release(task, blocked=not session.inbox)

    def _fan_out(self, session: Session, frame: bytes) -> None:
        """Queue one message's frame, as received, to its whole room."""
        room = session.room
        if room is None:
            # Not in a room: echo back to the sender only.
            if self._send(session, frame):
                self.deliveries += 1
            return
        for member in tuple(self.rooms.get(room, ())):
            if self._send(member, frame):
                self.deliveries += 1

    # -- introspection -------------------------------------------------------

    def _metrics_frame(self) -> dict[str, Any]:
        """Live snapshot answering an ``OP_METRICS`` frame.

        ``metrics`` carries the executor's :class:`~repro.obs.MetricsProbe`
        snapshot when one is attached (``serve --metrics``), ``{}``
        otherwise — the frame itself always succeeds.
        """
        from ..obs.metrics import MetricsProbe  # local import: layering

        probe = self.executor.probes.first(MetricsProbe)
        return {
            "op": protocol.OP_METRICS,
            "counters": self.counters(),
            "metrics": probe.snapshot() if probe is not None else {},
        }

    def counters(self) -> dict[str, Any]:
        return {
            "completed": self.completed,
            "deliveries": self.deliveries,
            "shed": self.shed,
            "shed_retry_after": self.shed_retry_after,
            "expired": self.expired,
            "executor_restarts": self.executor.rebuilds,
            "dropped_fanout": self.dropped_fanout,
            "protocol_errors": self.protocol_errors,
            "sessions_total": self.sessions_total,
            **self.depth.to_dict("queue_depth_"),
        }
