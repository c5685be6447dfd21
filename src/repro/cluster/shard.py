"""One shard OS process: a SchedulerExecutor-driven serving core.

A shard is the cluster's unit of scheduling — the same move the paper
makes per CPU, applied per process.  Each shard owns two things:

* the **sessions** the router assigned to it: every client request is
  admitted into a per-session inbox and dispatched by the shard's own
  :class:`~repro.serve.executor.SchedulerExecutor`, so "which session is
  served next" is the wrapped kernel policy's decision, per shard, with
  no cross-shard lock — N shards are N independent multiqueues;
* the **rooms** hashed onto it: membership, fan-out ordering, and the
  deliver frames back to the router.

A dispatched message whose room is homed elsewhere leaves on a
shard-to-shard ``fwd`` frame; every session/membership mutation streams
to the ring follower as ``repl`` entries; a ``promote`` frame replays a
dead leader's replica into the live state.  The self-healing half:
a ``handback`` frame makes this shard export the sessions/rooms living
on a returning shard's slots (a :func:`snapshot_entries` snapshot over
a peer-link ``handoff``), drop them, and ack — while an incoming
``handoff`` re-primes a freshly respawned shard with exactly that
state.  Dispatch runs on the executor's supervised loop
(:meth:`~repro.serve.executor.SchedulerExecutor.dispatch_forever`): a
crashed scheduler adapter is rebuilt in place (``executor_restarts``),
never fatal.

This module is the subprocess side only — :func:`shard_main` is the
``multiprocessing`` entry point; the router lives in the parent.
"""

from __future__ import annotations

import asyncio
import sys
from collections import deque
from typing import Any, Optional

from ..kernel.task import Task
from ..serve import protocol
from ..serve.protocol import ProtocolError
from . import wire
from .config import ClusterConfig, room_slot, session_slot
from .replication import (
    ReplicaState,
    ReplicationLog,
    join_entry,
    leave_entry,
    sess_entry,
    snapshot_entries,
)

__all__ = ["ShardCore", "shard_main"]


class ShardSession:
    """One router-assigned client session scheduled on this shard."""

    __slots__ = ("cid", "user", "task", "inbox")

    def __init__(self, cid: int, user: str) -> None:
        self.cid = cid
        self.user = user
        self.task: Optional[Task] = None
        self.inbox: deque[dict[str, Any]] = deque()


class ShardCore:
    """The serving core of one shard process."""

    def __init__(self, shard_id: int, config: ClusterConfig, executor) -> None:
        self.shard_id = shard_id
        self.config = config
        self.executor = executor
        self.framing = wire.get_framing(config.framing)
        self.name = f"shard-{shard_id}"
        # -- serving state -------------------------------------------
        self.sessions: dict[int, ShardSession] = {}
        #: room → {cid: user}, for rooms homed on this shard.
        self.rooms: dict[str, dict[int, str]] = {}
        self.pending = 0
        # -- cluster state -------------------------------------------
        self.epoch = 0
        #: Slot → owning shard id over the fixed ring (authoritative
        #: routing, carried by every epoch broadcast).
        self.slots: list[int] = []
        #: Shard id → peer listen port, for every alive peer.
        self.peer_ports: dict[int, int] = {}
        self.follower_id: Optional[int] = None
        self.log = ReplicationLog()
        self.replicas: dict[int, ReplicaState] = {}
        # -- wiring --------------------------------------------------
        self._router_writer: Optional[asyncio.StreamWriter] = None
        self._peer_writers: dict[int, asyncio.StreamWriter] = {}
        #: Port each peer writer was dialed at — a respawned peer comes
        #: back on a *new* port, and the stale writer must be replaced.
        self._peer_addrs: dict[int, int] = {}
        self._peer_server: Optional[asyncio.base_events.Server] = None
        self._work = asyncio.Event()
        self._dispatcher: Optional[asyncio.Task] = None
        self.peer_port = 0
        # -- counters ------------------------------------------------
        self.completed = 0
        self.deliveries = 0
        self.forwarded = 0
        self.fwd_in = 0
        self.fwd_dropped = 0
        self.fwd_misses = 0
        self.shed = 0
        self.repl_entries_out = 0
        self.repl_entries_in = 0
        self.promotions = 0
        self.handoffs_out = 0
        self.handoffs_in = 0
        self.handoff_failures = 0

    # -- lifecycle ----------------------------------------------------

    async def run(self, router_host: str, router_port: int) -> None:
        """Serve until the router connection closes (or we are killed)."""
        self._peer_server = await asyncio.start_server(
            self._handle_peer, "127.0.0.1", 0
        )
        self.peer_port = self._peer_server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection(router_host, router_port)
        self._router_writer = writer
        self._send_router(
            {
                "op": wire.OP_HELLO,
                "shard": self.shard_id,
                "port": self.peer_port,
                "pid": __import__("os").getpid(),
            }
        )
        self._dispatcher = asyncio.create_task(
            self.executor.dispatch_forever(self._serve, self._work),
            name=f"{self.name}-dispatch",
        )
        try:
            while True:
                try:
                    frame = await self.framing.read(reader)
                except (ProtocolError, ConnectionResetError):
                    break
                if frame is None:
                    break  # router gone: the shard's life is over
                await self._handle_router_frame(frame)
        finally:
            self._dispatcher.cancel()
            self._peer_server.close()
            for peer in self._peer_writers.values():
                peer.close()

    # -- frame plumbing ----------------------------------------------

    def _send_router(self, frame: dict[str, Any]) -> None:
        if self._router_writer is not None:
            self._router_writer.write(self.framing.encode(frame))

    def _send_peer(self, sid: int, frame: dict[str, Any]) -> bool:
        writer = self._peer_writers.get(sid)
        if writer is None or writer.is_closing():
            self.fwd_dropped += 1
            return False
        writer.write(self.framing.encode(frame))
        return True

    async def _dial_peer(self, sid: int, port: int) -> None:
        stale = self._peer_writers.get(sid)
        if stale is not None:
            if self._peer_addrs.get(sid) == port and not stale.is_closing():
                return
            # Respawned peer (new port) or dead link: drop the stale
            # writer before dialing, or handoffs would vanish into it.
            try:
                stale.close()
            except Exception:
                pass
            self._peer_writers.pop(sid, None)
            self._peer_addrs.pop(sid, None)
        try:
            _, writer = await asyncio.open_connection("127.0.0.1", port)
        except OSError:
            return  # peer dead or not yet listening; resends heal
        self._peer_writers[sid] = writer
        self._peer_addrs[sid] = port

    # -- router frames ------------------------------------------------

    async def _handle_router_frame(self, frame: dict[str, Any]) -> None:
        op = frame.get("op")
        if op == wire.OP_ROUTE:
            self._on_route(frame)
        elif op == wire.OP_SESS:
            self._on_sess(frame)
        elif op == wire.OP_ROOM:
            self._on_room(frame)
        elif op == wire.OP_EPOCH:
            await self._on_epoch(frame)
        elif op == wire.OP_PROMOTE:
            self._on_promote(frame)
        elif op == wire.OP_HANDBACK:
            self._on_handback(frame)
        elif op == protocol.OP_METRICS:
            self._send_router(self._metrics_frame())
        elif op == wire.OP_FAULT:
            if frame.get("kind") == "executor_crash":
                self.executor.inject_crash()
        # unknown ops are tolerated (forward-compatible)
        self._flush_repl()

    def _on_route(self, frame: dict[str, Any]) -> None:
        cid = int(frame["cid"])
        message = frame.get("frame") or {}
        session = self.sessions.get(cid)
        if session is None or self.pending >= self.config.max_pending:
            self.shed += 1
            self._send_router(
                {
                    "op": protocol.OP_SHED,
                    "cid": cid,
                    "seq": message.get("seq"),
                    "retry_after_ms": self.config.retry_after_ms,
                }
            )
            return
        session.inbox.append(message)
        self.pending += 1
        assert session.task is not None
        self.executor.ready(session.task)
        self._work.set()

    def _on_sess(self, frame: dict[str, Any]) -> None:
        cid = int(frame["cid"])
        if frame.get("alive", True):
            if cid in self.sessions:
                return
            session = ShardSession(cid, str(frame.get("user", f"anon{cid}")))
            session.task = self.executor.register(
                f"session-{cid}", user=session
            )
            self.sessions[cid] = session
            self.log.append(sess_entry(cid, session.user))
        else:
            session = self.sessions.pop(cid, None)
            if session is None:
                return
            self.pending -= len(session.inbox)
            session.inbox.clear()
            if session.task is not None:
                self.executor.deregister(session.task)
            self.log.append(sess_entry(cid, session.user, alive=False))

    def _on_room(self, frame: dict[str, Any]) -> None:
        room = str(frame["room"])
        cid = int(frame["cid"])
        if frame.get("add", True):
            user = str(frame.get("user", f"anon{cid}"))
            self.rooms.setdefault(room, {})[cid] = user
            self.log.append(join_entry(room, cid, user))
        else:
            members = self.rooms.get(room)
            if members is not None:
                members.pop(cid, None)
                if not members:
                    del self.rooms[room]
            self.log.append(leave_entry(room, cid))

    async def _on_epoch(self, frame: dict[str, Any]) -> None:
        self.epoch = int(frame.get("epoch", self.epoch + 1))
        self.slots = [int(o) for o in frame.get("slots", self.slots)]
        shards = frame.get("shards", [])
        self.peer_ports = {
            int(s["id"]): int(s["port"])
            for s in shards
            if s.get("alive", True) and int(s["id"]) != self.shard_id
        }
        followers = frame.get("followers") or {}
        new_follower = followers.get(str(self.shard_id))
        if new_follower is None:
            new_follower = followers.get(self.shard_id)
        follower_changed = (
            new_follower is not None and int(new_follower) != self.follower_id
        )
        self.follower_id = (
            int(new_follower) if new_follower is not None else None
        )
        for sid, port in self.peer_ports.items():
            await self._dial_peer(sid, port)
        if follower_changed and self.config.replication:
            # A new follower starts empty: prime it with a full snapshot
            # before the incremental entries resume.
            for entry in snapshot_entries(
                {cid: s.user for cid, s in self.sessions.items()},
                self.rooms,
            ):
                self.log.append(entry)
        # Ack so the router knows this shard routes on the new epoch.
        self._send_router(
            {"op": wire.OP_EPOCH, "epoch": self.epoch, "shard": self.shard_id}
        )

    def _adopt_state(
        self,
        sessions: dict[int, str],
        rooms: dict[str, dict[int, str]],
    ) -> tuple[int, int]:
        """Fold foreign serving state into ours, live and replicated.

        Shared by promotion (a dead leader's replica) and handoff (a
        handback export): sessions register real executor tasks, room
        members merge, and every adoption is logged so *our* follower
        learns the state too.  Returns (sessions, rooms) adopted.
        """
        adopted_sessions = 0
        for cid, user in sessions.items():
            if cid not in self.sessions:
                session = ShardSession(cid, user)
                session.task = self.executor.register(
                    f"session-{cid}", user=session
                )
                self.sessions[cid] = session
                self.log.append(sess_entry(cid, user))
                adopted_sessions += 1
        adopted_rooms = 0
        for room, members in rooms.items():
            mine = self.rooms.setdefault(room, {})
            for cid, user in members.items():
                if cid not in mine:
                    mine[cid] = user
                    self.log.append(join_entry(room, cid, user))
            adopted_rooms += 1
        return adopted_sessions, adopted_rooms

    def _on_promote(self, frame: dict[str, Any]) -> None:
        """Replay a dead leader's replica into the live serving state."""
        dead = int(frame["dead"])
        replica = self.replicas.pop(dead, None) or ReplicaState()
        adopted_sessions, adopted_rooms = self._adopt_state(
            replica.sessions, replica.rooms
        )
        self.promotions += 1
        self._send_router(
            {
                "op": wire.OP_PROMOTED,
                "dead": dead,
                "shard": self.shard_id,
                "sessions": adopted_sessions,
                "rooms": adopted_rooms,
                "entries": replica.applied,
            }
        )

    def _on_handback(self, frame: dict[str, Any]) -> None:
        """Return a respawned shard's slots: export, ship, drop, ack.

        The export is a :func:`snapshot_entries` snapshot of exactly the
        sessions and rooms living on the handed-back slots — including
        any created *during* the failover window, which genuinely belong
        to the returning shard now.  Local state is dropped only after
        the handoff frame is on the wire; a failed send leaves ownership
        (and the router's slot table) untouched, so nothing strands.
        """
        target = int(frame["to"])
        handed = set(int(s) for s in frame.get("slots") or ())
        moved_sessions = {
            cid: session.user
            for cid, session in self.sessions.items()
            if session_slot(cid) in handed
        }
        moved_rooms = {
            room: dict(members)
            for room, members in self.rooms.items()
            if room_slot(room) in handed
        }
        entries = snapshot_entries(moved_sessions, moved_rooms)
        if not self._send_peer(
            target,
            {
                "op": wire.OP_HANDOFF,
                "origin": self.shard_id,
                "to": target,
                "entries": entries,
            },
        ):
            # Peer link not up (yet): keep the state, skip the ack; the
            # router's pending handback stays open and the respawned
            # shard's next hello will retry the whole exchange.
            self.handoff_failures += 1
            return
        self.handoffs_out += 1
        for cid in moved_sessions:
            session = self.sessions.pop(cid)
            self.pending -= len(session.inbox)
            session.inbox.clear()
            if session.task is not None:
                self.executor.deregister(session.task)
            self.log.append(sess_entry(cid, session.user, alive=False))
        for room, members in moved_rooms.items():
            self.rooms.pop(room, None)
            for cid in members:
                self.log.append(leave_entry(room, cid))
        self._send_router(
            {
                "op": wire.OP_HANDBACK_DONE,
                "to": target,
                "slots": sorted(handed),
                "sessions": len(moved_sessions),
                "rooms": len(moved_rooms),
            }
        )

    # -- peer frames --------------------------------------------------

    async def _handle_peer(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    frame = await self.framing.read(reader)
                except (ProtocolError, ConnectionResetError):
                    break
                except asyncio.CancelledError:
                    return  # event-loop teardown: finish quietly
                if frame is None:
                    break
                op = frame.get("op")
                if op == wire.OP_FWD:
                    self.fwd_in += 1
                    self._fan_out(
                        str(frame.get("room", "")), frame.get("frame") or {}
                    )
                elif op == wire.OP_REPL:
                    origin = int(frame.get("origin", -1))
                    entries = frame.get("entries") or []
                    self.replicas.setdefault(origin, ReplicaState()).apply_all(
                        entries
                    )
                    self.repl_entries_in += len(entries)
                elif op == wire.OP_HANDOFF:
                    # A handback export for this (respawned) shard: the
                    # entries re-prime live serving state directly.
                    replica = ReplicaState()
                    replica.apply_all(frame.get("entries") or [])
                    self._adopt_state(replica.sessions, replica.rooms)
                    self.handoffs_in += 1
                    self._flush_repl()
                    self._work.set()
        finally:
            try:
                writer.close()
            except Exception:
                pass

    # -- replication --------------------------------------------------

    def _flush_repl(self) -> None:
        if not self.config.replication:
            self.log.drain()
            return
        if not self.log.pending:
            return
        entries = self.log.drain()
        if self.follower_id is None:
            return  # alone in the ring: nobody to stream to
        if self._send_peer(
            self.follower_id,
            {
                "op": wire.OP_REPL,
                "origin": self.shard_id,
                "entries": entries,
            },
        ):
            self.repl_entries_out += len(entries)

    # -- serving one dispatched session ------------------------------

    def _serve(self, task: Task) -> None:
        """Serve one picked session (the executor's loop calls this)."""
        session: ShardSession = task.user
        budget = self.config.batch
        while session.inbox and budget > 0:
            message = session.inbox.popleft()
            self.pending -= 1
            budget -= 1
            self._complete(message)
        self.executor.charge_slice(task)
        self.executor.release(task, blocked=not session.inbox)
        self._flush_repl()

    def _complete(self, message: dict[str, Any]) -> None:
        """One dispatched request: fan out locally or forward cross-shard."""
        self.completed += 1
        room = str(message.get("room", ""))
        home = self._home(room)
        if home == self.shard_id or home is None:
            self._fan_out(room, message)
            return
        if self._send_peer(
            home,
            {
                "op": wire.OP_FWD,
                "room": room,
                "origin": self.shard_id,
                "frame": message,
            },
        ):
            self.forwarded += 1

    def _home(self, room: str) -> Optional[int]:
        if not self.slots:
            return None
        return self.slots[room_slot(room)]

    def _fan_out(self, room: str, message: dict[str, Any]) -> None:
        members = self.rooms.get(room)
        if not members:
            # Not homed here (promotion still in flight) or empty: the
            # sender's retry path re-drives the message.
            self.fwd_misses += 1
            return
        self._send_router(
            {
                "op": wire.OP_DELIVER,
                "cids": list(members),
                "frame": message,
            }
        )
        self.deliveries += len(members)

    # -- introspection -------------------------------------------------

    def counters(self) -> dict[str, Any]:
        return {
            "completed": self.completed,
            "deliveries": self.deliveries,
            "forwarded": self.forwarded,
            "fwd_in": self.fwd_in,
            "fwd_dropped": self.fwd_dropped,
            "fwd_misses": self.fwd_misses,
            "shed": self.shed,
            "executor_restarts": self.executor.rebuilds,
            "repl_entries_out": self.repl_entries_out,
            "repl_entries_in": self.repl_entries_in,
            "promotions": self.promotions,
            "handoffs_out": self.handoffs_out,
            "handoffs_in": self.handoffs_in,
            "handoff_failures": self.handoff_failures,
            "sessions": len(self.sessions),
            "rooms": len(self.rooms),
            "pending": self.pending,
            "picks": self.executor.picks,
            "schedule_calls": self.executor.merged_stats().schedule_calls,
        }

    def _metrics_frame(self) -> dict[str, Any]:
        from ..obs.metrics import MetricsProbe  # local import: layering

        probe = self.executor.probes.first(MetricsProbe)
        return {
            "op": protocol.OP_METRICS,
            "shard": self.shard_id,
            "epoch": self.epoch,
            "counters": self.counters(),
            "metrics": probe.snapshot() if probe is not None else {},
        }


def shard_main(shard_id: int, router_port: int, config_dict: dict) -> None:
    """``multiprocessing`` entry point for one shard process."""
    from ..harness.registry import MACHINE_SPECS
    from ..serve.executor import SchedulerExecutor

    config = ClusterConfig.from_dict(config_dict)
    spec = MACHINE_SPECS[config.machine]
    executor = SchedulerExecutor.from_name(
        config.scheduler, num_cpus=spec.num_cpus, smp=spec.smp
    )
    if config.metrics:
        from ..obs.metrics import MetricsProbe

        executor.attach(MetricsProbe())
    core = ShardCore(shard_id, config, executor)
    try:
        asyncio.run(core.run("127.0.0.1", router_port))
    except KeyboardInterrupt:  # pragma: no cover — parent teardown
        pass
    except Exception as exc:  # pragma: no cover — crash visibility in CI
        print(f"[{core.name}] died: {exc!r}", file=sys.stderr)
        raise
