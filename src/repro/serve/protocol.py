"""Wire protocol of the live chat server: newline-delimited JSON.

One JSON object per line, UTF-8, ``\\n`` terminated — trivially
debuggable with ``nc`` and framing-safe over asyncio stream readers.

Client → server operations::

    {"op": "join", "room": "r0", "user": "u3"}
    {"op": "msg",  "room": "r0", "user": "u3", "seq": 7, "t": <ns>, "pad": "…"}
    {"op": "metrics"}
    {"op": "quit"}

Server → client operations::

    {"op": "welcome", "session": 12}
    {"op": "joined",  "room": "r0", "members": 8}
    {"op": "metrics", "counters": {…}, "metrics": {…}}   # live snapshot;
                                         # "metrics" is {} when no
                                         # MetricsProbe is attached
    {"op": "msg",     …}                 # fan-out copy of a sender's frame
    {"op": "shed",    "seq": 7}          # admission control dropped it
    {"op": "shed",    "seq": 7, "retry_after_ms": 2000.0}   # shed under
                                         # a declared overload window
    {"op": "expired", "seq": 7}          # queued past its deadline
    {"op": "bye"}

``ChatServer`` sends each fan-out copy as the line it read from the
sender, with surrounding whitespace stripped and one ``\\n`` appended,
not a re-encoding: every room member, the sender included, reads back
the sender's bytes.  (The cluster router re-encodes the copies it
delivers, which only a sender that does not use :func:`encode` can
tell apart.)  ``t`` is an opaque client timestamp carried in them; the
load generator stamps ``time.perf_counter_ns()`` and computes
round-trip latency when its own fan-out copy returns.
"""

from __future__ import annotations

import json
from typing import Any, Optional

__all__ = [
    "OP_JOIN",
    "OP_MSG",
    "OP_METRICS",
    "OP_QUIT",
    "OP_WELCOME",
    "OP_JOINED",
    "OP_SHED",
    "OP_EXPIRED",
    "OP_BYE",
    "MAX_LINE_BYTES",
    "encode",
    "decode",
    "ProtocolError",
]

OP_JOIN = "join"
OP_MSG = "msg"
OP_METRICS = "metrics"
OP_QUIT = "quit"
OP_WELCOME = "welcome"
OP_JOINED = "joined"
OP_SHED = "shed"
OP_EXPIRED = "expired"
OP_BYE = "bye"

#: Upper bound on one frame; oversized lines are a protocol error, not
#: an allocation.  Generous for padded benchmark messages.
MAX_LINE_BYTES = 64 * 1024


class ProtocolError(ValueError):
    """A frame that is not valid line-JSON or has no ``op``."""


def encode(message: dict[str, Any]) -> bytes:
    """One frame: compact JSON plus the line terminator.

    Raises :class:`ProtocolError` when the encoded frame would exceed
    :data:`MAX_LINE_BYTES` — a frame the sender may not put on the wire
    is an error at the sender, not something for the receiver to choke
    on.  (JSON string escaping guarantees the payload itself contains
    no raw newline, so the line framing cannot be broken from inside.)
    """
    payload = json.dumps(message, separators=(",", ":")).encode()
    if len(payload) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds limit of "
            f"{MAX_LINE_BYTES}"
        )
    return payload + b"\n"


def decode(line: bytes) -> Optional[dict[str, Any]]:
    """Parse one received line; ``None`` for a blank keep-alive line.

    Raises :class:`ProtocolError` on garbage — the server answers by
    closing the session rather than guessing.
    """
    stripped = line.strip()
    if not stripped:
        return None
    if len(stripped) > MAX_LINE_BYTES:
        raise ProtocolError(f"frame of {len(stripped)} bytes exceeds limit")
    try:
        message = json.loads(stripped)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"bad frame: {exc}") from exc
    if not isinstance(message, dict) or "op" not in message:
        raise ProtocolError(f"frame without op: {message!r}")
    return message
