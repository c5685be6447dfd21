"""The discrete-event core: timestamped events in a binary heap.

The machine advances by popping the earliest event and handling it.
Ties are broken by insertion order (a monotonic sequence number) so the
simulation is fully deterministic.  Events are cancelled lazily — a
cancelled event stays in the heap but is skipped when popped — which is
the standard cheap way to handle "the thing this event was waiting for
no longer applies" (e.g. a running task blocked before its run slice
completed, invalidating its completion event).
"""

from __future__ import annotations

import enum
import itertools
from heapq import heappop, heappush
from typing import Any, Optional

__all__ = ["EventKind", "Event", "EventQueue"]


class EventKind(enum.Enum):
    """What an event means to the machine."""

    TICK = "tick"                 # timer interrupt on a CPU
    ACTION_DONE = "action_done"   # the current run slice on a CPU completed
    TIMER = "timer"               # a sleeping task's wakeup time arrived
    CALLBACK = "callback"         # generic: invoke payload(machine, event)
    HALT = "halt"                 # stop the simulation at a horizon


class Event:
    """One scheduled occurrence.

    ``payload`` is kind-specific: the CPU object for TICK/ACTION_DONE,
    the task for TIMER, a callable for CALLBACK.  Events are compared by
    identity only; the heap orders them by ``(time, sequence)``.
    """

    __slots__ = ("time", "kind", "payload", "cancelled")

    def __init__(
        self, time: int, kind: EventKind, payload: Any = None, cancelled: bool = False
    ) -> None:
        self.time = time
        self.kind = kind
        self.payload = payload
        self.cancelled = cancelled

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, kind={self.kind!r}, "
            f"payload={self.payload!r}, cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        self.cancelled = True


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects."""

    __slots__ = ("_heap", "_seq", "pushed", "popped", "skipped")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = itertools.count()
        # Instrumentation (useful in tests and for engine sanity checks).
        self.pushed = 0
        self.popped = 0
        self.skipped = 0

    def schedule(self, time: int, kind: EventKind, payload: Any = None) -> Event:
        """Create and push an event; returns it for convenient cancellation."""
        event = Event(time, kind, payload)
        if time < 0:
            raise ValueError(f"event in negative time: {event}")
        heappush(self._heap, (time, next(self._seq), event))
        self.pushed += 1
        return event

    def pop(self) -> Optional[Event]:
        """Earliest live event, or ``None`` when drained."""
        while self._heap:
            _, _, event = heappop(self._heap)
            if event.cancelled:
                self.skipped += 1
                continue
            self.popped += 1
            return event
        return None

    def peek_time(self) -> Optional[int]:
        """Timestamp of the earliest live event without popping it."""
        while self._heap and self._heap[0][2].cancelled:
            heappop(self._heap)
            self.skipped += 1
        return self._heap[0][0] if self._heap else None

    def precedes_all(self, time: int) -> bool:
        """True when an event pushed now at ``time`` would pop next for sure.

        That holds when ``time`` is strictly earlier than every entry in
        the heap: a tie pops the entry already queued, which has the lower
        sequence number.  Cancelled entries still in the heap count too,
        so the answer may be False where :meth:`peek_time` would allow
        True; it is never True wrongly, and it costs no skipping.
        """
        heap = self._heap
        return not heap or time < heap[0][0]

    def pending(self, kind: EventKind) -> list[Event]:
        """The live events of ``kind``, in heap order, as a snapshot list.

        A list rather than a view, so the caller may cancel and
        reschedule them while it iterates.
        """
        return [e for _, _, e in self._heap if e.kind is kind and not e.cancelled]

    def __len__(self) -> int:
        """Number of heap entries, including not-yet-skipped cancelled ones."""
        return len(self._heap)

    def empty(self) -> bool:
        return self.peek_time() is None
