"""In-memory span recording and self-time arithmetic.

A traced run wraps public methods of the system under test (see
``instrument.py``) so that every call records one span: a layer-qualified
name, start and end in ``perf_counter_ns`` and the index of the span that
was open when it began (its parent).  Spans are kept in flat typed arrays
until the run ends, then reduced here.

A span's *self time* is its duration minus the part of its interval that
its direct children cover.  Summing self times per layer splits the host
time of a run without double counting nested calls (``schedule()`` calling
``del_from_runqueue``, a probe emission inside ``schedule()``).
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Iterable

__all__ = ["SpanRecorder", "covered", "self_time"]


def covered(lo: int, hi: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of ``[lo, hi)`` covered by the union of ``intervals``.

    Intervals are clipped to ``[lo, hi)`` first, so a child that outlives
    its parent only counts for the overlapping part, and overlapping
    children are counted once.
    """
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in intervals if b > lo and a < hi
    )
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: int, end: int, children: Iterable[tuple[int, int]]) -> int:
    """Duration of ``[start, end)`` minus the part its children cover."""
    return (end - start) - covered(start, end, children)


class SpanRecorder:
    """Flat, append-only span store for one thread of control.

    ``wrap(fn, name)`` returns a callable that records one span per call.
    The stack of open spans gives each new span its parent, so nesting is
    captured without the callee knowing about tracing.
    """

    ROOT = -1

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = [self.ROOT]

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable, name: str) -> Callable:
        nid = self._intern(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive and self seconds."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        children: dict[int, list[tuple[int, int]]] = {}
        for i in range(n):
            p = parent[i]
            if p != self.ROOT:
                children.setdefault(p, []).append((start[i], end[i]))
        out: dict[str, dict[str, float]] = {
            name: {"n": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            dur = end[i] - start[i]
            kids = children.get(i)
            own = dur if kids is None else self_time(start[i], end[i], kids)
            row["n"] += 1
            row["incl_s"] += dur / 1e9
            row["self_s"] += own / 1e9
        return out

