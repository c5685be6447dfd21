"""Tests for the event queue: ordering, cancellation, determinism."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.events import Event, EventKind, EventQueue


class TestOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.schedule(30, EventKind.TICK)
        q.schedule(10, EventKind.TICK)
        q.schedule(20, EventKind.TICK)
        assert [q.pop().time for _ in range(3)] == [10, 20, 30]

    def test_ties_break_by_insertion_order(self):
        q = EventQueue()
        first = q.schedule(5, EventKind.TICK, "a")
        second = q.schedule(5, EventKind.TICK, "b")
        assert q.pop() is first
        assert q.pop() is second

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_negative_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule(-1, EventKind.TICK)


class TestPrecedesAll:
    def test_empty_queue(self):
        assert EventQueue().precedes_all(0)

    def test_strictly_earlier_than_every_entry(self):
        q = EventQueue()
        q.schedule(10, EventKind.TICK)
        q.schedule(20, EventKind.TICK)
        assert q.precedes_all(9)
        # A tie pops the event already queued first.
        assert not q.precedes_all(10)
        assert not q.precedes_all(15)

    def test_cancelled_entries_still_count(self):
        q = EventQueue()
        q.schedule(10, EventKind.TICK).cancel()
        q.schedule(20, EventKind.TICK)
        assert q.peek_time() == 20  # skips (and drops) the cancelled top
        assert q.precedes_all(15)
        q.schedule(12, EventKind.TICK).cancel()
        assert not q.precedes_all(15)


class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        q = EventQueue()
        live = q.schedule(1, EventKind.TICK, "live")
        dead = q.schedule(0, EventKind.TICK, "dead")
        dead.cancel()
        assert q.pop() is live
        assert q.pop() is None

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        dead = q.schedule(0, EventKind.TICK)
        q.schedule(7, EventKind.TICK)
        dead.cancel()
        assert q.peek_time() == 7

    def test_empty_reflects_cancellations(self):
        q = EventQueue()
        event = q.schedule(3, EventKind.TICK)
        assert not q.empty()
        event.cancel()
        assert q.empty()

    def test_skip_counter(self):
        q = EventQueue()
        event = q.schedule(0, EventKind.TICK)
        event.cancel()
        q.pop()
        assert q.skipped == 1


class TestInstrumentation:
    def test_push_pop_counters(self):
        q = EventQueue()
        q.schedule(1, EventKind.TICK)
        q.schedule(2, EventKind.TIMER)
        q.pop()
        assert q.pushed == 2
        assert q.popped == 1


class TestEvent:
    def test_slotted_and_compared_by_identity(self):
        a = Event(5, EventKind.TICK, "p")
        b = Event(5, EventKind.TICK, "p")
        assert not hasattr(a, "__dict__")
        assert a != b and a == a
        assert repr(a) == (
            "Event(time=5, kind=<EventKind.TICK: 'tick'>, payload='p', cancelled=False)"
        )


class TestPending:
    def test_live_events_of_one_kind_in_heap_order(self):
        q = EventQueue()
        # Increasing times: each push stays where it lands in the heap.
        first = q.schedule(10, EventKind.TIMER, "a")
        q.schedule(15, EventKind.TICK, "tick")
        dead = q.schedule(20, EventKind.TIMER, "dead")
        third = q.schedule(30, EventKind.TIMER, "c")
        dead.cancel()
        assert q.pending(EventKind.TIMER) == [first, third]
        assert [e.payload for e in q.pending(EventKind.TICK)] == ["tick"]
        assert q.pending(EventKind.CALLBACK) == []

    def test_snapshot_survives_rescheduling_while_iterating(self):
        q = EventQueue()
        for t in (3, 1, 2):
            q.schedule(t, EventKind.TIMER, t)
        moved = []
        for event in q.pending(EventKind.TIMER):
            event.cancel()
            moved.append(q.schedule(event.time + 100, EventKind.TIMER, event.payload))
        assert len(moved) == 3
        assert q.pending(EventKind.TIMER) == moved
        # The rescheduled events pop in time order, ties by the new sequence.
        assert [q.pop().payload for _ in range(3)] == [1, 2, 3]
        assert q.skipped == 3


class TestPropertyBased:
    @given(st.lists(st.integers(0, 10_000), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_pop_order_is_sorted_stable(self, times):
        q = EventQueue()
        events = [q.schedule(t, EventKind.TICK, i) for i, t in enumerate(times)]
        popped = []
        while (e := q.pop()) is not None:
            popped.append(e)
        assert [e.time for e in popped] == sorted(times)
        # Stability: equal times keep insertion order.
        expected = sorted(range(len(times)), key=lambda i: (times[i], i))
        assert [e.payload for e in popped] == expected

    @given(
        st.lists(st.tuples(st.integers(0, 1000), st.booleans()), max_size=60)
    )
    @settings(max_examples=100, deadline=None)
    def test_cancellation_filters_exactly(self, spec):
        q = EventQueue()
        for t, cancelled in spec:
            e = q.schedule(t, EventKind.TICK, (t, cancelled))
            if cancelled:
                e.cancel()
        survivors = []
        while (e := q.pop()) is not None:
            survivors.append(e.payload)
        expected = sorted(
            ((t, c) for t, c in spec if not c), key=lambda p: p[0]
        )
        assert sorted(survivors, key=lambda p: p[0]) == expected
