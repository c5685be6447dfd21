"""The probe pipeline: one event stream for every observer.

Historically the machine carried three independent optional observers —
``tracer``, ``prof``, ``faults`` — each with its own attach method and
its own scatter of ``if self.X is not None`` guards through the hot
paths.  This module replaces all of that with a single mechanism:

* a :class:`Probe` subscribes to *event kinds* (``sched``, ``wakeup``,
  ``dispatch``, ``lock``, ``fault``, ``syscall``) by listing them in
  its ``kinds`` set and overriding the matching ``on_<kind>`` hook;
* a :class:`ProbeSet` holds the attached probes as one per-kind tuple
  each, so the emitting site's detached fast path is a single
  attribute-truthiness test (``if probes.sched:``) — the same cost the
  old per-observer ``is None`` guard paid, and an *empty* set is
  bit-identical to no observers at all;
* the :class:`~repro.kernel.machine.Machine` and
  :class:`~repro.serve.executor.SchedulerExecutor` emit each event from
  exactly one site, so a new observer never re-audits the hot path.

Delivery is *batched* for probes that opt in (``batch_capable = True``,
e.g. :class:`~repro.obs.metrics.MetricsProbe`): the emitting site calls
``probes.emit_<kind>(ev)``, which appends to a per-kind buffer and
drains it through the probe's ``on_<kind>_batch`` hook every
:data:`DEFAULT_BATCH_SIZE` events, amortising the per-event call
overhead into one hoisted-locals loop per batch.  Order is preserved
*within* a kind; batch-capable probes must therefore be
order-insensitive **across** kinds (aggregators are; the tracer's
cross-kind ring ordering is why :class:`~repro.obs.probes.TracerProbe`
stays synchronous).  ``ProbeSet.flush()`` drains every buffer; the
machine flushes at the end of :meth:`~repro.kernel.machine.Machine.run`
and a :class:`~repro.obs.metrics.MetricsProbe` self-flushes on every
read, so no observable snapshot ever sees a partial stream.

Events carry the *cycle charges* the machine computed, never re-derive
them: a probe that sums ``LockEvent.spin`` reconstructs
``SchedStats.lock_spin_cycles`` exactly, and the profiler adapter's
phase totals conserve against the machine's own ledger (pinned by
``tests/obs/``).

This module is deliberately dependency-free (events hold tasks as
opaque objects) so the kernel can import it without cycles.  See
``docs/observability.md`` for the protocol reference and a worked
custom-probe example.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = [
    "KINDS",
    "DEFAULT_BATCH_SIZE",
    "Probe",
    "ProbeSet",
    "SchedEvent",
    "PreemptEvent",
    "RecalcEvent",
    "WakeupEvent",
    "DispatchEvent",
    "LockEvent",
    "SyscallEvent",
    "FaultEvent",
]

#: The closed set of event kinds a probe may subscribe to.
KINDS = ("sched", "wakeup", "dispatch", "lock", "fault", "syscall")

#: Events buffered per kind before a batch-capable probe's
#: ``on_<kind>_batch`` hook drains them.  ``<= 1`` disables batching
#: (every probe is delivered synchronously).  A :class:`ProbeSet` reads
#: it when it is built, so a test can set it to check that batching
#: never changes what the probes see.
DEFAULT_BATCH_SIZE = 256


class SchedEvent:
    """One ``schedule()`` decision (``point == "decision"``).

    ``chosen`` is ``None`` for an idle pick; ``target`` is the task the
    CPU actually switches to (the idle task on idle picks).  Times:
    ``t`` is scheduler entry, ``start`` is lock acquisition (entry +
    spin), ``dec_end`` is decision completion, ``end`` adds the context
    switch.  ``migrated_from`` is the chosen task's previous CPU when
    this pick migrates it, else ``None``.
    """

    point = "decision"
    __slots__ = (
        "t",
        "start",
        "dec_end",
        "end",
        "cpu",
        "prev",
        "chosen",
        "target",
        "cost",
        "eval_cycles",
        "recalc_cycles",
        "examined",
        "switch",
        "migrated_from",
    )

    def __init__(
        self,
        t: int,
        start: int,
        dec_end: int,
        end: int,
        cpu: int,
        prev: Any,
        chosen: Optional[Any],
        target: Any,
        cost: int,
        eval_cycles: int,
        recalc_cycles: int,
        examined: int,
        switch: int,
        migrated_from: Optional[int],
    ) -> None:
        self.t = t
        self.start = start
        self.dec_end = dec_end
        self.end = end
        self.cpu = cpu
        self.prev = prev
        self.chosen = chosen
        self.target = target
        self.cost = cost
        self.eval_cycles = eval_cycles
        self.recalc_cycles = recalc_cycles
        self.examined = examined
        self.switch = switch
        self.migrated_from = migrated_from


class PreemptEvent:
    """``need_resched`` honoured against the running task (``sched`` kind)."""

    point = "preempt"
    __slots__ = ("t", "cpu", "task", "counter")

    def __init__(self, t: int, cpu: int, task: Any, counter: int) -> None:
        self.t = t
        self.cpu = cpu
        self.task = task
        self.counter = counter


class RecalcEvent:
    """A whole-system counter recalculation (``sched`` kind)."""

    point = "recalc"
    __slots__ = ("t", "tasks")

    def __init__(self, t: int, tasks: int) -> None:
        self.t = t
        self.tasks = tasks


class WakeupEvent:
    """``wake_up_process`` made a task runnable.

    ``cpu`` is the waking CPU id (-1: interrupt/timer context) and is
    what a tracer shows; ``charge_cpu`` is the CPU the cycle ``charge``
    (wakeup + runqueue insert) is attributed to, which the machine pins
    to 0 on a UP build.  ``spin`` is lock-wait time already reported via
    the separate :class:`LockEvent`; the wakeup charge lands at
    ``t + spin``.
    """

    __slots__ = ("t", "cpu", "charge_cpu", "task", "charge", "spin")

    def __init__(
        self, t: int, cpu: int, charge_cpu: int, task: Any, charge: int, spin: int
    ) -> None:
        self.t = t
        self.cpu = cpu
        self.charge_cpu = charge_cpu
        self.task = task
        self.charge = charge
        self.spin = spin


class DispatchEvent:
    """A migrated task landed on its new CPU and paid the cache refill."""

    __slots__ = ("t", "cpu", "task", "cycles")

    def __init__(self, t: int, cpu: int, task: Any, cycles: int) -> None:
        self.t = t
        self.cpu = cpu
        self.task = task
        self.cycles = cycles


class LockEvent:
    """One pass through the global runqueue lock: ``spin`` cycles waited
    from ``t``, then ``hold`` cycles held from ``t + spin``."""

    __slots__ = ("t", "cpu", "task", "spin", "hold")

    def __init__(self, t: int, cpu: int, task: Any, spin: int, hold: int) -> None:
        self.t = t
        self.cpu = cpu
        self.task = task
        self.spin = spin
        self.hold = hold


class SyscallEvent:
    """A task left the CPU through a syscall boundary.

    ``op`` is ``"block"``, ``"yield"`` or ``"exit"``; ``detail`` names
    the blocking primitive (``"put chan"``, ``"sleep"``, …).
    """

    __slots__ = ("t", "cpu", "task", "op", "detail")

    def __init__(self, t: int, cpu: int, task: Any, op: str, detail: str = "") -> None:
        self.t = t
        self.cpu = cpu
        self.task = task
        self.op = op
        self.detail = detail


class FaultEvent:
    """A fault injector fired (or skipped, or restored) one fault."""

    __slots__ = ("t", "kind", "target", "outcome", "detail")

    def __init__(
        self, t: int, kind: str, target: str, outcome: str, detail: str
    ) -> None:
        self.t = t
        self.kind = kind
        self.target = target
        self.outcome = outcome
        self.detail = detail


class Probe:
    """Base class for pipeline observers.

    Subclasses declare the kinds they want in ``kinds`` and override the
    matching ``on_<kind>`` hooks; everything else stays a no-op.  Probes
    observe — they must not mutate tasks, CPUs, or the clock (the fault
    injector, which *does* mutate, only ever does so from CALLBACK
    events it scheduled at attach time, never from an emission hook).
    """

    #: Event kinds this probe subscribes to (subset of :data:`KINDS`).
    kinds: frozenset = frozenset()

    #: Opt in to buffered delivery through the ``on_<kind>_batch``
    #: hooks.  Only safe for probes whose aggregates are insensitive to
    #: event ordering *across* kinds (within a kind, order is kept).
    batch_capable: bool = False

    def on_attach(self, host: Any) -> None:
        """Called once when attached to a machine or executor."""

    def set_scheduler(self, name: str) -> None:
        """The host's scheduler (re)bound; hot-swaps included."""

    def on_sched(self, ev: Any) -> None:
        """A :class:`SchedEvent`, :class:`PreemptEvent` or
        :class:`RecalcEvent` (discriminate on ``ev.point``)."""

    def on_wakeup(self, ev: WakeupEvent) -> None:
        """A :class:`WakeupEvent`."""

    def on_dispatch(self, ev: DispatchEvent) -> None:
        """A :class:`DispatchEvent`."""

    def on_lock(self, ev: LockEvent) -> None:
        """A :class:`LockEvent`."""

    def on_fault(self, ev: FaultEvent) -> None:
        """A :class:`FaultEvent`."""

    def on_syscall(self, ev: SyscallEvent) -> None:
        """A :class:`SyscallEvent`."""

    # -- batched delivery (batch_capable probes only) -----------------------
    #
    # The defaults just replay the per-event hooks, so a batch-capable
    # probe works before it bothers writing hoisted batch loops.

    def on_sched_batch(self, evs: list) -> None:
        for ev in evs:
            self.on_sched(ev)

    def on_wakeup_batch(self, evs: list) -> None:
        for ev in evs:
            self.on_wakeup(ev)

    def on_dispatch_batch(self, evs: list) -> None:
        for ev in evs:
            self.on_dispatch(ev)

    def on_lock_batch(self, evs: list) -> None:
        for ev in evs:
            self.on_lock(ev)

    def on_fault_batch(self, evs: list) -> None:
        for ev in evs:
            self.on_fault(ev)

    def on_syscall_batch(self, evs: list) -> None:
        for ev in evs:
            self.on_syscall(ev)


class ProbeSet:
    """The per-host pipeline: attached probes, indexed by event kind.

    Emitters test the kind attribute directly — ``if probes.sched:`` is
    the detached fast path (an empty set costs one truthiness test per
    potential event and allocates nothing) — then hand the event to
    ``emit_<kind>``, which delivers synchronously to order-sensitive
    probes and buffers for batch-capable ones.  The per-kind attributes
    keep *all* subscribers, so pre-batching code that iterates
    ``probes.sched`` itself still delivers to everything (just without
    the amortisation).
    """

    __slots__ = (
        ("probes", "batch_size") + KINDS
        + tuple(f"_sync_{k}" for k in KINDS)
        + tuple(f"_batch_{k}" for k in KINDS)
        + tuple(f"_buf_{k}" for k in KINDS)
    )

    def __init__(self) -> None:
        self.probes: tuple = ()
        self.batch_size = DEFAULT_BATCH_SIZE
        for kind in KINDS:
            setattr(self, kind, ())
            setattr(self, f"_sync_{kind}", ())
            setattr(self, f"_batch_{kind}", ())
            setattr(self, f"_buf_{kind}", [])

    def _rebuild(self) -> None:
        """Recompute the per-kind delivery tuples from ``self.probes``."""
        batching = self.batch_size > 1
        for kind in KINDS:
            subs = tuple(p for p in self.probes if kind in p.kinds)
            setattr(self, kind, subs)
            setattr(
                self,
                f"_sync_{kind}",
                tuple(
                    p for p in subs
                    if not (batching and getattr(p, "batch_capable", False))
                ),
            )
            setattr(
                self,
                f"_batch_{kind}",
                tuple(
                    p for p in subs
                    if batching and getattr(p, "batch_capable", False)
                ),
            )

    def add(self, probe: Probe) -> Probe:
        """Subscribe ``probe`` to its declared kinds (idempotent).

        Pending buffers are flushed first, so a late-attached probe
        never sees events emitted before it arrived.
        """
        if probe in self.probes:
            return probe
        for kind in probe.kinds:
            if kind not in KINDS:
                raise ValueError(
                    f"unknown probe kind {kind!r}; choose from {KINDS}"
                )
        self.flush()
        self.probes = self.probes + (probe,)
        self._rebuild()
        if getattr(probe, "_pipeline", _MISSING) is not _MISSING:
            probe._pipeline = self
        return probe

    def remove(self, probe: Probe) -> None:
        """Detach ``probe`` from every kind it subscribed to."""
        if probe not in self.probes:
            return
        self.flush()
        self.probes = tuple(p for p in self.probes if p is not probe)
        self._rebuild()
        if getattr(probe, "_pipeline", _MISSING) is not _MISSING:
            probe._pipeline = None

    def first(self, cls: type) -> Optional[Probe]:
        """The first attached probe of (a subclass of) ``cls``, or None."""
        for probe in self.probes:
            if isinstance(probe, cls):
                return probe
        return None

    def set_scheduler(self, name: str) -> None:
        """Tell every probe the host's scheduler (re)bound.

        Flushes first: buffered events belong to the *previous* binding
        (the MetricsProbe keys its per-scheduler breakdown on delivery).
        """
        self.flush()
        for probe in self.probes:
            probe.set_scheduler(name)

    # -- delivery -----------------------------------------------------------

    def emit_sched(self, ev: Any) -> None:
        for p in self._sync_sched:
            p.on_sched(ev)
        if self._batch_sched:
            buf = self._buf_sched
            buf.append(ev)
            if len(buf) >= self.batch_size:
                self._buf_sched = []
                for p in self._batch_sched:
                    p.on_sched_batch(buf)

    def emit_wakeup(self, ev: Any) -> None:
        for p in self._sync_wakeup:
            p.on_wakeup(ev)
        if self._batch_wakeup:
            buf = self._buf_wakeup
            buf.append(ev)
            if len(buf) >= self.batch_size:
                self._buf_wakeup = []
                for p in self._batch_wakeup:
                    p.on_wakeup_batch(buf)

    def emit_dispatch(self, ev: Any) -> None:
        for p in self._sync_dispatch:
            p.on_dispatch(ev)
        if self._batch_dispatch:
            buf = self._buf_dispatch
            buf.append(ev)
            if len(buf) >= self.batch_size:
                self._buf_dispatch = []
                for p in self._batch_dispatch:
                    p.on_dispatch_batch(buf)

    def emit_lock(self, ev: Any) -> None:
        for p in self._sync_lock:
            p.on_lock(ev)
        if self._batch_lock:
            buf = self._buf_lock
            buf.append(ev)
            if len(buf) >= self.batch_size:
                self._buf_lock = []
                for p in self._batch_lock:
                    p.on_lock_batch(buf)

    def emit_fault(self, ev: Any) -> None:
        for p in self._sync_fault:
            p.on_fault(ev)
        if self._batch_fault:
            buf = self._buf_fault
            buf.append(ev)
            if len(buf) >= self.batch_size:
                self._buf_fault = []
                for p in self._batch_fault:
                    p.on_fault_batch(buf)

    def emit_syscall(self, ev: Any) -> None:
        for p in self._sync_syscall:
            p.on_syscall(ev)
        if self._batch_syscall:
            buf = self._buf_syscall
            buf.append(ev)
            if len(buf) >= self.batch_size:
                self._buf_syscall = []
                for p in self._batch_syscall:
                    p.on_syscall_batch(buf)

    def flush(self) -> None:
        """Drain every per-kind buffer through the batch hooks.

        Hosts call this at read boundaries (end of a machine run, before
        a live metrics snapshot) so aggregates are exact, not
        approximately-current.  Buffers are swapped out before delivery,
        making the call re-entrancy-safe.
        """
        for kind in KINDS:
            buf = getattr(self, f"_buf_{kind}")
            if buf:
                setattr(self, f"_buf_{kind}", [])
                hook = f"on_{kind}_batch"
                for p in getattr(self, f"_batch_{kind}"):
                    getattr(p, hook)(buf)

    def pending(self) -> int:
        """Events currently buffered across all kinds (introspection)."""
        return sum(len(getattr(self, f"_buf_{k}")) for k in KINDS)

    def __bool__(self) -> bool:
        return bool(self.probes)

    def __len__(self) -> int:
        return len(self.probes)

    def __iter__(self):
        return iter(self.probes)

    def __repr__(self) -> str:
        return f"<ProbeSet {[type(p).__name__ for p in self.probes]}>"


#: Sentinel distinguishing "no ``_pipeline`` attribute" from "None".
_MISSING = object()
