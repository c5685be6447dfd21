"""Adapters rebasing the legacy observers onto the probe pipeline.

:class:`TracerProbe` and :class:`ProfilerProbe` translate pipeline
events into exactly the ``Tracer.record`` / ``ProfSink.charge`` calls
the machine used to make inline, so a trace ring or profile taken
through the pipeline is bit-identical to one taken on the pre-pipeline
code (pinned by ``tests/obs/test_pipeline_identity.py``).  The wrapped
objects stay the public artifact — ``machine.attach(TracerProbe()).tracer``
is a :class:`~repro.kernel.trace.Tracer`, and
``machine.attach(ProfilerProbe()).sink`` a
:class:`~repro.prof.profiler.Profiler`.
"""

from __future__ import annotations

from typing import Any, Optional

from .probe import Probe, SchedEvent

__all__ = ["TracerProbe", "ProfilerProbe"]


class TracerProbe(Probe):
    """Feeds a :class:`~repro.kernel.trace.Tracer` ring from the pipeline."""

    kinds = frozenset({"sched", "wakeup", "syscall"})

    #: Syscall ``op`` → trace kind, resolved lazily to keep this module
    #: importable before ``repro.kernel.trace`` in partial-init chains.
    _SYSCALL_KINDS: Optional[dict] = None

    def __init__(self, tracer: Any = None) -> None:
        if tracer is None:
            from ..kernel.trace import Tracer

            tracer = Tracer()
        self.tracer = tracer

    def on_wakeup(self, ev: Any) -> None:
        from ..kernel.trace import TraceKind

        self.tracer.record(ev.t, TraceKind.WAKEUP, ev.cpu, ev.task)

    def on_sched(self, ev: Any) -> None:
        from ..kernel.trace import TraceKind

        point = ev.point
        if point == "decision":
            if ev.chosen is None:
                self.tracer.record(ev.end, TraceKind.IDLE, ev.cpu, None)
                return
            if ev.migrated_from is not None:
                self.tracer.record(
                    ev.end,
                    TraceKind.MIGRATE,
                    ev.cpu,
                    ev.chosen,
                    f"from cpu{ev.migrated_from}",
                )
            self.tracer.record(
                ev.end,
                TraceKind.DISPATCH,
                ev.cpu,
                ev.chosen,
                f"examined={ev.examined} prev={ev.prev.name}",
            )
        elif point == "preempt":
            self.tracer.record(
                ev.t, TraceKind.PREEMPT, ev.cpu, ev.task, f"counter={ev.counter}"
            )
        elif point == "recalc":
            self.tracer.record(
                ev.t, TraceKind.RECALC, -1, None, f"tasks={ev.tasks}"
            )

    def on_syscall(self, ev: Any) -> None:
        from ..kernel.trace import TraceKind

        kinds = TracerProbe._SYSCALL_KINDS
        if kinds is None:
            kinds = TracerProbe._SYSCALL_KINDS = {
                "block": TraceKind.BLOCK,
                "yield": TraceKind.YIELD,
                "exit": TraceKind.EXIT,
            }
        self.tracer.record(ev.t, kinds[ev.op], ev.cpu, ev.task, ev.detail)


class ProfilerProbe(Probe):
    """Feeds a ``ProfSink`` (usually a Profiler) from the pipeline.

    The charge schedule reproduces the old inline hooks exactly:
    lock-wait at event time, lock-hold and the pick/goodness/recalc
    split at lock acquisition, the context switch at decision end, the
    wakeup charge after any wakeup-path spin, and the cache refill when
    a migrated task lands.
    """

    kinds = frozenset({"sched", "wakeup", "dispatch", "lock"})

    def __init__(self, sink: Any = None) -> None:
        if sink is None:
            from ..prof.profiler import Profiler

            sink = Profiler()
        self.sink = sink

    def set_scheduler(self, name: str) -> None:
        set_sched = getattr(self.sink, "set_scheduler", None)
        if set_sched is not None:
            set_sched(name)

    def on_lock(self, ev: Any) -> None:
        if ev.spin:
            self.sink.charge("lock_wait", ev.spin, ev.t, ev.cpu, ev.task)
        if ev.hold:
            self.sink.charge("lock_hold", ev.hold, ev.t + ev.spin, ev.cpu, ev.task)

    def on_wakeup(self, ev: Any) -> None:
        self.sink.charge("wakeup", ev.charge, ev.t + ev.spin, ev.charge_cpu, ev.task)

    def on_sched(self, ev: Any) -> None:
        if ev.point != "decision":
            return
        sink = self.sink
        eval_c = ev.eval_cycles
        recalc_c = ev.recalc_cycles
        sink.charge("pick", ev.cost - eval_c - recalc_c, ev.start, ev.cpu, ev.target)
        if eval_c:
            sink.charge("goodness_eval", eval_c, ev.start, ev.cpu, ev.target)
        if recalc_c:
            sink.charge("recalc", recalc_c, ev.start, ev.cpu, ev.target)
        if ev.switch:
            sink.charge("dispatch", ev.switch, ev.dec_end, ev.cpu, ev.target)

    def on_dispatch(self, ev: Any) -> None:
        self.sink.charge("migrate", ev.cycles, ev.t, ev.cpu, ev.task)
