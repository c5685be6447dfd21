"""Wrap public methods of each layer so a traced run records spans.

Only the traced phase of a ``--trace 1`` run calls these, and it is the
last phase of its process, so nothing is ever unwrapped.  Span names are
``<layer>.<call>`` with the layers named after the repository's packages:

* ``kernel`` — ``Machine.run``, the event loop;
* ``sched`` — a scheduler instance's ``schedule()`` and its four
  run-queue operations (``core`` policies such as ELSC included);
* ``obs`` — ``ProbeSet.emit_*``/``flush`` and the ``MetricsProbe``
  batch hooks they drive;
* ``serve`` — ``protocol.encode``/``decode`` and the executor's
  ``pick``/``has_runnable``.

Scheduler and executor methods are wrapped on the instance, because their
callers look them up per call.  ``ProbeSet`` has ``__slots__`` and the
server calls ``protocol.encode`` through its module, so those are
patched on the class or module.
"""

from __future__ import annotations

from typing import Any

from spans import SpanRecorder

RUNQUEUE_OPS = (
    "add_to_runqueue",
    "del_from_runqueue",
    "move_first_runqueue",
    "move_last_runqueue",
)

EMIT_METHODS = (
    "emit_sched",
    "emit_wakeup",
    "emit_dispatch",
    "emit_lock",
    "emit_fault",
    "emit_syscall",
    "flush",
)


def instrument_scheduler(scheduler: Any, rec: SpanRecorder) -> Any:
    """Wrap ``schedule()`` and the run-queue operations on one instance."""
    scheduler.schedule = rec.wrap(scheduler.schedule, "sched.schedule")
    for op in RUNQUEUE_OPS:
        setattr(scheduler, op, rec.wrap(getattr(scheduler, op), "sched.runqueue_op"))
    return scheduler


def instrument_sim(rec: SpanRecorder) -> None:
    """Wrap the kernel event loop and the probe pipeline, process-wide."""
    from repro.kernel.machine import Machine
    from repro.obs.metrics import MetricsProbe
    from repro.obs.probe import ProbeSet

    Machine.run = rec.wrap(Machine.run, "kernel.run")
    for name in EMIT_METHODS:
        setattr(ProbeSet, name, rec.wrap(getattr(ProbeSet, name), "obs.emit"))
    for name, hook in list(vars(MetricsProbe).items()):
        if name.startswith("on_") and name.endswith("_batch"):
            setattr(MetricsProbe, name, rec.wrap(hook, "obs.probe"))


def instrument_server(executor: Any, rec: SpanRecorder) -> None:
    """Wrap the live server's wire protocol, executor and policy."""
    from repro.serve import protocol

    protocol.encode = rec.wrap(protocol.encode, "serve.encode")
    protocol.decode = rec.wrap(protocol.decode, "serve.decode")
    executor.pick = rec.wrap(executor.pick, "serve.pick")
    executor.has_runnable = rec.wrap(executor.has_runnable, "serve.has_runnable")
    instrument_scheduler(executor.scheduler, rec)


def span_field(totals: dict[str, dict[str, float]]):
    """``field(name, key)`` over ``SpanRecorder.totals()``; 0 if never called."""
    return lambda name, key: totals.get(name, {}).get(key, 0)


def sched_metrics(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """The ``sched`` span metrics, measured the same way on every workload."""
    span = span_field(totals)
    incl, n = span("sched.schedule", "incl_s"), span("sched.schedule", "n")
    return {
        "sched.schedule_s": incl,
        "sched.schedule_n": n,
        "sched.schedule_ns_per_call": incl / n * 1e9 if n else 0.0,
        "sched.runqueue_ops_s": span("sched.runqueue_op", "incl_s"),
        "sched.runqueue_ops_n": span("sched.runqueue_op", "n"),
    }
