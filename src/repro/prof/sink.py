"""The phase taxonomy and the narrow interface the kernel hooks call.

The machine knows nothing about accumulation, histograms, or output
formats: its only obligation is to call :meth:`ProfSink.charge` at the
moment a cost-model charge lands, naming the phase.  Anything
implementing this one method can be attached via
``machine.attach(ProfilerProbe(sink))`` — the shipped implementation
is :class:`repro.prof.profiler.Profiler`.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, runtime_checkable

__all__ = ["PHASES", "SCHEDULER_PHASES", "LOCK_PHASES", "ProfSink"]

#: Every attributable phase, in flat-table presentation order.  The sum
#: of these buckets over a run is exactly the cycles the cost model
#: charged (the conservation property ``tests/prof`` pins).
PHASES: tuple[str, ...] = (
    "pick",
    "goodness_eval",
    "recalc",
    "lock_wait",
    "lock_hold",
    "wakeup",
    "dispatch",
    "migrate",
)

#: The phases that make up ``SchedStats.scheduler_cycles`` — the
#: decision work itself.  Their profiled sum equals that counter
#: exactly; adding ``lock_wait`` gives ``total_scheduler_cycles()``,
#: the numerator of the paper's "% of kernel time in the scheduler".
SCHEDULER_PHASES: tuple[str, ...] = ("pick", "goodness_eval", "recalc")

#: Runqueue-lock phases (SMP builds only; a UP run charges neither).
LOCK_PHASES: tuple[str, ...] = ("lock_wait", "lock_hold")


@runtime_checkable
class ProfSink(Protocol):
    """What the machine requires of an attached profiler: one method."""

    def charge(
        self,
        phase: str,
        cycles: int,
        t: int,
        cpu: int = -1,
        task: Optional[Any] = None,
    ) -> None:
        """Attribute ``cycles`` of work in ``phase`` at virtual time ``t``.

        ``cpu`` is the charged CPU's id (-1: interrupt/timer context);
        ``task`` is the task the work was done *for* (the woken task on
        a wakeup, the chosen task on a pick), not necessarily the task
        whose timeline pays — kernprof attributes the same way.
        """
