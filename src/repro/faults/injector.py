"""Deterministic kernel-level fault injection.

:class:`FaultInjector` binds to a :class:`~repro.kernel.machine.Machine`
as a probe, exactly the way the profiler does —
``machine.attach(injector)`` schedules one CALLBACK event per kernel
fault in the plan.  A machine with no injector attached executes the
identical instruction stream it always did (the zero-cost guarantee the
differential tests pin down); a bound injector with an empty plan
schedules nothing and is equally invisible.

All mutation happens *between* events, from CALLBACK handlers in the
main loop, using the machine's own primitives (``_stop_current_run``,
``_do_exit``, ``wake_up_process``, ``_dispatch``) so invariants hold:
no task is ever mid-``_advance_task`` when a fault lands.  That promise
rests on the injector's ``_dispatch`` calls taking the event path,
their default: a fault handler goes on after each one (the next
victim, the fault's record), so none may finish a Run in place and move
the clock past the fault's own time.

Victim selection is seeded per fault index (``Random(f"{seed}/{i}")``)
over the name-sorted live candidates matching the target glob, so the
same plan over the same workload always picks the same victims.
"""

from __future__ import annotations

import fnmatch
import random
from dataclasses import replace
from functools import partial
from typing import TYPE_CHECKING, Optional

from ..kernel.actions import Run
from ..kernel.events import EventKind
from ..kernel.params import cycles_to_seconds, seconds_to_cycles
from ..kernel.task import TaskState
from ..obs.probe import FaultEvent, Probe
from .plan import KERNEL_KINDS, FaultPlan, FaultSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.cpu import CPU
    from ..kernel.machine import Machine
    from ..kernel.task import Task

__all__ = ["FaultInjector"]

_BLOCKED = (TaskState.INTERRUPTIBLE, TaskState.UNINTERRUPTIBLE)


class FaultInjector(Probe):
    """Executes a :class:`FaultPlan` against one machine run.

    A probe with a twist: attachment (``on_attach``) schedules the
    plan's CALLBACK events, and every fired/skipped/restored fault is
    emitted as a :class:`~repro.obs.probe.FaultEvent` through the
    machine's pipeline — this injector's own ``on_fault`` keeps the
    chronological ``log``, and any other fault-kind subscriber (e.g.
    MetricsProbe) sees the same stream.
    """

    kinds = frozenset({"fault"})

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.machine: Optional["Machine"] = None
        #: Chronological record of what was injected (or skipped).
        self.log: list[dict] = []

    # -- attachment --------------------------------------------------------------

    def on_attach(self, machine: "Machine") -> None:
        """Schedule one CALLBACK per kernel fault; no other footprint."""
        self.machine = machine
        for index, spec in enumerate(self.plan.faults):
            if spec.kind not in KERNEL_KINDS:
                continue  # harness/live faults belong to other layers
            machine.events.schedule(
                seconds_to_cycles(spec.at_s),
                EventKind.CALLBACK,
                partial(_fire_cb, injector=self, index=index),
            )

    # -- event emission ----------------------------------------------------------

    def on_fault(self, ev: FaultEvent) -> None:
        self.log.append(
            {
                "t_s": round(cycles_to_seconds(ev.t), 6),
                "kind": ev.kind,
                "target": ev.target,
                "outcome": ev.outcome,
                "detail": ev.detail,
            }
        )

    def _emit(self, ev: FaultEvent) -> None:
        """Deliver through the pipeline (this injector's ``on_fault`` too)."""
        self.machine.probes.emit_fault(ev)

    # -- reporting ---------------------------------------------------------------

    def summary(self) -> dict:
        """Injection counts and the event log, for results and the CLI."""
        injected = [e for e in self.log if e["outcome"] == "injected"]
        by_kind: dict[str, int] = {}
        for entry in injected:
            by_kind[entry["kind"]] = by_kind.get(entry["kind"], 0) + 1
        return {
            "plan": self.plan.name,
            "injected": len(injected),
            "skipped": len(self.log) - len(injected),
            "by_kind": by_kind,
            "log": list(self.log),
        }

    def _record(self, spec: FaultSpec, t: int, outcome: str, detail: str) -> None:
        self._emit(FaultEvent(t, spec.kind, spec.target, outcome, detail))

    # -- firing ------------------------------------------------------------------

    def _fire(self, index: int, t: int) -> None:
        spec = self.plan.faults[index]
        handler = getattr(self, f"_do_{spec.kind}")
        handler(spec, index, t)

    def _rng(self, index: int) -> random.Random:
        return random.Random(f"{self.plan.seed}/{index}")

    def _victims(
        self, spec: FaultSpec, index: int, predicate=None
    ) -> list["Task"]:
        assert self.machine is not None
        pool = [
            task
            for task in self.machine.live_tasks()
            if fnmatch.fnmatchcase(task.name, spec.target or "*")
            and (predicate is None or predicate(task))
        ]
        pool.sort(key=lambda task: (task.name, task.pid))
        if not pool:
            return []
        want = min(max(1, spec.count), len(pool))
        return self._rng(index).sample(pool, want)

    def _cpu_of(self, task: "Task") -> Optional["CPU"]:
        assert self.machine is not None
        for cpu in self.machine.cpus:
            if cpu.current is task:
                return cpu
        return None

    def _unpark(self, task: "Task") -> None:
        """Unlink the task from whatever wait queue holds its node.

        Multi-parked ``select()`` entries carry no ``wait_node``; their
        stale queue entries are dropped lazily by ``collect_wakeable``
        once the task exits, or cleaned by the Select retry on wake.
        """
        node = task.wait_node
        if node is not None:
            queue = getattr(node, "queue", None)
            if queue is not None:
                queue.remove(task)
            else:
                task.wait_node = None

    # -- fault handlers ----------------------------------------------------------

    def _do_task_crash(self, spec: FaultSpec, index: int, t: int) -> None:
        machine = self.machine
        assert machine is not None
        victims = self._victims(spec, index)
        if not victims:
            self._record(spec, t, "skipped", "no matching live task")
            return
        for task in victims:
            cpu = self._cpu_of(task)
            if cpu is not None:
                machine._stop_current_run(cpu, t)
                machine._do_exit(task, t)
                machine._dispatch(cpu, t)
            else:
                self._unpark(task)
                machine._do_exit(task, t)
            self._record(spec, t, "injected", f"crashed {task.name}")

    def _do_task_hang(self, spec: FaultSpec, index: int, t: int) -> None:
        machine = self.machine
        assert machine is not None
        victims = self._victims(spec, index, predicate=lambda task: True)
        if not victims:
            self._record(spec, t, "skipped", "no matching live task")
            return
        for task in victims:
            cpu = self._cpu_of(task)
            if cpu is not None:
                machine._stop_current_run(cpu, t)
            self._unpark(task)
            # Leave the runqueue *before* the state flip so no scan ever
            # sees a non-runnable task on the queue.
            machine.scheduler.del_from_runqueue(task)
            task.state = TaskState.UNINTERRUPTIBLE
            if spec.duration_s > 0:
                machine.events.schedule(
                    t + seconds_to_cycles(spec.duration_s),
                    EventKind.TIMER,
                    task,
                )
            if cpu is not None:
                machine._dispatch(cpu, t)
            self._record(
                spec,
                t,
                "injected",
                f"hung {task.name}"
                + (f" for {spec.duration_s}s" if spec.duration_s else " forever"),
            )

    def _do_task_livelock(self, spec: FaultSpec, index: int, t: int) -> None:
        machine = self.machine
        assert machine is not None
        burn = seconds_to_cycles(max(spec.duration_s, 0.001))
        victims = self._victims(
            spec, index, predicate=lambda task: isinstance(task.current_action, Run)
        )
        if not victims:
            self._record(spec, t, "skipped", "no task with a Run in flight")
            return
        for task in victims:
            cpu = self._cpu_of(task)
            if cpu is not None:
                machine._stop_current_run(cpu, t)
            action = task.current_action
            if not isinstance(action, Run):
                # _stop_current_run retired a just-finished run; give the
                # victim a fresh burn instead.
                task.current_action = Run(burn)
            else:
                action.remaining += burn
            if cpu is not None:
                machine._dispatch(cpu, t)
            self._record(
                spec, t, "injected", f"livelocked {task.name} for {burn} cycles"
            )

    def _do_spurious_wakeup(self, spec: FaultSpec, index: int, t: int) -> None:
        machine = self.machine
        assert machine is not None
        victims = self._victims(
            spec,
            index,
            predicate=lambda task: task.state in _BLOCKED and not task.has_cpu,
        )
        if not victims:
            self._record(spec, t, "skipped", "no blocked task to wake")
            return
        for task in victims:
            self._unpark(task)
            machine.wake_up_process(task, t, machine.cpus[0])
            self._record(spec, t, "injected", f"spuriously woke {task.name}")

    def _do_clock_skew(self, spec: FaultSpec, index: int, t: int) -> None:
        machine = self.machine
        assert machine is not None
        delta = seconds_to_cycles(spec.skew_s)
        moved = 0
        events = machine.events
        for event in events.pending(EventKind.TIMER):
            event.cancel()
            events.schedule(max(t, event.time + delta), EventKind.TIMER, event.payload)
            moved += 1
        outcome = "injected" if moved else "skipped"
        self._record(spec, t, outcome, f"shifted {moved} timers by {spec.skew_s}s")

    def _do_lock_stretch(self, spec: FaultSpec, index: int, t: int) -> None:
        machine = self.machine
        assert machine is not None
        original = machine.cost
        stretched = max(1, int(original.lock_acquire * spec.factor))
        machine.cost = replace(original, lock_acquire=stretched)
        if spec.duration_s > 0:
            machine.events.schedule(
                t + seconds_to_cycles(spec.duration_s),
                EventKind.CALLBACK,
                partial(_restore_cost_cb, injector=self, cost=original),
            )
        self._record(
            spec,
            t,
            "injected",
            f"lock_acquire {original.lock_acquire} -> {stretched}",
        )

    def _pick_cpu(self, spec: FaultSpec, index: int) -> Optional["CPU"]:
        machine = self.machine
        assert machine is not None
        if 0 <= spec.cpu < len(machine.cpus):
            return machine.cpus[spec.cpu]
        if spec.cpu >= len(machine.cpus):
            return None
        return self._rng(index).choice(machine.cpus)

    def _do_cpu_stall(self, spec: FaultSpec, index: int, t: int) -> None:
        machine = self.machine
        assert machine is not None
        cpu = self._pick_cpu(spec, index)
        if cpu is None or cpu.offline:
            self._record(spec, t, "skipped", "no such CPU or already offline")
            return
        machine._stop_current_run(cpu, t)
        cpu.cancel_tick()
        cpu.offline = True
        machine.events.schedule(
            t + seconds_to_cycles(max(spec.duration_s, 0.0001)),
            EventKind.CALLBACK,
            partial(_cpu_resume_cb, injector=self, cpu=cpu),
        )
        self._record(
            spec, t, "injected", f"stalled cpu{cpu.cpu_id} for {spec.duration_s}s"
        )

    def _do_cpu_offline(self, spec: FaultSpec, index: int, t: int) -> None:
        machine = self.machine
        assert machine is not None
        cpu = self._pick_cpu(spec, index)
        if cpu is None or cpu.offline:
            self._record(spec, t, "skipped", "no such CPU or already offline")
            return
        online = [c for c in machine.cpus if not c.offline]
        if len(online) <= 1:
            self._record(spec, t, "skipped", "refusing to offline the last CPU")
            return
        machine._stop_current_run(cpu, t)
        cpu.cancel_tick()
        displaced = cpu.current
        cpu.offline = True
        if displaced is not cpu.idle_task:
            displaced.has_cpu = False
            cpu.current = cpu.idle_task
            cpu.idle_task.has_cpu = True
            cpu.idle_since = t
            # Re-file the task: policies like ELSC keep the picked task
            # "on the runqueue but off-list", so a plain displacement
            # would never be found by the scan again.
            machine.scheduler.del_from_runqueue(displaced)
            machine.scheduler.add_to_runqueue(displaced)
            machine._reschedule_idle(displaced, t)
        machine.events.schedule(
            t + seconds_to_cycles(max(spec.duration_s, 0.0001)),
            EventKind.CALLBACK,
            partial(_cpu_resume_cb, injector=self, cpu=cpu),
        )
        self._record(
            spec,
            t,
            "injected",
            f"offlined cpu{cpu.cpu_id} for {spec.duration_s}s"
            + (
                f", displaced {displaced.name}"
                if displaced is not cpu.idle_task
                else ""
            ),
        )


# CALLBACK payloads are invoked as payload(machine, event); module-level
# functions keep them picklable-shaped and out of the per-event closure.


def _fire_cb(machine, event, injector: FaultInjector, index: int) -> None:
    injector._fire(index, event.time)


def _restore_cost_cb(machine, event, injector: FaultInjector, cost) -> None:
    machine.cost = cost
    injector._emit(
        FaultEvent(
            event.time,
            "lock_stretch",
            "",
            "restored",
            f"lock_acquire back to {cost.lock_acquire}",
        )
    )


def _cpu_resume_cb(machine, event, injector: FaultInjector, cpu) -> None:
    cpu.offline = False
    machine._dispatch(cpu, event.time)
    injector._emit(
        FaultEvent(
            event.time, "cpu_online", "", "restored", f"cpu{cpu.cpu_id} back online"
        )
    )
