"""API v2 lifecycle hooks and the :class:`ProbeHost` protocol.

The contract under test: a scheduler that overrides ``on_fork`` /
``on_exit`` / ``on_tick`` sees every corresponding event on both hosts
(the discrete-event :class:`Machine` and the live
:class:`SchedulerExecutor`), while a scheduler that keeps the defaults
costs the hosts nothing — hook dispatch is detected per *class* at bind
time, not tested per event.
"""

from __future__ import annotations

from repro import ClutchScheduler, Machine, Task, VanillaScheduler
from repro.sched.base import ProbeHost, Scheduler
from repro.serve import SchedulerExecutor


class RecordingScheduler(VanillaScheduler):
    """Vanilla policy plus a log of every hook delivery."""

    name = "recording"

    def __init__(self) -> None:
        super().__init__()
        self.events: list[tuple] = []

    def on_fork(self, task: Task) -> None:
        self.events.append(("fork", task.name))

    def on_exit(self, task: Task) -> None:
        self.events.append(("exit", task.name))

    def on_tick(self, task: Task, cpu_id: int) -> None:
        self.events.append(("tick", task.name, cpu_id))


class TestHookDetection:
    def test_default_hooks_are_not_dispatched(self):
        machine = Machine(VanillaScheduler(), num_cpus=1, smp=False)
        assert not machine._hook_tick
        assert not machine._hook_fork
        assert not machine._hook_exit

    def test_overridden_hooks_are_dispatched(self):
        machine = Machine(RecordingScheduler(), num_cpus=1, smp=False)
        assert machine._hook_tick
        assert machine._hook_fork
        assert machine._hook_exit

    def test_clutch_only_overrides_on_tick(self):
        machine = Machine(ClutchScheduler(), num_cpus=1, smp=False)
        assert machine._hook_tick
        assert not machine._hook_fork
        assert not machine._hook_exit


class TestMachineHooks:
    def test_fork_exit_and_tick_fire_over_a_run(self):
        sched = RecordingScheduler()
        machine = Machine(sched, num_cpus=1, smp=False)

        def body(api):
            yield api.run(seconds=0.05)

        machine.spawn(body, name="worker")
        machine.run(until_seconds=1.0)
        kinds = [e[0] for e in sched.events]
        assert ("fork", "worker") in sched.events
        assert ("exit", "worker") in sched.events
        assert kinds.index("fork") < kinds.index("exit")
        assert any(e[0] == "tick" and e[1] == "worker" for e in sched.events)

    def test_fork_precedes_first_wakeup(self):
        sched = RecordingScheduler()
        machine = Machine(sched, num_cpus=1, smp=False)

        def body(api):
            yield api.run(seconds=0.01)

        task = machine.spawn(body, name="w")
        # spawn() fires the hook synchronously, before run() starts.
        assert sched.events[0] == ("fork", "w")
        assert task.on_runqueue()


class TestExecutorHooks:
    def test_register_deregister_and_charge_fire_hooks(self):
        sched = RecordingScheduler()
        executor = SchedulerExecutor(sched, num_cpus=1, smp=False)
        task = executor.register("h0")
        assert ("fork", "h0") in sched.events
        executor.ready(task)
        picked = executor.pick()
        assert picked is task
        executor.charge_slice(picked)
        assert ("tick", "h0", picked.processor) in sched.events
        executor.release(picked, blocked=True)
        executor.deregister(task)
        assert ("exit", "h0") in sched.events

    def test_rebuild_redetects_hooks(self):
        executor = SchedulerExecutor(
            VanillaScheduler(), factory=RecordingScheduler
        )
        assert not executor._hook_tick
        executor.rebuild()
        assert executor._hook_tick and executor._hook_fork


class TestProbeHost:
    def test_machine_satisfies_the_protocol(self):
        machine = Machine(VanillaScheduler(), num_cpus=1, smp=False)
        assert isinstance(machine, ProbeHost)

    def test_executor_satisfies_the_protocol(self):
        executor = SchedulerExecutor(VanillaScheduler())
        assert isinstance(executor, ProbeHost)
        assert executor.scheduler.machine is executor


class TestDefaults:
    def test_task_group_defaults_to_mm_else_pid(self):
        from repro.kernel.mm import MMStruct

        sched = VanillaScheduler()
        mm = MMStruct()
        grouped = Task(name="g", mm=mm)
        loner = Task(name="l")
        assert sched.task_group(grouped) is grouped.mm
        assert sched.task_group(loner) == loner.pid

    def test_per_cpu_queue_lens_defaults_to_the_flat_queue(self):
        sched = VanillaScheduler()
        Machine(sched, num_cpus=1, smp=False)
        assert sched.per_cpu_queue_lens() == [sched.runqueue_len()]

    def test_default_hooks_are_callable_no_ops(self):
        sched = VanillaScheduler()
        Machine(sched, num_cpus=1, smp=False)
        task = Task(name="t")
        assert sched.on_tick(task, 0) is None
        assert sched.on_fork(task) is None
        assert sched.on_exit(task) is None
        assert type(sched).on_tick is Scheduler.on_tick
