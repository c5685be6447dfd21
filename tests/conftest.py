"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Iterable

import pytest

from repro import (
    CFSScheduler,
    ELSCScheduler,
    HeapScheduler,
    Machine,
    MachineSpec,
    MultiQueueScheduler,
    O1Scheduler,
    Task,
    VanillaScheduler,
)

ALL_SCHEDULERS = [
    VanillaScheduler,
    ELSCScheduler,
    HeapScheduler,
    MultiQueueScheduler,
    O1Scheduler,
    CFSScheduler,
]

PAPER_SCHEDULERS = [VanillaScheduler, ELSCScheduler]


@pytest.fixture(params=PAPER_SCHEDULERS, ids=lambda f: f.name)
def paper_scheduler_factory(request):
    """The two schedulers the paper compares."""
    return request.param


@pytest.fixture(params=ALL_SCHEDULERS, ids=lambda f: f.name)
def any_scheduler_factory(request):
    """Every scheduler in the repository."""
    return request.param


@pytest.fixture
def up_machine():
    """A fresh UP machine factory: call with a scheduler instance."""

    def make(scheduler, **kwargs):
        return Machine(scheduler, num_cpus=1, smp=False, **kwargs)

    return make


def attach(machine: Machine, *tasks: Task) -> None:
    """Register hand-built tasks with a machine (for scheduler unit tests
    that drive the run-queue interface directly, without bodies)."""
    for task in tasks:
        machine._tasks[task.pid] = task
        machine._live_count += 1


def drive_until(machine: Machine, predicate, max_seconds: float = 10.0):
    """Run a machine until a predicate holds (checked between events)."""
    # The machine has no incremental-run API on purpose; tests that need
    # mid-flight checks use horizons.
    summary = machine.run(until_seconds=max_seconds)
    assert predicate(), "predicate still false after run"
    return summary


def spawn_counter_body(channel, count):
    """A task body that drains ``count`` items from ``channel``."""

    def body(env):
        for _ in range(count):
            yield env.get(channel)

    return body
