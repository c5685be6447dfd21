"""Schedulers: the interface, the stock baseline, and alternative designs."""

from .base import ProbeHost, SchedDecision, Scheduler
from .goodness import (
    dynamic_bonus,
    goodness,
    preemption_goodness,
    prev_goodness,
    static_goodness,
)
from .cfs import CFSScheduler
from .heap import HeapScheduler
from .multiqueue import MultiQueueScheduler
from .o1 import O1Scheduler
from .registry import (
    SchedulerInfo,
    all_schedulers,
    alias_map,
    create,
    register_scheduler,
    resolve,
    scheduler_names,
)
from .stats import SchedStats
from .vanilla import VanillaScheduler

__all__ = [
    "SchedDecision",
    "Scheduler",
    "ProbeHost",
    "SchedStats",
    "SchedulerInfo",
    "register_scheduler",
    "resolve",
    "create",
    "all_schedulers",
    "scheduler_names",
    "alias_map",
    "VanillaScheduler",
    "HeapScheduler",
    "CFSScheduler",
    "MultiQueueScheduler",
    "O1Scheduler",
    "goodness",
    "prev_goodness",
    "preemption_goodness",
    "dynamic_bonus",
    "static_goodness",
]
