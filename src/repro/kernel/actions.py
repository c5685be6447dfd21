"""The action vocabulary task bodies yield to the kernel.

A task body is a Python generator.  Each ``yield`` hands the kernel an
:class:`Action` describing what the task wants to do next; the kernel
charges time, blocks and wakes tasks, and resumes the generator when the
action completes (sending back a value for receiving actions).

Example body::

    def worker(env):
        yield env.run(us=50)            # burn 50 µs of CPU
        msg = yield env.get(inbox)      # block until a message arrives
        yield env.put(outbox, msg)      # may block if outbox is full
        yield env.sched_yield()         # sys_sched_yield()

Actions are deliberately dumb data objects — all semantics live in the
machine — so workloads stay declarative and testable.

The machine dispatches on an action's exact type, so the classes below
are the whole vocabulary: an instance of a subclass (of :class:`Run` or
any other) is an "unknown action" error, not the action it extends.  No
subclass exists in the package, its tests, examples or benchmarks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .sync import Channel
    from .waitqueue import WaitQueue

__all__ = [
    "Action",
    "Run",
    "ChannelPut",
    "ChannelGet",
    "CloseChannel",
    "SleepFor",
    "YieldCPU",
    "Exit",
    "Select",
    "WaitOn",
    "WakeUp",
]


class Action:
    """Base class for everything a task body may yield."""

    __slots__ = ()


class Run(Action):
    """Execute on the CPU for ``cycles`` cycles of useful work.

    The kernel may preempt a run (tick, quantum expiry, higher-priority
    wakeup); ``remaining`` tracks the unexecuted balance across
    preemptions.  A task whose previous dispatch migrated it across CPUs
    pays the cache-refill penalty at the start of its next run.
    """

    __slots__ = ("cycles", "remaining")

    def __init__(self, cycles: int) -> None:
        if cycles <= 0:
            raise ValueError(f"Run wants positive cycles, got {cycles}")
        self.cycles = cycles
        self.remaining = cycles

    def __repr__(self) -> str:
        return f"Run({self.remaining}/{self.cycles})"


class ChannelPut(Action):
    """Deposit ``item`` into ``channel``; blocks while the channel is full."""

    __slots__ = ("channel", "item")

    def __init__(self, channel: "Channel", item: Any) -> None:
        self.channel = channel
        self.item = item

    def __repr__(self) -> str:
        return f"ChannelPut({self.channel.name})"


class ChannelGet(Action):
    """Take one item from ``channel``; blocks while it is empty.

    The received item is delivered as the value of the ``yield``.
    """

    __slots__ = ("channel",)

    def __init__(self, channel: "Channel") -> None:
        self.channel = channel

    def __repr__(self) -> str:
        return f"ChannelGet({self.channel.name})"


class CloseChannel(Action):
    """Close ``channel`` and deliver EOF to everyone blocked on it.

    A bare ``Channel.close()`` only flips the flag — readers that are
    *already parked* (plain gets and multi-parked ``select()``\\ s alike)
    would sleep forever on a half-closed session.  Closing through the
    kernel wakes them so their retry observes ``CLOSED``.
    """

    __slots__ = ("channel",)

    def __init__(self, channel: "Channel") -> None:
        self.channel = channel

    def __repr__(self) -> str:
        return f"CloseChannel({self.channel.name})"


class SleepFor(Action):
    """Block for a fixed amount of virtual time (a timer sleep)."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int) -> None:
        if cycles <= 0:
            raise ValueError(f"SleepFor wants positive cycles, got {cycles}")
        self.cycles = cycles

    def __repr__(self) -> str:
        return f"SleepFor({self.cycles})"


class YieldCPU(Action):
    """``sys_sched_yield()``: set SCHED_YIELD and re-enter the scheduler."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "YieldCPU()"


class Exit(Action):
    """Terminate the task (equivalent to returning from the body)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Exit()"


class Select(Action):
    """Block until any of several channels has an item; take it.

    The multiplexing primitive the paper's section 4 wishes Java had
    ("Multiplexing I/O system calls (such as select) can help in some
    situations, but they are not always available").  The yield's value
    is ``(channel, item)`` for whichever channel delivered first.
    """

    __slots__ = ("channels",)

    def __init__(self, channels: list) -> None:
        if not channels:
            raise ValueError("Select needs at least one channel")
        self.channels = list(channels)

    def __repr__(self) -> str:
        names = ",".join(c.name for c in self.channels[:4])
        suffix = ",…" if len(self.channels) > 4 else ""
        return f"Select({names}{suffix})"


class WaitOn(Action):
    """Low-level: park on a wait queue until somebody wakes it.

    Building block for locks and condition-variable patterns; most
    workloads use channels instead.
    """

    __slots__ = ("waitqueue", "exclusive")

    def __init__(self, waitqueue: "WaitQueue", exclusive: bool = False) -> None:
        self.waitqueue = waitqueue
        self.exclusive = exclusive

    def __repr__(self) -> str:
        return f"WaitOn({self.waitqueue.name})"


class WakeUp(Action):
    """Low-level: wake tasks parked on a wait queue (instantaneous)."""

    __slots__ = ("waitqueue", "nr_exclusive")

    def __init__(self, waitqueue: "WaitQueue", nr_exclusive: int = 1) -> None:
        self.waitqueue = waitqueue
        self.nr_exclusive = nr_exclusive

    def __repr__(self) -> str:
        return f"WakeUp({self.waitqueue.name})"
