"""The single scheduler registry every layer consumes.

Before this module existed, knowing "which schedulers are there, and
what does ``'multiqueue'`` mean?" required three separate tables —
``harness/registry.py``, the CLI alias map, and per-layer copies in
the benchmark and ``scenario``.  Now a scheduler module declares itself
once::

    @register_scheduler("clutch", aliases=("sched_clutch",),
                        summary="XNU-Clutch-style hierarchy")
    class ClutchScheduler(Scheduler):
        name = "clutch"
        ...

and the CLI vocabulary, the scenario catalogue, the serve executor,
and the cluster config all see it automatically via
:func:`all_schedulers` / :func:`resolve` / :func:`create`.

Capability flags (``uses_global_lock``, ``per_cpu_queues``,
``hierarchical``) are read off the class at registration time and
carried in the :class:`SchedulerInfo` record so layers can reason
about a policy ("does this serialise on the global lock?") without
instantiating it.

Registration order is **not** presentation order: modules may be
imported in any order (``repro.sched`` imports alphabetically, the
harness imports by dependency), so :func:`scheduler_names` returns the
pinned :data:`_PREFERRED_ORDER` first — keeping CLI vocabularies and
catalogue listings stable — with any out-of-tree registrations
sorted alphabetically after.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Type

from .base import Scheduler

__all__ = [
    "SchedulerInfo",
    "register_scheduler",
    "resolve",
    "get",
    "create",
    "all_schedulers",
    "scheduler_names",
    "alias_map",
]


@dataclass(frozen=True)
class SchedulerInfo:
    """One registered scheduling policy: identity, factory, capabilities."""

    #: Canonical short name ("reg", "elsc", "clutch", …).
    name: str
    #: The scheduler class (callable with no required arguments).
    factory: Type[Scheduler]
    #: Accepted synonyms, resolved to :attr:`name` everywhere.
    aliases: tuple = ()
    #: One-line human description for listings and docs.
    summary: str = ""
    #: Capability flags, read off the class at registration time.
    uses_global_lock: bool = True
    per_cpu_queues: bool = False
    hierarchical: bool = False


#: Canonical name -> info, in registration order (presentation order is
#: :data:`_PREFERRED_ORDER`; see :func:`scheduler_names`).
_REGISTRY: dict[str, SchedulerInfo] = {}

#: Alias -> canonical name.
_ALIASES: dict[str, str] = {}

#: Pinned presentation order for the in-tree policies.  Names not
#: listed here (out-of-tree registrations) sort alphabetically after.
_PREFERRED_ORDER = (
    "reg",
    "elsc",
    "heap",
    "mq",
    "o1",
    "cfs",
    "clutch",
    "relaxed_mq",
)

_LOADED = False


def register_scheduler(
    name: str,
    aliases: tuple = (),
    summary: str = "",
) -> Callable[[Type[Scheduler]], Type[Scheduler]]:
    """Class decorator registering a :class:`Scheduler` under ``name``.

    Collisions — a second registration of the same name, or an alias
    that shadows a canonical name or another alias — raise
    ``ValueError`` immediately, at import time, so a typo can't
    silently hijack an existing policy.
    """

    def _decorate(cls: Type[Scheduler]) -> Type[Scheduler]:
        if name in _REGISTRY:
            raise ValueError(f"scheduler {name!r} already registered")
        if name in _ALIASES:
            raise ValueError(
                f"scheduler name {name!r} collides with an alias for "
                f"{_ALIASES[name]!r}"
            )
        for alias in aliases:
            if alias in _REGISTRY:
                raise ValueError(
                    f"alias {alias!r} collides with registered "
                    f"scheduler {alias!r}"
                )
            if alias in _ALIASES:
                raise ValueError(
                    f"alias {alias!r} already maps to {_ALIASES[alias]!r}"
                )
        info = SchedulerInfo(
            name=name,
            factory=cls,
            aliases=tuple(aliases),
            summary=summary,
            uses_global_lock=bool(getattr(cls, "uses_global_lock", True)),
            per_cpu_queues=bool(getattr(cls, "per_cpu_queues", False)),
            hierarchical=bool(getattr(cls, "hierarchical", False)),
        )
        _REGISTRY[name] = info
        for alias in aliases:
            _ALIASES[alias] = name
        return cls

    return _decorate


def _ensure_loaded() -> None:
    """Import every in-tree scheduler module (idempotent).

    Registration happens as a side effect of importing the module that
    defines the class, so any entry point that consults the registry
    first must pull the in-tree set in.
    """
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    # Import order is irrelevant to presentation order (see
    # _PREFERRED_ORDER) — listed by dependency layer for clarity.
    from . import cfs, clutch, heap, multiqueue, o1, relaxed_mq, vanilla  # noqa: F401
    from ..core import elsc  # noqa: F401


def resolve(name: str) -> str:
    """Canonical scheduler name for ``name`` (aliases resolved).

    Raises ``KeyError`` with the full vocabulary for an unknown name.
    """
    _ensure_loaded()
    canonical = _ALIASES.get(name, name)
    if canonical not in _REGISTRY:
        raise KeyError(
            f"unknown scheduler {name!r}; choose from "
            f"{scheduler_names() + sorted(_ALIASES)}"
        )
    return canonical


def get(name: str) -> SchedulerInfo:
    """The :class:`SchedulerInfo` for ``name`` (aliases accepted)."""
    return all_schedulers()[resolve(name)]


def create(name: str, **kwargs) -> Scheduler:
    """Instantiate the scheduler registered under ``name``."""
    return get(name).factory(**kwargs)


def scheduler_names() -> list[str]:
    """Canonical names in pinned presentation order.

    In-tree policies come first in :data:`_PREFERRED_ORDER`; anything
    registered from outside the tree sorts alphabetically after, so
    matrix hashes and listings don't depend on import order.
    """
    _ensure_loaded()
    known = [n for n in _PREFERRED_ORDER if n in _REGISTRY]
    extras = sorted(n for n in _REGISTRY if n not in _PREFERRED_ORDER)
    return known + extras


def all_schedulers() -> dict[str, SchedulerInfo]:
    """Every registered policy, canonical name -> info, in presentation
    order."""
    _ensure_loaded()
    return {n: _REGISTRY[n] for n in scheduler_names()}


def alias_map() -> dict[str, str]:
    """Alias -> canonical name, for vocabulary listings."""
    _ensure_loaded()
    return dict(sorted(_ALIASES.items()))
