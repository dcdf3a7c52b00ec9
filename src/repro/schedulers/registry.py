"""Scheduler registry: the one construction path for schedulers by name.

``make_scheduler(name, **opts)`` is what the CLI, the experiment harness,
and the examples use; :func:`register_scheduler` lets extensions (or tests)
add policies without editing any of them — ``--scheduler`` accepts whatever
is registered at parse time.
"""

from __future__ import annotations

from typing import Callable

from repro.core.placement import PlannerConfig
from repro.estimation.history import RunHistory
from repro.schedulers.base import Scheduler
from repro.schedulers.cora import CoraScheduler
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.fair import FairScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.flowtime_sched import FlowTimeScheduler
from repro.schedulers.morpheus import MorpheusScheduler


def _flowtime(**kwargs) -> Scheduler:
    return FlowTimeScheduler(PlannerConfig(**kwargs.pop("planner", {})), **kwargs)


def _flowtime_no_ds(**kwargs) -> Scheduler:
    planner = dict(kwargs.pop("planner", {}))
    planner["slack_slots"] = 0
    scheduler = FlowTimeScheduler(PlannerConfig(**planner), **kwargs)
    scheduler.name = "FlowTime_no_ds"
    return scheduler


_FACTORIES: dict[str, Callable[..., Scheduler]] = {
    "FlowTime": _flowtime,
    "FlowTime_no_ds": _flowtime_no_ds,
    "CORA": lambda **kw: CoraScheduler(**kw),
    "EDF": lambda **kw: EdfScheduler(**kw),
    "Fair": lambda **kw: FairScheduler(**kw),
    "FIFO": lambda **kw: FifoScheduler(**kw),
    "Morpheus": lambda **kw: MorpheusScheduler(**kw),
}

#: The Fig. 4 legend plus the FlowTime_no_ds ablation.  Frozen at
#: import time; use :func:`available_schedulers` for the live list.
SCHEDULER_NAMES: tuple[str, ...] = tuple(_FACTORIES)


def available_schedulers() -> tuple[str, ...]:
    """Every currently registered scheduler name (registration order)."""
    return tuple(_FACTORIES)


def register_scheduler(
    name: str,
    factory: Callable[..., Scheduler],
    *,
    overwrite: bool = False,
) -> None:
    """Register a scheduler factory under *name*.

    The factory is called as ``factory(**kwargs)`` by
    :func:`make_scheduler`; registered names immediately work everywhere a
    scheduler is named (CLI ``--scheduler``, ``run_comparison``, ...).

    Raises:
        ValueError: *name* is already registered and ``overwrite`` is False.
    """
    if name in _FACTORIES and not overwrite:
        raise ValueError(
            f"scheduler {name!r} is already registered "
            "(pass overwrite=True to replace it)"
        )
    _FACTORIES[name] = factory


def unregister_scheduler(name: str) -> None:
    """Remove a registered scheduler (built-ins included; mostly for tests)."""
    try:
        del _FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown scheduler {name!r}") from None


def make_scheduler(name: str, *, history: RunHistory | None = None, **kwargs) -> Scheduler:
    """Build a fresh scheduler by name ("FlowTime", "CORA", "EDF", ...).

    ``history`` is forwarded to schedulers that learn from prior runs
    (Morpheus); other schedulers ignore it.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; available: {sorted(_FACTORIES)}"
        ) from None
    if name == "Morpheus":
        kwargs.setdefault("history", history)
    return factory(**kwargs)
