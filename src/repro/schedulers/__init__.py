"""Schedulers: FlowTime and the paper's baselines.

All schedulers implement :class:`~repro.schedulers.base.Scheduler` and are
constructed per simulation run.  :func:`make_scheduler` builds one by name —
the names match the paper's Fig. 4 legend.
"""

from repro.schedulers.base import Assignment, Scheduler
from repro.schedulers.cora import CoraScheduler
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.fair import FairScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.flowtime_sched import FlowTimeScheduler
from repro.schedulers.morpheus import MorpheusScheduler
from repro.schedulers.registry import (
    SCHEDULER_NAMES,
    available_schedulers,
    make_scheduler,
    register_scheduler,
    unregister_scheduler,
)

__all__ = [
    "Assignment",
    "CoraScheduler",
    "EdfScheduler",
    "FairScheduler",
    "FifoScheduler",
    "FlowTimeScheduler",
    "MorpheusScheduler",
    "SCHEDULER_NAMES",
    "Scheduler",
    "available_schedulers",
    "make_scheduler",
    "register_scheduler",
    "unregister_scheduler",
]
