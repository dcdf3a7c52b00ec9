"""Slot-based cluster simulator.

The paper evaluated on an 80-node YARN deployment plus trace-driven
simulations; this package is the simulated substrate.  Time advances in
integral slots (the LP of Sec. V is slot-indexed; the deployment used 10 s
slots).  Each slot the engine (1) delivers events (arrivals, readiness,
completions) to the scheduler, (2) asks it for a resource assignment,
(3) validates the assignment against capacity, (4) executes tasks —
preemptible at slot boundaries with retained progress — and (5) records
metrics.

Schedulers only see :class:`~repro.simulator.view.ClusterView`, which hides
ad-hoc job sizes (they are best-effort and unknown at submission, Sec. II-A)
and exposes *estimated* structure for deadline jobs so estimation-error
experiments behave like the real system.
"""

from repro.simulator.engine import Simulation, SimulationConfig
from repro.simulator.failures import FailureModel
from repro.simulator.runtime import EngineCore, StepOutcome, make_engine_core
from repro.simulator.nodes import NodeCluster, PackResult
from repro.simulator.metrics import (
    adhoc_turnaround_seconds,
    deadline_deltas_seconds,
    missed_jobs,
    missed_workflows,
    utilization_timeline,
)
from repro.simulator.result import JobRecord, SimulationResult, WorkflowRecord
from repro.simulator.view import AdhocJobView, ClusterView, DeadlineJobView

__all__ = [
    "AdhocJobView",
    "ClusterView",
    "DeadlineJobView",
    "EngineCore",
    "FailureModel",
    "JobRecord",
    "NodeCluster",
    "PackResult",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "StepOutcome",
    "WorkflowRecord",
    "adhoc_turnaround_seconds",
    "make_engine_core",
    "deadline_deltas_seconds",
    "missed_jobs",
    "missed_workflows",
    "utilization_timeline",
]
