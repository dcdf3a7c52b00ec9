"""Simulation outputs: per-job and per-workflow records plus usage traces."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from repro.model.job import JobKind


@dataclass(frozen=True)
class JobRecord:
    """Lifecycle of one job as observed by the engine.

    Completion happens at the *end* of ``completion_slot``; a job meets a
    deadline ``d`` iff ``completion_slot < d`` (slot indices, deadline
    exclusive).  ``completion_slot`` is None when the simulation ended first.
    """

    job_id: str
    kind: JobKind
    workflow_id: Optional[str]
    arrival_slot: int
    ready_slot: Optional[int]
    completion_slot: Optional[int]
    true_units: int
    est_units: int

    @property
    def completed(self) -> bool:
        return self.completion_slot is not None

    def turnaround_slots(self) -> Optional[int]:
        if self.completion_slot is None:
            return None
        return self.completion_slot + 1 - self.arrival_slot


@dataclass(frozen=True)
class WorkflowRecord:
    workflow_id: str
    start_slot: int
    deadline_slot: int
    completion_slot: Optional[int]

    @property
    def met_deadline(self) -> Optional[bool]:
        if self.completion_slot is None:
            return None
        return self.completion_slot < self.deadline_slot


@dataclass
class SimulationResult:
    """Everything a simulation run produced.

    Attributes:
        slot_seconds: wall-clock length of one slot.
        n_slots: number of slots simulated.
        finished: True when all jobs completed before ``max_slots``.
        jobs: per-job records.
        workflows: per-workflow records.
        usage: ``[n_slots, n_resources]`` resources actually consumed.
        granted: same shape; resources granted by the scheduler (the gap to
            ``usage`` is waste from over-granting or unready jobs).
        resources: resource-name order of the usage columns.
    """

    slot_seconds: float
    n_slots: int
    finished: bool
    jobs: Mapping[str, JobRecord]
    workflows: Mapping[str, WorkflowRecord]
    usage: np.ndarray
    granted: np.ndarray
    resources: tuple[str, ...]
    scheduler_name: str = ""
    #: Scheduler decide calls, one per *executed* slot: ``n_slots`` minus
    #: the idle-gap slots the run loop skipped (``sim.slots.skipped``).
    planning_calls: int = 0
    planning_seconds: float = 0.0
    #: Per-slot executed task units per job (only when the simulation ran
    #: with ``record_execution=True``; empty otherwise).
    execution: tuple = ()
    #: Granted task units that failed node-level placement over the whole
    #: run (0 unless the simulation had a ``node_cluster``).
    fragmentation_waste_units: int = 0
    #: Snapshot of the run's observability registry (phase timing
    #: histograms like ``sim.slot``/``sched.decide``, counters, gauges) —
    #: see :meth:`repro.obs.MetricsRegistry.snapshot` for the shape.
    metrics: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    #: The :class:`repro.verify.VerificationReport` of a ``verify=True``
    #: run (None otherwise; typed loosely because the verify package
    #: depends on this module).
    verification: object | None = None

    def phase_stats(self, name: str) -> Optional[Mapping[str, float]]:
        """Timing-histogram snapshot of one phase (``None`` if unrecorded)."""
        stats = self.metrics.get(name)
        if stats is None or stats.get("type") != "histogram":
            return None
        return stats

    def counter_value(self, name: str, default: float = 0.0) -> float:
        """One counter's or gauge's recorded value (``default`` if absent)."""
        stats = self.metrics.get(name)
        if stats is None or stats.get("type") not in ("counter", "gauge"):
            return default
        return float(stats.get("value", default))

    def seconds(self, slots: int) -> float:
        return slots * self.slot_seconds

    def jobs_of_kind(self, kind: JobKind) -> list[JobRecord]:
        return [rec for rec in self.jobs.values() if rec.kind is kind]
