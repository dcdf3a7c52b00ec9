"""Estimation-error injection (Sec. III, "robustness to estimation errors").

"The input data or the code may have changed in different runs of the same
jobs, which will lead to estimation errors ... Both underestimations or
overestimations are possible."  We reproduce this by keeping the scheduler's
*believed* task structure (``Job.tasks``) and replacing the structure the
simulator *executes* (``Job.true_tasks``) with a perturbed copy: a
multiplicative factor on task duration (the dominant error source for
recurring jobs — input sizes drift, code changes).

``factor > 1`` means the job truly runs longer than estimated
(underestimation by the scheduler); ``factor < 1`` the opposite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from repro.model.job import Job, TaskSpec
from repro.model.workflow import Workflow


@dataclass(frozen=True)
class ErrorModel:
    """Multiplicative duration error: true = estimate * factor.

    Factors are drawn uniformly from ``[low, high]`` per job.  ``low == high``
    gives a deterministic sweep point (e.g. the 1.3x underestimation of the
    EXT-1 experiment).
    """

    low: float = field(default=1.0, metadata={
        "flag": "--error-low", "metavar": "FACTOR",
        "help": "lower bound of the multiplicative duration-error factor "
        "(true = estimate * factor)",
    })
    high: float = field(default=1.0, metadata={
        "flag": "--error-high", "metavar": "FACTOR",
        "help": "upper bound of the duration-error factor",
    })

    def __post_init__(self) -> None:
        if not 0.0 < self.low <= self.high:
            raise ValueError(f"need 0 < low <= high, got [{self.low}, {self.high}]")

    def draw(self, rng: np.random.Generator) -> float:
        if self.low == self.high:
            return self.low
        return float(rng.uniform(self.low, self.high))


def perturb_spec(spec: TaskSpec, factor: float) -> TaskSpec:
    """True task structure after a duration error of *factor*."""
    duration = max(int(round(spec.duration_slots * factor)), 1)
    return TaskSpec(count=spec.count, duration_slots=duration, demand=spec.demand)


def apply_estimation_errors(
    jobs: Iterable[Job], model: ErrorModel, *, seed: int = 0
) -> list[Job]:
    """Return copies of *jobs* whose true structure deviates per *model*."""
    rng = np.random.default_rng(seed)
    out = []
    for job in jobs:
        factor = model.draw(rng)
        out.append(replace(job, true_tasks=perturb_spec(job.tasks, factor)))
    return out


def apply_workflow_estimation_errors(
    workflow: Workflow, model: ErrorModel, *, seed: int = 0
) -> Workflow:
    """A workflow whose jobs truly run per *model* while estimates stay put."""
    perturbed = apply_estimation_errors(workflow.jobs, model, seed=seed)
    return replace(workflow, jobs=tuple(perturbed))
