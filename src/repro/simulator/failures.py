"""Failure injection.

Real clusters lose containers: a node reboots, a task is preempted by a
higher-priority tenant, an executor OOMs.  In the slot/work-unit model this
appears as a *progress setback* — some executed task-slots must be redone
(work since the last materialised output is lost).  Schedulers observe the
setback only through the job's grown remaining work (and a
:class:`~repro.model.events.JobSetback` event so planners re-plan), which is
exactly the robustness surface the paper's dynamic re-planning claims to
cover for estimation errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class FailureModel:
    """Per-slot random progress setbacks (each field's ``help`` says what it
    sets): independent per job and slot, at the end of a slot the job
    executed work in, never more units than it has executed, and
    deterministic per ``seed``."""

    setback_prob: float = field(default=0.0, metadata={
        "flag": "--setback-prob", "metavar": "P",
        "help": "per-job/slot probability of a progress setback (lost work)",
    })
    max_setback_units: int = field(default=4, metadata={
        "flag": "--max-setback", "metavar": "UNITS",
        "help": "a setback destroys 1..UNITS executed task-slots (uniform)",
    })
    seed: int = field(default=0, metadata={
        "flag": "--fault-seed", "help": "seed for setback and duration-error draws",
    })

    def __post_init__(self) -> None:
        if not 0.0 <= self.setback_prob <= 1.0:
            raise ValueError("setback_prob must be in [0, 1]")
        if self.max_setback_units < 1:
            raise ValueError("max_setback_units must be >= 1")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def roll(self, rng: np.random.Generator, executed_units: int) -> int:
        """Units of progress lost by one job this slot (0 = no failure)."""
        if self.setback_prob <= 0.0 or executed_units <= 0:
            return 0
        if rng.random() >= self.setback_prob:
            return 0
        lost = int(rng.integers(1, self.max_setback_units + 1))
        return min(lost, executed_units)
