"""Integral allocation plans and quantisation of fractional LP solutions.

Lemma 2 of the paper guarantees integral vertex optima for the *paper*
formulation.  After the iterative lexmin rounds (whose frozen caps
``theta* C`` are fractional) and in the *coupled* formulation, solutions can
come back fractional, so this module re-quantises them:

* floor every variable (always feasible: loads only go down);
* hand each job's leftover units back one at a time, preferring the slots
  with the largest fractional parts (keeps the shape of the LP optimum);
* if a unit fits nowhere, try a one-step relocation (move another job's
  unit out of a candidate slot);
* if that fails too, raise :class:`IntegralizationError` — callers fall
  back to :func:`greedy_fill`, an EDF water-filling that is always feasible
  but does not preserve the balanced skyline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.lp_formulation import ScheduleEntry, ScheduleProblem
from repro.model.resources import ResourceVector


class IntegralizationError(RuntimeError):
    """Raised when greedy rounding plus relocation cannot place all units."""


@dataclass
class AllocationPlan:
    """An integral, executable allocation over a planning horizon.

    ``grants[job_id][k]`` is the number of task-slot units granted to the
    job in absolute slot ``origin_slot + k``.  ``unit_demands[job_id]`` is
    the per-task-slot resource vector, so the resource grant in a slot is
    ``grants * unit_demand``.
    """

    origin_slot: int
    horizon: int
    resources: tuple[str, ...]
    grants: dict[str, np.ndarray]
    unit_demands: dict[str, ResourceVector]
    degraded: bool = False
    minimax: float = float("nan")

    def units_for(self, job_id: str, abs_slot: int) -> int:
        offset = abs_slot - self.origin_slot
        grant = self.grants.get(job_id)
        if grant is None or not 0 <= offset < self.horizon:
            return 0
        return int(grant[offset])

    def resources_for(self, job_id: str, abs_slot: int) -> ResourceVector:
        units = self.units_for(job_id, abs_slot)
        if units == 0:
            return ResourceVector()
        return self.unit_demands[job_id] * units

    def load(self, abs_slot: int) -> ResourceVector:
        """Total deadline-work resource usage planned for a slot."""
        total = ResourceVector()
        for job_id in self.grants:
            total = total + self.resources_for(job_id, abs_slot)
        return total

    def total_units(self, job_id: str) -> int:
        grant = self.grants.get(job_id)
        return int(grant.sum()) if grant is not None else 0

    @staticmethod
    def empty(origin_slot: int, horizon: int, resources: Sequence[str]) -> "AllocationPlan":
        return AllocationPlan(
            origin_slot=origin_slot,
            horizon=max(horizon, 1),
            resources=tuple(resources),
            grants={},
            unit_demands={},
        )


def _residual_ok(
    residual: np.ndarray, slot: int, demand: ResourceVector, r_index: Mapping[str, int]
) -> bool:
    return all(
        residual[slot, r_index[name]] >= amount for name, amount in demand.items()
    )


def _apply(
    residual: np.ndarray,
    slot: int,
    demand: ResourceVector,
    r_index: Mapping[str, int],
    sign: int,
) -> None:
    for name, amount in demand.items():
        residual[slot, r_index[name]] -= sign * amount


def quantize_coupled(problem: ScheduleProblem, x: np.ndarray) -> dict[str, np.ndarray]:
    """Round a fractional coupled-mode solution to integral task-slot grants.

    Returns ``job_id -> int array over [0, horizon)`` whose row sums equal
    each entry's ``units`` and whose aggregate load respects the capacity
    skyline.  Raises :class:`IntegralizationError` when no integral
    completion is found (callers fall back to :func:`greedy_fill`).
    """
    if problem.mode != "coupled":
        raise ValueError("quantize_coupled requires a coupled-mode problem")
    horizon = problem.horizon
    r_index = {name: k for k, name in enumerate(problem.resources)}
    residual = problem.caps.astype(float).copy()

    # Reshape the flat variable vector into per-entry window arrays.  LP
    # solvers return values a hair outside [0, ub]; clip before rounding.
    frac_matrix = np.zeros((len(problem.entries), horizon))
    frac_matrix[problem.var_meta[:, 0], problem.var_meta[:, 1]] = np.maximum(
        np.asarray(x, dtype=float)[: problem.n_vars], 0.0
    )
    frac: list[np.ndarray] = list(frac_matrix)

    # Floor every variable (capped by the job's parallelism) and charge the
    # floored units to the residual capacity in one product: all amounts
    # are integers, so the sum is exact in any order.
    parallel_cap = np.array(
        [min(entry.max_parallel, entry.units) for entry in problem.entries]
    )
    floor_matrix = np.minimum(
        np.floor(frac_matrix + 1e-6).astype(int), parallel_cap[:, None]
    )
    unit_demand = np.array(
        [[entry.unit_demand[name] for name in problem.resources]
         for entry in problem.entries]
    )
    residual -= floor_matrix.T @ unit_demand
    grants = list(floor_matrix)

    if np.any(residual < -1e-6):
        raise IntegralizationError("floored solution exceeds capacity")
    residual = np.maximum(residual, 0.0)

    for e_index, entry in enumerate(problem.entries):
        remaining = entry.units - int(grants[e_index].sum())
        if remaining < 0:
            raise IntegralizationError(
                f"{entry.job_id}: floored grants exceed its demand"
            )
        cap = min(entry.max_parallel, entry.units)
        # Prefer slots with the largest fractional part; parts equal to 1e-9
        # keep slot order (an LP answer's last bits follow its basis).
        part = frac[e_index][entry.release : entry.deadline]
        part = np.round(part - np.floor(part + 1e-9), 9)
        order = (entry.release + np.argsort(-part, kind="stable")).tolist()

        def try_place(slot: int) -> bool:
            if grants[e_index][slot] >= cap:
                return False
            if not _residual_ok(residual, slot, entry.unit_demand, r_index):
                return False
            grants[e_index][slot] += 1
            _apply(residual, slot, entry.unit_demand, r_index, +1)
            return True

        # Pass 1 — ideal rounding: at most one extra unit per slot (each
        # slot's fractional remainder is < 1), keeping the LP's shape.
        for slot in order:
            if remaining == 0:
                break
            if try_place(slot):
                remaining -= 1
        # Pass 2 — spill anywhere in the window, relocating other jobs'
        # units when a slot has parallelism headroom but no capacity.
        while remaining > 0:
            placed = False
            for slot in order:
                if try_place(slot):
                    remaining -= 1
                    placed = True
                    break
            if placed:
                continue
            if _relocate_one(problem, grants, residual, e_index, r_index):
                continue
            raise IntegralizationError(
                f"could not place {remaining} units of {entry.job_id}"
            )

    return {
        entry.job_id: grants[e_index]
        for e_index, entry in enumerate(problem.entries)
    }


def _relocate_one(
    problem: ScheduleProblem,
    grants: list[np.ndarray],
    residual: np.ndarray,
    needy: int,
    r_index: Mapping[str, int],
) -> bool:
    """Free room for one unit of entry *needy* by moving another job's unit.

    Scans the needy job's window for a slot where it still has parallelism
    headroom; for each such slot, looks for a different entry with a unit
    there that can move to another slot of its own window.  Returns True if
    a relocation was performed (the caller retries the placement).
    """
    entry = problem.entries[needy]
    cap = min(entry.max_parallel, entry.units)
    for slot in range(entry.release, entry.deadline):
        if grants[needy][slot] >= cap:
            continue
        for other_idx, other in enumerate(problem.entries):
            if other_idx == needy or grants[other_idx][slot] == 0:
                continue
            if not (other.release <= slot < other.deadline):
                continue
            other_cap = min(other.max_parallel, other.units)
            for target in range(other.release, other.deadline):
                if target == slot or grants[other_idx][target] >= other_cap:
                    continue
                if not _residual_ok(residual, target, other.unit_demand, r_index):
                    continue
                # Move one unit of `other` from `slot` to `target`.
                grants[other_idx][slot] -= 1
                _apply(residual, slot, other.unit_demand, r_index, -1)
                grants[other_idx][target] += 1
                _apply(residual, target, other.unit_demand, r_index, +1)
                if _residual_ok(residual, slot, entry.unit_demand, r_index):
                    return True
                # Not enough yet; keep the move (it freed capacity) and
                # let the outer loop continue searching.
    return False


def greedy_fill(
    entries: Sequence[ScheduleEntry],
    caps: np.ndarray,
    resources: Sequence[str],
    *,
    extend_past_deadline: bool = True,
) -> dict[str, np.ndarray]:
    """EDF water-filling fallback: always produces a feasible partial plan.

    Slots are processed in time order; in each slot released jobs are served
    in deadline order, each receiving as many task-slot units as parallelism
    and residual capacity allow.  With ``extend_past_deadline`` jobs keep
    receiving resources after their window (best effort — the cluster is
    over-committed if we got here); demand that still does not fit is left
    unplanned and re-attempted at the next re-plan.
    """
    caps = np.asarray(caps, dtype=float)
    horizon = caps.shape[0]
    r_index = {name: k for k, name in enumerate(resources)}
    residual = caps.copy()
    grants = {entry.job_id: np.zeros(horizon, dtype=int) for entry in entries}
    remaining = {entry.job_id: entry.units for entry in entries}
    ordered = sorted(entries, key=lambda e: (e.deadline, e.release, e.job_id))
    for slot in range(horizon):
        for entry in ordered:
            if remaining[entry.job_id] <= 0 or slot < entry.release:
                continue
            if not extend_past_deadline and slot >= entry.deadline:
                continue
            cap = min(entry.max_parallel, remaining[entry.job_id])
            for name, amount in entry.unit_demand.items():
                fit = int(residual[slot, r_index[name]] // amount)
                cap = min(cap, fit)
            units = max(cap, 0)
            if units:
                grants[entry.job_id][slot] += units
                remaining[entry.job_id] -= units
                _apply(residual, slot, entry.unit_demand * units, r_index, +1)
    return grants
