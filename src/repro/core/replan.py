"""Incremental re-planning support: plan requests, fingerprints, plan cache.

FlowTime re-solves the lexicographic-minimax LP every time the deadline-job
mix changes (Sec. V/VI), and the LP is the scalability bottleneck (Fig. 7).
Consecutive solves are highly redundant in practice: recurring workflows
(Sec. I — "typically recurring, running on a daily, weekly or monthly
basis") present the *same* remaining-demand shape at the same relative
offsets every period, and most re-plan triggers change a single job.

This module keeps the planner's hot path incremental:

* :class:`PlanRequest` — one value object carrying everything a plan needs
  (now, demands, capacity).
* :func:`PlanRequest.fingerprint` — a canonical, time-shift-invariant key
  of (remaining demands, windows, capacity skyline).  A cache belongs to
  one planner and so to one config, which the key leaves out.  Demands are
  anonymised (job ids dropped, windows made relative to *now*) so the i-th
  instance of a recurring workflow hits the cache entries primed by the
  (i-1)-th, exactly the amortisation Morpheus (OSDI '16) argues for.
* :class:`PlanCache` — a bounded LRU from fingerprint to the solved plan.
  A hit skips the LP ladder entirely; the stored grant rows are re-keyed to
  the requesting jobs' ids and re-anchored at the new origin slot.

Cache *correctness* relies on the planner being a deterministic function of
the fingerprint's inputs: two requests with equal fingerprints see
byte-identical LP data, so the cold solve would return the same plan (the
plan-equivalence tests pin this down).  Jobs that tie on the anonymous key
are interchangeable by construction — same window, work, shape and
parallelism — and are assigned rows in a deterministic (key, job_id) order.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from repro.core.allocation import AllocationPlan
from repro.core.placement import JobDemand
from repro.model.cluster import ClusterCapacity

__all__ = ["CachedPlan", "PlanCache", "PlanRequest"]


def _demand_key(demand: JobDemand, now_slot: int) -> tuple:
    """Anonymous, sortable, time-relative identity of one demand.

    Matches exactly what the planner's window preparation consumes: the
    effective relative release (clamped at 0 like
    ``entries_from_demands``), the relative deadline, remaining units, the
    per-unit resource shape, and the parallelism bound.  The job id is deliberately absent.
    """
    return (
        max(demand.release_slot - now_slot, 0),
        demand.deadline_slot - now_slot,
        demand.units,
        tuple(sorted(demand.unit_demand.items())),
        demand.max_parallel,
    )


def _capacity_key(capacity: ClusterCapacity, now_slot: int) -> tuple:
    """Time-relative capacity identity: base plus future overrides.

    Overrides strictly before *now* can never be read by a plan anchored at
    *now* (the caps array samples ``now + k`` for ``k >= 0``), so dropping
    them keeps steady-state fingerprints equal across periods.
    """
    overrides = tuple(
        sorted(
            (slot - now_slot, tuple(sorted(cap.items())))
            for slot, cap in capacity.overrides.items()
            if slot >= now_slot
        )
    )
    return (tuple(sorted(capacity.base.items())), overrides)


@dataclass(frozen=True)
class PlanRequest:
    """Everything one planning round needs, as a single value object.

    Attributes:
        now_slot: absolute slot the plan is anchored at.
        demands: remaining demands of the live deadline jobs.
        capacity: the cluster's (possibly time-varying) capacity.
    """

    now_slot: int
    demands: tuple[JobDemand, ...]
    capacity: ClusterCapacity

    def __post_init__(self) -> None:
        if not isinstance(self.demands, tuple):
            object.__setattr__(self, "demands", tuple(self.demands))

    def fingerprint(self) -> Hashable:
        """Canonical cache key of the request."""
        return (
            tuple(sorted(_demand_key(d, self.now_slot) for d in self.demands)),
            _capacity_key(self.capacity, self.now_slot),
        )

    def canonical_demands(self) -> list[JobDemand]:
        """Demands in deterministic (anonymous key, job_id) order.

        This is the row order of :class:`CachedPlan` grant arrays; ties on
        the anonymous key are interchangeable jobs, so breaking them by id
        keeps materialisation deterministic without affecting feasibility.
        """
        return sorted(
            self.demands, key=lambda d: (_demand_key(d, self.now_slot), d.job_id)
        )


@dataclass(frozen=True)
class CachedPlan:
    """One solved plan in anonymous, origin-free form."""

    horizon: int
    grant_rows: tuple[np.ndarray, ...]
    degraded: bool
    minimax: float

    @staticmethod
    def from_plan(plan: AllocationPlan, request: PlanRequest) -> "CachedPlan":
        rows = []
        for demand in request.canonical_demands():
            grant = plan.grants.get(demand.job_id)
            if grant is None:
                grant = np.zeros(plan.horizon, dtype=int)
            rows.append(np.array(grant, dtype=int, copy=True))
        return CachedPlan(
            horizon=plan.horizon,
            grant_rows=tuple(rows),
            degraded=plan.degraded,
            minimax=plan.minimax,
        )

    def materialise(self, request: PlanRequest) -> AllocationPlan:
        """Re-key the stored rows to the requesting jobs, anchored at now."""
        ordered = request.canonical_demands()
        if len(ordered) != len(self.grant_rows):  # defensive: fingerprint bug
            raise ValueError(
                f"cached plan has {len(self.grant_rows)} rows for "
                f"{len(ordered)} demands"
            )
        return AllocationPlan(
            origin_slot=request.now_slot,
            horizon=self.horizon,
            resources=request.capacity.resources,
            grants={
                demand.job_id: row.copy()
                for demand, row in zip(ordered, self.grant_rows)
            },
            unit_demands={d.job_id: d.unit_demand for d in request.demands},
            degraded=self.degraded,
            minimax=self.minimax,
        )


@dataclass
class PlanCache:
    """Bounded LRU of solved plans keyed by request fingerprint."""

    maxsize: int = 128
    hits: int = 0
    misses: int = 0
    _entries: "OrderedDict[Hashable, CachedPlan]" = field(
        default_factory=OrderedDict, repr=False
    )

    def __post_init__(self) -> None:
        if self.maxsize < 1:
            raise ValueError("plan cache maxsize must be >= 1")

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> CachedPlan | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Hashable, plan: CachedPlan) -> None:
        self._entries[key] = plan
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
