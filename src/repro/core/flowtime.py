"""The FlowTime planner: decomposed windows in, executable plan out.

This is the paper's Sec. V/VI engine.  Every time the job mix changes (a job
arrives, becomes ready, or completes) the scheduler calls :meth:`plan` with
the *remaining* demands of all live deadline-aware jobs.  The planner:

1. applies the **deadline slack** (Sec. VII-2) and repairs per-job
   infeasibility (overdue jobs, windows too small for the remaining work) —
   :func:`~repro.core.placement.entries_from_demands`, the
   dynamic-replanning answer to estimation errors;
2. solves the lexicographic minimax LP (Sec. V-B) to get the flattest
   possible deadline-work skyline, so ad-hoc jobs get the most leftover
   capacity as early as possible;
3. re-quantises to an integral plan; if the LP is infeasible even after
   relaxing all windows (the cluster is over-committed) it degrades to EDF
   water-filling rather than failing.

The planner has no simulator state and no clocks: it maps a
:class:`~repro.core.replan.PlanRequest` (now, demands, capacity) to an
:class:`~repro.core.allocation.AllocationPlan`.  Because that mapping is
deterministic, the planner always memoises it — a fingerprint-keyed plan
cache skips the LP for repeated job mixes (recurring workflows), and the
previous solve's skyline warm-starts the lexmin ladder on near-identical
ones; see :mod:`repro.core.replan`.  There is no switch: the cold ladder
(a fresh planner per request) is the tests' oracle, not a product path.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import replace
from typing import Iterator

import numpy as np

from repro.core.allocation import (
    AllocationPlan,
    IntegralizationError,
    greedy_fill,
    quantize_coupled,
)
from repro.core.lexmin import LexminWarmHint, lexmin_schedule
from repro.core.lp_formulation import ScheduleEntry, build_schedule_problem
from repro.core.placement import (
    DemandTable,
    PlannerConfig,
    caps_array,
    entries_from_demands,
    max_placement,
)
from repro.core.replan import CachedPlan, PlanCache, PlanRequest
from repro.lp.solver import SolverFailure
from repro.obs import current_obs


def _clamp(entries: list[ScheduleEntry], horizon: int) -> list[ScheduleEntry]:
    """Entries with their windows cut to ``[0, horizon)``."""
    return [
        replace(
            e,
            release=min(e.release, horizon - 1),
            deadline=min(max(e.deadline, e.release + 1), horizon),
        )
        for e in entries
    ]


def _extend_short_windows(
    entries: list[ScheduleEntry], caps: np.ndarray, resources, config: PlannerConfig
) -> list[ScheduleEntry]:
    """Extend only the windows that provably cannot hold their work.

    Each job's shortfall is the work :func:`max_placement` could not place
    under the current windows and *caps*; such a job's deadline is pushed
    out just far enough to absorb it at full parallelism, everyone else
    keeps their window.
    """
    try:
        short, _, _ = max_placement(
            entries,
            caps,
            resources,
            tag="relax",
            time_budget_s=config.solve_budget_s,
        )
    except SolverFailure:
        # Window relaxation is best-effort triage: without the shortfall
        # oracle we keep the windows as-is and let the ladder's blanket
        # stretch (or degraded mode) take over.
        return entries
    return [
        replace(
            e, deadline=e.deadline + math.ceil(short[e.job_id] / e.max_parallel) + 1
        )
        if e.job_id in short
        else e
        for e in entries
    ]


class FlowTimePlanner:
    """Planner mapping live demands to an allocation plan.

    The planner remains a *pure function* of its inputs — it maps a
    :class:`~repro.core.replan.PlanRequest` to the same
    :class:`~repro.core.allocation.AllocationPlan` a fresh instance would
    produce — but it carries two pieces of memoisation state to keep the
    re-planning hot path incremental: a fingerprint-keyed
    :class:`~repro.core.replan.PlanCache` (identical plans are reused
    outright) and the previous solve's utilisation skyline (used to
    warm-start the lexmin ladder on near-identical job mixes).  Both are
    always on and transparent: a fresh planner per request (the cold
    ladder, which the tests keep as their oracle) plans the same.
    """

    def __init__(self, config: PlannerConfig | None = None):
        self.config = config or PlannerConfig()
        self.plan_cache = PlanCache()
        # Previous solve's skyline in absolute coordinates: (resources,
        # theta, absolute slot / r_index / utilisation of every cell).
        self._skyline: tuple | None = None
        self._highs: dict = {}  # the HiGHS instances its ladders reuse

    # -- planning ----------------------------------------------------------------

    def plan(self, request: PlanRequest) -> AllocationPlan:
        """Compute an integral allocation plan for the live deadline jobs.

        Returns an :class:`AllocationPlan` anchored at the request's
        ``now_slot``.  When there are no demands the plan is empty
        (everything goes to ad-hoc jobs).  ``plan.degraded`` is True when
        the LP was infeasible even with relaxed windows and EDF
        water-filling was used.
        """
        obs = current_obs()
        with obs.span("sched.plan"):
            key = request.fingerprint()
            cached = self.plan_cache.get(key)
            if cached is not None:
                obs.counter("sched.plan.cache.hit").inc()
                return cached.materialise(request)
            obs.counter("sched.plan.cache.miss").inc()
            plan = self._plan(request)
            self.plan_cache.put(key, CachedPlan.from_plan(plan, request))
            return plan

    # -- warm-start memory -------------------------------------------------------

    def _warm_hint(
        self, now_slot: int, resources: tuple[str, ...]
    ) -> LexminWarmHint | None:
        """Previous skyline re-anchored at ``now_slot``, if compatible."""
        if self._skyline is None:
            return None
        stored_resources, theta, slots, r_index, levels = self._skyline
        if stored_resources != resources:
            return None
        keep = slots >= now_slot
        if not keep.any():
            return None
        relative = slots[keep] - now_slot
        dense = np.full((int(relative.max()) + 1, len(resources)), np.nan)
        dense[relative, r_index[keep]] = levels[keep]
        return LexminWarmHint(theta=theta, levels=dense)

    def _plan(self, request: PlanRequest) -> AllocationPlan:
        config = self.config
        now_slot = request.now_slot
        capacity = request.capacity
        resources = capacity.resources
        if not request.demands:
            return AllocationPlan.empty(now_slot, 1, resources)

        demands = DemandTable.of(request.demands)  # once, for both window sets
        plain = entries_from_demands(demands, now_slot, 0, repair=True)
        horizon = max(entry.deadline for entry in plain)
        stretched = int(horizon * 3 / 2) + 1

        def ladder() -> Iterator[tuple[int, list[ScheduleEntry], int]]:
            """The relaxation ladder as ``(rung, entries, horizon)``.

            It is lazy: a rung is built, and its max-placement solved,
            only once every rung before it has failed, so a plan that fits
            its windows costs one problem build and no max-placement.
            In order: 0 the slacked windows; 1 the plain windows; 2 and 3
            only the windows :func:`max_placement` proves cannot hold their
            work, extended once and then once more (optimal triage:
            feasible jobs keep their urgency, like EDF sacrificing the
            least-urgent work, but chosen by the optimum); 4 everything
            stretched.  A relax-everything jump would schedule like there
            were no deadlines at all.
            """
            if config.slack_slots:
                slacked = entries_from_demands(
                    demands, now_slot, config.slack_slots, repair=True
                )
                yield 0, _clamp(slacked, horizon), horizon
            relaxed, relaxed_horizon = _clamp(plain, horizon), horizon
            yield 1, relaxed, relaxed_horizon
            for rung in (2, 3):
                relaxed = _extend_short_windows(
                    relaxed,
                    caps_array(capacity, now_slot, relaxed_horizon),
                    resources,
                    config,
                )
                relaxed_horizon = max(relaxed_horizon, *(e.deadline for e in relaxed))
                yield rung, relaxed, relaxed_horizon
            everyone = [replace(e, deadline=stretched) for e in _clamp(plain, stretched)]
            yield 4, everyone, stretched

        obs = current_obs()
        # The stored skyline came from whichever rung produced the last
        # plan — almost always the first — so only the first rung can
        # meaningfully reuse it; relaxed rungs see different windows.
        hint = self._warm_hint(now_slot, resources)
        failed = None
        for rung, entries, rung_horizon in ladder():
            if (entries, rung_horizon) == failed:
                # A relaxation that changed no window (a slack that shaved
                # nothing) is the LP that just failed: same answer.
                continue
            problem = build_schedule_problem(
                entries, caps_array(capacity, now_slot, rung_horizon), resources
            )
            result = lexmin_schedule(
                problem,
                max_rounds=config.max_lexmin_rounds,
                front_load=config.front_load,
                warm_hint=hint,
                solve_budget_s=config.solve_budget_s,
                instances=self._highs,
            )
            hint = None
            grants = None
            if result.is_optimal:
                with suppress(IntegralizationError):
                    grants = quantize_coupled(problem, result.x)
            if grants is None:
                if not result.warm:  # a cold re-solve could still differ
                    failed = (entries, rung_horizon)
                continue
            obs.counter(f"sched.plan.rung.{rung}").inc()
            if result.warm:
                obs.counter("sched.plan.warm").inc()
            cells = problem.cell_array()  # the skyline, in absolute coordinates
            self._skyline = (
                resources,
                result.minimax,
                now_slot + cells[:, 0],
                cells[:, 1],
                result.utilisation,
            )
            return AllocationPlan(
                origin_slot=now_slot,
                horizon=rung_horizon,
                resources=resources,
                grants=grants,
                unit_demands={e.job_id: e.unit_demand for e in entries},
                degraded=False,
                minimax=result.minimax,
            )

        # The cluster is over-committed beyond what window relaxation can
        # absorb: EDF water-filling over the *original* windows keeps the
        # most urgent work first and always makes progress.
        obs.counter("sched.plan.degraded").inc()
        caps = caps_array(capacity, now_slot, stretched)
        grants = greedy_fill(_clamp(plain, stretched), caps, resources)
        return AllocationPlan(
            origin_slot=now_slot,
            horizon=stretched,
            resources=resources,
            grants=grants,
            unit_demands={e.job_id: e.unit_demand for e in plain},
            degraded=True,
        )

