"""Admission control for deadline workflows (a Rayon-flavoured extension).

Rayon [4] — one of the paper's baselines' ancestors — admits a job only if
its reservation fits alongside existing commitments.  The same question is
well-posed for FlowTime: *given the deadline work already committed, can a
newly submitted workflow's decomposed windows still be honoured?*  That is
a feasibility question over the coupled placement polytope (``y[i,t]``
task-slots of job ``i`` in slot ``t``, every resource's row
``sum_i d[i,r]*y[i,t] <= C[t,r]``), and it is answered by one of two exact
methods, chosen from the input alone:

* **flow** — when one resource ``r*`` *binds* (for every job ``i``, every
  other resource ``r`` and every slot ``t`` of the horizon,
  ``d[i,r]*C[t,r*] <= d[i,r*]*C[t,r]``), each ``r``-row is implied by the
  ``r*``-row, and the substitution ``z = d[i,r*]*y`` turns the problem into
  the integral transportation network of Lemma 2.  One integer max-flow
  saturates every job's supply iff the set is feasible — integer equality,
  no tolerance.
* **lp** — otherwise (genuinely multi-dimensional packing) the
  max-placement LP from the planner: relax every demand to ``<=`` and
  maximise total placement; any shortfall is work that provably cannot fit
  before its deadline.  It is also the reference the flow is tested against.

This module is an extension beyond the paper (which assumes all workflows
are admitted) and is what an operator would bolt on to avoid accepting
workloads that are doomed to miss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import maximum_flow

from repro.core.decomposition import decompose_deadline
from repro.core.decomposition_types import JobWindow
from repro.core.flowtime import JobDemand, PlannerConfig, caps_array
from repro.core.lp_formulation import ScheduleEntry, build_schedule_problem
from repro.lp.problem import LinearProgram
from repro.lp.solver import solve_lp
from repro.model.cluster import ClusterCapacity
from repro.model.workflow import Workflow
from repro.obs import current_obs

__all__ = ["AdmissionDecision", "check_admission"]

#: scipy's max-flow carries int32 capacities.
_INT32_MAX = 2**31 - 1
#: An LP-route job is short when it misses more than this share of its units.
_LP_SHORT_TOL = 1e-6


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of an admission check.

    Attributes:
        admit: True when every job (existing and new) can still meet its
            window.
        shortfall_units: per-job task-slots that cannot be placed before
            the job's deadline (empty when ``admit``).  One witness: which
            jobs of an over-full set come up short is not unique.
        utilisation: the max normalised load of the witness placement the
            check found (a capacity-headroom signal even for admitted
            workflows).
        windows: the candidate's decomposed per-job windows — the ones the
            verdict is about, so the ones to commit on ``admit``.
        route: which method answered, ``"flow"`` or ``"lp"``.
    """

    admit: bool
    shortfall_units: Mapping[str, int]
    utilisation: float
    windows: Mapping[str, JobWindow] = field(default_factory=dict)
    route: Literal["flow", "lp"] = "lp"

    @property
    def total_shortfall(self) -> int:
        return sum(self.shortfall_units.values())


def check_admission(
    new_workflow: Workflow,
    existing_demands: Sequence[JobDemand],
    capacity: ClusterCapacity,
    now_slot: int,
    *,
    config: PlannerConfig | None = None,
    cluster_aware: bool = True,
) -> AdmissionDecision:
    """Would admitting *new_workflow* keep every deadline feasible?

    Args:
        new_workflow: the candidate workflow (its deadline windows are
            decomposed here, once; the decision carries them back).
        existing_demands: remaining demands of already-admitted deadline
            jobs (what :meth:`FlowTimeScheduler._demands` tracks).
        capacity: the cluster.
        now_slot: current slot (windows before it are clamped).
        config: planner configuration (slack etc.) used to shape windows.
        cluster_aware: how to decompose the candidate (see
            :func:`~repro.core.decomposition.decompose_deadline`).

    The check is exact for the coupled formulation on either route: the
    joint windows either hold all the work (admit) or a shortfall is
    certified.
    """
    obs = current_obs()
    with obs.span("admission.check"):
        decision = _check_admission(
            new_workflow,
            existing_demands,
            capacity,
            now_slot,
            config or PlannerConfig(),
            cluster_aware,
        )
    obs.counter(f"admission.route.{decision.route}").inc()
    if decision.admit:
        obs.counter("admission.accepted").inc()
        obs.event(
            "admission_accept",
            workflow_id=new_workflow.workflow_id,
            slot=now_slot,
            utilisation=decision.utilisation,
            route=decision.route,
        )
    else:
        obs.counter("admission.rejected").inc()
        obs.event(
            "admission_reject",
            workflow_id=new_workflow.workflow_id,
            slot=now_slot,
            shortfall_units=decision.total_shortfall,
            utilisation=decision.utilisation,
            route=decision.route,
        )
    return decision


def _check_admission(
    new_workflow: Workflow,
    existing_demands: Sequence[JobDemand],
    capacity: ClusterCapacity,
    now_slot: int,
    config: PlannerConfig,
    cluster_aware: bool,
) -> AdmissionDecision:
    windows = decompose_deadline(
        new_workflow, capacity, cluster_aware=cluster_aware
    ).windows
    demands = list(existing_demands)
    for job in new_workflow.jobs:
        window = windows[job.job_id]
        demands.append(
            JobDemand(
                job_id=job.job_id,
                release_slot=window.release_slot,
                deadline_slot=window.deadline_slot,
                units=job.tasks.total_task_slots,
                unit_demand=job.tasks.demand,
                max_parallel=job.tasks.count,
            )
        )
    entries = _admission_entries(demands, now_slot, config.slack_slots)
    horizon = max(entry.deadline for entry in entries)
    caps = caps_array(capacity, now_slot, horizon)
    resources = capacity.resources

    placement, route = None, "flow"
    binding = _binding_resource(entries, caps, resources)
    if binding is not None:
        placement = _place_by_flow(entries, caps[:, binding], resources[binding])
    if placement is None:
        placement, route = _place_by_lp(entries, caps, resources), "lp"
    shortfalls, utilisation = placement
    return AdmissionDecision(
        admit=not shortfalls,
        shortfall_units=shortfalls,
        utilisation=utilisation,
        windows=windows,
        route=route,
    )


def _admission_entries(
    demands: Sequence[JobDemand], now_slot: int, slack: int
) -> list[ScheduleEntry]:
    """The demands as plan-relative, slack-shaved windows.

    Unlike the planner, admission must NOT repair infeasible windows — a
    window too small for its own work is precisely a reason to reject.
    """
    entries = []
    for demand in demands:
        release = max(demand.release_slot - now_slot, 0)
        deadline = demand.deadline_slot - now_slot
        if slack and deadline - slack > release:
            deadline -= slack
        deadline = max(deadline, release + 1)
        entries.append(
            ScheduleEntry(
                job_id=demand.job_id,
                release=release,
                deadline=deadline,
                units=demand.units,
                unit_demand=demand.unit_demand,
                max_parallel=demand.max_parallel,
            )
        )
    return entries


def _binding_resource(
    entries: Sequence[ScheduleEntry], caps: np.ndarray, resources: Sequence[str]
) -> int | None:
    """Index of a resource whose capacity row implies every other one's.

    ``r*`` binds when every job demands it and, for every job ``i``,
    resource ``r`` and slot ``t``, ``d[i,r]*C[t,r*] <= d[i,r*]*C[t,r]``:
    any per-slot placement within ``C[t,r*]`` is then within ``C[t,r]``
    too.  Evaluated over the distinct demand vectors and capacity rows (a
    handful of each), in Python integers so no product overflows.
    """
    vectors = {entry.unit_demand for entry in entries}
    known = set(resources)
    if not all(known.issuperset(vector) for vector in vectors):
        return None  # the LP route names the unknown resource
    demand_rows = [[vector[name] for name in resources] for vector in vectors]
    cap_rows = set(map(tuple, caps.astype(np.int64).tolist()))
    columns = range(len(resources))
    for star in columns:
        if all(
            d[star] > 0 and d[r] * c[star] <= d[star] * c[r]
            for d in demand_rows
            for c in cap_rows
            for r in columns
        ):
            return star
    return None


def _place_by_flow(
    entries: Sequence[ScheduleEntry], slot_caps: np.ndarray, resource: str
) -> tuple[dict[str, int], float] | None:
    """Max-placement as one integer max-flow on the binding *resource*.

    Network, in units of that resource: source -> job ``units*d``, job ->
    each slot of its window ``min(max_parallel, units)*d``, slot -> sink
    ``slot_caps[t]``.  Returns ``(shortfall_units, utilisation)`` like
    :func:`_place_by_lp`, or None when the total supply does not fit the
    solver's int32 capacities.
    """
    n = len(entries)
    horizon = slot_caps.size
    release, deadline, units, parallel, demand = np.array(
        [
            (e.release, e.deadline, e.units, e.max_parallel, e.unit_demand[resource])
            for e in entries
        ],
        dtype=np.int64,
    ).T
    supply = units * demand
    total = int(supply.sum())
    if total > _INT32_MAX:
        return None
    window = deadline - release
    # One arc per (job, slot of its window), job-major: exactly CSR order.
    first_arc = np.cumsum(window) - window
    arc_slot = np.arange(window.sum()) - np.repeat(first_arc - release, window)
    # No slot can carry more than everything there is to place.
    sink_caps = np.minimum(slot_caps.astype(np.int64), total)

    # Nodes: 0 = source, 1..n = jobs, then the horizon's slots, then sink.
    sink = 1 + n + horizon
    row_len = np.concatenate([[n], window, np.ones(horizon, dtype=np.int64), [0]])
    graph = sparse.csr_matrix(
        (
            np.concatenate(
                [supply, np.repeat(np.minimum(parallel, units) * demand, window), sink_caps]
            ).astype(np.int32),
            np.concatenate(
                [np.arange(1, n + 1), 1 + n + arc_slot, np.full(horizon, sink)]
            ).astype(np.int32),
            np.concatenate([[0], np.cumsum(row_len)]).astype(np.int32),
        ),
        shape=(sink + 1, sink + 1),
    )
    result = maximum_flow(graph, 0, sink)

    shortfalls: dict[str, int] = {}
    if result.flow_value != total:
        missing = supply - result.flow[0, 1 : n + 1].toarray().ravel()
        for index in np.flatnonzero(missing):
            # Task-slots that cannot complete: ceil(missing / d).
            shortfalls[entries[index].job_id] = int(
                -(-missing[index] // demand[index])
            )
    # The flow matrix is antisymmetric: the sink's row holds minus each
    # slot's load.  Every other resource's utilisation is dominated by the
    # binding one's, so this is the max over resources too.
    loads = -result.flow[sink, 1 + n : sink].toarray().ravel()
    open_slots = slot_caps > 0
    utilisation = float(
        (loads[open_slots] / slot_caps[open_slots]).max(initial=0.0)
    )
    return shortfalls, utilisation


def _place_by_lp(
    entries: Sequence[ScheduleEntry], caps: np.ndarray, resources: Sequence[str]
) -> tuple[dict[str, int], float]:
    """Max-placement LP over the coupled formulation: ``(shortfall_units,
    utilisation)`` of its optimum."""
    problem = build_schedule_problem(
        entries, caps, resources, mode="coupled", per_slot_caps=True
    )

    cap_rows = problem.cell_caps()
    lp = LinearProgram(
        c=-np.ones(problem.n_vars),
        a_ub=sparse.vstack([problem.a_util, problem.a_eq]).tocsr(),
        b_ub=np.concatenate([cap_rows, problem.b_eq]),
        lb=np.zeros(problem.n_vars),
        ub=problem.var_ub,
    )
    sol = solve_lp(lp, tag="admission")
    x = sol.require_optimal()
    placed = np.asarray(problem.a_eq @ x).ravel()

    shortfalls: dict[str, int] = {}
    for entry, got, want in zip(problem.entries, placed, problem.b_eq):
        tolerance = _LP_SHORT_TOL * want
        if want - got > tolerance:
            shortfalls[entry.job_id] = math.ceil(want - got - tolerance)

    loads = np.asarray(problem.a_util @ x).ravel()
    utilisation = float((loads / np.maximum(cap_rows, 1e-12)).max(initial=0.0))
    return shortfalls, utilisation
