"""The placement kernel: demand -> window -> capacity -> "does this set fit?".

Admission and the planner's relaxation rungs ask one question of one
pipeline, and each step of it is written here once:

1. :class:`DemandTable` — the remaining work of live deadline jobs inside
   their decomposed windows, as integer columns (:class:`JobDemand` is one
   row as an object; :func:`demand_row` one row as the tuple the table takes);
2. :meth:`DemandTable.windowed` — the window rule: plan-relative windows,
   clamped at ``now``, shaved by the deadline slack (Sec. VII-2), and — for
   the planner only — repaired when too small for their own work
   (:func:`entries_from_demands` is the same rule, objects in and out);
3. :func:`caps_array` — the per-slot capacity matrix ``C[t, r]``;
4. :func:`max_placement` — the most work those windows can hold under those
   capacities, over the coupled polytope (``y[i,t]`` task-slots of job ``i``
   in slot ``t``, every row ``sum_i d[i,r]*y[i,t] <= C[t,r]``): one integer
   max-flow (scipy's ``maximum_flow``) when a resource binds
   (:func:`binding_resource`; Lemma 2's transportation network, integer
   equality, no tolerance), otherwise the max-placement LP, which is also the
   reference the flow is tested against.  The route is chosen from the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Iterable, Literal, Sequence

import numpy as np
from scipy import sparse

from repro.core.decomposition_types import JobWindow
from repro.core.lp_formulation import ScheduleEntry, build_schedule_problem
from repro.lp.problem import LinearProgram
from repro.lp.scipy_backend import scipy_extension
from repro.lp.solver import solve_lp
from repro.model.cluster import ClusterCapacity
from repro.model.job import TaskSpec
from repro.model.resources import ResourceVector

#: scipy's max-flow (int32 capacities), loaded without ``scipy.sparse.csgraph``.
maximum_flow = scipy_extension("scipy.sparse.csgraph._flow").maximum_flow
_INT32_MAX = 2**31 - 1
#: An LP-route job is short when it misses more than this share of its units.
_LP_SHORT_TOL = 1e-6


@dataclass(frozen=True)
class PlannerConfig:
    """Tunables of the FlowTime planner.

    Attributes:
        slack_slots: deadline slack in slots (the paper's default is 60 s =
            6 slots of 10 s).  0 disables slack (the Fig. 5 ablation).
        max_lexmin_rounds: minimax refinement rounds (None = exact lexmin;
            small values keep re-planning fast with near-identical plans).
        front_load: tie-break balanced optima toward earlier slots (see
            :func:`repro.core.lexmin.lexmin_schedule`); False is the
            paper-faithful behaviour where only the deadline slack guards
            against last-minute allocations.
        solve_budget_s: optional wall-time budget per LP solve (the solver
            guardrail).  A solve that exceeds it — or any solver fault —
            raises :class:`~repro.lp.solver.SolverFailure` out of
            :meth:`FlowTimePlanner.plan`; the FlowTime scheduler catches it
            and enters degraded mode.  None (default) never times out,
            which is the pre-guardrail behaviour.
    """

    slack_slots: int = 6
    max_lexmin_rounds: int | None = 4
    front_load: bool = True
    solve_budget_s: float | None = field(default=None, metadata={
        "flag": "--solve-budget", "type": float, "metavar": "SECONDS",
        "help": "per-LP-solve wall-time budget; a blown budget triggers the "
        "scheduler's degraded mode instead of stalling the loop (FlowTime only)",
    })

    def __post_init__(self) -> None:
        if self.slack_slots < 0:
            raise ValueError("slack_slots must be >= 0")


def demand_row(window: JobWindow, tasks: TaskSpec, units: int) -> tuple:
    """A :class:`DemandTable` row (:class:`JobDemand`'s fields, in order):
    *units* task-slots of a job with (estimated) structure *tasks*, due
    inside its decomposed *window*."""
    return (
        window.job_id, window.release_slot, window.deadline_slot, units, tasks.demand, tasks.count
    )


@dataclass(frozen=True)
class JobDemand:
    """Remaining demand of one live deadline-aware job (absolute slots)."""

    job_id: str
    release_slot: int
    deadline_slot: int
    units: int
    unit_demand: ResourceVector
    max_parallel: int

    @classmethod
    def in_window(cls, window: JobWindow, tasks: TaskSpec, units: int) -> "JobDemand":
        return cls(*demand_row(window, tasks, units))

    def min_slots_needed(self) -> int:
        return math.ceil(self.units / self.max_parallel)


#: Row classes -> their fields as a :func:`demand_row`-shaped tuple: an
#: entry has a demand's fields in the same order, plan-relative.
_FIELDS_OF = {
    cls: attrgetter(*cls.__dataclass_fields__) for cls in (JobDemand, ScheduleEntry)
}


@dataclass(frozen=True, eq=False)
class DemandTable:
    """Jobs as columns — the kernel's one input.

    Per job: its id, its window ``[release, deadline)``, remaining units,
    parallelism, and its unit demand as an index into the distinct
    ``vectors`` (a handful, numbered as first seen).  Slots are absolute
    until :meth:`windowed` makes them plan-relative.  A table is never
    changed: :meth:`extended` gives a longer one.
    """

    job_ids: tuple[str, ...]
    release: np.ndarray
    deadline: np.ndarray
    units: np.ndarray
    parallel: np.ndarray
    vector: np.ndarray
    vectors: dict[ResourceVector, int]

    @classmethod
    def of(cls, rows: "DemandTable | Sequence[JobDemand | ScheduleEntry]") -> "DemandTable":
        """*rows* as a table: one already, or demand or entry objects."""
        if isinstance(rows, DemandTable):
            return rows
        empty = cls((), *np.zeros((5, 0), dtype=np.int64), {})
        return empty.extended(_FIELDS_OF[type(row)](row) for row in rows)

    def extended(self, rows: Iterable[tuple]) -> "DemandTable":
        """This table followed by *rows* (see :func:`demand_row`)."""
        rows = list(rows)
        if not rows:
            return self
        ids, release, deadline, units, demands, parallel = zip(*rows)
        vectors = dict(self.vectors)
        vector = [vectors.setdefault(demand, len(vectors)) for demand in demands]
        old = (self.release, self.deadline, self.units, self.parallel, self.vector)
        new = np.array([release, deadline, units, parallel, vector], dtype=np.int64)
        return DemandTable(self.job_ids + ids, *np.concatenate([old, new], axis=1), vectors)

    def windowed(self, now_slot: int, slack: int, *, repair: bool) -> "DemandTable":
        """The table with plan-relative, slack-shaved windows.

        A window is shaved by *slack* only while it still holds ``need``
        slots.  With *repair* (the planner) ``need`` is the job's own
        minimum runtime, and overdue or too-tight windows are extended just
        that far: re-planning absorbs estimation drift instead of dropping
        jobs.  Without it (admission) ``need`` is 1 — a window too small
        for its own work is precisely a reason to reject, so it must not be
        repaired.
        """
        release = np.maximum(self.release - now_slot, 0)
        deadline = self.deadline - now_slot
        need = -(-self.units // self.parallel) if repair else 1
        if slack:
            deadline = deadline - slack * (deadline - slack - release >= need)
        return replace(self, release=release, deadline=np.maximum(deadline, release + need))

    def demand(self, resources: Sequence[str]) -> np.ndarray:
        """Per-job unit demand ``d[i, r]`` over *resources*."""
        distinct = [[vector[name] for name in resources] for vector in self.vectors]
        return np.array(distinct, dtype=np.int64).reshape(-1, len(resources))[self.vector]

    def rows(self, cls: type) -> list:
        """The rows as *cls* objects: :class:`JobDemand` of an absolute
        table, :class:`ScheduleEntry` of a windowed one."""
        vectors = list(self.vectors)
        columns = (column.tolist() for column in (self.release, self.deadline, self.units))
        demands = (vectors[index] for index in self.vector.tolist())
        return [
            cls(*row) for row in zip(self.job_ids, *columns, demands, self.parallel.tolist())
        ]


def entries_from_demands(
    demands: "DemandTable | Sequence[JobDemand]", now_slot: int, slack: int, *, repair: bool
) -> list[ScheduleEntry]:
    """The demands as plan-relative :class:`ScheduleEntry` windows: the
    rule of :meth:`DemandTable.windowed`, objects in and out."""
    return DemandTable.of(demands).windowed(now_slot, slack, repair=repair).rows(ScheduleEntry)


def caps_array(capacity: ClusterCapacity, now_slot: int, horizon: int) -> np.ndarray:
    """Per-slot capacity matrix ``C[k, r] = capacity.at(now + k)[r]``."""
    resources = capacity.resources
    caps = np.tile(
        np.array([capacity.base[name] for name in resources], dtype=float),
        (horizon, 1),
    )
    for slot, cap_vec in capacity.overrides.items():
        if now_slot <= slot < now_slot + horizon:
            caps[slot - now_slot] = [cap_vec[name] for name in resources]
    return caps


def binding_resource(
    rows: "DemandTable | Sequence[ScheduleEntry]", caps: np.ndarray, resources: Sequence[str]
) -> int | None:
    """Index of a resource whose capacity row implies every other one's.

    ``r*`` binds when every job demands it and, for every job ``i``,
    resource ``r`` and slot ``t``, ``d[i,r]*C[t,r*] <= d[i,r*]*C[t,r]``:
    any per-slot placement within ``C[t,r*]`` is then within ``C[t,r]``
    too.  Evaluated over the table's distinct demand vectors and the
    distinct capacity rows (a handful of each), in Python integers so no
    product overflows.
    """
    vectors = DemandTable.of(rows).vectors
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


def max_placement(
    rows: "DemandTable | Sequence[ScheduleEntry]",
    caps: np.ndarray,
    resources: Sequence[str],
    *,
    tag: str,
    time_budget_s: float | None = None,
) -> tuple[dict[str, int], float, Literal["flow", "lp"]]:
    """Place as much of *rows*' work (a windowed table, or entries) as their
    windows and *caps* allow.

    Returns ``(shortfall_units, utilisation, route)``: the per-job
    task-slots that cannot be placed inside the job's window (empty when
    everything fits; one witness — which jobs of an over-full set come up
    short is not unique), the max normalised load of that witness placement,
    and which method answered.  *tag* and *time_budget_s* reach
    :func:`~repro.lp.solver.solve_lp` on the LP route only, whose
    :class:`~repro.lp.solver.SolverFailure` propagates.
    """
    table = DemandTable.of(rows)
    binding = binding_resource(table, caps, resources)
    if binding is not None:
        found = _place_by_flow(table, caps[:, binding], resources[binding])
        if found is not None:
            return found

    problem = build_schedule_problem(table.rows(ScheduleEntry), caps, resources)
    lp = LinearProgram(
        c=-np.ones(problem.n_vars),
        a_ub=sparse.vstack([problem.a_util, problem.a_eq]).tocsr(),
        b_ub=np.concatenate([problem.cell_caps(), problem.b_eq]),
        lb=np.zeros(problem.n_vars),
        ub=problem.var_ub,
    )
    # Zero placement is feasible and the optimum bounded: OPTIMAL or a fault.
    x = solve_lp(lp, tag=tag, time_budget_s=time_budget_s).require_optimal()
    placed = np.asarray(problem.a_eq @ x).ravel()

    shortfalls: dict[str, int] = {}
    for entry, got, want in zip(problem.entries, placed, problem.b_eq):
        tolerance = _LP_SHORT_TOL * want
        if want - got > tolerance:
            shortfalls[entry.job_id] = math.ceil(want - got - tolerance)
    return shortfalls, float(problem.utilisation(x).max(initial=0.0)), "lp"


def _place_by_flow(
    table: DemandTable, slot_caps: np.ndarray, resource: str
) -> tuple[dict[str, int], float, Literal["flow"]] | None:
    """Max-placement as one integer max-flow on the binding *resource*.

    Network, in units of that resource: source -> job ``units*d``, job ->
    each slot of its window ``min(max_parallel, units)*d``, slot -> sink
    ``slot_caps[t]``.  None when the total supply does not fit the solver's
    int32 capacities.
    """
    n = len(table.job_ids)
    horizon = slot_caps.size
    release, units = table.release, table.units
    demand = table.demand([resource])[:, 0]
    supply = units * demand
    total = int(supply.sum())
    if total > _INT32_MAX:
        return None
    window = table.deadline - release
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
                [supply, np.repeat(np.minimum(table.parallel, units) * demand, window), sink_caps]
            ).astype(np.int32),
            np.concatenate(
                [np.arange(1, n + 1), 1 + n + arc_slot, np.full(horizon, sink)]
            ).astype(np.int32),
            np.concatenate([[0], np.cumsum(row_len)]).astype(np.int32),
        ),
        shape=(sink + 1, sink + 1),
    )
    result = maximum_flow(graph, 0, sink)
    flow = result.flow

    def row_flows(node: int, first: int, size: int) -> np.ndarray:
        """Row *node* of the flow matrix over columns ``first .. first+size``."""
        span = slice(flow.indptr[node], flow.indptr[node + 1])
        dense = np.zeros(size, dtype=np.int64)
        dense[flow.indices[span] - first] = flow.data[span]
        return dense

    shortfalls: dict[str, int] = {}
    if result.flow_value != total:
        missing = supply - row_flows(0, 1, n)
        for index in np.flatnonzero(missing).tolist():
            # Task-slots that cannot complete: ceil(missing / d).
            shortfalls[table.job_ids[index]] = int(
                -(-missing[index] // demand[index])
            )
    # The flow matrix is antisymmetric: the sink's row holds minus each
    # slot's load.  Every other resource's utilisation is dominated by the
    # binding one's, so this is the max over resources too.
    loads = -row_flows(sink, 1 + n, horizon)
    open_slots = slot_caps > 0
    utilisation = float(
        (loads[open_slots] / slot_caps[open_slots]).max(initial=0.0)
    )
    return shortfalls, utilisation, "flow"
