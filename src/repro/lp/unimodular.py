"""Structure detection for the scheduling LPs (Lemma 2 of the paper).

A matrix is *totally unimodular* (TU) when every square submatrix has
determinant in {-1, 0, 1}.  If the constraint matrix of an LP with integral
right-hand sides is TU, the feasible region is an integral polyhedron and
simplex-type solvers return integral vertex optima — that is the paper's
whole argument for solving its ILP as an LP.

Three checks are provided:

* :func:`is_totally_unimodular` — exact brute force over all square
  submatrices (exponential; only usable for small matrices in tests).
* :func:`has_consecutive_ones_columns` — the sufficient condition that
  actually applies to the paper's constraints (2)-(4): each *column* of the
  x-variable block has its ones consecutive within each job's (t, r) run.
  Interval matrices are TU.  (The pre-1.8 ``is_interval_matrix`` alias was
  removed.)
* :func:`detect_interval_structure` — the production entry point: given a
  whole :class:`~repro.lp.problem.LinearProgram`, decide whether it is a
  *theta-form interval transportation LP* (the shape of every lexmin round
  subproblem) and, when it is, return the lowered network description that
  :mod:`repro.lp.fastsolve` solves combinatorially.

The detected class, precisely: minimise a single non-negative variable
``theta`` subject to

* all-ones demand equalities ``sum_{v in job j} x_v = D_j`` where every
  allocation variable belongs to exactly one job and each job's variables
  occupy a contiguous index run (the consecutive-ones window of Lemma 2);
* capacity rows that partition the allocation variables into *cells*: all
  rows over the same support (variable set) form one cell, each variable
  has one uniform coefficient ``w_v`` across its rows, uniform within its
  job, and theta appears only with non-positive coefficients (so a cell's
  effective capacity is ``min_r (b_r + g_r * theta)`` with slopes
  ``g_r >= 0``);
* bounds ``0 <= x_v <= u_v`` and ``theta >= 0`` free above.

Substituting ``z_v = w_v x_v`` turns the system into a pure transportation
problem — jobs supply ``A_j = W_j D_j`` units through arcs of capacity
``w_v u_v`` into cells whose sink capacity grows linearly with theta —
which is exactly the min-cost-flow form Lemma 2 promises.  Detection never
guesses: every condition is verified exactly, so a ``structured=True``
result is a proof that the flow lowering is equivalent to the LP.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (problem is light)
    from repro.lp.problem import LinearProgram

__all__ = [
    "IntervalStructure",
    "detect_interval_structure",
    "has_consecutive_ones_columns",
    "is_totally_unimodular",
    "max_fractionality",
]

#: Tolerance for the exact-structure checks (coefficients that must match).
_UNIFORM_TOL = 1e-9
#: Tolerance for "this float is an integer" (flow-unit demands and caps).
_INT_TOL = 1e-6


def _entries_ok(matrix: np.ndarray) -> bool:
    return bool(np.isin(matrix, (-1.0, 0.0, 1.0)).all())


def is_totally_unimodular(matrix, max_order: int | None = None) -> bool:
    """Exact TU check by enumerating square submatrix determinants.

    ``max_order`` truncates the enumeration (checking submatrices only up to
    that size); leave ``None`` for the full exact check.  Complexity is
    exponential — intended for matrices with at most ~12 rows/columns.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not _entries_ok(arr):
        return False
    rows, cols = arr.shape
    top = min(rows, cols)
    if max_order is not None:
        top = min(top, max_order)
    for order in range(2, top + 1):
        for row_idx in itertools.combinations(range(rows), order):
            sub_rows = arr[list(row_idx), :]
            for col_idx in itertools.combinations(range(cols), order):
                det = np.linalg.det(sub_rows[:, list(col_idx)])
                if abs(det - round(det)) > 1e-6 or round(det) not in (-1, 0, 1):
                    return False
    return True


def has_consecutive_ones_columns(matrix) -> bool:
    """True when every column's non-zeros are a consecutive run of ones.

    Matrices with the consecutive-ones property on columns (row-interval
    matrices) are totally unimodular.  The paper's demand constraint (2)
    sums each x_it^r over the contiguous window t in [a_i, d_i], and the
    capacity constraints touch each variable once, giving this structure.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not bool(np.isin(arr, (0.0, 1.0)).all()):
        return False
    for col in arr.T:
        nz = np.flatnonzero(col)
        if nz.size and not np.array_equal(nz, np.arange(nz[0], nz[-1] + 1)):
            return False
    return True


def max_fractionality(x: np.ndarray) -> float:
    """Distance of the most fractional entry of *x* from the integers.

    Used by the integrality experiments: 0.0 means a fully integral vector.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        return 0.0
    frac = np.abs(arr - np.round(arr))
    return float(frac.max())


# -- whole-program structure detection -------------------------------------------


@dataclass(frozen=True)
class IntervalStructure:
    """Result of :func:`detect_interval_structure`.

    ``structured`` is the verdict; ``reason`` explains a ``False`` (useful
    for the ``lp.fastsolve.miss`` breakdown in tests).  When ``True``, the
    remaining fields describe the lowered transportation network in
    *flow units* (the ``z = w * x`` substitution already applied):

    Attributes:
        theta_col: column index of the minimax variable.
        theta_cost: its (positive) objective coefficient.
        n_jobs: number of demand equalities (flow sources).
        n_cells: number of capacity-row support groups (flow sinks).
        interval_windows: every job's variables occupy a contiguous index
            run (the consecutive-ones certificate of Lemma 2).
        alloc_cols: original column index of each allocation variable.
        var_job / var_cell: the job (eq row) and cell each variable feeds.
        var_weight: the uniform capacity coefficient ``w_v`` of each
            variable (divide flow by this to recover ``x_v``).
        var_cap: per-variable arc capacity ``w_v * ub_v`` (may be inf),
            integral when finite.
        job_demand: per-job supply ``A_j = W_j * D_j`` (integral).
        row_cell / row_const / row_slope: the capacity lines — cell ``i``'s
            capacity at a given theta is ``min`` over its rows of
            ``row_const + row_slope * theta`` with ``row_slope >= 0``.
    """

    structured: bool
    reason: str = ""
    theta_col: int = -1
    theta_cost: float = 0.0
    n_jobs: int = 0
    n_cells: int = 0
    interval_windows: bool = False
    alloc_cols: Optional[np.ndarray] = None
    var_job: Optional[np.ndarray] = None
    var_cell: Optional[np.ndarray] = None
    var_weight: Optional[np.ndarray] = None
    var_cap: Optional[np.ndarray] = None
    job_demand: Optional[np.ndarray] = None
    row_cell: Optional[np.ndarray] = None
    row_const: Optional[np.ndarray] = None
    row_slope: Optional[np.ndarray] = None

    def __bool__(self) -> bool:
        return self.structured


def _fail(reason: str) -> IntervalStructure:
    return IntervalStructure(structured=False, reason=reason)


def detect_interval_structure(problem: "LinearProgram") -> IntervalStructure:
    """Decide whether *problem* is a theta-form interval transportation LP.

    Cost is O(nnz log nnz) in numpy — negligible next to any solve — and
    every structural condition is checked exactly (see the module
    docstring), so a positive verdict certifies that the flow lowering in
    :mod:`repro.lp.fastsolve` is equivalent to the LP.  Any violation
    returns ``structured=False`` with a human-readable ``reason``.
    """
    c = problem.c
    n = c.size
    nz = np.flatnonzero(c)
    if nz.size != 1 or c[nz[0]] <= 0:
        return _fail("objective is not a single positive theta coefficient")
    theta = int(nz[0])
    if np.any(problem.lb != 0.0):
        return _fail("non-zero lower bounds")
    if np.isfinite(problem.ub[theta]):
        return _fail("theta has a finite upper bound")
    if np.any(problem.ub < 0.0):
        return _fail("negative upper bound")

    # -- demand equalities: all-ones rows partitioning the allocation vars --
    a_eq = problem.a_eq
    m_eq = a_eq.shape[0]
    if m_eq == 0 or a_eq.nnz == 0:
        return _fail("no demand equalities")
    if np.any(a_eq.data != 1.0):
        return _fail("demand rows are not all-ones")
    eq_row_counts = np.diff(a_eq.indptr)
    if np.any(eq_row_counts == 0):
        return _fail("empty demand row")
    eq_col_counts = np.bincount(a_eq.indices, minlength=n)
    if eq_col_counts[theta] != 0:
        return _fail("theta appears in a demand row")
    alloc_mask = np.ones(n, dtype=bool)
    alloc_mask[theta] = False
    if np.any(eq_col_counts[alloc_mask] != 1):
        return _fail("a variable is missing from, or shared across, demand rows")
    if np.any(problem.b_eq < 0.0):
        return _fail("negative demand")
    # Consecutive-ones windows: each row's columns are a contiguous run.
    starts = a_eq.indptr[:-1]
    row_min = np.minimum.reduceat(a_eq.indices, starts)
    row_max = np.maximum.reduceat(a_eq.indices, starts)
    if np.any(row_max - row_min + 1 != eq_row_counts):
        return _fail("demand windows are not contiguous variable runs")
    var_job_full = np.empty(n, dtype=np.int64)
    var_job_full[a_eq.indices] = np.repeat(np.arange(m_eq), eq_row_counts)

    # -- capacity rows: grouped by support into cells -----------------------
    a_ub = problem.a_ub
    m_ub = a_ub.shape[0]
    if m_ub == 0 or a_ub.nnz == 0:
        return _fail("no capacity rows")
    ub_row_of = np.repeat(np.arange(m_ub), np.diff(a_ub.indptr))
    cols = a_ub.indices
    data = a_ub.data
    theta_entries = cols == theta
    slope_full = np.zeros(m_ub)
    if np.any(theta_entries):
        tdat = data[theta_entries]
        if np.any(tdat > 0.0):
            return _fail("positive theta coefficient in a capacity row")
        slope_full[ub_row_of[theta_entries]] = -tdat
    a_rows = ub_row_of[~theta_entries]
    a_cols = cols[~theta_entries]
    a_data = data[~theta_entries]
    if a_cols.size == 0:
        return _fail("capacity rows have no allocation variables")
    if np.any(a_data <= 0.0):
        return _fail("non-positive allocation coefficient in a capacity row")
    alloc_per_row = np.bincount(a_rows, minlength=m_ub)
    vacuous = alloc_per_row == 0
    if np.any(vacuous & (slope_full > 0.0)):
        return _fail("capacity row bounds theta alone")
    if np.any(vacuous & (problem.b_ub < 0.0)):
        return _fail("vacuous capacity row with negative rhs")

    # Per-variable uniform weight across all its capacity rows.
    wmin = np.full(n, np.inf)
    wmax = np.full(n, -np.inf)
    np.minimum.at(wmin, a_cols, a_data)
    np.maximum.at(wmax, a_cols, a_data)
    if np.any(~np.isfinite(wmax[alloc_mask])):
        return _fail("a variable appears in no capacity row")
    if np.any(wmax[alloc_mask] - wmin[alloc_mask] > _UNIFORM_TOL):
        return _fail("a variable has non-uniform capacity coefficients")

    # Group rows by support.  A commutative hash buckets candidate groups;
    # the run-length check below then verifies support equality *exactly*,
    # so a hash collision degrades to a safe "unstructured" verdict, never
    # to a wrong lowering.
    mix = a_cols.astype(np.uint64)
    h1 = (mix * np.uint64(0x9E3779B97F4A7C15)) ^ (mix >> np.uint64(17))
    h2 = (mix * np.uint64(0xC2B2AE3D27D4EB4F)) ^ (mix << np.uint64(13))
    hash1 = np.zeros(m_ub, dtype=np.uint64)
    hash2 = np.zeros(m_ub, dtype=np.uint64)
    np.add.at(hash1, a_rows, h1)
    np.add.at(hash2, a_rows, h2)
    kept_rows = np.flatnonzero(~vacuous)
    key = np.stack(
        [
            alloc_per_row[kept_rows],
            hash1[kept_rows].view(np.int64),
            hash2[kept_rows].view(np.int64),
        ],
        axis=1,
    )
    _, cell_of_kept = np.unique(key, axis=0, return_inverse=True)
    cell_of_kept = cell_of_kept.ravel()
    n_cells = int(cell_of_kept.max()) + 1
    cell_of_row = np.full(m_ub, -1, dtype=np.int64)
    cell_of_row[kept_rows] = cell_of_kept

    cell_of_entry = cell_of_row[a_rows]
    # Exact support-equality check: sorting entries by (cell, col), every
    # (cell, col) run must touch each of the cell's rows exactly once.
    order = np.lexsort((a_cols, cell_of_entry))
    gc = cell_of_entry[order]
    cc = a_cols[order]
    run_break = np.empty(gc.size, dtype=bool)
    run_break[0] = True
    np.logical_or(np.diff(gc) != 0, np.diff(cc) != 0, out=run_break[1:])
    run_id = np.cumsum(run_break) - 1
    run_len = np.bincount(run_id)
    rows_per_cell = np.bincount(cell_of_kept, minlength=n_cells)
    run_cell = gc[run_break]
    if np.any(run_len != rows_per_cell[run_cell]):
        return _fail("capacity rows with overlapping but unequal supports")

    # Each variable must live in exactly one cell.
    cmin = np.full(n, np.iinfo(np.int64).max)
    cmax = np.full(n, -1, dtype=np.int64)
    np.minimum.at(cmin, a_cols, cell_of_entry)
    np.maximum.at(cmax, a_cols, cell_of_entry)
    if np.any(cmin[alloc_mask] != cmax[alloc_mask]):
        return _fail("a variable spans multiple capacity cells")

    alloc_cols = np.flatnonzero(alloc_mask)
    var_job = var_job_full[alloc_cols]
    var_cell = cmax[alloc_cols]
    var_weight = wmax[alloc_cols]

    # Per-job uniform weight (needed for the z = w * x substitution).
    job_wmin = np.full(m_eq, np.inf)
    job_wmax = np.zeros(m_eq)
    np.minimum.at(job_wmin, var_job, var_weight)
    np.maximum.at(job_wmax, var_job, var_weight)
    if np.any(job_wmax - job_wmin > _UNIFORM_TOL):
        return _fail("a job mixes variables of different capacity weights")

    # Integral supplies and arc capacities in flow units.
    job_demand = job_wmax * problem.b_eq
    if np.any(np.abs(job_demand - np.round(job_demand)) > _INT_TOL):
        return _fail("non-integral job demand in flow units")
    job_demand = np.round(job_demand)
    var_cap = var_weight * problem.ub[alloc_cols]
    finite = np.isfinite(var_cap)
    if np.any(np.abs(var_cap[finite] - np.round(var_cap[finite])) > _INT_TOL):
        return _fail("non-integral variable bound in flow units")
    var_cap = np.where(finite, np.round(var_cap), np.inf)

    return IntervalStructure(
        structured=True,
        reason="",
        theta_col=theta,
        theta_cost=float(c[theta]),
        n_jobs=m_eq,
        n_cells=n_cells,
        interval_windows=True,
        alloc_cols=alloc_cols,
        var_job=var_job,
        var_cell=var_cell,
        var_weight=var_weight,
        var_cap=var_cap,
        job_demand=job_demand,
        row_cell=cell_of_kept,
        row_const=problem.b_ub[kept_rows].astype(float),
        row_slope=slope_full[kept_rows],
    )
