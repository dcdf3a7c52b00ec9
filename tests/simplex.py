"""A from-scratch dense two-phase simplex: the reference HiGHS is tested against.

The product solves every LP with HiGHS (:func:`repro.lp.solver.solve_lp`).
This module lets the tests check those answers against a solver that shares
no code with it, and makes the "simplex walks from vertex to vertex, hence
integral solutions on totally unimodular systems" argument of Sec. V-B
directly observable: :func:`solve` always returns a *basic* (vertex)
solution.  Tests that run the planner on it substitute it for
``repro.lp.scipy_backend.solve`` (the ``simplex_solver`` fixture).

It is a textbook tableau implementation with Bland's anti-cycling rule —
intended for the small problems in the tests and the EXT-4 ablation; on
production-size LPs it takes seconds where HiGHS takes milliseconds.

Standard-form reduction:

* finite lower bounds are shifted out (``x = x' + lb``);
* ``-inf`` lower bounds are handled by splitting ``x = x+ - x-``;
* finite upper bounds become explicit ``<=`` rows;
* ``<=`` rows get slack variables, all rows get artificials as needed.

Duals are recovered as ``y = c_B @ B^-1`` and reported in scipy's marginal
convention (``dual_i = d objective / d b_i``).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.lp.problem import LinearProgram, LPSolution, LPStatus
from repro.obs import current_obs

_TOL = 1e-9
_MAX_ITERS_FACTOR = 200


class _Tableau:
    """Mutable simplex tableau with Bland's rule pivoting."""

    def __init__(self, table: np.ndarray, basis: list[int]):
        # table has shape (m+1, n+1): m constraint rows plus the objective
        # row at the bottom; last column is the rhs.
        self.table = table
        self.basis = basis
        self.m = table.shape[0] - 1
        self.n = table.shape[1] - 1
        self.pivots = 0  # across all run() phases, for observability

    def _price_out_basis(self, cost: np.ndarray) -> None:
        """Set the objective row for the given cost vector and current basis."""
        obj = self.table[-1]
        obj[:] = 0.0
        obj[: self.n] = cost
        for row, var in enumerate(self.basis):
            coeff = obj[var]
            if abs(coeff) > _TOL:
                obj -= coeff * self.table[row]

    def run(self, cost: np.ndarray, allowed: np.ndarray) -> str:
        """Minimise ``cost @ x`` over columns where ``allowed`` is True.

        Returns "optimal" or "unbounded".
        """
        self._price_out_basis(cost)
        max_iters = _MAX_ITERS_FACTOR * max(self.m + self.n, 10)
        for _ in range(max_iters):
            obj = self.table[-1, : self.n]
            candidates = np.flatnonzero(allowed & (obj < -_TOL))
            if candidates.size == 0:
                return "optimal"
            entering = int(candidates[0])  # Bland: smallest index
            column = self.table[: self.m, entering]
            rhs = self.table[: self.m, -1]
            positive = column > _TOL
            if not positive.any():
                return "unbounded"
            ratios = np.full(self.m, np.inf)
            ratios[positive] = rhs[positive] / column[positive]
            best = ratios.min()
            # Bland tie-break: among minimal ratios pick smallest basis var.
            tied = np.flatnonzero(np.abs(ratios - best) <= _TOL * (1 + abs(best)))
            leaving_row = int(min(tied, key=lambda r: self.basis[r]))
            self._pivot(leaving_row, entering)
        raise RuntimeError("simplex exceeded the iteration limit (cycling?)")

    def _pivot(self, row: int, col: int) -> None:
        table = self.table
        pivot = table[row, col]
        table[row] /= pivot
        for r in range(table.shape[0]):
            if r != row and abs(table[r, col]) > _TOL:
                table[r] -= table[r, col] * table[row]
        self.basis[row] = col
        self.pivots += 1


def solve(problem: LinearProgram, highs: object = None) -> LPSolution:
    """Two-phase simplex solve of *problem*; returns a vertex solution.

    *highs* is ``scipy_backend.solve``'s instance to reuse, ignored here."""
    n = problem.n_variables
    lb = problem.lb.copy()
    ub = problem.ub.copy()
    if np.any(np.isinf(lb) & (lb > 0)) or np.any(np.isinf(ub) & (ub < 0)):
        raise ValueError("bounds contain +inf lower or -inf upper bounds")

    # Variable mapping: column j of the reduced problem is either
    # ("shift", i, lb_i) for x_i = x'_j + lb_i, or the pair
    # ("pos", i) / ("neg", i) of a free-variable split x_i = x+ - x-.
    col_kind: list[tuple[str, int]] = []
    shift = np.zeros(n)
    columns_of: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        if np.isfinite(lb[i]):
            shift[i] = lb[i]
            columns_of[i].append(len(col_kind))
            col_kind.append(("pos", i))
        else:
            columns_of[i].append(len(col_kind))
            col_kind.append(("pos", i))
            columns_of[i].append(len(col_kind))
            col_kind.append(("neg", i))
    n_red = len(col_kind)

    def expand_matrix(matrix: sparse.csr_matrix) -> np.ndarray:
        dense = np.asarray(matrix.todense(), dtype=float)
        out = np.zeros((dense.shape[0], n_red))
        for j, (kind, i) in enumerate(col_kind):
            out[:, j] = dense[:, i] if kind == "pos" else -dense[:, i]
        return out

    a_ub = expand_matrix(problem.a_ub)
    b_ub = problem.b_ub - np.asarray(problem.a_ub @ shift).ravel()
    a_eq = expand_matrix(problem.a_eq)
    b_eq = problem.b_eq - np.asarray(problem.a_eq @ shift).ravel()

    # Finite upper bounds become <= rows on the shifted variables.
    bound_rows = []
    bound_rhs = []
    for i in range(n):
        if np.isfinite(ub[i]):
            row = np.zeros(n_red)
            for j in columns_of[i]:
                row[j] = 1.0 if col_kind[j][0] == "pos" else -1.0
            bound_rows.append(row)
            bound_rhs.append(ub[i] - shift[i])
    if bound_rows:
        a_ub = np.vstack([a_ub, np.array(bound_rows)])
        b_ub = np.concatenate([b_ub, np.array(bound_rhs)])

    n_le = a_ub.shape[0]
    n_eq = a_eq.shape[0]
    m = n_le + n_eq

    cost = np.zeros(n_red)
    for j, (kind, i) in enumerate(col_kind):
        cost[j] = problem.c[i] if kind == "pos" else -problem.c[i]
    const_term = float(problem.c @ shift)

    # Equalities with slacks for <= rows; make every rhs non-negative.
    a_full = np.zeros((m, n_red + n_le))
    rhs = np.zeros(m)
    a_full[:n_le, :n_red] = a_ub
    a_full[:n_le, n_red : n_red + n_le] = np.eye(n_le)
    rhs[:n_le] = b_ub
    if n_eq:
        a_full[n_le:, :n_red] = a_eq
        rhs[n_le:] = b_eq
    negative = rhs < 0
    a_full[negative] *= -1.0
    rhs[negative] *= -1.0

    # Artificials for every row (simple and robust; phase 1 drives them out).
    n_struct = n_red + n_le
    total = n_struct + m
    table = np.zeros((m + 1, total + 1))
    table[:m, :n_struct] = a_full
    table[:m, n_struct : n_struct + m] = np.eye(m)
    table[:m, -1] = rhs
    basis = [n_struct + r for r in range(m)]
    tableau = _Tableau(table, basis)

    # Phase 1: minimise the sum of artificials.
    phase1_cost = np.zeros(total)
    phase1_cost[n_struct:] = 1.0
    allowed = np.ones(total, dtype=bool)
    status = tableau.run(phase1_cost, allowed)
    if status == "unbounded":  # cannot happen for phase 1, defensive
        return LPSolution(status=LPStatus.ERROR, message="phase-1 unbounded")
    # The tableau's bottom-right cell is the *negated* objective value.
    if -tableau.table[-1, -1] > 1e-7:
        return LPSolution(status=LPStatus.INFEASIBLE, message="phase-1 optimum > 0")

    # Drive any artificial still in the basis out (degenerate rows).
    for row in range(m):
        if tableau.basis[row] >= n_struct:
            pivots = np.flatnonzero(
                np.abs(tableau.table[row, :n_struct]) > 1e-7
            )
            if pivots.size:
                tableau._pivot(row, int(pivots[0]))
            # else: redundant row, the artificial stays at value 0.

    # Phase 2: artificials are forbidden.
    phase2_cost = np.zeros(total)
    phase2_cost[:n_red] = cost
    allowed = np.ones(total, dtype=bool)
    allowed[n_struct:] = False
    status = tableau.run(phase2_cost, allowed)
    if status == "unbounded":
        return LPSolution(status=LPStatus.UNBOUNDED, message="phase-2 unbounded")

    # Recover the primal solution.
    x_red = np.zeros(total)
    for row, var in enumerate(tableau.basis):
        x_red[var] = tableau.table[row, -1]
    x = shift.copy()
    for j, (kind, i) in enumerate(col_kind):
        x[i] += x_red[j] if kind == "pos" else -x_red[j]

    # Duals: y = c_B @ B^-1 over the original (sign-restored) row system.
    a_rows = np.zeros((m, total))
    a_rows[:, :n_struct] = a_full
    a_rows[:, n_struct:] = np.eye(m)
    basis_cols = a_rows[:, tableau.basis]
    cost_b = phase2_cost[tableau.basis]
    try:
        y = np.linalg.solve(basis_cols.T, cost_b)
    except np.linalg.LinAlgError:
        y = np.full(m, np.nan)
    # Undo the row sign flips so duals refer to the user's rhs.
    y = np.where(negative, -y, y)
    duals_ub = y[: problem.a_ub.shape[0]] if problem.a_ub.shape[0] else None
    duals_eq = y[n_le : n_le + n_eq] if n_eq else None

    current_obs().histogram("lp.backend.simplex.pivots").observe(tableau.pivots)
    objective = float(phase2_cost @ x_red) + const_term
    return LPSolution(
        status=LPStatus.OPTIMAL,
        x=x,
        objective=objective,
        duals_ub=duals_ub,
        duals_eq=duals_eq,
        message="simplex optimal",
    )
