"""The paper's Lemma 1 scalarisation and λ-representation (Sec. V-B).

The paper turns the lexicographic minimax objective into a single separable
convex function via

    g(u) = sum_i k^{u_i},        k = |T||R|   (Lemma 1: g(u) <= g(v) <=> u lexmin-dominates v)

and linearises each convex term with the *λ-representation* of Eq. (8)-(9):
``f(y) = sum_j f(j) λ_j`` with ``y = sum_j j λ_j`` and ``sum_j λ_j = 1`` over
the integer breakpoints ``j`` of the term's domain.  Because the breakpoint
costs are convex, an LP minimiser automatically picks adjacent breakpoints,
so no integrality constraints are needed.

This module implements both *faithfully* so the equivalence can be tested —
but only for small instances: ``k^{u}`` overflows doubles once the number of
utilisation cells is large, which is exactly why the production solver
(:mod:`repro.core.lexmin`) uses the iterative minimax instead.  The two are
verified against each other by ``tests/test_core_scalarization.py``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.lp_formulation import ScheduleProblem
from repro.lp.problem import LinearProgram, LPStatus
from repro.lp.solver import solve_lp

__all__ = [
    "g_scalarization",
    "lex_leq",
    "scalarized_schedule",
]


def g_scalarization(u: np.ndarray, k: float) -> float:
    """The paper's ``g(u) = sum_i k^{u_i}`` (Lemma 1)."""
    u = np.asarray(u, dtype=float)
    if u.size == 0:
        return 0.0
    return float(np.sum(np.power(k, u)))


def lex_leq(u: np.ndarray, v: np.ndarray) -> bool:
    """True when ``u ⪯ v``: sorted-descending u is lexicographically <= v.

    This is the minimax ordering Lemma 1 talks about: compare the largest
    components first.
    """
    a = np.sort(np.asarray(u, dtype=float))[::-1]
    b = np.sort(np.asarray(v, dtype=float))[::-1]
    if a.size != b.size:
        raise ValueError("vectors must have equal length")
    for x, y in zip(a, b):
        if x < y - 1e-12:
            return True
        if x > y + 1e-12:
            return False
    return True


def scalarized_schedule(problem: ScheduleProblem) -> np.ndarray | None:
    """Solve the scheduling LP with the paper's scalarised objective.

    Minimises ``sum_cells k^{z_cell / C_cell}`` using the λ-representation:
    every utilisation cell gets λ variables over the integer load values
    ``0..C_cell``.  Exact in exact arithmetic; numerically usable only when
    ``k ** 1`` stays small — i.e. few cells and small integer capacities.

    Returns the allocation vector ``x`` (length ``problem.n_vars``) or None
    when the problem is infeasible.

    Raises:
        ValueError: when the instance is too large for the scalarisation to
            be numerically meaningful (cell count times capacity too big).
    """
    n_cells = len(problem.util_cells)
    caps = np.array([problem.cap_of_cell(c) for c in range(n_cells)])
    if np.any(caps != np.round(caps)):
        raise ValueError("λ-representation needs integral capacities")
    k = float(n_cells)
    if k < 2.0:
        k = 2.0
    total_breakpoints = int(np.sum(caps + 1))
    if total_breakpoints > 4000 or k > 64:
        raise ValueError(
            f"instance too large for the k^u scalarisation "
            f"({n_cells} cells, {total_breakpoints} breakpoints) — use "
            f"repro.core.lexmin instead (that is the point of this module)"
        )

    n_x = problem.n_vars
    # Variable layout: [x | λ_cell0_j0.. | λ_cell1_j0.. | ...].
    lambda_offset: list[int] = []
    n_lambda = 0
    for c in range(n_cells):
        lambda_offset.append(n_x + n_lambda)
        n_lambda += int(caps[c]) + 1
    n_total = n_x + n_lambda

    cost = np.zeros(n_total)
    rows_eq = []
    data_eq = []
    cols_eq = []
    b_eq_extra = []
    row = 0
    # z_cell - sum_j j λ_j = 0   and   sum_j λ_j = 1 for every cell.
    a_util = problem.a_util.tocoo()
    util_by_cell: dict[int, list[tuple[int, float]]] = {}
    for r, c_var, value in zip(a_util.row, a_util.col, a_util.data):
        util_by_cell.setdefault(int(r), []).append((int(c_var), float(value)))
    for c in range(n_cells):
        cap = int(caps[c])
        offset = lambda_offset[c]
        # sum_vars coeff*x - sum_j j λ_j = 0
        for var, coeff in util_by_cell.get(c, []):
            rows_eq.append(row)
            cols_eq.append(var)
            data_eq.append(coeff)
        for j in range(cap + 1):
            rows_eq.append(row)
            cols_eq.append(offset + j)
            data_eq.append(-float(j))
            cost[offset + j] = k ** (j / cap)
        b_eq_extra.append(0.0)
        row += 1
        # sum_j λ_j = 1
        for j in range(cap + 1):
            rows_eq.append(row)
            cols_eq.append(offset + j)
            data_eq.append(1.0)
        b_eq_extra.append(1.0)
        row += 1

    lambda_eq = sparse.csr_matrix(
        (data_eq, (rows_eq, cols_eq)), shape=(row, n_total)
    )
    demand_eq = sparse.hstack(
        [problem.a_eq, sparse.csr_matrix((problem.a_eq.shape[0], n_lambda))]
    ).tocsr()
    a_eq = sparse.vstack([demand_eq, lambda_eq]).tocsr()
    b_eq = np.concatenate([problem.b_eq, np.asarray(b_eq_extra)])

    # Hard capacity rows on the x block (constraint (4)).
    a_ub = sparse.hstack(
        [problem.a_util, sparse.csr_matrix((n_cells, n_lambda))]
    ).tocsr()

    lb = np.zeros(n_total)
    ub = np.concatenate([problem.var_ub, np.ones(n_lambda)])

    lp = LinearProgram(
        c=cost, a_ub=a_ub, b_ub=caps.astype(float), a_eq=a_eq, b_eq=b_eq, lb=lb, ub=ub
    )
    sol = solve_lp(lp)
    if sol.status is LPStatus.INFEASIBLE:
        return None
    return sol.require_optimal()[:n_x]
