"""The LP solver: scipy's HiGHS interface (called by :func:`repro.lp.solver.solve_lp`)."""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.lp.problem import LinearProgram, LPSolution, LPStatus
from repro.obs import current_obs

_STATUS_MAP = {
    0: LPStatus.OPTIMAL,
    1: LPStatus.ERROR,  # iteration limit
    2: LPStatus.INFEASIBLE,
    3: LPStatus.UNBOUNDED,
    4: LPStatus.ERROR,
}


def solve(problem: LinearProgram) -> LPSolution:
    """Solve with HiGHS dual simplex (vertex solutions, duals available)."""
    res = linprog(
        c=problem.c,
        A_ub=problem.a_ub if problem.a_ub.shape[0] else None,
        b_ub=problem.b_ub if problem.b_ub.size else None,
        A_eq=problem.a_eq if problem.a_eq.shape[0] else None,
        b_eq=problem.b_eq if problem.b_eq.size else None,
        bounds=np.column_stack([problem.lb, problem.ub]),
        method="highs",
    )
    status = _STATUS_MAP.get(res.status, LPStatus.ERROR)
    if getattr(res, "nit", None) is not None:
        current_obs().histogram("lp.backend.highs.iterations").observe(int(res.nit))
    if status is not LPStatus.OPTIMAL:
        return LPSolution(status=status, message=str(res.message))
    duals_ub = None
    duals_eq = None
    if getattr(res, "ineqlin", None) is not None and problem.a_ub.shape[0]:
        duals_ub = np.asarray(res.ineqlin.marginals, dtype=float)
    if getattr(res, "eqlin", None) is not None and problem.a_eq.shape[0]:
        duals_eq = np.asarray(res.eqlin.marginals, dtype=float)
    return LPSolution(
        status=LPStatus.OPTIMAL,
        x=np.asarray(res.x, dtype=float),
        objective=float(res.fun),
        duals_ub=duals_ub,
        duals_eq=duals_eq,
        message=str(res.message),
    )
