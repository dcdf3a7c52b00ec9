"""The LP solver: the HiGHS that scipy ships (called by :func:`repro.lp.solver.solve_lp`).

A model goes row-wise to ``scipy.optimize._highspy._core``, which ``linprog``
drives, with ``linprog``'s options and none of its Python: a fresh solve is
``linprog``'s bit for bit, with its ``presolve`` option that of the
:class:`Highs`.  Only ``_core`` names that scipy's ``_highs_wrapper`` reads
are read.  A :class:`~repro.lp.problem.LinearProgram` is passed whole; a
lexmin ladder's LP (:class:`repro.core.lexmin.LadderLP`) is passed whole
too, or, onto the instance holding the round before it, as the rows that
round froze (:func:`_warm_run`).  A solve runs on its caller's
:class:`Highs`, never on module state: shards solve concurrently.
"""

from __future__ import annotations

import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from types import ModuleType

import numpy as np
import scipy

from repro.lp.problem import LinearProgram, LPSolution, LPStatus
from repro.obs import current_obs


def scipy_extension(name: str) -> ModuleType:
    """scipy's compiled module *name*, loaded without its packages' ``__init__``
    (``scipy.optimize``'s alone is a third of the stack's import time) under *name*,
    which a later ``import scipy...`` reuses: pybind11 refuses a second copy."""
    if name not in sys.modules:
        path = "/".join([scipy.__path__[0], *name.split(".")[1:-1]])
        spec = PathFinder.find_spec(name, [path])
        if spec is None:
            raise ImportError(f"no module named {name!r}", name=name)
        sys.modules[name] = module_from_spec(spec)
        try:
            spec.loader.exec_module(sys.modules[name])
        except BaseException:
            sys.modules.pop(name, None)
            raise
    return sys.modules[name]


_h = scipy_extension("scipy.optimize._highspy._core")


def _options(presolve: bool) -> _h.HighsOptions:
    """``linprog(method="highs")``'s options, with *presolve* on or off;
    read-only: ``passOptions`` copies it."""
    options = _h.HighsOptions()
    options.presolve = "on" if presolve else "off"
    # Dual simplex, set by value: scipy moved ``simplex_constants``.
    options.simplex_strategy = 1
    options.output_flag = False
    options.log_to_console = False
    options.highs_debug_level = 0
    return options


_OPTIONS = {presolve: _options(presolve) for presolve in (True, False)}

#: ``linprog``'s status mapping (``_highs_to_scipy_status_message``): every
#: other model status, time and iteration limits included, is ERROR.
_STATUS = {
    _h.HighsModelStatus.kOptimal: LPStatus.OPTIMAL,
    _h.HighsModelStatus.kInfeasible: LPStatus.INFEASIBLE,
    _h.HighsModelStatus.kModelError: LPStatus.INFEASIBLE,
    _h.HighsModelStatus.kUnbounded: LPStatus.UNBOUNDED,
}

#: ``linprog``'s post-solve feasibility tolerance, ``sqrt(1e-9) * 10``.
_FEASIBILITY_TOL = np.sqrt(1e-9) * 10


class Highs:
    """One HiGHS for a sequence of solves, owned by one caller on one thread.

    :attr:`core` is the instance after an optimal solve, holding that model
    and its basis for the next solve's push (a ladder LP's); None before the
    first solve and after one that answered otherwise or raised.  Any other
    solve passes its whole model and answers as on a fresh instance.
    *presolve* applies to whole-model solves: a push starts from a basis."""

    core: _h._Highs | None = None

    def __init__(self, presolve: bool = True):
        self.presolve = presolve


def _check_finite(problem) -> None:
    """Reject what ``linprog``'s input checks reject: non-finite data.  Of a
    ladder LP, whose layout checked its matrix, the costs and row bounds it sets."""
    named = [("c", problem.c), ("b_ub", problem.b_ub)]
    if isinstance(problem, LinearProgram):
        named += [("A_ub", problem.a_ub.data), ("A_eq", problem.a_eq.data), ("b_eq", problem.b_eq)]
    for name, values in named:
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must not contain inf or nan")


def rowwise_lp(cost, lower, upper, row_lower, row_upper, start, index, value) -> _h.HighsLp:
    """``row_lower <= A x <= row_upper``, ``A`` row-wise, from lists (the
    bindings copy a list 2-3x faster than an array); ``kHighsInf`` is IEEE
    inf, so inf bounds pass."""
    lp = _h.HighsLp()
    lp.num_col_, lp.num_row_ = len(cost), len(row_lower)
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, lower, upper
    lp.row_lower_, lp.row_upper_ = row_lower, row_upper
    matrix = lp.a_matrix_
    matrix.format_ = _h.MatrixFormat.kRowwise
    matrix.num_col_, matrix.num_row_ = len(cost), len(row_lower)
    matrix.start_, matrix.index_, matrix.value_ = start, index, value
    return lp


def _model(problem: LinearProgram) -> _h.HighsLp:
    """``lhs <= [A_ub; A_eq] x <= rhs``."""
    a_ub, a_eq, b_eq = problem.a_ub, problem.a_eq, problem.b_eq.tolist()
    return rowwise_lp(
        problem.c.tolist(),
        problem.lb.tolist(),
        problem.ub.tolist(),
        [-_h.kHighsInf] * a_ub.shape[0] + b_eq,
        problem.b_ub.tolist() + b_eq,
        a_ub.indptr.tolist() + (a_eq.indptr[1:] + a_ub.nnz).tolist(),
        a_ub.indices.tolist() + a_eq.indices.tolist(),
        a_ub.data.tolist() + a_eq.data.tolist(),
    )


def _warm_run(core: _h._Highs, rows: np.ndarray, upper: np.ndarray, col: int) -> tuple:
    """Give *rows* the upper bounds *upper* and a 0 in column *col* (a
    ladder round's newly frozen cells), and run primal simplex from the kept
    basis: ``(run did not fail, status)``.  Primal, because a lexmin round
    keeps the previous optimum feasible; dual simplex from it ran several
    times longer than a fresh solve on large ladders."""
    rows, upper = rows.tolist(), upper.tolist()
    for row, bound in zip(rows, upper):
        core.changeRowBounds(row, -_h.kHighsInf, bound)
    for row in rows:
        core.changeCoeff(row, col, 0.0)
    core.setOptionValue("simplex_strategy", 4)
    try:
        solved = core.run() != _h.HighsStatus.kError
    finally:
        core.setOptionValue("simplex_strategy", 1)
    return solved, core.getModelStatus()


def _feasible(problem, x: np.ndarray, row: np.ndarray, objective: float) -> bool:
    """``linprog``'s ``_check_result``: an optimum must hold within tolerance."""
    tol = _FEASIBILITY_TOL
    m_ub = problem.b_ub.size
    slack = problem.b_ub - row[:m_ub]
    con = problem.b_eq - row[m_ub:]
    if np.isnan(objective) or np.isnan(x).any() or np.isnan(row).any():
        return False
    return bool(
        np.all((x >= problem.lb - tol) & (x <= problem.ub + tol))
        and not (slack < -tol).any()
        and not (np.abs(con) > tol).any()
    )


def solve(problem, highs: Highs | None = None) -> LPSolution:
    """Solve with HiGHS dual simplex (vertex solutions, duals available),
    on *highs*'s instance or a fresh one.

    *problem* is a :class:`LinearProgram` or a lexmin ladder's LP
    (:class:`repro.core.lexmin.LadderLP`: its answer's vectors, its whole
    model ``highs_lp()`` and its ``push``, the :func:`_warm_run` arguments).
    A push that does not answer optimally is solved again whole on a fresh
    instance with *highs*'s presolve, counted in ``lp.solve.warm_fallback``;
    each whole-model solve in ``lp.solve.presolve.on|off``."""
    _check_finite(problem)
    program = isinstance(problem, LinearProgram)
    highs = highs if highs is not None else Highs()
    core, highs.core = highs.core, None  # kept again once it answers optimally
    if core is not None and not program and problem.push is not None:
        solution = _answer(core, problem, *_warm_run(core, *problem.push))
        if solution.is_optimal:
            highs.core = core
            return solution
        current_obs().counter("lp.solve.warm_fallback").inc()
        core = None
    if core is None:
        core = _h._Highs()
        core.passOptions(_OPTIONS[highs.presolve])
    current_obs().counter(f"lp.solve.presolve.{'on' if highs.presolve else 'off'}").inc()
    solved = False
    if core.passModel(_model(problem) if program else problem.highs_lp()) == _h.HighsStatus.kError:
        model_status = _h.HighsModelStatus.kModelError
    else:
        solved = core.run() != _h.HighsStatus.kError
        model_status = core.getModelStatus()
    solution = _answer(core, problem, solved, model_status)
    if solution.is_optimal:
        highs.core = core
    return solution


def _answer(core: _h._Highs, problem, solved: bool, model_status) -> LPSolution:
    """``linprog``'s reading of *core*'s run on *problem*."""
    info = core.getInfo()
    iterations = info.simplex_iteration_count if solved else 0
    current_obs().histogram("lp.backend.highs.iterations").observe(iterations)
    status = _STATUS.get(model_status, LPStatus.ERROR)
    message = core.modelStatusToString(model_status)
    if status is LPStatus.OPTIMAL and not solved:
        status = LPStatus.ERROR  # linprog: "optimal" with no solution
    if status is not LPStatus.OPTIMAL:
        return LPSolution(status=status, message=message)
    solution = core.getSolution()
    x = np.array(solution.col_value)
    row = np.array(solution.row_value)
    objective = info.objective_function_value
    if not _feasible(problem, x, row, objective):
        return LPSolution(status=LPStatus.ERROR, message=f"{message} outside tolerance")
    duals = np.array(solution.row_dual)
    m_ub = problem.b_ub.size
    return LPSolution(
        status=LPStatus.OPTIMAL,
        x=x,
        objective=float(objective),
        duals_ub=duals[:m_ub] if m_ub else None,
        duals_eq=duals[m_ub:] if problem.b_eq.size else None,
        message=message,
    )
