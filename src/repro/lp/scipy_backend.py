"""The LP solver: the HiGHS that scipy ships (called by :func:`repro.lp.solver.solve_lp`).

A model goes row-wise to ``scipy.optimize._highspy._core``, which ``linprog``
drives, with ``linprog``'s options and none of its Python: a fresh solve is
``linprog``'s bit for bit, with its ``presolve`` option that of the
:class:`Highs`.  Only ``_core`` names that scipy's ``_highs_wrapper`` reads
are read.  A solve runs on its caller's :class:`Highs`, never on module
state: shards solve concurrently.
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

    It keeps :attr:`last`, its last optimum, and solves an LP of the same
    layout (:func:`_same_layout`) warm (:func:`_warm_run`); any other LP is
    passed anew and answers as on a fresh instance.  A solve whose
    ``passModel`` or ``run`` failed or raised discards the instance.
    *presolve* applies to fresh solves: a warm run starts from a basis."""

    _core: _h._Highs | None = None
    last: LinearProgram | None = None

    def __init__(self, presolve: bool = True):
        self.presolve = presolve

    def take(self) -> _h._Highs:
        """The instance, held by one solve until :meth:`keep` returns it."""
        core, self._core, self.last = self._core, None, None
        if core is None:
            core = _h._Highs()
            core.passOptions(_OPTIONS[self.presolve])
        return core

    def keep(self, core: _h._Highs, optimal: LinearProgram | None = None) -> None:
        self._core, self.last = core, optimal


def _check_finite(problem: LinearProgram) -> None:
    """Reject what ``linprog``'s input checks reject: non-finite data."""
    for name, values in (
        ("c", problem.c),
        ("A_ub", problem.a_ub.data),
        ("b_ub", problem.b_ub),
        ("A_eq", problem.a_eq.data),
        ("b_eq", problem.b_eq),
    ):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must not contain inf or nan")


def _model(problem: LinearProgram) -> _h.HighsLp:
    """``lhs <= [A_ub; A_eq] x <= rhs``, row-wise, in lists (the bindings copy a
    list 2-3x faster than an array); ``kHighsInf`` is IEEE inf, so inf bounds pass."""
    a_ub, a_eq = problem.a_ub, problem.a_eq
    n_col, n_row = problem.n_variables, problem.n_constraints
    lp = _h.HighsLp()
    lp.num_col_ = n_col
    lp.num_row_ = n_row
    lp.col_cost_ = problem.c.tolist()
    lp.col_lower_ = problem.lb.tolist()
    lp.col_upper_ = problem.ub.tolist()
    lp.row_lower_ = [-_h.kHighsInf] * a_ub.shape[0] + problem.b_eq.tolist()
    lp.row_upper_ = problem.b_ub.tolist() + problem.b_eq.tolist()
    matrix = lp.a_matrix_
    matrix.format_ = _h.MatrixFormat.kRowwise
    matrix.num_col_ = n_col
    matrix.num_row_ = n_row
    matrix.start_ = a_ub.indptr.tolist() + (a_eq.indptr[1:] + a_ub.nnz).tolist()
    matrix.index_ = a_ub.indices.tolist() + a_eq.indices.tolist()
    matrix.value_ = a_ub.data.tolist() + a_eq.data.tolist()
    return lp


def _same_layout(last: LinearProgram, problem: LinearProgram) -> bool:
    """*problem* differs from *last* only in what a warm solve pushes: its
    costs, upper bounds, ``b_ub`` and the values of ``A_ub``."""
    a, b, a_eq, b_eq = last.a_ub, problem.a_ub, last.a_eq, problem.a_eq
    pairs = [(a.indptr, b.indptr), (a.indices, b.indices), (last.b_eq, problem.b_eq)]
    pairs += [(a_eq.indptr, b_eq.indptr), (a_eq.indices, b_eq.indices), (a_eq.data, b_eq.data)]
    pairs.append((last.lb, problem.lb))
    return a.shape == b.shape and all(np.array_equal(x, y) for x, y in pairs)


def _warm_run(core: _h._Highs, last: LinearProgram, problem: LinearProgram) -> tuple:
    """Push the entries of *problem* that differ from *last*, *core*'s
    model, and run primal simplex from the kept basis: ``(run did not
    fail, status)``.  Primal, because a lexmin round keeps the previous
    optimum feasible; dual simplex from it ran several times longer than a
    fresh solve on large ladders."""
    cols = np.flatnonzero(last.c != problem.c).astype(np.int32)
    core.changeColsCost(cols.size, cols, problem.c[cols])
    cols = np.flatnonzero(last.ub != problem.ub).astype(np.int32)
    core.changeColsBounds(cols.size, cols, problem.lb[cols], problem.ub[cols])
    for row in np.flatnonzero(last.b_ub != problem.b_ub).tolist():
        core.changeRowBounds(row, -_h.kHighsInf, float(problem.b_ub[row]))
    a_ub = problem.a_ub
    changed = np.flatnonzero(last.a_ub.data != a_ub.data)
    rows = np.searchsorted(a_ub.indptr, changed, side="right") - 1
    for row, col, value in zip(
        rows.tolist(), a_ub.indices[changed].tolist(), a_ub.data[changed].tolist()
    ):
        core.changeCoeff(row, col, value)
    core.setOptionValue("simplex_strategy", 4)
    try:
        solved = core.run() != _h.HighsStatus.kError
    finally:
        core.setOptionValue("simplex_strategy", 1)
    return solved, core.getModelStatus()


def _feasible(problem: LinearProgram, x: np.ndarray, row: np.ndarray, objective: float) -> bool:
    """``linprog``'s ``_check_result``: an optimum must hold within tolerance."""
    tol = _FEASIBILITY_TOL
    m_ub = problem.a_ub.shape[0]
    slack = problem.b_ub - row[:m_ub]
    con = problem.b_eq - row[m_ub:]
    if np.isnan(objective) or np.isnan(x).any() or np.isnan(row).any():
        return False
    return bool(
        np.all((x >= problem.lb - tol) & (x <= problem.ub + tol))
        and not (slack < -tol).any()
        and not (np.abs(con) > tol).any()
    )


def solve(problem: LinearProgram, highs: Highs | None = None) -> LPSolution:
    """Solve with HiGHS dual simplex (vertex solutions, duals available),
    on *highs*'s instance or a fresh one.

    A warm answer that is not optimal is never returned: the LP is solved
    again on a fresh instance with *highs*'s presolve, counted in
    ``lp.solve.warm_fallback``; each fresh solve in ``lp.solve.presolve.on|off``."""
    _check_finite(problem)
    highs = highs if highs is not None else Highs()
    last = highs.last
    core = highs.take()
    if last is not None and _same_layout(last, problem):
        solution = _answer(core, problem, *_warm_run(core, last, problem))
        if solution.is_optimal:
            highs.keep(core, problem)
            return solution
        current_obs().counter("lp.solve.warm_fallback").inc()
        core = Highs(highs.presolve).take()
    current_obs().counter(f"lp.solve.presolve.{'on' if highs.presolve else 'off'}").inc()
    solved = False
    if core.passModel(_model(problem)) == _h.HighsStatus.kError:
        model_status = _h.HighsModelStatus.kModelError
    else:
        solved = core.run() != _h.HighsStatus.kError
        model_status = core.getModelStatus()
    solution = _answer(core, problem, solved, model_status)
    if solved:
        highs.keep(core, problem if solution.is_optimal else None)
    return solution


def _answer(core: _h._Highs, problem: LinearProgram, solved: bool, model_status) -> LPSolution:
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
    m_ub = problem.a_ub.shape[0]
    return LPSolution(
        status=LPStatus.OPTIMAL,
        x=x,
        objective=float(objective),
        duals_ub=duals[:m_ub] if m_ub else None,
        duals_eq=duals[m_ub:] if problem.a_eq.shape[0] else None,
        message=message,
    )
