"""The lexmin ladder's LPs as they were sent to HiGHS before the ladder kept
its own model: a test-only oracle.

Each LP of a ladder was a :class:`~repro.lp.problem.LinearProgram`, its
cell rows ``[a_util | -C]`` assembled by ``sparse.hstack``
(:class:`OracleLayout`), passed whole by ``_model`` or, when it had the
layout of the instance's last optimum, diffed against that optimum and
pushed entry by entry (:func:`oracle_solve`).  :func:`oracle_ladders`
runs every ladder that way, on the product's ladder loop; :func:`recording`
records the model each HiGHS instance holds before each run, on either
path.  The product must send HiGHS the same models and answer with the
same ``x``, bit for bit (``tests/test_ladder_model.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np
import pytest
from scipy import sparse

from repro.core import lexmin
from repro.lp import LinearProgram, scipy_backend
from repro.lp.scipy_backend import _answer, _check_finite, _h, _OPTIONS


class OracleLayout:
    """The ladder's model as one ``LinearProgram`` per LP."""

    def __init__(self, problem, caps: np.ndarray):
        n_vars, a_eq = problem.n_vars, problem.a_eq
        self._rows = sparse.hstack([problem.a_util, -caps[:, None]], format="csr")
        self._theta_at = self._rows.indptr[1:] - 1
        self._round_cost = np.zeros(n_vars + 1)
        self._round_cost[-1] = 1.0
        self._a_eq = sparse.csr_matrix(
            (a_eq.data, a_eq.indices, a_eq.indptr), shape=(a_eq.shape[0], n_vars + 1)
        )
        self._b_eq = problem.b_eq
        self._lb = np.zeros(n_vars + 1)
        self._ub = np.append(problem.var_ub, 1.0)

    def lp(self, frozen_value: np.ndarray, cost: np.ndarray | None = None) -> LinearProgram:
        frozen = np.isfinite(frozen_value)
        a_ub = self._rows.copy()
        a_ub.data[self._theta_at[frozen]] = 0.0
        return LinearProgram(
            c=self._round_cost if cost is None else np.append(cost, 0.0),
            a_ub=a_ub,
            b_ub=np.where(frozen, frozen_value, 0.0),
            a_eq=self._a_eq,
            b_eq=self._b_eq,
            lb=self._lb,
            ub=self._ub,
        )


def _model(problem: LinearProgram) -> _h.HighsLp:
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
    a, b, a_eq, b_eq = last.a_ub, problem.a_ub, last.a_eq, problem.a_eq
    pairs = [(a.indptr, b.indptr), (a.indices, b.indices), (last.b_eq, problem.b_eq)]
    pairs += [(a_eq.indptr, b_eq.indptr), (a_eq.indices, b_eq.indices), (a_eq.data, b_eq.data)]
    pairs.append((last.lb, problem.lb))
    return a.shape == b.shape and all(np.array_equal(x, y) for x, y in pairs)


def _warm_run(core, last: LinearProgram, problem: LinearProgram) -> tuple:
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


class OracleHighs:
    """An instance that keeps its last optimum as a ``LinearProgram``."""

    def __init__(self, presolve: bool, models: list | None = None):
        self.presolve, self.models = presolve, models
        self.core, self.last = None, None

    def take(self):
        core, self.core, self.last = self.core, None, None
        if core is None:
            core = _h._Highs()
            core.passOptions(_OPTIONS[self.presolve])
            if self.models is not None:
                core = Recorder(core, self.models)
        return core

    def keep(self, core, optimal: LinearProgram | None) -> None:
        self.core, self.last = core, optimal


def oracle_solve(problem: LinearProgram, highs: OracleHighs):
    _check_finite(problem)
    last = highs.last
    core = highs.take()
    if last is not None and _same_layout(last, problem):
        solution = _answer(core, problem, *_warm_run(core, last, problem))
        if solution.is_optimal:
            highs.keep(core, problem)
            return solution
        core = OracleHighs(highs.presolve, highs.models).take()
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


def snapshot(lp: _h.HighsLp) -> tuple:
    """Costs, bounds, row bounds and the matrix as HiGHS holds it (explicit
    zeros included)."""
    matrix = lp.a_matrix_
    return (
        np.asarray(lp.col_cost_).tolist(),
        list(lp.col_lower_),
        list(lp.col_upper_),
        list(lp.row_lower_),
        list(lp.row_upper_),
        matrix.format_,
        list(matrix.start_),
        list(matrix.index_),
        list(matrix.value_),
    )


class Recorder:
    """A HiGHS instance that records the model it holds before each run."""

    def __init__(self, core, models: list):
        self._core, self._models = core, models

    def __getattr__(self, name):
        return getattr(self._core, name)

    def run(self):
        self._models.append(snapshot(self._core.getLp()))
        return self._core.run()


class _RecordingModule:
    """scipy's HiGHS module, its instances :class:`Recorder` s (made into
    *made*)."""

    def __init__(self, models: list, made: list):
        self._models, self._made = models, made

    def __getattr__(self, name):
        return getattr(_h, name)

    def _Highs(self):
        self._made.append(Recorder(_h._Highs(), self._models))
        return self._made[-1]


@contextmanager
def recording(models: list, made: list | None = None) -> Iterator[None]:
    """Record, into *models*, what every product instance holds before each
    run, and into *made* the instances."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scipy_backend, "_h", _RecordingModule(models, [] if made is None else made))
        yield


@contextmanager
def oracle_ladders(models: list | None = None) -> Iterator[None]:
    """Run every lexmin ladder's LPs as :class:`OracleLayout` LPs, each
    ladder's rounds on one fresh :class:`OracleHighs` and each balancing LP
    on another."""
    twins: dict = {}

    class PairedLayout(lexmin.LadderLayout):
        def __init__(self, problem, caps):
            super().__init__(problem, caps)
            self.oracle = OracleLayout(problem, caps)

    def twin_solve(ladder_lp, *, tag, highs, time_budget_s=None):
        # A fresh instance per ladder for its rounds, and per balancing LP.
        twin = OracleHighs(highs.presolve, models)
        if ladder_lp.cost is None:
            twin = twins.setdefault(ladder_lp.layout, twin)
        lp = ladder_lp.layout.oracle.lp(ladder_lp.frozen_value, ladder_lp.cost)
        return oracle_solve(lp, twin)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lexmin, "LadderLayout", PairedLayout)
        patch.setattr(lexmin, "solve_lp", twin_solve)
        yield
