"""The HiGHS backend answers exactly as ``linprog(method="highs")`` does.

:func:`repro.lp.scipy_backend.solve` hands scipy's bundled HiGHS the model
directly instead of going through ``linprog``.  ``linprog`` stays here as
its oracle: on every LP of a small seeded FlowTime run, and on hand-built
edge cases, the two must agree bit for bit on status, ``x``, both dual
vectors and the objective.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from repro.lp import LinearProgram, LPStatus, SolverFailure, solve_lp
from repro.lp import scipy_backend
from repro.model import ClusterCapacity
from repro.schedulers import make_scheduler
from repro.simulator.engine import Simulation
from repro.workloads.traces import generate_trace

#: ``linprog``'s status codes as the backend's statuses.
_LINPROG_STATUS = {
    0: LPStatus.OPTIMAL,
    2: LPStatus.INFEASIBLE,
    3: LPStatus.UNBOUNDED,
}


def oracle(problem: LinearProgram):
    """``(status, x, duals_ub, duals_eq, objective)`` from ``linprog``."""
    res = linprog(
        c=problem.c,
        A_ub=problem.a_ub if problem.a_ub.shape[0] else None,
        b_ub=problem.b_ub if problem.b_ub.size else None,
        A_eq=problem.a_eq if problem.a_eq.shape[0] else None,
        b_eq=problem.b_eq if problem.b_eq.size else None,
        bounds=np.column_stack([problem.lb, problem.ub]),
        method="highs",
    )
    status = _LINPROG_STATUS.get(res.status, LPStatus.ERROR)
    if status is not LPStatus.OPTIMAL:
        return status, None, None, None, None
    duals_ub = res.ineqlin.marginals if problem.a_ub.shape[0] else None
    duals_eq = res.eqlin.marginals if problem.a_eq.shape[0] else None
    return status, res.x, duals_ub, duals_eq, float(res.fun)


def assert_same(problem: LinearProgram) -> LPStatus:
    expected = oracle(problem)
    got = scipy_backend.solve(problem)
    status, x, duals_ub, duals_eq, objective = expected
    assert got.status is status
    for want, have in ((x, got.x), (duals_ub, got.duals_ub), (duals_eq, got.duals_eq)):
        if want is None:
            assert have is None
        else:
            np.testing.assert_array_equal(have, want, strict=True)
    assert got.objective == objective
    return status


@pytest.fixture(scope="module")
def flowtime_lps() -> list[LinearProgram]:
    """Every LP one seeded FlowTime run solves."""
    captured: list[LinearProgram] = []
    solve = scipy_backend.solve

    def capture(problem):
        captured.append(problem)
        return solve(problem)

    capacity = ClusterCapacity.uniform(cpu=32, mem=64)
    trace = generate_trace(
        n_workflows=2,
        jobs_per_workflow=5,
        n_adhoc=4,
        capacity=capacity,
        workflow_spread_slots=6,
        seed=11,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scipy_backend, "solve", capture)
        Simulation(
            cluster=capacity,
            scheduler=make_scheduler("FlowTime"),
            workflows=trace.workflows,
            adhoc_jobs=trace.adhoc_jobs,
        ).run()
    return captured


def test_every_lp_of_a_flowtime_run_matches_linprog(flowtime_lps):
    assert len(flowtime_lps) >= 10
    statuses = [assert_same(problem) for problem in flowtime_lps]
    assert LPStatus.OPTIMAL in statuses


def test_kHighsInf_is_infinity():
    # Infinite variable bounds are passed as they are.
    assert scipy_backend._h.kHighsInf == np.inf


class TestEdgeCases:
    def test_infeasible(self):
        # x <= 1 and x >= 2.
        lp = LinearProgram(c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])
        assert assert_same(lp) is LPStatus.INFEASIBLE

    def test_infeasible_equalities(self):
        lp = LinearProgram(c=[1.0, 1.0], a_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 2.0])
        assert assert_same(lp) is LPStatus.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram(c=[-1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[3.0])
        assert assert_same(lp) is LPStatus.UNBOUNDED

    def test_no_inequality_rows(self):
        lp = LinearProgram(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[4.0], ub=[3.0, 3.0])
        assert assert_same(lp) is LPStatus.OPTIMAL

    def test_no_equality_rows(self):
        lp = LinearProgram(c=[-1.0, -1.0], a_ub=[[1.0, 2.0], [3.0, 1.0]], b_ub=[4.0, 6.0])
        assert assert_same(lp) is LPStatus.OPTIMAL

    def test_no_rows_at_all(self):
        lp = LinearProgram(c=[1.0, -1.0], ub=[5.0, 7.0])
        assert assert_same(lp) is LPStatus.OPTIMAL

    def test_infinite_upper_and_negative_lower_bounds(self):
        lp = LinearProgram(
            c=[1.0, 1.0, -1.0],
            a_ub=[[-1.0, 1.0, 1.0]],
            b_ub=[2.0],
            a_eq=[[1.0, 1.0, 0.0]],
            b_eq=[-1.0],
            lb=[-3.0, -np.inf, 0.0],
            ub=[np.inf, np.inf, 4.0],
        )
        assert assert_same(lp) is LPStatus.OPTIMAL

    def test_all_zero_row(self):
        lp = LinearProgram(
            c=[1.0, -2.0],
            a_ub=sparse.csr_matrix([[0.0, 0.0], [1.0, 1.0]]),
            b_ub=[1.0, 3.0],
            a_eq=[[0.0, 0.0], [1.0, -1.0]],
            b_eq=[0.0, 1.0],
        )
        assert assert_same(lp) is LPStatus.OPTIMAL

    def test_explicit_zero_entries(self):
        a_ub = sparse.csr_matrix(
            (np.array([0.0, 1.0, 2.0]), np.array([0, 1, 1]), np.array([0, 2, 3])),
            shape=(2, 2),
        )
        lp = LinearProgram(c=[-1.0, -1.0], a_ub=a_ub, b_ub=[1.0, 4.0], ub=[3.0, 3.0])
        assert assert_same(lp) is LPStatus.OPTIMAL


class TestInputChecks:
    """``linprog`` rejects non-finite data; so does the backend, and
    ``solve_lp`` reports it as a solver error."""

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("c", np.nan),
            ("c", np.inf),
            ("a_ub", np.inf),
            ("a_eq", np.nan),
            ("b_ub", np.nan),
            ("b_eq", np.nan),
        ],
    )
    def test_non_finite_input_is_a_solver_error(self, field, bad):
        data = {
            "c": [1.0, 1.0],
            "a_ub": [[-1.0, -1.0]],
            "b_ub": [-2.0],
            "a_eq": [[1.0, -1.0]],
            "b_eq": [0.0],
        }
        value = np.array(data[field], dtype=float)
        value.flat[0] = bad
        data[field] = value
        lp = LinearProgram(**data)
        with pytest.raises(ValueError):
            linprog(
                c=lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq, method="highs"
            )
        with pytest.raises(SolverFailure) as excinfo:
            solve_lp(lp)
        assert excinfo.value.reason == "error"
        assert isinstance(excinfo.value.__cause__, ValueError)
