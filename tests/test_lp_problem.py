"""Unit tests for the LinearProgram container and the solve path."""

import numpy as np
import pytest
from scipy import sparse

from repro.lp import LinearProgram, LPStatus, solve_lp
from repro.lp.problem import LPSolution


class TestLinearProgram:
    def test_defaults(self):
        lp = LinearProgram(c=[1.0, 2.0])
        assert lp.n_variables == 2
        assert lp.n_constraints == 0
        assert np.all(lp.lb == 0)
        assert np.all(np.isinf(lp.ub))

    def test_rejects_empty_objective(self):
        with pytest.raises(ValueError):
            LinearProgram(c=[])

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[1.0, 2.0])

    def test_rejects_column_mismatch(self):
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0], a_ub=[[1.0, 2.0]], b_ub=[1.0])

    def test_rejects_sparse_column_mismatch(self):
        # Wider than c: ``linprog`` raises, and HiGHS would answer INFEASIBLE.
        with pytest.raises(ValueError, match="3 columns, objective has 2"):
            LinearProgram(c=[1, 1], a_ub=sparse.csr_matrix([[1, 1, 1]]), b_ub=[-1])
        with pytest.raises(ValueError):
            LinearProgram(c=[1, 1, 1], a_eq=sparse.csr_matrix([[1, 1]]), b_eq=[1])

    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0], lb=[2.0], ub=[1.0])

    def test_accepts_sparse(self):
        lp = LinearProgram(
            c=[1.0, 1.0],
            a_ub=sparse.csr_matrix([[1.0, 1.0]]),
            b_ub=[1.0],
        )
        assert lp.n_constraints == 1


@pytest.fixture(params=["highs", "simplex"])
def backend(request):
    """``solve_lp`` on HiGHS, and on the reference simplex substituted for it."""
    if request.param == "simplex":
        request.getfixturevalue("simplex_solver")
    return request.param


class TestSolveRegistry:
    """``solve_lp`` returns every kind of answer, whichever solver is under it."""

    def test_simple_minimum(self, backend):
        # min x + y  s.t. x + y >= 2  ->  objective 2.
        lp = LinearProgram(c=[1.0, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[-2.0])
        sol = solve_lp(lp)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(2.0)

    def test_infeasible(self, backend):
        # x <= 1 and x >= 2 simultaneously.
        lp = LinearProgram(c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])
        assert solve_lp(lp).status is LPStatus.INFEASIBLE

    def test_unbounded(self, backend):
        lp = LinearProgram(c=[-1.0])  # min -x, x >= 0, no upper bound
        assert solve_lp(lp).status is LPStatus.UNBOUNDED


class TestLPSolution:
    def test_require_optimal_raises_on_failure(self):
        sol = LPSolution(status=LPStatus.INFEASIBLE, message="nope")
        with pytest.raises(RuntimeError, match="nope"):
            sol.require_optimal()

    def test_require_optimal_returns_x(self):
        sol = LPSolution(status=LPStatus.OPTIMAL, x=np.array([1.0]))
        assert sol.require_optimal()[0] == 1.0
