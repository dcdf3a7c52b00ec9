"""HiGHS against the from-scratch reference simplex on a battery of LPs."""

import numpy as np
import pytest

from repro.lp import LinearProgram, LPStatus
from repro.lp.scipy_backend import solve as solve_highs
from tests.simplex import solve as solve_simplex


def assert_matches_highs(lp: LinearProgram, tol: float = 1e-6):
    ours = solve_simplex(lp)
    ref = solve_highs(lp)
    assert ours.status is ref.status, (ours.message, ref.message)
    if ref.status is LPStatus.OPTIMAL:
        assert ours.objective == pytest.approx(ref.objective, abs=tol)
        # Feasibility of our x against the original constraints.
        x = ours.x
        assert np.all(x >= lp.lb - tol)
        assert np.all(x <= lp.ub + tol)
        if lp.a_ub.shape[0]:
            assert np.all(np.asarray(lp.a_ub @ x).ravel() <= lp.b_ub + tol)
        if lp.a_eq.shape[0]:
            assert np.allclose(np.asarray(lp.a_eq @ x).ravel(), lp.b_eq, atol=tol)


class TestAgainstHighs:
    def test_basic_le(self):
        lp = LinearProgram(
            c=[-3.0, -5.0],
            a_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
            b_ub=[4.0, 12.0, 18.0],
        )
        assert_matches_highs(lp)

    def test_equality_constraints(self):
        lp = LinearProgram(
            c=[2.0, 3.0, 1.0],
            a_eq=[[1.0, 1.0, 1.0]],
            b_eq=[10.0],
        )
        assert_matches_highs(lp)

    def test_mixed_constraints_and_bounds(self):
        lp = LinearProgram(
            c=[1.0, -2.0, 0.5],
            a_ub=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
            b_ub=[5.0, 7.0],
            a_eq=[[1.0, 0.0, 1.0]],
            b_eq=[4.0],
            ub=[3.0, 4.0, 10.0],
        )
        assert_matches_highs(lp)

    def test_negative_rhs(self):
        # x + y >= 3 as -x - y <= -3.
        lp = LinearProgram(c=[2.0, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[-3.0])
        assert_matches_highs(lp)

    def test_shifted_lower_bounds(self):
        lp = LinearProgram(
            c=[1.0, 1.0],
            a_ub=[[1.0, 1.0]],
            b_ub=[10.0],
            lb=[2.0, 3.0],
        )
        sol = solve_simplex(lp)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(5.0)

    def test_free_variable_split(self):
        # min x with x free and x >= -5 via constraint: optimum -5.
        lp = LinearProgram(
            c=[1.0],
            a_ub=[[-1.0]],
            b_ub=[5.0],
            lb=[-np.inf],
        )
        sol = solve_simplex(lp)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(-5.0)

    def test_degenerate_redundant_rows(self):
        lp = LinearProgram(
            c=[1.0, 1.0],
            a_eq=[[1.0, 1.0], [2.0, 2.0]],  # second row redundant
            b_eq=[4.0, 8.0],
        )
        assert_matches_highs(lp)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 6, 4
        lp = LinearProgram(
            c=rng.normal(size=n),
            a_ub=rng.normal(size=(m, n)),
            b_ub=rng.uniform(1.0, 5.0, size=m),
            ub=np.full(n, 10.0),
        )
        assert_matches_highs(lp, tol=1e-5)


class TestVertexAndDuals:
    def test_returns_vertex_on_tu_system(self):
        # Interval (TU) system with integer rhs: vertex must be integral.
        lp = LinearProgram(
            c=[1.0, 1.0, 2.0],
            a_eq=[[1.0, 1.0, 0.0]],
            b_eq=[3.0],
            a_ub=[[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
            b_ub=[2.0, 2.0],
        )
        sol = solve_simplex(lp)
        assert sol.is_optimal
        assert np.allclose(sol.x, np.round(sol.x), atol=1e-8)

    def test_dual_signs_match_scipy(self):
        lp = LinearProgram(
            c=[-1.0, -1.0],
            a_ub=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            b_ub=[2.0, 3.0, 4.0],
        )
        ours = solve_simplex(lp)
        ref = solve_highs(lp)
        assert ours.duals_ub is not None and ref.duals_ub is not None
        assert np.allclose(ours.duals_ub, ref.duals_ub, atol=1e-6)
