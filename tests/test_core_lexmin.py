"""Tests for the lexicographic minimax schedule solver (Sec. V-B)."""

import numpy as np
import pytest

from repro.core.lexmin import lexmin_schedule
from repro.core.lp_formulation import ScheduleEntry, build_schedule_problem
from repro.model.resources import CPU, MEM, ResourceVector

RES = (CPU, MEM)


def entry(job_id="j", release=0, deadline=4, units=4, cores=1, mem=2, parallel=10):
    return ScheduleEntry(
        job_id=job_id,
        release=release,
        deadline=deadline,
        units=units,
        unit_demand=ResourceVector({CPU: cores, MEM: mem}),
        max_parallel=parallel,
    )


def caps(horizon, cpu=10, mem=20):
    arr = np.zeros((horizon, 2))
    arr[:, 0] = cpu
    arr[:, 1] = mem
    return arr


class TestMinimaxValue:
    def test_single_job_spreads_flat(self):
        # 8 units over 4 slots on a 10-core cluster: flat optimum is 2/slot
        # -> minimax utilisation 2/10.
        problem = build_schedule_problem(
            [entry(units=8, deadline=4)], caps(4), RES
        )
        result = lexmin_schedule(problem)
        assert result.is_optimal
        assert result.minimax == pytest.approx(0.2, abs=1e-6)
        x = result.x
        assert np.allclose(x, 2.0, atol=1e-6)

    def test_demand_met_exactly(self):
        problem = build_schedule_problem(
            [entry(units=7, deadline=5)], caps(5), RES
        )
        x = lexmin_schedule(problem).x
        assert x.sum() == pytest.approx(7.0, abs=1e-6)

    def test_two_jobs_share_evenly(self):
        entries = [
            entry(job_id="a", units=6, deadline=6),
            entry(job_id="b", units=6, deadline=6),
        ]
        problem = build_schedule_problem(entries, caps(6), RES)
        result = lexmin_schedule(problem)
        # Total 12 units over 6 slots -> 2 units/slot -> 0.2 of 10 cores.
        assert result.minimax == pytest.approx(0.2, abs=1e-6)

    def test_staggered_windows_lexmin_balances(self):
        # Job a can only run in slots [0, 2); job b anywhere in [0, 4).
        # Minimax forces b out of a's busy slots where possible.
        entries = [
            entry(job_id="a", units=8, release=0, deadline=2, parallel=8),
            entry(job_id="b", units=8, release=0, deadline=4, parallel=8),
        ]
        problem = build_schedule_problem(entries, caps(4), RES)
        result = lexmin_schedule(problem)
        assert result.is_optimal
        util = result.utilisation
        # a needs 4/slot in its 2 slots = 0.4; b then fills the remaining
        # two slots at 4/slot = 0.4 -> a perfectly flat 0.4 skyline.
        assert result.minimax == pytest.approx(0.4, abs=1e-6)
        assert util.max() <= 0.4 + 1e-6

    def test_minimax_equals_first_theta_and_thetas_non_increasing(self):
        entries = [
            entry(job_id="a", units=10, deadline=3, parallel=10),
            entry(job_id="b", units=4, deadline=6, parallel=10),
        ]
        problem = build_schedule_problem(entries, caps(6), RES)
        result = lexmin_schedule(problem)
        assert result.minimax == pytest.approx(result.thetas[0])
        assert all(
            result.thetas[i] >= result.thetas[i + 1] - 1e-9
            for i in range(len(result.thetas) - 1)
        )


class TestConstraints:
    def test_respects_parallelism_bounds(self):
        problem = build_schedule_problem(
            [entry(units=8, deadline=8, parallel=1)], caps(8), RES
        )
        x = lexmin_schedule(problem).x
        assert np.all(x <= 1.0 + 1e-9)

    def test_respects_capacity(self):
        # Two heavy jobs forced into overlapping tight windows.
        entries = [
            entry(job_id="a", units=16, release=0, deadline=2, cores=1, parallel=8),
            entry(job_id="b", units=4, release=0, deadline=2, cores=1, parallel=8),
        ]
        problem = build_schedule_problem(entries, caps(2, cpu=10, mem=40), RES)
        result = lexmin_schedule(problem)
        assert result.is_optimal
        loads = np.asarray(problem.a_util @ result.x).ravel()
        for k, load in enumerate(loads):
            assert load <= problem.cap_of_cell(k) + 1e-6

    def test_infeasible_window_reported(self):
        # 30 units with parallelism 10 in 2 slots = max 20 -> infeasible.
        problem = build_schedule_problem(
            [entry(units=30, deadline=2, parallel=10)], caps(2, cpu=100, mem=200), RES
        )
        result = lexmin_schedule(problem)
        assert result.status == "infeasible"
        assert result.x is None

    def test_over_capacity_infeasible(self):
        # Demand exceeds total cluster capacity over the window.
        problem = build_schedule_problem(
            [entry(units=50, deadline=2, cores=1, parallel=50)],
            caps(2, cpu=10, mem=200),
            RES,
        )
        assert lexmin_schedule(problem).status == "infeasible"


class TestRoundsAndBackends:
    def test_max_rounds_caps_iterations(self):
        entries = [
            entry(job_id=f"j{i}", units=4, release=i, deadline=i + 4)
            for i in range(4)
        ]
        problem = build_schedule_problem(entries, caps(8), RES)
        result = lexmin_schedule(problem, max_rounds=1)
        assert result.rounds == 1
        assert result.is_optimal

    def test_exact_lexmin_terminates(self):
        entries = [
            entry(job_id="a", units=6, deadline=3),
            entry(job_id="b", units=6, release=1, deadline=5),
        ]
        problem = build_schedule_problem(entries, caps(5), RES)
        result = lexmin_schedule(problem, max_rounds=None)
        assert result.is_optimal

    def test_simplex_backend_agrees_on_minimax(self, request):
        entries = [entry(units=6, deadline=3)]
        problem = build_schedule_problem(entries, caps(3), RES)
        highs = lexmin_schedule(problem)
        request.getfixturevalue("simplex_solver")
        simplex = lexmin_schedule(problem)
        assert highs.minimax == pytest.approx(simplex.minimax, abs=1e-6)

    def test_paper_mode_also_solves(self):
        problem = build_schedule_problem(
            [entry(units=6, deadline=3)], caps(3), RES, mode="paper"
        )
        result = lexmin_schedule(problem)
        assert result.is_optimal
        # Demand equalities hold per resource.
        resid = np.asarray(problem.a_eq @ result.x).ravel() - problem.b_eq
        assert np.allclose(resid, 0.0, atol=1e-6)
