"""The HiGHS backend answers exactly as ``linprog(method="highs")`` does.

:func:`repro.lp.scipy_backend.solve` hands scipy's bundled HiGHS the model
directly instead of going through ``linprog``.  ``linprog`` stays here as
its oracle: on every LP of a small seeded FlowTime run, and on hand-built
edge cases, the two must agree bit for bit on status, ``x``, both dual
vectors and the objective — also when one reused
:class:`~repro.lp.scipy_backend.Highs` solves them all, and when lexmin
ladders, each on its own instance, run on many threads at once.  A
``Highs(presolve=False)`` answers as ``linprog`` with presolve off.  An LP
of the same layout as the instance's last optimum is solved warm from its
basis; that answer is the same optimum, not always the same vertex.
"""

from __future__ import annotations

import os
import random
import sys
import threading

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from repro.core.lexmin import LadderLayout, lexmin_schedule
from repro.core.lp_formulation import ScheduleEntry, build_schedule_problem
from repro.lp import LinearProgram, LPStatus, SolverFailure, solve_lp
from repro.lp import scipy_backend
from repro.model import ClusterCapacity
from repro.obs import Observability, use_obs
from repro.model.resources import CPU, MEM, ResourceVector
from repro.schedulers import make_scheduler
from repro.simulator.engine import Simulation
from repro.workloads.traces import generate_trace

#: ``linprog``'s status codes as the backend's statuses.
_LINPROG_STATUS = {
    0: LPStatus.OPTIMAL,
    2: LPStatus.INFEASIBLE,
    3: LPStatus.UNBOUNDED,
}


def oracle(problem: LinearProgram, presolve: bool = True):
    """``(status, x, duals_ub, duals_eq, objective)`` from ``linprog``."""
    res = linprog(
        c=problem.c,
        A_ub=problem.a_ub if problem.a_ub.shape[0] else None,
        b_ub=problem.b_ub if problem.b_ub.size else None,
        A_eq=problem.a_eq if problem.a_eq.shape[0] else None,
        b_eq=problem.b_eq if problem.b_eq.size else None,
        bounds=np.column_stack([problem.lb, problem.ub]),
        method="highs",
        options={"presolve": presolve},
    )
    status = _LINPROG_STATUS.get(res.status, LPStatus.ERROR)
    if status is not LPStatus.OPTIMAL:
        return status, None, None, None, None
    duals_ub = res.ineqlin.marginals if problem.a_ub.shape[0] else None
    duals_eq = res.eqlin.marginals if problem.a_eq.shape[0] else None
    return status, res.x, duals_ub, duals_eq, float(res.fun)


def assert_same(problem: LinearProgram, highs: scipy_backend.Highs | None = None) -> LPStatus:
    expected = oracle(problem, highs is None or highs.presolve)
    got = scipy_backend.solve(problem, highs)
    status, x, duals_ub, duals_eq, objective = expected
    assert got.status is status
    for want, have in ((x, got.x), (duals_ub, got.duals_ub), (duals_eq, got.duals_eq)):
        if want is None:
            assert have is None
        else:
            np.testing.assert_array_equal(have, want, strict=True)
    assert got.objective == objective
    return status


def assert_same_optimum(problem: LinearProgram, highs: scipy_backend.Highs) -> LPStatus:
    """A warm answer: ``linprog``'s status and objective, at some vertex."""
    status, *_, objective = oracle(problem)
    got = scipy_backend.solve(problem, highs)
    assert got.status is status
    if status is LPStatus.OPTIMAL:
        assert got.objective == pytest.approx(objective, rel=1e-9, abs=1e-9)
    return status


@pytest.fixture(scope="module")
def flowtime_lps() -> list[LinearProgram]:
    """Every LP one seeded FlowTime run solves."""
    captured: list[LinearProgram] = []
    solve = scipy_backend.solve

    def capture(problem, highs=None):
        captured.append(problem)
        return solve(problem, highs)

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


def test_every_lp_of_a_flowtime_run_matches_linprog_without_presolve(flowtime_lps):
    obs = Observability()
    with use_obs(obs):
        statuses = [
            assert_same(problem, scipy_backend.Highs(presolve=False)) for problem in flowtime_lps
        ]
    assert LPStatus.OPTIMAL in statuses
    assert obs.counter("lp.solve.presolve.off").value == len(flowtime_lps)
    assert obs.counter("lp.solve.presolve.on").value == 0


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


class TestReusedInstance:
    """One :class:`~repro.lp.scipy_backend.Highs` for many solves.  An LP
    whose layout differs from the last optimum's is passed as a new model
    and answers as a fresh instance per solve, which is what ``linprog``
    builds; a same-layout successor is solved warm from the kept basis and
    answers the same optimum."""

    INFEASIBLE = LinearProgram(c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])
    NON_FINITE = LinearProgram(c=[np.nan, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[-2.0])

    def test_shuffled_lps_on_one_instance_match_linprog(self, flowtime_lps):
        order = list(flowtime_lps)
        random.Random(7).shuffle(order)
        highs = scipy_backend.Highs()
        statuses = []
        for index, problem in enumerate(order):
            if index % 5 == 2:
                assert assert_same(self.INFEASIBLE, highs) is LPStatus.INFEASIBLE
            if index % 7 == 3:
                with pytest.raises(ValueError):
                    scipy_backend.solve(self.NON_FINITE, highs)
            last = highs.last
            if last is not None and scipy_backend._same_layout(last, problem):
                statuses.append(assert_same_optimum(problem, highs))
            else:
                statuses.append(assert_same(problem, highs))
        assert LPStatus.OPTIMAL in statuses

    def test_a_ladder_on_one_instance_is_solved_warm(self):
        """Round by round, then the balancing LP: each after the first is
        warm and is ``linprog``'s optimum, and an unchanged LP re-solves in
        no simplex iteration.  An LP of another layout in between answers
        bit for bit and drops the basis."""
        round_1, round_2, balance = _ladder_lps()
        highs = scipy_backend.Highs()
        assert_same(round_1, highs)
        assert highs.last is round_1
        for successor in (round_2, balance):
            assert assert_same_optimum(successor, highs) is LPStatus.OPTIMAL
            assert highs.last is successor
        obs = Observability()
        with use_obs(obs):
            assert assert_same_optimum(balance, highs) is LPStatus.OPTIMAL
        assert obs.histogram("lp.backend.highs.iterations").sum == 0
        assert assert_same(self.INFEASIBLE, highs) is LPStatus.INFEASIBLE
        assert highs.last is None
        assert assert_same(round_2, highs) is LPStatus.OPTIMAL

    def test_a_ladder_without_presolve_matches_linprog_without_presolve(self):
        """Each LP of the ladder fresh on an unpresolved instance answers
        as ``linprog`` with presolve off; on one such instance, each after
        the first is warm and answers its optimum."""
        lps = _ladder_lps()
        for lp in lps:
            assert assert_same(lp, scipy_backend.Highs(presolve=False)) is LPStatus.OPTIMAL
        highs = scipy_backend.Highs(presolve=False)
        assert assert_same(lps[0], highs) is LPStatus.OPTIMAL
        for successor in lps[1:]:
            assert assert_same_optimum(successor, highs) is LPStatus.OPTIMAL
            assert highs.last is successor

    @pytest.mark.parametrize("presolve", [True, False])
    def test_a_warm_answer_that_falls_back_keeps_the_presolve_setting(
        self, presolve, monkeypatch
    ):
        """The fresh re-solve runs on an instance with the same presolve
        setting, and answers as ``linprog`` with that setting."""
        round_1, round_2, _ = _ladder_lps()
        highs = scipy_backend.Highs(presolve=presolve)
        assert assert_same(round_1, highs) is LPStatus.OPTIMAL
        built: list[bool] = []

        class Recording(scipy_backend.Highs):
            def __init__(self, presolve=True):
                super().__init__(presolve)
                built.append(presolve)

        def not_optimal(core, last, problem):
            return True, scipy_backend._h.HighsModelStatus.kIterationLimit

        monkeypatch.setattr(scipy_backend, "Highs", Recording)
        monkeypatch.setattr(scipy_backend, "_warm_run", not_optimal)
        obs = Observability()
        with use_obs(obs):
            assert assert_same(round_2, highs) is LPStatus.OPTIMAL
        assert built == [presolve]
        assert obs.counter("lp.solve.warm_fallback").value == 1
        setting = "on" if presolve else "off"
        assert obs.counter(f"lp.solve.presolve.{setting}").value == 1
        assert highs.presolve is presolve and highs.last is round_2

    def test_a_solve_that_raises_discards_the_instance(self, monkeypatch):
        lp = LinearProgram(c=[1.0, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[-2.0])
        highs = scipy_backend.Highs()
        assert scipy_backend.solve(lp, highs).is_optimal
        used = highs.take()
        highs.keep(used)

        def broken_model(problem):
            raise RuntimeError("broken")

        with monkeypatch.context() as patch:
            patch.setattr(scipy_backend, "_model", broken_model)
            with pytest.raises(RuntimeError):
                scipy_backend.solve(lp, highs)
        assert highs.take() is not used
        assert assert_same(lp, highs) is LPStatus.OPTIMAL


def _ladder_lps() -> tuple[LinearProgram, LinearProgram, LinearProgram]:
    """Round 1, round 2 (half the cells frozen) and the balancing LP of one
    ladder's layout."""
    (problem,) = _ladder_problems(1, seed=5)
    caps = problem.cell_caps()
    layout = LadderLayout(problem, caps)
    frozen = np.full(caps.size, np.inf)
    round_1 = layout.lp(frozen)
    theta = scipy_backend.solve(round_1).x[-1]
    frozen[: caps.size // 2] = (theta + 1e-6) * caps[: caps.size // 2]
    round_2 = layout.lp(frozen)
    frozen[caps.size // 2 :] = caps[caps.size // 2 :]
    return round_1, round_2, layout.lp(frozen, np.ones(problem.n_vars))


def _ladder_problems(count: int, seed: int) -> list:
    """Seeded schedule problems with staggered windows: several lexmin
    rounds each, so every ladder reuses its instance."""
    rng = random.Random(seed)
    problems = []
    for _ in range(count):
        horizon = rng.randint(6, 12)
        entries = []
        for index in range(rng.randint(3, 6)):
            release = rng.randint(0, horizon - 2)
            entries.append(
                ScheduleEntry(
                    job_id=f"j{index}",
                    release=release,
                    deadline=rng.randint(release + 1, horizon),
                    units=rng.randint(1, 12),
                    unit_demand=ResourceVector({CPU: rng.randint(1, 3), MEM: rng.randint(1, 6)}),
                    max_parallel=rng.randint(2, 8),
                )
            )
        caps = np.column_stack([np.full(horizon, 16.0), np.full(horizon, 40.0)])
        problems.append(build_schedule_problem(entries, caps, (CPU, MEM)))
    return problems


def _outcome(result) -> tuple:
    x = None if result.x is None else result.x.tobytes()
    return result.status, x, result.thetas, result.rounds


def test_concurrent_ladders_answer_as_sequential_ones():
    """More threads than cores, each running every ladder on its own
    instances, with a short switch interval: each result is the sequential
    one, bit for bit."""
    problems = _ladder_problems(12, seed=3)
    expected = [_outcome(lexmin_schedule(problem)) for problem in problems]
    assert any(rounds > 1 for *_, rounds in expected)
    n_threads = (os.cpu_count() or 1) + 2
    mismatches: list = []
    errors: list = []

    def work(seed: int) -> None:
        try:
            order = list(range(len(problems)))
            random.Random(seed).shuffle(order)
            for index in order * 2:
                got = _outcome(lexmin_schedule(problems[index]))
                if got != expected[index]:
                    mismatches.append(index)
        except Exception as error:  # reported by the assertion below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert mismatches == []
