"""The one LP solve path: ``solve_lp`` is one HiGHS attempt under guardrails.

A fault — an exception, an ERROR status, or a blown budget — raises the
typed :class:`~repro.lp.solver.SolverFailure` after that one attempt; no
second solver starts.  INFEASIBLE and UNBOUNDED are answers.  Tags count
solves, and the fault hook runs once per solve, before the solver.  The
budget path and degraded mode are tested in ``tests/test_robustness.py``.
"""

from __future__ import annotations

import time

import pytest

from repro.lp import LinearProgram, LPStatus, SolverFailure, install_fault_injector, solve_lp
from repro.lp import scipy_backend
from repro.lp.problem import LPSolution
from repro.obs import Observability, use_obs


@pytest.fixture(autouse=True)
def _clean_injector():
    yield
    install_fault_injector(None)


def tiny_lp() -> LinearProgram:
    # min x + y  s.t.  x + y >= 2  ->  objective 2.
    return LinearProgram(c=[1.0, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[-2.0])


def counters(obs: Observability) -> dict:
    return {
        name: entry["value"]
        for name, entry in obs.registry.snapshot().items()
        if "value" in entry
    }


class TestOneAttempt:
    def test_a_fault_is_one_attempt_and_a_typed_failure(self, monkeypatch):
        calls = []
        solver_runs = []

        def always_fail(*args):  # any hook signature: the count is the point
            calls.append(args)
            raise RuntimeError("injected")

        monkeypatch.setattr(
            scipy_backend, "solve", lambda problem, highs=None: solver_runs.append(problem)
        )
        install_fault_injector(always_fail)
        obs = Observability()
        with use_obs(obs), pytest.raises(SolverFailure) as excinfo:
            solve_lp(tiny_lp())
        assert len(calls) == 1
        assert solver_runs == []  # the hook raised before the solver ran
        assert excinfo.value.reason == "error"
        assert excinfo.value.backend == "highs"
        got = counters(obs)
        assert got["lp.solve.failures"] == 1
        assert got["lp.solve.errors.highs"] == 1

    def test_elapsed_covers_one_attempt(self):
        def slow_then_fail(*args):
            time.sleep(0.1)
            raise RuntimeError("injected")

        install_fault_injector(slow_then_fail)
        with pytest.raises(SolverFailure) as excinfo:
            solve_lp(tiny_lp(), time_budget_s=0.01)
        # The attempt raised, so the failure is an error, not a budget
        # overrun; a second attempt would have doubled the elapsed time.
        assert excinfo.value.reason == "error"
        assert 0.1 <= excinfo.value.elapsed < 0.2

    def test_error_status_is_a_typed_failure(self, monkeypatch):
        monkeypatch.setattr(
            scipy_backend,
            "solve",
            lambda problem, highs=None: LPSolution(
                status=LPStatus.ERROR, message="synthetic"
            ),
        )
        obs = Observability()
        with use_obs(obs), pytest.raises(SolverFailure, match="synthetic") as excinfo:
            solve_lp(tiny_lp())
        assert excinfo.value.reason == "error"
        assert counters(obs)["lp.solve.errors.highs"] == 1


class TestAnswers:
    def test_infeasible_and_unbounded_are_returned(self):
        obs = Observability()
        infeasible = LinearProgram(c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])
        unbounded = LinearProgram(c=[-1.0])
        with use_obs(obs):
            assert solve_lp(infeasible).status is LPStatus.INFEASIBLE
            assert solve_lp(unbounded).status is LPStatus.UNBOUNDED
        got = counters(obs)
        assert got["lp.solve.nonoptimal"] == 2
        assert "lp.solve.failures" not in got


class TestCounters:
    def test_tags_count_solves(self):
        obs = Observability()
        with use_obs(obs):
            for _ in range(3):
                solve_lp(tiny_lp(), tag="round")
            solve_lp(tiny_lp())
        got = counters(obs)
        assert got["lp.solve.tag.round"] == 3
        assert obs.registry.snapshot()["lp.solve"]["count"] == 4

    def test_hook_sees_the_problem_and_can_be_removed(self):
        seen = []
        problem = tiny_lp()
        install_fault_injector(seen.append)
        assert solve_lp(problem).objective == pytest.approx(2.0)
        install_fault_injector(None)
        assert solve_lp(problem).is_optimal
        assert seen == [problem]
