"""Fault-tolerance tests: solver guardrails, degraded mode, chaos harness.

The robustness layer's contract (docs/ROBUSTNESS.md): a solver fault
ends the solve's one attempt with the typed
:class:`~repro.lp.solver.SolverFailure`; the FlowTime scheduler catches it
and keeps serving slots (stale plan + EDF greedy) until a solve succeeds
again.  Chaos experiments are seeded and reproducible, and a seed fails
the same solves it failed when every fault was also retried.
"""

import numpy as np
import pytest

from repro.chaos import ChaosConfig, ChaosInjector, InjectedSolverError, chaos_solver
from repro.lp.problem import LinearProgram, LPStatus
from repro.lp.solver import SolverFailure, install_fault_injector, solve_lp
from repro.model.cluster import ClusterCapacity
from repro.model.workflow import Workflow
from repro.obs import MemorySink, Observability, use_obs
from repro.schedulers.flowtime_sched import FlowTimeScheduler
from repro.simulator.engine import Simulation, SimulationConfig
from tests.conftest import adhoc_job, deadline_job


@pytest.fixture(autouse=True)
def _clean_injector():
    """Never leak a fault injector into other tests."""
    yield
    install_fault_injector(None)


def tiny_lp() -> LinearProgram:
    # min x  s.t.  x >= 1  (as -x <= -1), 0 <= x <= 10: optimum x = 1.
    return LinearProgram(
        c=np.array([1.0]),
        a_ub=np.array([[-1.0]]),
        b_ub=np.array([-1.0]),
        ub=np.array([10.0]),
    )


def infeasible_lp() -> LinearProgram:
    # x >= 5 with ub 1: infeasible, which is an *answer*, not a failure.
    return LinearProgram(
        c=np.array([1.0]),
        a_ub=np.array([[-1.0]]),
        b_ub=np.array([-5.0]),
        ub=np.array([1.0]),
    )


def fail_always(problem):
    """An injector that faults on every solve."""
    raise InjectedSolverError("boom")


class TestSolverGuardrails:
    def test_clean_solve_unaffected(self):
        solution = solve_lp(tiny_lp())
        assert solution.status is LPStatus.OPTIMAL
        assert solution.x[0] == pytest.approx(1.0)

    def test_infeasible_is_an_answer_not_a_failure(self):
        solution = solve_lp(infeasible_lp())
        assert solution.status is LPStatus.INFEASIBLE

    def test_all_backends_fail_raises_typed_failure(self):
        obs = Observability()
        install_fault_injector(fail_always)
        with use_obs(obs), pytest.raises(SolverFailure) as excinfo:
            solve_lp(tiny_lp())
        failure = excinfo.value
        assert failure.reason == "error"
        assert failure.backend == "highs"  # the one solver, tried once
        assert obs.registry.snapshot()["lp.solve.failures"]["value"] == 1

    def test_budget_exceeded_raises_budget_failure(self):
        def slow(problem):
            import time

            time.sleep(0.02)

        obs = Observability()
        install_fault_injector(slow)
        with use_obs(obs), pytest.raises(SolverFailure) as excinfo:
            solve_lp(tiny_lp(), time_budget_s=0.001)
        assert excinfo.value.reason == "budget"
        assert excinfo.value.elapsed > 0.001
        snap = obs.registry.snapshot()
        assert snap["lp.solve.budget_exceeded"]["value"] == 1

    def test_no_budget_no_injector_is_default(self):
        # The zero-fault path must not depend on any of the new machinery.
        solution = solve_lp(tiny_lp(), time_budget_s=None)
        assert solution.is_optimal


def chain(wid: str, n: int = 3, deadline: int = 60) -> Workflow:
    jobs = [deadline_job(f"{wid}-j{i}", wid) for i in range(n)]
    edges = [(f"{wid}-j{i}", f"{wid}-j{i+1}") for i in range(n - 1)]
    return Workflow.from_jobs(wid, jobs, edges, 0, deadline)


def run_flowtime(workflows, adhoc=(), injector=None, obs=None):
    if injector is not None:
        install_fault_injector(injector)
    sim = Simulation(
        cluster=ClusterCapacity.uniform(cpu=40, mem=80),
        scheduler=FlowTimeScheduler(),
        workflows=workflows,
        adhoc_jobs=adhoc,
        config=SimulationConfig(max_slots=500),
        obs=obs,
    )
    return sim, sim.run()


class TestDegradedMode:
    def test_permanent_solver_outage_still_completes_work(self):
        sink = MemorySink()
        obs = Observability(sink=sink)
        sim, result = run_flowtime(
            [chain("w")],
            adhoc=[adhoc_job("a", arrival=0)],
            injector=fail_always,
            obs=obs,
        )
        assert result.finished  # EDF fallback carried the whole run
        assert result.workflows["w"].completion_slot is not None
        assert result.jobs["a"].completion_slot is not None
        assert sim.scheduler.degraded  # never recovered: solver still down
        assert sim.scheduler.plan_failures > 0
        snap = obs.registry.snapshot()
        assert snap["sched.degraded.slots"]["value"] > 0
        assert snap["sched.plan.failures"]["value"] > 0
        assert sink.of_type("plan_fallback")

    def test_transient_outage_recovers_automatically(self):
        calls = {"n": 0}

        def transient(problem):
            calls["n"] += 1
            # The ladder is lazy, so the first plan attempt is one solve
            # (round 1 of the first rung; no shortfall-relax probe runs
            # before a rung has failed), and a solve is one attempt:
            # failing it fails exactly one whole plan, then the solver
            # comes back.
            if calls["n"] <= 1:
                raise InjectedSolverError("transient")

        sink = MemorySink()
        obs = Observability(sink=sink)
        sim, result = run_flowtime([chain("w")], injector=transient, obs=obs)
        assert result.finished
        assert not sim.scheduler.degraded  # recovered on the next solve
        assert sim.scheduler.plan_failures == 1
        assert sink.of_type("plan_fallback")
        assert sink.of_type("plan_recovered")
        assert result.workflows["w"].met_deadline

    def test_zero_faults_means_zero_degraded_slots(self):
        obs = Observability()
        sim, result = run_flowtime([chain("w")], obs=obs)
        assert result.finished
        assert sim.scheduler.plan_failures == 0
        snap = obs.registry.snapshot()
        assert "sched.degraded.slots" not in snap
        assert "sched.plan.failures" not in snap


class TestChaosHarness:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(solver_fault_prob=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(solver_slow_s=-1)

    def test_seeded_fault_plan_is_deterministic(self):
        config = ChaosConfig(solver_fault_prob=0.3, seed=42)
        outcomes = []
        for _ in range(2):
            injector = ChaosInjector(config)
            row = []
            for _ in range(50):
                try:
                    injector(None)
                    row.append(False)
                except InjectedSolverError:
                    row.append(True)
            outcomes.append(row)
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0])

    def test_context_manager_installs_and_removes(self):
        with chaos_solver(ChaosConfig(solver_fault_prob=1.0, seed=1)) as chaos:
            with pytest.raises(SolverFailure):
                solve_lp(tiny_lp())
            assert chaos.n_faults > 0
        # Hook removed: solves are clean again.
        assert solve_lp(tiny_lp()).is_optimal

    def test_slow_faults_trip_the_budget_path(self):
        config = ChaosConfig(solver_slow_prob=1.0, solver_slow_s=0.02, seed=0)
        with chaos_solver(config):
            with pytest.raises(SolverFailure) as excinfo:
                solve_lp(tiny_lp(), time_budget_s=0.001)
        assert excinfo.value.reason == "budget"

    def test_chaos_simulation_completes_under_faults(self):
        obs = Observability()
        with chaos_solver(ChaosConfig(solver_fault_prob=0.2, seed=7)) as chaos:
            sim, result = run_flowtime(
                [chain("w0"), chain("w1", deadline=80)], obs=obs
            )
        assert result.finished
        assert chaos.n_faults > 0
        assert result.workflows["w0"].completion_slot is not None
        assert result.workflows["w1"].completion_slot is not None


#: Per seed, the slots of the ``plan_fallback`` events and the
#: ``sched.degraded.slots`` count of :func:`chaos_run`, recorded when the
#: solver still retried every failed attempt on a second backend and the
#: chaos config failed that retry too (a burst of 2).  A burst attempt drew
#: no random number, so one attempt per solve must fail the same solves.
PINNED_CHAOS = {
    0: ([15, 16, 17, 23, 24, *range(33, 43)], 15),
    1: ([*range(9, 16), 26, 30, 31, 32, 33, *range(35, 41), 44, 45, 46], 21),
    2: (
        [*range(5, 12), 16, *range(19, 24), 26, 27, 28, *range(31, 36),
         *range(39, 44), 48, 49],
        28,
    ),
    3: ([*range(3, 8), 10, 11, *range(13, 22), 37, 38, 39, *range(43, 47), 49, 50, 51], 26),
    4: ([*range(1, 9), *range(14, 19), *range(31, 39), 45, 46, 51], 24),
}


def chaos_run(seed: int):
    """A small mixed workload under 25% seeded solver faults."""
    from repro.analysis.experiments import run_one
    from repro.workloads.traces import generate_trace

    capacity = ClusterCapacity.uniform(cpu=40, mem=80)
    trace = generate_trace(
        n_workflows=3,
        jobs_per_workflow=4,
        n_adhoc=6,
        capacity=capacity,
        workflow_spread_slots=20,
        seed=seed,
    )
    sink = MemorySink()
    obs = Observability(sink=sink)
    with chaos_solver(ChaosConfig(solver_fault_prob=0.25, seed=seed)) as chaos:
        run_one("FlowTime", trace, capacity, obs=obs)
    return sink, obs.registry.snapshot(), chaos


class TestChaosFaultSequence:
    @pytest.mark.parametrize("seed", sorted(PINNED_CHAOS))
    def test_same_solves_fail_as_under_the_retrying_solver(self, seed):
        sink, snapshot, chaos = chaos_run(seed)
        fallback_slots, degraded_slots = PINNED_CHAOS[seed]
        assert [e["slot"] for e in sink.of_type("plan_fallback")] == fallback_slots
        assert snapshot["sched.degraded.slots"]["value"] == degraded_slots
        # One injected fault per failed plan, where the retry took two.
        assert chaos.n_faults == len(fallback_slots)
