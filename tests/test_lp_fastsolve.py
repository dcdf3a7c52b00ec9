"""Differential tests for the fastsolve combinatorial backend.

The contract under test (ISSUE 7): on every round subproblem the structure
detector certifies, the parametric max-flow solve must agree with the exact
LP backends — same status, objective within 1e-9 relative — and the
detector must never claim an instance whose lowering would be wrong.  The
corpus is built from the oracle's seeded instances by replaying the lexmin
ladder, so the LPs are exactly the ones production poses, frozen rows and
all.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.analysis.experiments import canonical_windows, run_one
from repro.core.lexmin import build_round_lp
from repro.core.lp_formulation import ScheduleEntry, build_schedule_problem
from repro.lp import (
    LinearProgram,
    LPStatus,
    detect_interval_structure,
    solve_lp,
)
from repro.lp import fastsolve
from repro.model.cluster import ClusterCapacity
from repro.model.job import Job, JobKind, TaskSpec
from repro.model.resources import ResourceVector
from repro.model.workflow import Workflow
from repro.obs import MemorySink, Observability, use_obs
from repro.simulator.engine import SimulationConfig
from repro.simulator.metrics import summarize
from repro.verify import ScheduleValidator
from repro.verify.oracle import generate_instance
from repro.workloads.traces import SyntheticTrace

#: Relative objective-agreement bound (ISSUE 7 acceptance criterion).
_OBJ_TOL = 1e-9
#: Freezing threshold mirrored from the lexmin ladder.
_DUAL_TOL = 1e-7
_FREEZE_RELAX = 1e-7


def _schedule_problem(instance, *, mode="coupled"):
    """Lower an oracle instance to the production ScheduleProblem."""
    resources = sorted(instance.capacity)
    caps = np.tile(
        [float(instance.capacity[name]) for name in resources],
        (instance.horizon, 1),
    )
    entries = [
        ScheduleEntry(
            job_id=job.job_id,
            release=job.release,
            deadline=job.deadline,
            units=job.units,
            unit_demand=ResourceVector(job.demand),
            max_parallel=job.max_parallel,
        )
        for job in instance.jobs
    ]
    return build_schedule_problem(entries, caps, resources, mode=mode)


def _ladder_lps(problem, max_rounds=3):
    """The round LPs the lexmin ladder would pose, via the exact backend.

    Mirrors the ladder's utilisation-threshold freezing so later rounds
    carry realistic frozen rows; stops early on infeasibility (the
    infeasible LP itself stays in the corpus — status agreement matters
    there too).
    """
    caps = problem.cell_caps()
    n_cells = len(problem.util_cells)
    frozen = np.full(n_cells, np.inf)
    active = list(range(n_cells))
    lps = []
    for _ in range(max_rounds):
        if not active:
            break
        lp = build_round_lp(problem, active, frozen, caps)
        lps.append(lp)
        solution = solve_lp(lp, backend="highs")
        if solution.status is not LPStatus.OPTIMAL:
            break
        theta = float(solution.x[-1])
        x = solution.x[: problem.n_vars]
        util = np.asarray(problem.a_util[active] @ x).ravel() / caps[active]
        tight = [
            cell
            for cell, value in zip(active, util)
            if value >= theta - _DUAL_TOL * max(theta, 1.0)
        ]
        if not tight:
            tight = list(active)
        for cell in tight:
            frozen[cell] = min(
                theta * caps[cell] * (1.0 + _FREEZE_RELAX) + _FREEZE_RELAX,
                caps[cell],
            )
        active = [cell for cell in active if not np.isfinite(frozen[cell])]
        if theta <= 1e-9:
            break
    return lps


@pytest.fixture(scope="module")
def corpus():
    """>= 200 seeded round subproblems across both structured regimes."""
    lps = []
    for seed in range(150):
        problem = _schedule_problem(generate_instance(seed, single_resource=True))
        lps.extend(
            (seed, "coupled-1r", lp) for lp in _ladder_lps(problem)
        )
    for seed in range(60):
        problem = _schedule_problem(generate_instance(seed), mode="paper")
        lps.extend((seed, "paper-2r", lp) for lp in _ladder_lps(problem))
    return lps


class TestDifferential:
    def test_corpus_is_large_enough(self, corpus):
        assert len(corpus) >= 200

    def test_round_subproblems_are_structured(self, corpus):
        # Both regimes are exactly the theta-form interval class: the
        # detector must certify every single ladder LP.
        unstructured = [
            (seed, kind, detect_interval_structure(lp).reason)
            for seed, kind, lp in corpus
            if not fastsolve.supports(lp)
        ]
        assert not unstructured, unstructured[:5]

    def test_fastsolve_agrees_with_highs_on_every_round_lp(self, corpus):
        obs = Observability()
        with use_obs(obs):
            for seed, kind, lp in corpus:
                exact = solve_lp(lp, backend="highs")
                fast = fastsolve.solve(lp)
                assert fast.status is exact.status, (seed, kind, fast.message)
                if exact.status is not LPStatus.OPTIMAL:
                    continue
                diff = abs(fast.objective - exact.objective)
                bound = _OBJ_TOL * max(1.0, abs(exact.objective))
                assert diff <= bound, (seed, kind, diff)
        # Every agreement above must come from the combinatorial path, not
        # from a silent fallback to HiGHS.
        snapshot = obs.registry.snapshot()
        assert snapshot.get("lp.fastsolve.bailout", {"value": 0})["value"] == 0
        assert snapshot.get("lp.fastsolve.miss", {"value": 0})["value"] == 0
        optimal = snapshot["lp.fastsolve.hit"]["value"]
        assert optimal >= 1

    def test_fastsolve_solutions_are_primal_feasible(self, corpus):
        for seed, kind, lp in corpus:
            fast = fastsolve.solve(lp)
            if fast.status is not LPStatus.OPTIMAL:
                continue
            x = fast.x
            assert np.all(x >= -1e-9), (seed, kind)
            assert np.all(x <= lp.ub + 1e-9), (seed, kind)
            eq_gap = np.abs(np.asarray(lp.a_eq @ x).ravel() - lp.b_eq)
            assert eq_gap.max(initial=0.0) <= 1e-6, (seed, kind)
            ub_gap = np.asarray(lp.a_ub @ x).ravel() - lp.b_ub
            assert ub_gap.max(initial=0.0) <= 1e-6, (seed, kind)

    def test_small_instances_also_agree_with_simplex(self, corpus):
        checked = 0
        for seed, kind, lp in corpus:
            if lp.n_variables > 20 or checked >= 25:
                continue
            dense = solve_lp(lp, backend="simplex")
            fast = fastsolve.solve(lp)
            assert fast.status is dense.status, (seed, kind)
            if dense.status is LPStatus.OPTIMAL:
                diff = abs(fast.objective - dense.objective)
                assert diff <= _OBJ_TOL * max(1.0, abs(dense.objective))
            checked += 1
        assert checked >= 10

    def test_joint_overcommitment_is_proved_infeasible(self):
        # Two jobs of 8 units into 2 slots x 5 cpu: every window is
        # individually feasible, the joint load is not.  The zero-slope cut
        # argument must return INFEASIBLE, exactly like the LP backends.
        entries = [
            ScheduleEntry(
                job_id=f"j{i}",
                release=0,
                deadline=2,
                units=8,
                unit_demand=ResourceVector({"cpu": 1}),
                max_parallel=8,
            )
            for i in range(2)
        ]
        problem = build_schedule_problem(entries, np.full((2, 1), 5.0), ("cpu",))
        caps = problem.cell_caps()
        lp = build_round_lp(
            problem,
            range(len(problem.util_cells)),
            np.full(len(problem.util_cells), np.inf),
            caps,
        )
        assert fastsolve.supports(lp)
        assert solve_lp(lp, backend="highs").status is LPStatus.INFEASIBLE
        assert fastsolve.solve(lp).status is LPStatus.INFEASIBLE


def _structured_round1():
    entries = [
        ScheduleEntry(
            job_id="a",
            release=0,
            deadline=3,
            units=4,
            unit_demand=ResourceVector({"cpu": 2}),
            max_parallel=2,
        ),
        ScheduleEntry(
            job_id="b",
            release=1,
            deadline=4,
            units=3,
            unit_demand=ResourceVector({"cpu": 2}),
            max_parallel=3,
        ),
    ]
    problem = build_schedule_problem(entries, np.full((4, 1), 10.0), ("cpu",))
    caps = problem.cell_caps()
    return build_round_lp(
        problem,
        range(len(problem.util_cells)),
        np.full(len(problem.util_cells), np.inf),
        caps,
    )


def _mutated(lp, **overrides):
    fields = dict(
        c=lp.c.copy(),
        a_ub=lp.a_ub.copy(),
        b_ub=lp.b_ub.copy(),
        a_eq=lp.a_eq.copy(),
        b_eq=lp.b_eq.copy(),
        lb=lp.lb.copy(),
        ub=lp.ub.copy(),
    )
    fields.update(overrides)
    return LinearProgram(**fields)


class TestDetectionNeverMisfires:
    """supports() must decline everything outside the certified class."""

    def test_baseline_is_structured(self):
        assert fastsolve.supports(_structured_round1())

    def test_multi_objective_is_declined(self):
        lp = _structured_round1()
        c = lp.c.copy()
        c[0] = 0.5  # a balancing-style weighted objective, not min theta
        assert not fastsolve.supports(_mutated(lp, c=c))

    def test_maximising_theta_is_declined(self):
        lp = _structured_round1()
        assert not fastsolve.supports(_mutated(lp, c=-lp.c))

    def test_nonzero_lower_bounds_are_declined(self):
        lp = _structured_round1()
        lb = lp.lb.copy()
        lb[0] = 0.5
        assert not fastsolve.supports(_mutated(lp, lb=lb))

    def test_positive_theta_coefficient_is_declined(self):
        lp = _structured_round1()
        a_ub = lp.a_ub.tolil()
        a_ub[0, lp.n_variables - 1] = 1.0  # theta now *relaxes* the row
        assert not fastsolve.supports(_mutated(lp, a_ub=a_ub.tocsr()))

    def test_variable_spanning_two_cells_is_declined(self):
        # The coupled two-resource regime: one variable feeds a cpu cell
        # and a mem cell at once, which breaks the transportation lowering.
        entries = [
            ScheduleEntry(
                job_id="a",
                release=0,
                deadline=3,
                units=4,
                unit_demand=ResourceVector({"cpu": 1, "mem": 2}),
                max_parallel=2,
            ),
            ScheduleEntry(
                job_id="b",
                release=0,
                deadline=3,
                units=2,
                unit_demand=ResourceVector({"cpu": 2, "mem": 1}),
                max_parallel=2,
            ),
        ]
        problem = build_schedule_problem(
            entries, np.tile([8.0, 16.0], (3, 1)), ("cpu", "mem")
        )
        caps = problem.cell_caps()
        lp = build_round_lp(
            problem,
            range(len(problem.util_cells)),
            np.full(len(problem.util_cells), np.inf),
            caps,
        )
        structure = detect_interval_structure(lp)
        assert not structure.structured
        assert structure.reason  # the decline is explained, not silent

    def test_plain_lp_without_theta_is_declined(self):
        lp = LinearProgram(
            c=[1.0, 1.0],
            a_ub=sparse.csr_matrix([[-1.0, -1.0]]),
            b_ub=[-2.0],
        )
        assert not fastsolve.supports(lp)


def _single_resource_workload():
    capacity = ClusterCapacity(base=ResourceVector({"cpu": 12}))
    jobs = [
        Job(
            job_id="wf-a",
            tasks=TaskSpec(
                count=6, duration_slots=2, demand=ResourceVector({"cpu": 2})
            ),
            workflow_id="wf",
            name="a",
        ),
        Job(
            job_id="wf-b",
            tasks=TaskSpec(
                count=4, duration_slots=3, demand=ResourceVector({"cpu": 1})
            ),
            workflow_id="wf",
            name="b",
        ),
        Job(
            job_id="wf-c",
            tasks=TaskSpec(
                count=5, duration_slots=2, demand=ResourceVector({"cpu": 2})
            ),
            workflow_id="wf",
            name="c",
        ),
    ]
    workflow = Workflow.from_jobs(
        "wf",
        jobs,
        [("wf-a", "wf-b"), ("wf-a", "wf-c")],
        start_slot=0,
        deadline_slot=40,
        name="wf",
    )
    adhoc = tuple(
        Job(
            job_id=f"q{i}",
            tasks=TaskSpec(
                count=3, duration_slots=1, demand=ResourceVector({"cpu": 1})
            ),
            kind=JobKind.ADHOC,
            arrival_slot=2 * i,
        )
        for i in range(3)
    )
    return SyntheticTrace(workflows=(workflow,), adhoc_jobs=adhoc), capacity


def _run(trace, capacity, lp_backend):
    sink = MemorySink()
    obs = Observability(sink=sink)
    outcome = run_one(
        "FlowTime",
        trace,
        capacity,
        config=SimulationConfig(record_execution=True),
        scheduler_kwargs={"planner": {"backend": lp_backend}} if lp_backend else None,
        obs=obs,
    )
    return outcome, obs


class TestEndToEnd:
    def test_single_resource_run_is_validator_clean_under_fastsolve(self):
        trace, capacity = _single_resource_workload()
        outcome, obs = _run(trace, capacity, "fastsolve")
        windows = canonical_windows(trace, capacity)
        jobs = [job for wf in trace.workflows for job in wf.jobs]
        jobs += list(trace.adhoc_jobs)
        validator = ScheduleValidator(
            capacity, workflows=trace.workflows, jobs=jobs, windows=windows
        )
        report = validator.validate(outcome.result)
        report.raise_if_violations()
        summary = summarize(outcome.result, windows)
        assert summary["jobs_missed"] == 0

        # The single-resource coupled regime is the structured one: the run
        # must actually have exercised the flow path, with no bailouts.
        snapshot = obs.registry.snapshot()
        assert snapshot.get("lp.fastsolve.hit", {"value": 0})["value"] > 0
        assert snapshot.get("lp.fastsolve.bailout", {"value": 0})["value"] == 0

    def test_single_resource_run_matches_default_backend_outcome(self):
        trace, capacity = _single_resource_workload()
        windows = canonical_windows(trace, capacity)
        fast, _ = _run(trace, capacity, "fastsolve")
        base, _ = _run(trace, capacity, None)
        fast_summary = summarize(fast.result, windows)
        base_summary = summarize(base.result, windows)
        for key in ("jobs_missed", "workflows_missed", "jobs_completed"):
            if key in base_summary:
                assert fast_summary[key] == base_summary[key], key
