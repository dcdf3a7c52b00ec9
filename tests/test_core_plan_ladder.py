"""The plan path solves only the LPs whose answers it uses.

Four contracts: a plan that fits its windows costs one problem build and
no max-placement, and an over-committed one whose jobs share a binding
resource still no max-placement *LP*; the lazy relaxation ladder returns,
grant array for grant array, the plan of an eager ladder that builds every
rung up front (written here as a test-only oracle); every LP of a lexmin
ladder is one fixed layout whose round ``theta*`` is that of the round LP
assembled block by block with the hard-capacity rows; and the warm ladder
answers as the cold one that solved each such LP on a fresh HiGHS (also a
test-only oracle here), and falls back to a fresh instance when a warm run
is not optimal.
"""

import math
from contextlib import suppress
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from repro.core.allocation import IntegralizationError, greedy_fill, quantize_coupled
from repro.core.flowtime import FlowTimePlanner, _clamp
from repro.core import lexmin
from repro.core.lexmin import LadderLayout, LexminWarmHint, lexmin_schedule
from repro.core.lp_formulation import ScheduleEntry, build_schedule_problem
from repro.core.placement import (
    JobDemand,
    caps_array,
    entries_from_demands,
    max_placement,
)
from repro.core.replan import PlanRequest
from repro.lp import LinearProgram, scipy_backend
from repro.model.cluster import ClusterCapacity
from repro.model.resources import ResourceVector
from repro.obs import Observability, use_obs
from tests.planning_oracle import cold_planning
from tests.test_lp_backend import _ladder_problems

CLUSTER = ClusterCapacity.uniform(cpu=10, mem=20)


def instance(seed: int) -> PlanRequest:
    """A seeded job mix whose joint load runs from tight to hopeless."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    pressure = (1.2, 1.4, 1.7, 2.2, 4.0)[seed % 5]
    demands = []
    for i in range(n):
        release = int(rng.integers(0, 6))
        window = int(rng.integers(2, 10))
        cores = int(rng.integers(1, 4))
        parallel = int(rng.integers(2, 8))
        units = int(pressure * window * 10 / (n * cores) * rng.uniform(0.5, 1.5))
        demands.append(
            JobDemand(
                job_id=f"j{i}",
                release_slot=release,
                deadline_slot=release + window,
                units=min(max(units, 1), window * parallel),
                unit_demand=ResourceVector(cpu=cores, mem=int(rng.integers(1, 5))),
                max_parallel=parallel,
            )
        )
    return PlanRequest(
        now_slot=int(rng.integers(0, 4)), demands=tuple(demands), capacity=CLUSTER
    )


def counters(obs: Observability, prefix: str) -> dict[str, int]:
    return {
        name[len(prefix):]: int(metric["value"])
        for name, metric in obs.registry.snapshot().items()
        if name.startswith(prefix)
    }


def eager_plan(planner: FlowTimePlanner, request: PlanRequest):
    """The ladder before it was lazy: all five rungs (and both
    max-placements) built up front from the public kernel, then tried in
    order."""
    config, now, capacity = planner.config, request.now_slot, request.capacity
    slacked, plain = (
        entries_from_demands(request.demands, now, slack, repair=True)
        for slack in (config.slack_slots, 0)
    )
    horizon = max(entry.deadline for entry in plain)
    stretched = int(horizon * 3 / 2) + 1
    ladder = [(_clamp(slacked, horizon), horizon), (_clamp(plain, horizon), horizon)]
    for _ in range(2):
        entries, rung_horizon = ladder[-1]
        short, _, _ = max_placement(
            entries,
            caps_array(capacity, now, rung_horizon),
            capacity.resources,
            tag="relax",
        )
        entries = [
            replace(e, deadline=e.deadline + math.ceil(short[e.job_id] / e.max_parallel) + 1)
            if e.job_id in short
            else e
            for e in entries
        ]
        ladder.append((entries, max(rung_horizon, *(e.deadline for e in entries))))
    ladder.append(
        ([replace(e, deadline=stretched) for e in _clamp(plain, stretched)], stretched)
    )
    for entries, rung_horizon in ladder:
        caps = caps_array(capacity, now, rung_horizon)
        problem = build_schedule_problem(entries, caps, capacity.resources)
        result = lexmin_schedule(problem, max_rounds=config.max_lexmin_rounds)
        if result.is_optimal:
            with suppress(IntegralizationError):
                return quantize_coupled(problem, result.x), rung_horizon, False
    caps = caps_array(capacity, now, stretched)
    return greedy_fill(_clamp(plain, stretched), caps, capacity.resources), stretched, True


class TestFeasiblePlanCost:
    def test_one_build_and_no_relax_solve(self):
        demands = (
            JobDemand("a", 0, 12, 8, ResourceVector(cpu=1, mem=2), 4),
            JobDemand("b", 2, 14, 6, ResourceVector(cpu=2, mem=2), 3),
        )
        obs = Observability()
        with use_obs(obs):
            plan = FlowTimePlanner().plan(
                PlanRequest(now_slot=0, demands=demands, capacity=CLUSTER)
            )
        assert not plan.degraded
        assert obs.histogram("lp.build").count == 1
        assert counters(obs, "sched.plan.rung.") == {"0": 1}
        tags = counters(obs, "lp.solve.tag.")
        assert "relax" not in tags
        assert tags["balance"] == 1 and tags["round"] >= 1
        assert tags["round"] + tags["balance"] == obs.histogram("lp.solve").count

    @staticmethod
    def unshaved(vectors):
        """Plan two jobs whose window is too tight for any slack, so the
        slacked and plain rungs are one LP; it fails, and the ladder moves
        straight on.  Returns (rung that planned, relax LPs, builds)."""
        demands = tuple(
            JobDemand(f"j{i}", 0, 3, 12, vector, 4) for i, vector in enumerate(vectors)
        )
        obs = Observability()
        with use_obs(obs):
            FlowTimePlanner().plan(
                PlanRequest(now_slot=0, demands=demands, capacity=CLUSTER)
            )
        rung = counters(obs, "sched.plan.rung.")
        assert rung and "0" not in rung and "1" not in rung
        relax = counters(obs, "lp.solve.tag.").get("relax", 0)
        return int(next(iter(rung))), relax, obs.histogram("lp.build").count

    def test_an_unshaved_slack_is_not_solved_twice(self):
        # A cpu-heavy beside a mem-heavy job: nothing binds, so each
        # max-placement is an LP.  Built: rung 0, one problem per
        # max-placement LP, one per later rung tried — never the plain rung.
        rung, relax, builds = self.unshaved(
            [ResourceVector(cpu=3, mem=2), ResourceVector(cpu=1, mem=4)]
        )
        assert relax >= 1
        assert builds == 1 + relax + (rung - 1)

    def test_a_binding_resource_reaches_rung_2_without_a_relax_lp(self):
        # The CPU binds on a 10/20 cluster: rungs 2-3 get their shortfalls
        # from a max-flow, which builds and solves no LP at all.
        rung, relax, builds = self.unshaved([ResourceVector(cpu=2, mem=2)] * 2)
        assert rung >= 2 and relax == 0
        assert builds == 1 + (rung - 1)


class TestLazyEqualsEager:
    def test_same_plan_on_overcommitted_instances(self):
        seen: dict[str, int] = {}
        for seed in range(90):
            request = instance(seed)
            planner = FlowTimePlanner()
            obs = Observability()
            with use_obs(obs), cold_planning():
                plan = planner.plan(request)
            grants, horizon, degraded = eager_plan(planner, request)
            assert (plan.horizon, plan.degraded) == (horizon, degraded), seed
            assert plan.grants.keys() == grants.keys(), seed
            for job_id, grant in grants.items():
                assert np.array_equal(plan.grants[job_id], grant), (seed, job_id)
            rungs = counters(obs, "sched.plan.rung.") or {"degraded": 1}
            assert sum(rungs.values()) == 1
            (rung,) = rungs
            seen[rung] = seen.get(rung, 0) + 1
        assert {"2", "3", "4", "degraded"} <= seen.keys(), seen
        assert sum(seen.values()) - seen.get("0", 0) >= 50, seen


def reference_round_lp(problem, active, frozen_value, caps) -> LinearProgram:
    """The round LP assembled block by block, as it was before the fixed
    layout: active cells (``load - theta * C <= 0``), frozen cells (``load
    <= frozen_value``), then the hard capacity rows (``load <= C``), with
    theta unbounded above."""
    active = np.asarray(active, dtype=int)
    n_cells = len(problem.util_cells)

    def zero(rows):
        return sparse.csr_matrix((rows, 1))

    theta_col = sparse.csr_matrix(-caps[active][:, None])
    blocks = [sparse.hstack([problem.a_util[active], theta_col])]
    frozen = np.flatnonzero(np.isfinite(frozen_value))
    if frozen.size:
        blocks.append(sparse.hstack([problem.a_util[frozen], zero(frozen.size)]))
    blocks.append(sparse.hstack([problem.a_util, zero(n_cells)]))
    return LinearProgram(
        c=np.concatenate([np.zeros(problem.n_vars), [1.0]]),
        a_ub=sparse.vstack(blocks).tocsr(),
        b_ub=np.concatenate([np.zeros(len(active)), frozen_value[frozen], caps]),
        a_eq=sparse.hstack([problem.a_eq, zero(problem.a_eq.shape[0])]).tocsr(),
        b_eq=problem.b_eq,
        ub=np.concatenate([problem.var_ub, [np.inf]]),
    )


def cold_ladder(problem):
    """The lexmin ladder before it kept one model: each round LP built by
    :func:`reference_round_lp`, the balancing LP over the allocation
    variables alone, each solved on a fresh HiGHS.  ``(status, thetas,
    utilisation)``."""
    caps = problem.cell_caps()
    active = np.arange(caps.size)
    frozen_value = np.full(caps.size, np.inf)
    thetas = []
    while active.size:
        sol = scipy_backend.solve(reference_round_lp(problem, active, frozen_value, caps))
        if not sol.is_optimal:
            return sol.status.value, thetas, None
        theta = float(sol.x[-1])
        thetas.append(theta)
        to_freeze = active[np.abs(sol.duals_ub[: active.size]) > lexmin._DUAL_TOL]
        if not to_freeze.size:
            loads = np.asarray(problem.a_util[active] @ sol.x[:-1]).ravel()
            tol = lexmin._SAT_TOL * max(theta, 1.0)
            to_freeze = active[loads / caps[active] >= theta - tol]
        if not to_freeze.size or theta <= lexmin._THETA_TOL:
            to_freeze = active
        frozen_value[to_freeze] = lexmin._cap_at(theta, caps)[to_freeze]
        active = active[~np.isfinite(frozen_value[active])]
    sol = scipy_backend.solve(
        LinearProgram(
            c=lexmin._balance_cost(problem, caps, front_load=True),
            a_ub=problem.a_util,
            b_ub=frozen_value,
            a_eq=problem.a_eq,
            b_eq=problem.b_eq,
            ub=problem.var_ub,
        )
    )
    if not sol.is_optimal:
        return sol.status.value, thetas, None
    return "optimal", thetas, np.asarray(problem.a_util @ sol.x).ravel() / caps


def round_theta(lp: LinearProgram) -> float | None:
    """``theta*`` of a round LP on a fresh HiGHS, None when it has none."""
    sol = scipy_backend.solve(lp)
    return float(sol.x[-1]) if sol.is_optimal else None


class TestRoundPieces:
    """Every round LP is a piece of the ladder's one fixed layout
    (:class:`LadderLayout`), and answers as the assembled round."""

    @pytest.fixture
    def problem(self):
        entries = [
            ScheduleEntry("a", 0, 5, 9, ResourceVector(cpu=2, mem=1), 3),
            ScheduleEntry("b", 1, 6, 7, ResourceVector(cpu=1, mem=4), 2),
            ScheduleEntry("c", 3, 8, 4, ResourceVector(cpu=3), 2),
        ]
        caps = np.tile([10.0, 20.0], (8, 1))
        caps[4] = [6.0, 12.0]
        return build_schedule_problem(entries, caps, ("cpu", "mem"))

    @pytest.mark.parametrize("frozen_share", [0.0, 0.4, 1.0])
    def test_gathered_rounds_equal_assembled_rounds(self, problem, frozen_share):
        """Cell ``k`` is row ``k``, with its theta coefficient -C while
        active and 0 once frozen; without the hard-cap rows its round
        ``theta*`` is the assembled round's."""
        caps = problem.cell_caps()
        n_cells = caps.size
        full = reference_round_lp(problem, np.arange(n_cells), np.full(n_cells, np.inf), caps)
        frozen_value = np.full(n_cells, np.inf)
        frozen_cells = np.arange(n_cells)[: int(round(frozen_share * n_cells))]
        frozen_value[frozen_cells] = lexmin._cap_at(round_theta(full), caps)[frozen_cells]
        active = np.flatnonzero(~np.isfinite(frozen_value))

        lp = LadderLayout(problem, caps).lp(frozen_value)
        theta_coeffs = np.where(np.isfinite(frozen_value), 0.0, -caps)
        expected = sparse.hstack([problem.a_util, theta_coeffs[:, None]]).tocsr()
        assert lp.a_ub.shape == (n_cells, problem.n_vars + 1)
        assert (lp.a_ub != expected).nnz == 0
        assert np.array_equal(lp.b_ub, np.where(np.isfinite(frozen_value), frozen_value, 0.0))
        assert lp.ub[-1] == 1.0 and lp.c[-1] == 1.0 and not lp.c[:-1].any()
        reference = reference_round_lp(problem, active, frozen_value, caps)
        assert round_theta(lp) == pytest.approx(round_theta(reference), rel=1e-9, abs=1e-12)

    def test_every_ladder_lp_has_one_layout(self, problem):
        caps = problem.cell_caps()
        layout = LadderLayout(problem, caps)
        frozen_value = np.full(caps.size, np.inf)
        first = layout.lp(frozen_value)
        frozen_value[::3] = caps[::3]
        for lp in (layout.lp(frozen_value), layout.lp(caps, np.ones(problem.n_vars))):
            assert scipy_backend._same_layout(first, lp)

    def test_ladder_rounds_are_the_assembled_rounds(self, problem, monkeypatch):
        """Every round a real ladder solves warm — empty, partial and
        growing frozen sets as they actually occur — has the ``theta*`` of
        the assembled round on a fresh HiGHS."""
        frozen_sets, thetas = [], []
        real_lp, real_solve = LadderLayout.lp, lexmin.solve_lp

        def recording_lp(self, frozen_value, cost=None):
            if cost is None:
                frozen_sets.append(frozen_value.copy())
            return real_lp(self, frozen_value, cost)

        def recording_solve(lp, *, tag, **kwargs):
            sol = real_solve(lp, tag=tag, **kwargs)
            if tag == "round":
                thetas.append(float(sol.x[-1]))
            return sol

        monkeypatch.setattr(LadderLayout, "lp", recording_lp)
        monkeypatch.setattr(lexmin, "solve_lp", recording_solve)
        result = lexmin_schedule(problem, max_rounds=None)
        assert result.is_optimal and result.rounds == len(thetas) >= 2
        caps = problem.cell_caps()
        for frozen_value, theta in zip(frozen_sets, thetas):
            active = np.flatnonzero(~np.isfinite(frozen_value))
            reference = reference_round_lp(problem, active, frozen_value, caps)
            assert theta == pytest.approx(round_theta(reference), rel=1e-9, abs=1e-12)
        frozen = [int(np.isfinite(f).sum()) for f in frozen_sets]
        assert frozen[0] == 0 and frozen == sorted(set(frozen))


class TestWarmLadder:
    @pytest.mark.parametrize("seed", range(4))
    def test_warm_ladder_answers_as_the_cold_ladder(self, seed):
        """Status, round-1 ``theta`` and the sorted utilisation vector: the
        plan itself may move, since the balancing LP has many optima."""
        for problem in _ladder_problems(12, seed=seed):
            status, thetas, utilisation = cold_ladder(problem)
            result = lexmin_schedule(problem)
            assert result.status == status
            if status != "optimal":
                continue
            assert result.thetas[0] == pytest.approx(thetas[0], rel=1e-9, abs=1e-12)
            np.testing.assert_allclose(
                np.sort(result.utilisation),
                np.sort(utilisation),
                rtol=0,
                atol=lexmin._SAT_TOL,
            )

    def test_a_warm_run_that_is_not_optimal_falls_back_to_a_fresh_instance(
        self, monkeypatch
    ):
        problems = _ladder_problems(6, seed=3)
        fresh = scipy_backend.solve

        def on_a_fresh_instance(problem, highs):
            return fresh(problem, scipy_backend.Highs(highs.presolve))

        with monkeypatch.context() as patch:
            patch.setattr(scipy_backend, "solve", on_a_fresh_instance)
            expected = [lexmin_schedule(problem) for problem in problems]
        real = scipy_backend._warm_run

        def not_optimal(core, last, problem):
            solved, _ = real(core, last, problem)
            return solved, scipy_backend._h.HighsModelStatus.kIterationLimit

        monkeypatch.setattr(scipy_backend, "_warm_run", not_optimal)
        obs = Observability()
        with use_obs(obs):
            got = [lexmin_schedule(problem) for problem in problems]
        for want, have in zip(expected, got):
            assert have.status == want.status
            assert have.thetas == want.thetas and have.rounds == want.rounds
            assert np.array_equal(have.x, want.x)
        assert any(result.rounds > 1 for result in got)
        # Every round after a ladder's first was warm, and fell back.
        rounds = obs.counter("lp.solve.tag.round").value
        assert obs.counter("lp.solve.warm_fallback").value == rounds - len(problems) > 0

    @pytest.mark.parametrize("hinted", [False, True])
    def test_presolve_runs_only_on_a_cold_ladders_round_1(self, hinted, monkeypatch):
        """A ladder with a warm hint (a re-plan) solves its rounds on an
        unpresolved instance, one without presolves its round 1; every
        balancing LP, the hint's included, is solved on a fresh unpresolved
        instance."""
        problems = _ladder_problems(12, seed=1)
        hints = [None] * len(problems)
        if hinted:  # a finishing hint (its own skyline) and a failing one
            hints = [_own_skyline(problem) for problem in problems]
            hints[::2] = [
                None if hint is None else LexminWarmHint(hint.theta, 0 * hint.levels)
                for hint in hints[::2]
            ]
        built: list[scipy_backend.Highs] = []
        solves: list[tuple[str, scipy_backend.Highs, bool]] = []
        real_solve = lexmin.solve_lp

        class Spy(scipy_backend.Highs):
            def __init__(self, presolve=True):
                super().__init__(presolve)
                built.append(self)

        def recording_solve(lp, *, tag, highs, **kwargs):
            solves.append((tag, highs, highs.last is None))
            return real_solve(lp, tag=tag, highs=highs, **kwargs)

        monkeypatch.setattr(lexmin, "Highs", Spy)
        monkeypatch.setattr(lexmin, "solve_lp", recording_solve)
        obs = Observability()
        with use_obs(obs):
            results = [
                lexmin_schedule(problem, warm_hint=hint) for problem, hint in zip(problems, hints)
            ]
        balances = [highs for tag, highs, _ in solves if tag == "balance"]
        ladders = [highs for highs in built if highs not in balances]
        assert len(ladders) == len(problems) and len(built) == len(problems) + len(balances)
        assert all(not highs.presolve for highs in balances)
        assert all(fresh for tag, _, fresh in solves if tag == "balance")
        cold = [hint is None for hint in hints]
        assert [highs.presolve for highs in ladders] == cold
        first_rounds = [fresh for tag, _, fresh in solves if tag == "round"].count(True)
        assert first_rounds == len(problems)
        assert obs.counter("lp.solve.presolve.on").value == sum(cold)
        assert obs.counter("lp.solve.presolve.off").value == len(balances) + cold.count(False)
        if hinted:
            warm = sum(result.warm for result in results)
            assert 0 < warm < sum(result.is_optimal for result in results)


def _own_skyline(problem) -> LexminWarmHint | None:
    """The hint a re-plan of *problem* would get: its own lexmin skyline."""
    result = lexmin_schedule(problem)
    if not result.is_optimal:
        return None
    cells = problem.cell_array()
    levels = np.full((problem.horizon, int(cells[:, 1].max()) + 1), np.nan)
    levels[cells[:, 0], cells[:, 1]] = result.utilisation
    return LexminWarmHint(result.minimax, levels)


class TestVectorisedBookkeeping:
    """The array forms against the per-cell loops they replaced."""

    def test_caps_array_equals_the_per_slot_lookup(self):
        capacity = ClusterCapacity(
            base=ResourceVector(cpu=10, mem=20),
            overrides={
                2: ResourceVector(cpu=4, mem=8),  # before the plan origin
                5: ResourceVector(cpu=6, mem=12),
                9: ResourceVector(cpu=8),  # mem absent: 0 in that slot
                40: ResourceVector(cpu=1, mem=1),  # beyond the horizon
            },
        )
        for now_slot, horizon in ((3, 12), (0, 3), (5, 1), (41, 4)):
            expected = np.array(
                [
                    [capacity.at(now_slot + k)[name] for name in capacity.resources]
                    for k in range(horizon)
                ],
                dtype=float,
            )
            assert np.array_equal(caps_array(capacity, now_slot, horizon), expected)

    def test_warm_frozen_caps_equal_the_per_cell_lookup(self):
        from repro.core.lexmin import (
            _FREEZE_RELAX,
            LexminWarmHint,
            _warm_frozen_caps,
        )

        entries = [
            ScheduleEntry("a", 0, 5, 9, ResourceVector(cpu=2, mem=1), 3),
            ScheduleEntry("b", 2, 6, 7, ResourceVector(cpu=1), 2),
        ]
        problem = build_schedule_problem(
            entries, np.tile([10.0, 20.0], (6, 1)), ("cpu", "mem")
        )
        caps, theta = problem.cell_caps(), 0.45
        rng = np.random.default_rng(7)
        levels = rng.uniform(0.0, 0.6, size=(6, 2))
        frozen = _warm_frozen_caps(problem, caps, theta, LexminWarmHint(theta, levels))
        for k, (slot, r) in enumerate(problem.util_cells):
            at_level = levels[slot, r] * caps[k] * (1.0 + _FREEZE_RELAX) + _FREEZE_RELAX
            at_theta = theta * caps[k] * (1.0 + _FREEZE_RELAX) + _FREEZE_RELAX
            assert frozen[k] == min(at_level, at_theta, caps[k])
        # A hint that misses a cell — absent or past its last slot — or was
        # taken at another theta is no hint.
        holed = levels.copy()
        holed[problem.util_cells[3]] = np.nan
        for hint in (
            LexminWarmHint(theta, holed),
            LexminWarmHint(theta, levels[:5]),
            LexminWarmHint(theta + 0.01, levels),
        ):
            assert _warm_frozen_caps(problem, caps, theta, hint) is None
