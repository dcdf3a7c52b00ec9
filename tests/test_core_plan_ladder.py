"""The plan path solves only the LPs whose answers it uses.

Three contracts: a plan that fits its windows costs one problem build and
no max-placement, and an over-committed one whose jobs share a binding
resource still no max-placement *LP*; the lazy relaxation ladder returns,
grant array for grant array, the plan of an eager ladder that builds every
rung up front (written here as a test-only oracle); and a round LP gathered
from a ladder's pre-assembled pieces is the LP the block-by-block assembly
gives.
"""

import math
from contextlib import suppress
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from repro.core.allocation import IntegralizationError, greedy_fill, quantize_coupled
from repro.core.flowtime import FlowTimePlanner, _clamp
from repro.core.lexmin import (
    assemble_round_pieces,
    build_round_lp,
    lexmin_schedule,
)
from repro.core.lp_formulation import ScheduleEntry, build_schedule_problem
from repro.core.placement import (
    JobDemand,
    PlannerConfig,
    caps_array,
    entries_from_demands,
    max_placement,
)
from repro.core.replan import PlanRequest
from repro.model.cluster import ClusterCapacity
from repro.model.resources import ResourceVector
from repro.obs import Observability, use_obs

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
            planner = FlowTimePlanner(PlannerConfig(plan_cache=False))
            obs = Observability()
            with use_obs(obs):
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


def reference_round_lp(problem, active, frozen_value, caps):
    """The round LP assembled block by block, as it was before the pieces."""
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
    a_ub = sparse.vstack(blocks).tocsr()
    b_ub = np.concatenate([np.zeros(len(active)), frozen_value[frozen], caps])
    a_eq = sparse.hstack([problem.a_eq, zero(problem.a_eq.shape[0])]).tocsr()
    return a_ub, b_ub, a_eq, np.concatenate([problem.var_ub, [np.inf]])


class TestRoundPieces:
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
        caps = problem.cell_caps()
        n_cells = caps.size
        frozen_cells = np.arange(n_cells)[: int(round(frozen_share * n_cells))]
        frozen_value = np.full(n_cells, np.inf)
        frozen_value[frozen_cells] = 0.5 * caps[frozen_cells]
        active = [k for k in range(n_cells) if k not in set(frozen_cells)]
        pieces = assemble_round_pieces(problem, caps)
        expected = reference_round_lp(problem, active, frozen_value, caps)
        lp = build_round_lp(problem, active, frozen_value, caps, pieces)
        assert lp.a_ub.shape == expected[0].shape
        assert (lp.a_ub != expected[0]).nnz == 0
        assert np.array_equal(lp.b_ub, expected[1])
        assert (lp.a_eq != expected[2]).nnz == 0
        assert np.array_equal(lp.ub, expected[3])
        assert np.array_equal(lp.b_eq, problem.b_eq)
        assert lp.c[-1] == 1.0 and not lp.c[:-1].any()

    def test_ladder_rounds_are_the_assembled_rounds(self, problem, monkeypatch):
        """Every round LP a real ladder hands to the solver — empty, partial
        and growing frozen sets as they actually occur."""
        import repro.core.lexmin as lexmin

        checked = []
        real = lexmin.build_round_lp

        def checking(problem, active, frozen_value, caps, pieces):
            lp = real(problem, active, frozen_value, caps, pieces)
            a_ub, b_ub, a_eq, ub = reference_round_lp(
                problem, active, frozen_value, caps
            )
            assert (lp.a_ub != a_ub).nnz == 0 and np.array_equal(lp.b_ub, b_ub)
            assert (lp.a_eq != a_eq).nnz == 0 and np.array_equal(lp.ub, ub)
            checked.append(int(np.isfinite(frozen_value).sum()))
            return lp

        monkeypatch.setattr(lexmin, "build_round_lp", checking)
        result = lexmin_schedule(problem, max_rounds=None)
        assert result.is_optimal and result.rounds == len(checked) >= 2
        assert checked[0] == 0 and checked == sorted(set(checked))


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
        frozen = _warm_frozen_caps(
            problem, caps, theta, LexminWarmHint(theta, levels), 1e-6
        )
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
            assert _warm_frozen_caps(problem, caps, theta, hint, 1e-6) is None
