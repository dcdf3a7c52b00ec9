"""Tests for the incremental re-planning layer (plan cache + warm starts).

The planner always memoises; the cold ladder these tests compare it with
is the test-only oracle of ``tests/planning_oracle.py`` (:func:`cold_planning`:
a fresh planner per request), and :class:`MissOnlyCache` gives a planner
the skyline hint without the cache.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.flowtime import FlowTimePlanner
from repro.core.placement import JobDemand, PlannerConfig
from repro.core.replan import CachedPlan, PlanCache, PlanRequest
from repro.model.cluster import ClusterCapacity
from repro.model.resources import CPU, MEM, ResourceVector
from repro.obs import Observability, use_obs
from tests.planning_oracle import MissOnlyCache, cold_planning, hint_only


@pytest.fixture
def cluster() -> ClusterCapacity:
    return ClusterCapacity.uniform(cpu=10, mem=20)


def demand(
    job_id="j", release=0, deadline=10, units=6, cores=1, mem=2, parallel=4
) -> JobDemand:
    return JobDemand(
        job_id=job_id,
        release_slot=release,
        deadline_slot=deadline,
        units=units,
        unit_demand=ResourceVector({CPU: cores, MEM: mem}),
        max_parallel=parallel,
    )


def request(now, demands, capacity) -> PlanRequest:
    return PlanRequest(now_slot=now, demands=tuple(demands), capacity=capacity)


def shifted(d: JobDemand, by: int, job_id: str | None = None) -> JobDemand:
    return JobDemand(
        job_id=job_id or d.job_id,
        release_slot=d.release_slot + by,
        deadline_slot=d.deadline_slot + by,
        units=d.units,
        unit_demand=d.unit_demand,
        max_parallel=d.max_parallel,
    )


class TestFingerprint:
    def test_time_shift_and_job_ids_are_anonymous(self, cluster):
        base = [demand("a", 0, 10), demand("b", 2, 8, units=4)]
        later = [shifted(d, 50, job_id=f"other-{d.job_id}") for d in base]
        first = request(0, base, cluster).fingerprint()
        second = request(50, later, cluster).fingerprint()
        assert first == second

    def test_demand_order_is_canonical(self, cluster):
        demands = [demand("a", 0, 10), demand("b", 2, 8, units=4)]
        assert request(0, demands, cluster).fingerprint() == request(
            0, list(reversed(demands)), cluster
        ).fingerprint()

    def test_capacity_change_misses(self, cluster):
        smaller = ClusterCapacity.uniform(cpu=8, mem=20)
        assert request(0, [demand()], cluster).fingerprint() != request(
            0, [demand()], smaller
        ).fingerprint()

    def test_config_change_misses(self, cluster):
        # The key leaves the config out, so a plan made under one config
        # must never answer another: each planner owns its cache.
        req = request(0, [demand()], cluster)
        default = FlowTimePlanner()
        no_slack = FlowTimePlanner(PlannerConfig(slack_slots=0))
        default.plan(req)
        no_slack.plan(req)
        assert default.plan_cache is not no_slack.plan_cache
        assert (no_slack.plan_cache.hits, no_slack.plan_cache.misses) == (0, 1)

    def test_setback_misses(self, cluster):
        # An estimation-error setback raises believed remaining units,
        # which must re-plan rather than reuse the stale allocation.
        assert request(0, [demand(units=6)], cluster).fingerprint() != request(
            0, [demand(units=9)], cluster
        ).fingerprint()

    def test_past_capacity_overrides_are_dropped(self, cluster):
        half = ResourceVector({CPU: 5, MEM: 10})
        past = ClusterCapacity(base=cluster.base, overrides={3: half})
        future = ClusterCapacity(base=cluster.base, overrides={13: half})
        plain = request(10, [demand(release=10, deadline=20)], cluster).fingerprint()
        assert request(
            10, [demand(release=10, deadline=20)], past
        ).fingerprint() == plain
        assert request(
            10, [demand(release=10, deadline=20)], future
        ).fingerprint() != plain


class TestPlanCache:
    def test_miss_then_hit(self, cluster):
        cache = PlanCache(maxsize=4)
        plan = CachedPlan(
            horizon=4, grant_rows=(np.ones(4, dtype=int),),
            degraded=False, minimax=0.5,
        )
        assert cache.get("k") is None
        cache.put("k", plan)
        assert cache.get("k") is plan
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5
        assert len(cache) == 1

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        plans = {
            key: CachedPlan(1, (np.zeros(1, dtype=int),), False, 0.0)
            for key in "abc"
        }
        cache.put("a", plans["a"])
        cache.put("b", plans["b"])
        assert cache.get("a") is plans["a"]  # refresh "a": "b" is now LRU
        cache.put("c", plans["c"])
        assert cache.get("b") is None
        assert cache.get("a") is plans["a"]
        assert len(cache) == 2

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)


class TestPlannerCache:
    def test_recurring_instance_hits_and_matches(self, cluster):
        planner = FlowTimePlanner()
        first = [demand("wf@0-a", 0, 12), demand("wf@0-b", 3, 10, units=4)]
        later = [shifted(d, 40, job_id=d.job_id.replace("@0", "@1"))
                 for d in first]
        cold = planner.plan(request(0, first, cluster))
        warm = planner.plan(request(40, later, cluster))
        assert planner.plan_cache.hits == 1
        assert warm.origin_slot == 40
        for before, after in zip(first, later):
            assert np.array_equal(
                cold.grants[before.job_id], warm.grants[after.job_id]
            )
        assert warm.minimax == cold.minimax
        assert warm.degraded == cold.degraded

    def test_capacity_and_config_changes_miss(self, cluster):
        # A config change is a new planner with its own cache; within one
        # planner a capacity or demand change must miss.
        planner = FlowTimePlanner()
        planner.plan(request(0, [demand()], cluster))
        planner.plan(
            request(0, [demand()], ClusterCapacity.uniform(cpu=8, mem=20))
        )
        planner.plan(request(0, [demand(units=9)], cluster))
        assert planner.plan_cache.hits == 0
        assert planner.plan_cache.misses == 3

    def test_cache_disabled_never_stores(self, cluster):
        # The cold oracle answers on a fresh planner: the caller's cache
        # is never read or written, so a comparison with it is cold.
        planner = FlowTimePlanner()
        with cold_planning():
            planner.plan(request(0, [demand()], cluster))
            planner.plan(request(0, [demand()], cluster))
        assert len(planner.plan_cache) == 0
        assert planner.plan_cache.hits == planner.plan_cache.misses == 0

    def test_cache_size_bounds_entries(self, cluster):
        planner = FlowTimePlanner()
        planner.plan_cache = PlanCache(maxsize=2)
        for units in (3, 4, 5, 6):
            planner.plan(request(0, [demand(units=units)], cluster))
        assert len(planner.plan_cache) == 2


class TestWarmStart:
    def test_repeat_solve_is_warm_and_identical(self, cluster):
        obs = Observability()
        planner = FlowTimePlanner()
        planner.plan_cache = MissOnlyCache()
        demands = [demand("a", 0, 12), demand("b", 2, 10, units=4)]
        with use_obs(obs):
            cold = planner.plan(request(0, demands, cluster))
            warm = planner.plan(request(0, demands, cluster))
        assert obs.counter("sched.plan.warm").value == 1
        for d in demands:
            assert np.array_equal(cold.grants[d.job_id], warm.grants[d.job_id])
        assert warm.minimax == pytest.approx(cold.minimax)

    def test_changed_mix_falls_back_to_cold_ladder(self, cluster):
        obs = Observability()
        planner = FlowTimePlanner()
        planner.plan_cache = MissOnlyCache()
        with use_obs(obs):
            planner.plan(request(0, [demand("a", 0, 12)], cluster))
            second = planner.plan(
                request(
                    0,
                    [demand("a", 0, 12), demand("b", 0, 6, units=8, cores=4)],
                    cluster,
                )
            )
        # The skyline from the first solve cannot cover the heavier mix:
        # the planner must notice and re-run the exact ladder.
        assert obs.counter("lexmin.warm.fallback").value >= 1
        assert second.total_units("b") == 8

    def test_warm_start_disabled_records_no_warm_solves(self, cluster):
        # The cold oracle offers no skyline hint: a repeat is solved cold.
        obs = Observability()
        planner = FlowTimePlanner()
        demands = [demand("a", 0, 12)]
        with use_obs(obs), cold_planning():
            planner.plan(request(0, demands, cluster))
            planner.plan(request(0, demands, cluster))
        assert obs.counter("sched.plan.warm").value == 0


class TestCachedEqualsCold:
    def test_fifty_random_traces_plan_identically(self, cluster):
        """Property: cache hits and warm starts never change the plan."""
        rng = np.random.default_rng(42)
        incremental = FlowTimePlanner()
        for case in range(50):
            n_jobs = int(rng.integers(1, 5))
            now = int(rng.integers(0, 30))
            demands = []
            for j in range(n_jobs):
                release = now + int(rng.integers(0, 4))
                demands.append(
                    JobDemand(
                        job_id=f"case{case}-j{j}",
                        release_slot=release,
                        deadline_slot=release + int(rng.integers(4, 14)),
                        units=int(rng.integers(2, 12)),
                        unit_demand=ResourceVector(
                            {CPU: int(rng.integers(1, 3)),
                             MEM: int(rng.integers(1, 5))}
                        ),
                        max_parallel=int(rng.integers(1, 6)),
                    )
                )
            with cold_planning():
                cold = incremental.plan(request(now, demands, cluster))
            primed = incremental.plan(request(now, demands, cluster))
            hit = incremental.plan(request(now, demands, cluster))
            for d in demands:
                assert np.array_equal(
                    cold.grants[d.job_id], primed.grants[d.job_id]
                ), f"cold vs miss diverged on case {case}"
                assert np.array_equal(
                    cold.grants[d.job_id], hit.grants[d.job_id]
                ), f"cold vs hit diverged on case {case}"
            assert hit.minimax == pytest.approx(cold.minimax)
            assert hit.degraded == cold.degraded
        assert incremental.plan_cache.hits >= 50


class TestEndToEndEquivalence:
    """Cache and warm starts change latency, not this trace's outcomes:
    the product run, a hint-only run and the cold oracle agree."""

    @pytest.fixture(scope="class")
    def outcomes(self):
        from repro.analysis.experiments import run_one
        from repro.workloads.arrivals import adhoc_stream
        from repro.workloads.dag_generators import chain_workflow
        from repro.workloads.recurring import RecurringWorkflow
        from repro.workloads.traces import SyntheticTrace

        capacity = ClusterCapacity.uniform(cpu=16, mem=32)
        skeleton = chain_workflow("wf", 3, 0, 15)
        trace = SyntheticTrace(
            workflows=tuple(RecurringWorkflow(skeleton, 20).instances(3)),
            adhoc_jobs=tuple(
                adhoc_stream(rate_per_slot=0.3, horizon_slots=60, seed=7)
            ),
        )
        modes = {
            "cached": nullcontext,
            "no-cache": hint_only,
            "cold": cold_planning,
        }
        outcomes = {}
        for mode, planning in modes.items():
            with planning():
                outcomes[mode] = run_one("FlowTime", trace, capacity)
        return outcomes

    def test_missed_deadlines_match(self, outcomes):
        cold = outcomes["cold"]
        for mode in ("cached", "no-cache"):
            assert outcomes[mode].missed_jobs == cold.missed_jobs
            assert outcomes[mode].missed_workflows == cold.missed_workflows

    def test_adhoc_turnaround_matches(self, outcomes):
        cold = outcomes["cold"]
        for mode in ("cached", "no-cache"):
            assert outcomes[mode].adhoc_turnaround_s == pytest.approx(
                cold.adhoc_turnaround_s
            )

    def test_per_slot_usage_matches(self, outcomes):
        cold = outcomes["cold"].result
        cached = outcomes["cached"].result
        assert cached.n_slots == cold.n_slots
        assert np.array_equal(cached.usage, cold.usage)

    def test_cache_actually_engaged(self, outcomes):
        result = outcomes["cached"].result
        assert result.counter_value("sched.plan.cache.hit") > 0


class TestReplanPathsVerified:
    """The verification subsystem's differential check: the product run
    (cache and warm hint) and a hint-only run are validator-clean and
    identical in outcome metrics, on this trace, to a run on the cold
    oracle (a fresh planner per request)."""

    @pytest.fixture(scope="class")
    def verified_outcomes(self):
        from repro.analysis.experiments import canonical_windows, run_one
        from repro.simulator.engine import SimulationConfig
        from repro.workloads.traces import generate_trace

        capacity = ClusterCapacity.uniform(cpu=32, mem=64)
        trace = generate_trace(
            n_workflows=2,
            jobs_per_workflow=6,
            n_adhoc=6,
            capacity=capacity,
            workflow_spread_slots=8,
            seed=9,
        )
        windows = canonical_windows(trace, capacity)
        modes = {
            "cold": cold_planning,
            "cached": nullcontext,
            "warm-only": hint_only,
        }
        outcomes = {}
        for mode, planning in modes.items():
            with planning():
                outcomes[mode] = run_one(
                    "FlowTime",
                    trace,
                    capacity,
                    windows=windows,
                    config=SimulationConfig(record_execution=True),
                )
        return trace, capacity, windows, outcomes

    def test_every_mode_is_validator_clean(self, verified_outcomes):
        from repro.simulator.metrics import summarize
        from repro.verify import ScheduleValidator

        trace, capacity, windows, outcomes = verified_outcomes
        jobs = [job for wf in trace.workflows for job in wf.jobs]
        jobs += list(trace.adhoc_jobs)
        for mode, outcome in outcomes.items():
            validator = ScheduleValidator(
                capacity, workflows=trace.workflows, jobs=jobs, windows=windows
            )
            report = validator.validate(outcome.result)
            validator.check_reported(
                outcome.result, summarize(outcome.result, windows), report
            )
            assert report.ok, f"{mode}: {report.render()}"

    def test_outcome_metrics_identical_to_cold(self, verified_outcomes):
        from repro.simulator.metrics import summarize

        _trace, _capacity, windows, outcomes = verified_outcomes
        def comparable(outcome):
            summary = summarize(outcome.result, windows)
            return {
                k: v
                for k, v in summary.items()
                if not k.startswith("decide_ms")
            }

        cold = comparable(outcomes["cold"])
        for mode in ("cached", "warm-only"):
            assert comparable(outcomes[mode]) == cold, mode

    def test_per_slot_usage_identical_to_cold(self, verified_outcomes):
        *_rest, outcomes = verified_outcomes
        cold = outcomes["cold"].result
        for mode in ("cached", "warm-only"):
            result = outcomes[mode].result
            assert result.n_slots == cold.n_slots, mode
            assert np.array_equal(result.usage, cold.usage), mode
