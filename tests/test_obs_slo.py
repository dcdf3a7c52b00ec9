"""SLO tracker: error-budget arithmetic over engine-fed windowed metrics."""

from __future__ import annotations

import json

import pytest

from repro.obs import SLOConfig, SLOTracker, json_safe
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    DECIDE_LATENCY_METRIC,
    WORKFLOWS_MISSED_METRIC,
    WORKFLOWS_TOTAL_METRIC,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def registry(clock):
    registry = MetricsRegistry()
    registry.windowed_counter(WORKFLOWS_TOTAL_METRIC, clock=clock)
    registry.windowed_counter(WORKFLOWS_MISSED_METRIC, clock=clock)
    registry.windowed_histogram(DECIDE_LATENCY_METRIC, clock=clock)
    return registry


def feed(registry, *, total=0, missed=0, decide_s=()):
    registry.get(WORKFLOWS_TOTAL_METRIC).inc(total)
    registry.get(WORKFLOWS_MISSED_METRIC).inc(missed)
    for value in decide_s:
        registry.get(DECIDE_LATENCY_METRIC).observe(value)


class TestSLOConfig:
    def test_defaults(self):
        config = SLOConfig()
        assert config.deadline_objective == 0.99
        assert config.decide_p99_s == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_objective": 0.0},
            {"deadline_objective": 1.0},
            {"decide_p99_s": 0.0},
            {"window_s": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SLOConfig(**kwargs)


class TestDeadlineStatus:
    def test_no_data_reports_unknown_not_healthy(self, registry):
        tracker = SLOTracker(registry)
        status = tracker.deadline_status()
        assert status["total"] == 0.0
        assert status["compliance"] is None
        assert status["burn_rate"] is None
        assert tracker.snapshot()["healthy"] is None

    def test_all_met_full_budget(self, registry):
        feed(registry, total=100)
        status = SLOTracker(registry).deadline_status()
        assert status["compliance"] == 1.0
        assert status["budget_remaining"] == 1.0
        assert status["burn_rate"] == 0.0

    def test_burn_rate_one_spends_exactly_on_budget(self, registry):
        # 1 miss in 100 with a 99% objective: exactly the allowed rate.
        feed(registry, total=100, missed=1)
        status = SLOTracker(
            registry, SLOConfig(deadline_objective=0.99)
        ).deadline_status()
        assert status["burn_rate"] == pytest.approx(1.0)
        assert status["budget_remaining"] == pytest.approx(0.0)

    def test_overspent_budget_goes_negative_and_unhealthy(self, registry):
        feed(registry, total=100, missed=10)
        tracker = SLOTracker(registry, SLOConfig(deadline_objective=0.99))
        status = tracker.deadline_status()
        assert status["budget_remaining"] == pytest.approx(-9.0)
        assert status["burn_rate"] == pytest.approx(10.0)
        assert tracker.snapshot()["healthy"] is False

    def test_window_excludes_old_misses(self, registry, clock):
        feed(registry, total=50, missed=50)
        clock.now += 400.0  # past the 300 s window
        feed(registry, total=10)
        status = SLOTracker(registry).deadline_status()
        # All-time stats still see the bad past...
        assert status["missed"] == 50.0
        # ...but the windowed burn rate has recovered.
        assert status["window_missed"] == 0.0
        assert status["burn_rate"] == 0.0

    def test_missing_metrics_are_zero(self):
        status = SLOTracker(MetricsRegistry()).deadline_status()
        assert status["total"] == 0.0
        assert status["compliance"] is None


class TestDecideLatency:
    def test_p99_vs_objective(self, registry):
        feed(registry, decide_s=[0.01] * 99 + [5.0])
        tracker = SLOTracker(registry, SLOConfig(decide_p99_s=1.0))
        status = tracker.decide_latency_status()
        assert status["window_count"] == 100
        assert status["p99_s"] is not None
        assert status["ok"] in (True, False)

    def test_fast_decides_are_healthy(self, registry):
        feed(registry, total=10, decide_s=[0.005] * 100)
        snapshot = SLOTracker(registry).snapshot()
        assert snapshot["decide_latency"]["ok"] is True
        assert snapshot["healthy"] is True

    def test_empty_window_is_unknown(self, registry):
        status = SLOTracker(registry).decide_latency_status()
        assert status["p99_s"] is None
        assert status["ok"] is None


class TestSnapshot:
    def test_strict_json_safe(self, registry):
        snapshot = json_safe(SLOTracker(registry).snapshot())
        json.dumps(snapshot, allow_nan=False)  # must not raise

    def test_engine_feeds_tracker_in_batch_run(self, small_cluster):
        # The integration point `repro run --metrics` relies on: a plain
        # simulation populates the slo.* metrics without any service in the
        # picture.
        from repro.model.job import Job, TaskSpec
        from repro.model.resources import CPU, MEM, ResourceVector
        from repro.model.workflow import Workflow
        from repro.obs import Observability
        from repro.schedulers.registry import make_scheduler
        from repro.simulator.engine import Simulation

        spec = TaskSpec(
            count=1, duration_slots=2, demand=ResourceVector({CPU: 1, MEM: 1})
        )
        jobs = [Job(job_id="w-j0", tasks=spec, workflow_id="w")]
        workflow = Workflow.from_jobs("w", jobs, [], 0, 50)
        obs = Observability()
        Simulation(
            small_cluster, make_scheduler("FlowTime"),
            workflows=[workflow], obs=obs,
        ).run()
        status = SLOTracker(obs.registry).snapshot()
        assert status["deadline"]["total"] == 1.0
        assert status["deadline"]["missed"] == 0.0
        assert status["healthy"] is True
