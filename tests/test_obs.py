"""Tests for the observability layer (repro.obs) and its engine wiring."""

import logging
import math
import time

import pytest

from repro.model.cluster import ClusterCapacity
from repro.model.workflow import Workflow
from repro.obs import (
    NULL_OBS,
    Counter,
    Gauge,
    Histogram,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    NullSink,
    Observability,
    count_by_type,
    current_obs,
    read_trace,
    use_obs,
)
from repro.schedulers.fifo import FifoScheduler
from repro.simulator.engine import Simulation
from tests.conftest import adhoc_job, deadline_job, straddling_workflow


class TestCounterAndGauge:
    def test_counter_increments(self):
        counter = Counter("c")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        assert counter.snapshot() == {"type": "counter", "value": 3.5}

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge("g")
        assert math.isnan(gauge.value)
        gauge.set(7)
        gauge.set(3)
        assert gauge.value == 3.0
        assert gauge.snapshot() == {"type": "gauge", "value": 3.0}


class TestHistogram:
    def test_quantiles_interpolate(self):
        hist = Histogram("h")
        for value in range(1, 101):  # 1..100
            hist.observe(value)
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(1.0) == 100.0
        # position q*(n-1): p50 -> index 49.5 -> (50+51)/2.
        assert hist.p50 == pytest.approx(50.5)
        assert hist.p95 == pytest.approx(95.05)
        assert hist.p99 == pytest.approx(99.01)
        assert hist.count == 100
        assert hist.sum == pytest.approx(5050.0)
        assert hist.mean == pytest.approx(50.5)
        assert hist.min == 1.0 and hist.max == 100.0

    def test_cache_invalidated_on_observe(self):
        hist = Histogram("h")
        hist.observe(1.0)
        assert hist.p50 == 1.0  # builds the sorted cache
        hist.observe(3.0)
        assert hist.p50 == pytest.approx(2.0)

    def test_empty_is_nan(self):
        hist = Histogram("h")
        assert math.isnan(hist.p50)
        assert math.isnan(hist.mean)
        assert hist.count == 0

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("b") is registry.histogram("b")
        assert len(registry) == 2
        assert "a" in registry and "missing" not in registry

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_is_plain_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.histogram("a").observe(2.0)
        snap = registry.snapshot()
        assert list(snap) == ["a", "b"]
        assert snap["b"] == {"type": "counter", "value": 1.0}
        assert snap["a"]["count"] == 1.0

    def test_registries_are_isolated(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("hits").inc(5)
        assert "hits" not in second
        assert second.snapshot() == {}


class TestContextPropagation:
    def test_default_is_null_obs(self):
        assert current_obs() is NULL_OBS

    def test_use_obs_installs_and_resets(self):
        obs = Observability()
        with use_obs(obs):
            assert current_obs() is obs
        assert current_obs() is NULL_OBS

    def test_nesting_restores_outer(self):
        outer, inner = Observability(), Observability()
        with use_obs(outer):
            with use_obs(inner):
                assert current_obs() is inner
            assert current_obs() is outer

    def test_null_obs_drops_everything(self):
        NULL_OBS.counter("c").inc()
        NULL_OBS.histogram("h").observe(1.0)
        with NULL_OBS.span("phase"):
            pass
        NULL_OBS.event("job_arrived", job_id="x")
        assert NULL_OBS.registry.snapshot() == {}

    def test_span_records_into_histogram(self):
        obs = Observability()
        with obs.span("phase") as span:
            time.sleep(0.001)
        assert span.elapsed > 0.0
        assert obs.registry.histogram("phase").count == 1


class TestSinks:
    def test_null_sink_disabled(self):
        sink = NullSink()
        assert not sink.enabled
        sink.emit({"type": "x"})
        assert sink.n_events == 0

    def test_memory_sink_stamps_ts_and_seq(self):
        sink = MemorySink()
        sink.emit({"type": "a"})
        sink.emit({"type": "b"})
        assert [e["seq"] for e in sink.events] == [0, 1]
        assert all("ts" in e for e in sink.events)
        assert [e["type"] for e in sink.of_type("a")] == ["a"]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"type": "a", "n": 1})
            sink.emit({"type": "b", "tags": ["x", "y"]})
        events = read_trace(path)
        assert [e["type"] for e in events] == ["a", "b"]
        assert events[0]["n"] == 1
        assert events[1]["tags"] == ["x", "y"]
        assert count_by_type(events) == {"a": 1, "b": 1}

    def test_read_trace_reports_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "ok"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_trace(path)

    def test_event_skips_payload_when_disabled(self):
        obs = Observability()  # NullSink
        assert not obs.tracing
        obs.event("run_start", n_jobs=1)
        assert obs.sink.n_events == 0


class TestSimulationIntegration:
    def _workload(self):
        jobs = [deadline_job("w-a", "w"), deadline_job("w-b", "w")]
        workflow = Workflow.from_jobs("w", jobs, [("w-a", "w-b")], 0, 60)
        adhoc = [adhoc_job("q1", arrival=0), adhoc_job("q2", arrival=3)]
        return workflow, adhoc

    def test_registries_isolated_between_simulations(self, small_cluster):
        results = []
        for _ in range(2):
            wf, ad = self._workload()
            sim = Simulation(
                small_cluster, FifoScheduler(), workflows=[wf], adhoc_jobs=ad
            )
            results.append(sim.run())
        first, second = results
        # Identical runs -> identical per-run counts; a shared registry
        # would double the second run's sim.slot count.
        assert first.metrics["sim.slot"]["count"] == first.n_slots
        assert second.metrics["sim.slot"]["count"] == second.n_slots
        assert first.metrics["sim.slot"]["count"] == second.metrics["sim.slot"]["count"]

    def test_run_leaves_no_context_behind(self, small_cluster):
        workflow, adhoc = self._workload()
        Simulation(
            small_cluster, FifoScheduler(), workflows=[workflow], adhoc_jobs=adhoc
        ).run()
        assert current_obs() is NULL_OBS

    def test_trace_counts_match_result(self, small_cluster, tmp_path):
        workflow, adhoc = self._workload()
        path = tmp_path / "run.jsonl"
        obs = Observability(sink=JsonlSink(path))
        sim = Simulation(
            small_cluster,
            FifoScheduler(),
            workflows=[workflow],
            adhoc_jobs=adhoc,
            obs=obs,
        )
        with obs:
            result = sim.run()
        events = read_trace(path)
        counts = count_by_type(events)
        completed = [r for r in result.jobs.values() if r.completion_slot is not None]
        assert counts["run_start"] == 1
        assert counts["run_end"] == 1
        assert counts["workflow_arrived"] == 1
        assert counts["workflow_completed"] == 1
        assert counts["job_arrived"] == 2  # the two ad-hoc jobs
        assert counts["job_completed"] == len(completed) == 4
        assert counts["job_ready"] == 2  # both deadline jobs pass through ready
        assert counts["task_placement"] >= len(completed)
        # seq is a gap-free monotonic sequence across the whole trace.
        assert [e["seq"] for e in events] == list(range(len(events)))
        placements = [e for e in events if e["type"] == "task_placement"]
        assert all({"slot", "job_id", "units"} <= e.keys() for e in placements)

    def test_phase_stats_exposed_on_result(self, small_cluster):
        workflow, adhoc = self._workload()
        result = Simulation(
            small_cluster, FifoScheduler(), workflows=[workflow], adhoc_jobs=adhoc
        ).run()
        decide = result.phase_stats("sched.decide")
        assert decide is not None and decide["count"] == result.n_slots
        assert result.phase_stats("no.such.phase") is None

    def test_null_sink_overhead_smoke(self, small_cluster):
        """The disabled path must not meaningfully slow a run down."""
        workflow, adhoc = self._workload()
        sim = Simulation(
            small_cluster, FifoScheduler(), workflows=[workflow], adhoc_jobs=adhoc
        )
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
        # ~10 slots of FIFO; generous ceiling so CI noise never trips it,
        # but a pathological per-event cost (e.g. serialising to a dropped
        # payload) would.
        assert elapsed < 2.0
        # And the inert context handle really is free of per-call state:
        span = NULL_OBS.span("sim.slot")
        assert NULL_OBS.span("lp.solve") is span


class TestAdmissionEvents:
    def test_accept_and_reject_emit_events(self, small_cluster):
        from repro.core.admission import check_admission

        feasible = Workflow.from_jobs(
            "ok", [deadline_job("ok-a", "ok")], [], 0, 60
        )
        doomed = Workflow.from_jobs(
            "doom", [deadline_job("doom-a", "doom", count=8, duration=8)], [], 0, 2
        )
        sink = MemorySink()
        obs = Observability(sink=sink)
        with use_obs(obs):
            assert check_admission(feasible, [], small_cluster, 0).admit
            assert not check_admission(doomed, [], small_cluster, 0).admit
        assert obs.registry.counter("admission.accepted").value == 1
        assert obs.registry.counter("admission.rejected").value == 1
        accept, = sink.of_type("admission_accept")
        reject, = sink.of_type("admission_reject")
        assert accept["workflow_id"] == "ok"
        assert reject["workflow_id"] == "doom"
        assert reject["shortfall_units"] > 0
        assert obs.registry.histogram("admission.check").count == 2
        # One resource binds both checks: the flow route, no LP solve.
        assert accept["route"] == reject["route"] == "flow"
        assert obs.registry.counter("admission.route.flow").value == 2
        assert obs.registry.counter("admission.route.lp").value == 0
        assert obs.registry.counter("lp.solve.tag.admission").value == 0

    def test_lp_route_is_counted_and_tagged(self):
        from repro.core.admission import check_admission

        sink = MemorySink()
        obs = Observability(sink=sink)
        with use_obs(obs):
            assert check_admission(
                straddling_workflow("s"), [], ClusterCapacity.uniform(cpu=16, mem=32), 0
            ).admit
        accept, = sink.of_type("admission_accept")
        assert accept["route"] == "lp"
        assert obs.registry.counter("admission.route.lp").value == 1
        assert obs.registry.counter("admission.route.flow").value == 0
        assert obs.registry.counter("lp.solve.tag.admission").value == 1


class TestLogging:
    def test_log_gated_by_level(self, caplog):
        obs = Observability(level=logging.WARNING)
        with caplog.at_level(logging.DEBUG, logger="repro.obs"):
            obs.log(logging.INFO, "hidden")
            obs.log(logging.WARNING, "shown %d", 1)
        assert [r.message for r in caplog.records] == ["shown 1"]
