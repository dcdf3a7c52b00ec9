"""Tests for the load generator (``scripts/loadgen.py``).

The generator is a measurement instrument — the throughput benchmark and
the CI smoke jobs trust its tallies — so its pacing math, its mixed-
stream composition rules, its tenant-prefix spreading, and its
``accepted_workflow_ids`` ledger are pinned here against a real
in-process service behind the real HTTP frontend.
"""

from __future__ import annotations

import pytest

from repro.model.cluster import ClusterCapacity
from repro.service import SchedulerService, ServiceConfig, serve_http
from scripts.loadgen import _quantile, run_load


@pytest.fixture
def served():
    cluster = ClusterCapacity.uniform(cpu=64, mem=128)
    service = SchedulerService(
        cluster, ServiceConfig(admission=False, adhoc_queue_limit=4096)
    ).start()
    server = serve_http(service)
    yield server
    server.shutdown()
    if service.alive():
        service.drain(timeout=120)


class TestQuantile:
    def test_empty_is_zero(self):
        assert _quantile([], 0.99) == 0.0

    def test_picks_by_rank(self):
        values = [float(i) for i in range(100)]
        assert _quantile(values, 0.0) == 0.0
        assert _quantile(values, 0.50) == 50.0
        assert _quantile(values, 0.99) == 99.0
        assert _quantile(values, 1.0) == 99.0  # clamped to the last rank


class TestPacing:
    def test_achieved_rate_tracks_target(self, served):
        """Submitted count ≈ rate x duration, single sender."""
        summary = run_load(
            served.url, rate=40.0, duration_s=1.5, quiet=True
        )
        expected = 40.0 * 1.5
        assert 0.5 * expected <= summary["submitted"] <= 1.2 * expected
        assert summary["achieved_rate"] <= 1.2 * 40.0
        assert summary["errors"] == 0

    def test_concurrency_shares_the_rate(self, served):
        """N senders at rate/N must not multiply the total rate."""
        summary = run_load(
            served.url, rate=40.0, duration_s=1.5, concurrency=4, quiet=True
        )
        expected = 40.0 * 1.5
        assert 0.5 * expected <= summary["submitted"] <= 1.3 * expected
        assert summary["concurrency"] == 4
        # Shared index counter: every request id minted exactly once.
        assert len(summary["request_ids"]) == (
            summary["accepted"] + summary["rejected"]
        )

    def test_tallies_are_conserved(self, served):
        summary = run_load(
            served.url, rate=60.0, duration_s=1.0, concurrency=3, quiet=True
        )
        assert summary["submitted"] == (
            summary["accepted"]
            + summary["rejected"]
            + summary["shed"]
            + summary["errors"]
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="rate"):
            run_load("http://127.0.0.1:1", rate=0.0, quiet=True)
        with pytest.raises(ValueError, match="concurrency"):
            run_load("http://127.0.0.1:1", concurrency=0, quiet=True)
        with pytest.raises(ValueError, match="workflow_every"):
            run_load("http://127.0.0.1:1", workflow_every=-1, quiet=True)


class TestMixComposition:
    def test_workflow_every_zero_is_adhoc_only(self, served):
        summary = run_load(
            served.url,
            rate=30.0,
            duration_s=1.0,
            workflow_every=0,
            quiet=True,
        )
        assert summary["accepted"] > 0
        assert summary["accepted_workflow_ids"] == []
        assert set(summary["request_ids"].values()) == {"adhoc"}

    def test_workflow_every_one_is_workflows_only(self, served):
        summary = run_load(
            served.url,
            rate=20.0,
            duration_s=1.0,
            workflow_every=1,
            quiet=True,
        )
        assert summary["accepted"] > 0
        assert set(summary["request_ids"].values()) == {"workflow"}
        assert len(summary["accepted_workflow_ids"]) == summary["accepted"]

    def test_default_mix_is_one_in_five(self, served):
        summary = run_load(
            served.url, rate=50.0, duration_s=1.0, quiet=True
        )
        kinds = list(summary["request_ids"].values())
        workflows = kinds.count("workflow")
        # Index 0, 5, 10, ... are workflows: one fifth, rounded up.
        assert workflows == (len(kinds) + 4) // 5


class TestTenantSpreading:
    def test_tenant_prefixes_cycle(self, served):
        summary = run_load(
            served.url,
            rate=30.0,
            duration_s=1.5,
            workflow_every=1,
            tenants=3,
            quiet=True,
        )
        ids = summary["accepted_workflow_ids"]
        assert len(ids) >= 3
        prefixes = {wid.split("/", 1)[0] for wid in ids}
        assert prefixes == {"t0", "t1", "t2"}
        # The prefix is deterministic in the submission index.
        for wid in ids:
            prefix, rest = wid.split("/", 1)
            index = int(rest.removeprefix("lg-w"))
            assert prefix == f"t{index % 3}"

    def test_zero_tenants_leaves_ids_unprefixed(self, served):
        summary = run_load(
            served.url,
            rate=20.0,
            duration_s=0.8,
            workflow_every=1,
            quiet=True,
        )
        assert all(
            wid.startswith("lg-w") for wid in summary["accepted_workflow_ids"]
        )


class TestAcceptedLedger:
    def test_ledger_matches_service_accounting(self, served):
        """Every id in the ledger was really accepted: the service's own
        accepted-workflow counter must agree exactly."""
        summary = run_load(
            served.url,
            rate=25.0,
            duration_s=1.2,
            workflow_every=2,
            quiet=True,
        )
        ids = summary["accepted_workflow_ids"]
        assert len(ids) == len(set(ids)), "ledger must not double-count"
        from repro.service import HttpServiceClient

        status = HttpServiceClient(served.url).status()
        assert status.accepted_workflows == len(ids)

    def test_dead_server_counts_errors_not_accepts(self):
        summary = run_load(
            "http://127.0.0.1:9",  # discard port: nothing listens
            rate=20.0,
            duration_s=0.4,
            quiet=True,
        )
        assert summary["accepted"] == 0
        assert summary["errors"] == summary["submitted"] > 0
