"""Transport chaos + client resilience: seeded wire faults, exactly-once
under duplication, circuit breaker.

The chaos transport's whole value is *reproducibility*: a fault schedule
is a pure function of (seed, call sequence), so any failure it provokes
can be replayed byte-for-byte.  These tests pin that property, plus the
safety claim that rides on it — duplicated submissions stay exactly-once
because admission dedupes on idempotency keys, not on transport luck.
"""

import pytest

from repro.chaos import ChaosTransport, ChaosTransportConfig
from repro.cluster import DetectorConfig, FailureDetector, slice_capacity
from repro.model.cluster import ClusterCapacity
from repro.model.workflow import Workflow
from repro.obs import Observability
from repro.service import SchedulerService, ServiceConfig
from repro.service.client import (
    CircuitBreaker,
    CircuitOpenError,
    HttpServiceClient,
    ServiceUnavailableError,
)
from tests.conftest import deadline_job


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_shard(tmp_path, name="s0"):
    config = ServiceConfig(
        realtime=True,
        slot_seconds=3600.0,
        journal_path=str(tmp_path / f"{name}.jsonl"),
        journal_fsync=False,
    )
    capacity = slice_capacity(ClusterCapacity.uniform(cpu=60, mem=120), 3)[0]
    return SchedulerService(capacity, config, name=name).start()


def make_workflow(wid: str) -> Workflow:
    jobs = [deadline_job(f"{wid}-j{j}", wid) for j in range(2)]
    return Workflow.from_jobs(wid, jobs, [(f"{wid}-j0", f"{wid}-j1")], 0, 2000)


# -- config validation -----------------------------------------------------------


def test_chaos_config_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        ChaosTransportConfig(drop_prob=1.5)
    with pytest.raises(ValueError):
        ChaosTransportConfig(duplicate_prob=-0.1)
    with pytest.raises(ValueError):
        ChaosTransportConfig(delay_s=-1.0)


# -- seeded reproducibility ------------------------------------------------------


def drive(transport, n=40):
    """A fixed call sequence; returns the resulting fault log."""
    for i in range(n):
        try:
            transport.owns(f"t/w{i}")
        except OSError:
            pass
    return list(transport.fault_log)


def test_fault_schedule_is_a_pure_function_of_seed(tmp_path):
    config = ChaosTransportConfig(
        drop_prob=0.3, delay_prob=0.2, delay_s=0.0, duplicate_prob=0.2, seed=42
    )
    log_a = drive(ChaosTransport(make_shard(tmp_path / "a"), config))
    log_b = drive(ChaosTransport(make_shard(tmp_path / "b"), config))
    assert log_a == log_b
    assert log_a, "fault plan injected nothing — probabilities too low"
    kinds = {kind for kind, _ in log_a}
    assert kinds <= {"drop", "delay", "duplicate"}

    other = ChaosTransportConfig(
        drop_prob=0.3, delay_prob=0.2, delay_s=0.0, duplicate_prob=0.2, seed=43
    )
    log_c = drive(ChaosTransport(make_shard(tmp_path / "c"), other))
    assert log_c != log_a


def test_drop_raises_and_never_reaches_the_shard(tmp_path):
    shard = make_shard(tmp_path)
    transport = ChaosTransport(shard, ChaosTransportConfig(drop_prob=1.0))
    workflow = make_workflow("t/w0")
    with pytest.raises(OSError):
        transport.submit_workflow(workflow, idempotency_key="k0")
    assert not shard.owns("t/w0")
    assert transport.fault_log == [("drop", "submit_workflow")]


def test_delay_still_delivers(tmp_path):
    shard = make_shard(tmp_path)
    transport = ChaosTransport(
        shard, ChaosTransportConfig(delay_prob=1.0, delay_s=0.0)
    )
    result = transport.submit_workflow(make_workflow("t/w1"), idempotency_key="k1")
    assert result.accepted
    assert shard.owns("t/w1")
    assert ("delay", "submit_workflow") in transport.fault_log


# -- exactly-once under duplication ----------------------------------------------


def test_duplicated_submission_stays_exactly_once(tmp_path):
    shard = make_shard(tmp_path)
    transport = ChaosTransport(shard, ChaosTransportConfig(duplicate_prob=1.0))
    workflow = make_workflow("t/w2")
    result = transport.submit_workflow(workflow, idempotency_key="k2")
    assert result.accepted  # the second (retransmitted) answer
    assert transport.fault_log == [("duplicate", "submit_workflow")]
    # The wire delivered the submission twice; admission saw it once.
    assert shard.workflow_ids().count("t/w2") == 1
    assert shard.status().accepted_workflows == 1


def test_duplicate_without_idempotency_key_is_caught_by_owner_check(tmp_path):
    # Workflows resubmitted without a key still dedupe on ownership: the
    # service refuses a second copy of a workflow id it already owns.
    shard = make_shard(tmp_path)
    transport = ChaosTransport(shard, ChaosTransportConfig(duplicate_prob=1.0))
    result = transport.submit_workflow(make_workflow("t/w3"))
    assert shard.workflow_ids().count("t/w3") == 1
    assert result is not None


# -- partition -------------------------------------------------------------------


def test_partition_cuts_and_heal_restores(tmp_path):
    shard = make_shard(tmp_path)
    transport = ChaosTransport(shard, ChaosTransportConfig())
    assert transport.alive()
    transport.partition()
    assert transport.partitioned
    with pytest.raises(OSError):
        transport.alive()
    with pytest.raises(OSError):
        transport.submit_workflow(make_workflow("t/w4"))
    assert [kind for kind, _ in transport.fault_log] == ["partition", "partition"]
    transport.heal()
    assert transport.alive()
    assert transport.submit_workflow(make_workflow("t/w4")).accepted


def test_lifecycle_and_identity_pass_through_unfaulted(tmp_path):
    shard = make_shard(tmp_path)
    transport = ChaosTransport(shard, ChaosTransportConfig(drop_prob=1.0))
    transport.partition()
    # kill/restart model walking to the machine: never faulted.
    transport.kill()
    transport.restart()
    assert shard.alive()
    assert transport.name == "s0"
    assert transport.journal_path == shard.journal_path
    assert transport.wrapped is shard


def test_partitioned_shard_reads_as_dead_then_recovers(tmp_path):
    shard = make_shard(tmp_path)
    transport = ChaosTransport(shard, ChaosTransportConfig())
    clock = FakeClock()
    detector = FailureDetector(
        [transport],
        DetectorConfig(suspect_after=1, dead_after_s=0.0),
        clock=clock,
    )
    assert detector.probe_all() == {"s0": "live"}
    transport.partition()
    clock.advance(1.0)
    assert detector.probe(transport) == "dead"
    transport.heal()
    assert detector.probe(transport) == "live"


# -- circuit breaker -------------------------------------------------------------


def test_breaker_opens_after_threshold_and_fast_fails():
    clock = FakeClock()
    obs = Observability()
    breaker = CircuitBreaker(
        failure_threshold=3, reset_timeout_s=2.0, name="s1", obs=obs, clock=clock
    )
    for _ in range(2):
        assert breaker.allow()
        breaker.record_failure()
    assert breaker.state == "closed"
    breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()  # fast fail, no wire call
    snapshot = obs.registry.snapshot()
    assert snapshot["router.breaker.opens.s1"]["value"] == 1.0
    assert snapshot["router.breaker.state.s1"]["value"] == 2.0
    assert snapshot["router.breaker.fast_fails.s1"]["value"] == 1.0


def test_breaker_half_open_probe_then_close():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0, clock=clock)
    breaker.record_failure()
    assert breaker.state == "open"
    clock.advance(4.9)
    assert not breaker.allow()
    clock.advance(0.2)
    assert breaker.allow()  # the half-open probe slot
    assert breaker.state == "half_open"
    assert not breaker.allow()  # one probe at a time
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.allow()


def test_breaker_half_open_probe_failure_reopens():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0, clock=clock)
    breaker.record_failure()
    clock.advance(1.5)
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()  # timeout restarts from the re-open
    clock.advance(1.5)
    assert breaker.allow()


def test_client_fast_fails_while_breaker_is_open():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=60.0, clock=clock)
    # Nothing listens on this port: every attempt is a transport failure.
    client = HttpServiceClient(
        "http://127.0.0.1:9", timeout=0.2, max_retries=0, breaker=breaker
    )
    for _ in range(2):
        with pytest.raises(ServiceUnavailableError):
            client.status()
    assert breaker.state == "open"
    with pytest.raises(CircuitOpenError):
        client.status()
    assert not client.healthy()  # CircuitOpenError reads as unhealthy

