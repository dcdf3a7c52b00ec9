"""One shard surface: the in-process shard and the remote one agree.

A :class:`~repro.service.core.SchedulerService` *is* the in-process
shard the router, rebalancer, failure detector, supervisor and
``repro serve --shards`` drive; :class:`~repro.cluster.shards.RemoteShard`
is the same duck type over HTTP, and
:class:`~repro.service.client.HttpServiceClient` speaks the client subset.
These tests pin that the names and parameters agree, so a caller written
against one works against the other, and that
:class:`~repro.chaos.ChaosTransport` forwards every fleet call.
"""

import inspect

import pytest

from repro.chaos import ChaosTransport, ChaosTransportConfig
from repro.cluster import RemoteShard
from repro.model.cluster import ClusterCapacity
from repro.model.workflow import Workflow
from repro.service import HttpServiceClient, SchedulerService, ServiceConfig
from tests.conftest import adhoc_job, deadline_job

#: Every method a fleet component calls on a shard.
FLEET_METHODS = (
    "submit_workflow",
    "submit_adhoc",
    "alive",
    "status",
    "metrics",
    "slo",
    "queue_depth",
    "skyline",
    "candidates",
    "orphans",
    "workflow_ids",
    "owns",
    "migrate_out",
    "migrate_in",
    "restore",
    "restore_orphan",
    "confirm",
)

#: What a client of one service calls.
CLIENT_METHODS = ("submit_workflow", "submit_adhoc", "status", "plan", "metrics", "slo")

#: The names the service answered to before it was the shard.
OLD_NAMES = (
    "demand_skyline",
    "migration_candidates",
    "orphan_info",
    "owns_workflow",
    "restore_workflow",
    "confirm_migration",
    "metrics_snapshot",
    "slo_snapshot",
    "plan_snapshot",
    "running",
    "stop",
)


def chain(wid: str) -> Workflow:
    jobs = [deadline_job(f"{wid}-j{i}", wid) for i in range(2)]
    return Workflow.from_jobs(wid, jobs, [(f"{wid}-j0", f"{wid}-j1")], 0, 2000)


def assert_covers(method, reference) -> None:
    """*method* accepts every parameter of *reference* under the same name
    and kind; anything it takes beyond them has a default."""
    ours = inspect.signature(method).parameters
    theirs = inspect.signature(reference).parameters
    for name, param in theirs.items():
        if name == "self":
            continue
        assert name in ours, f"{method.__qualname__} lacks {name!r}"
        assert ours[name].kind == param.kind, (
            f"{method.__qualname__}: {name!r} is {ours[name].kind}, "
            f"{reference.__qualname__} has {param.kind}"
        )
    for name, param in ours.items():
        if name != "self" and name not in theirs:
            assert param.default is not inspect.Parameter.empty, (
                f"{method.__qualname__}: extra {name!r} needs a default"
            )


@pytest.mark.parametrize("method", FLEET_METHODS)
def test_fleet_method_matches_remote_shard(method):
    assert_covers(getattr(SchedulerService, method), getattr(RemoteShard, method))


@pytest.mark.parametrize("method", CLIENT_METHODS)
def test_client_method_matches_http_client(method):
    assert_covers(
        getattr(SchedulerService, method), getattr(HttpServiceClient, method)
    )


@pytest.mark.parametrize("name", OLD_NAMES)
def test_old_names_are_gone(name):
    assert not hasattr(SchedulerService, name)


def test_identity_attributes(tmp_path):
    journal = str(tmp_path / "s0.jsonl")
    cluster = ClusterCapacity.uniform(cpu=8, mem=16)
    service = SchedulerService(
        cluster, ServiceConfig(journal_path=journal), name="s0"
    )
    remote = RemoteShard("r0", "http://127.0.0.1:1", journal_path=journal)
    try:
        assert (service.name, service.journal_path) == ("s0", journal)
        assert (remote.name, remote.journal_path) == ("r0", journal)
        assert SchedulerService(cluster).name == ""
    finally:
        service.state.close()
        remote.client.close()


def test_chaos_transport_forwards_the_fleet_surface(tmp_path):
    config = ServiceConfig(  # frozen clock: every workflow stays movable
        realtime=True,
        slot_seconds=3600.0,
        journal_path=str(tmp_path / "s0.jsonl"),
        journal_fsync=False,
    )
    service = SchedulerService(
        ClusterCapacity.uniform(cpu=20, mem=40), config, name="s0"
    ).start()
    shard = ChaosTransport(service, ChaosTransportConfig(seed=1))
    try:
        assert shard.submit_workflow(chain("w1")).accepted
        assert shard.submit_workflow(chain("w2")).accepted
        assert shard.submit_adhoc(adhoc_job("a1", arrival=0)).accepted
        assert shard.alive() and shard.owns("w1")
        assert shard.status().accepted_workflows == 2
        assert "service.submit.requests" in shard.metrics()
        assert "healthy" in shard.slo()
        assert shard.queue_depth() == 1
        assert "saturation" in shard.skyline()
        assert {c["workflow_id"] for c in shard.candidates()} == {"w1", "w2"}
        assert sorted(shard.workflow_ids()) == ["w1", "w2"]
        handoff = shard.migrate_out("w1", dest="elsewhere", epoch=1)
        assert shard.orphans() == {"w1": {"dest": "elsewhere", "epoch": 1}}
        assert shard.restore(handoff["workflow"], key=handoff["key"]).accepted
        shard.migrate_out("w1", dest="elsewhere", epoch=2)
        assert shard.restore_orphan("w1").accepted
        shard.migrate_out("w2", dest="elsewhere", epoch=3)
        shard.confirm("w2", epoch=3)
        assert shard.migrate_in(chain("w3"), key="k3", epoch=4).accepted
        assert shard.n_calls == 20
        for method in FLEET_METHODS:
            forwarded = getattr(shard, method)
            assert forwarded.__name__ == method
            assert forwarded != getattr(service, method)

        # Lifecycle passes through unfaulted, even across a partition.
        shard.partition()
        with pytest.raises(OSError):
            shard.status()
        for method in ("start", "kill", "restart", "drain"):
            assert getattr(shard, method) == getattr(service, method)
        shard.kill(timeout=30)
        assert not service.alive()
        shard.restart()
        assert service.alive() and service.owns("w3")
        shard.drain(timeout=120)
        assert shard.fault_log == [("partition", "status")]
    finally:
        service.kill(timeout=30)
