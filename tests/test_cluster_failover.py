"""Failure detector + supervisor: detection, restart, journal-driven
failover, zombie fencing, and the cached-liveness router paths.

Everything runs on an injectable clock (no sleeps): the detector's
``live → suspect → dead`` arithmetic is exercised by advancing a fake
monotonic clock, and the fleet uses the frozen realtime-clock config so
workflows never start (migration of a started workflow is illegal by
design).
"""

import random

import pytest

from repro.cluster import (
    DetectorConfig,
    FailureDetector,
    Rebalancer,
    ShardRouter,
    Supervisor,
    SupervisorConfig,
    slice_capacity,
)
from repro.model.cluster import ClusterCapacity
from repro.model.workflow import Workflow
from repro.service import SchedulerService, ServiceConfig
from repro.verify import check_cross_shard_conservation
from tests.conftest import adhoc_job, deadline_job

N_SHARDS = 3


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_fleet(tmp_path):
    cluster = ClusterCapacity.uniform(cpu=60, mem=120)
    shards = []
    for i, capacity in enumerate(slice_capacity(cluster, N_SHARDS)):
        config = ServiceConfig(
            realtime=True,
            slot_seconds=3600.0,
            journal_path=str(tmp_path / f"shard{i}.jsonl"),
            journal_fsync=False,
        )
        shards.append(SchedulerService(capacity, config, name=f"s{i}").start())
    return shards


def workflow_of(index: int, tenant: str) -> Workflow:
    wid = f"{tenant}/w{index}"
    jobs = [deadline_job(f"{wid}-j{j}", wid) for j in range(2)]
    return Workflow.from_jobs(
        wid, jobs, [(f"{wid}-j0", f"{wid}-j1")], 0, 2000
    )


@pytest.fixture
def fleet(tmp_path):
    shards = make_fleet(tmp_path)
    yield shards
    for shard in shards:
        shard.kill()


def make_stack(shards, *, suspect_after=2, dead_after_s=5.0):
    clock = FakeClock()
    router = ShardRouter(shards)
    detector = FailureDetector(
        shards,
        DetectorConfig(suspect_after=suspect_after, dead_after_s=dead_after_s),
        obs=router.obs,
        clock=clock,
    )
    router.attach_detector(detector)
    return router, detector, clock


# -- detector state machine ------------------------------------------------------


def test_detector_live_suspect_dead_and_back(fleet):
    router, detector, clock = make_stack(fleet)
    assert detector.probe_all() == {"s0": "live", "s1": "live", "s2": "live"}
    fleet[0].kill()
    clock.advance(1.0)
    # One failed probe: not yet suspect (suspect_after=2).
    assert detector.probe(fleet[0]) == "live"
    clock.advance(1.0)
    assert detector.probe(fleet[0]) == "suspect"
    assert detector.is_live("s0")  # suspect still routes
    # The failure streak started at t=1; dead at streak age >= 5.
    clock.advance(3.9)
    assert detector.probe(fleet[0]) == "suspect"
    clock.advance(0.2)
    assert detector.probe(fleet[0]) == "dead"
    assert not detector.is_live("s0")
    clock.advance(2.0)
    assert detector.dead_for("s0") == pytest.approx(2.0)
    # Any successful probe snaps straight back to live.
    fleet[0].restart()
    assert detector.probe(fleet[0]) == "live"
    assert detector.dead_for("s0") == 0.0


def test_detector_caches_queue_depth_and_snapshot(fleet):
    _, detector, _ = make_stack(fleet)
    detector.probe_all()
    assert detector.queue_depth_hint("s1") == 0
    snapshot = detector.snapshot()
    assert set(snapshot) == {"s0", "s1", "s2"}
    assert snapshot["s0"]["state"] == "live"
    assert snapshot["s0"]["probed"] is True


def test_detector_force_state(fleet):
    _, detector, _ = make_stack(fleet)
    detector.force_state("s2", "dead")
    assert detector.state("s2") == "dead"
    assert detector.probed("s2")
    with pytest.raises(ValueError):
        detector.force_state("s2", "zombie")


def test_detector_exports_state_gauges(fleet):
    router, detector, _ = make_stack(fleet)
    detector.probe_all()
    snapshot = router.obs.registry.snapshot()
    assert snapshot["cluster.shard.state.s0"]["value"] == 0.0
    detector.force_state("s0", "dead")
    snapshot = router.obs.registry.snapshot()
    assert snapshot["cluster.shard.state.s0"]["value"] == 2.0


# -- router consumes cached verdicts ---------------------------------------------


def test_router_spill_uses_cached_state_not_inline_probes(fleet):
    router, detector, clock = make_stack(fleet, suspect_after=1, dead_after_s=0.0)
    detector.probe_all()
    fleet[1].kill()
    clock.advance(1.0)
    detector.probe_all()  # s1 -> dead in one probe (dead_after 0)
    assert detector.state("s1") == "dead"

    # An ad-hoc job homed on the dead shard spills to a live one without
    # any inline alive()/queue_depth() probing of the fleet.
    calls = {"n": 0}
    for shard in (fleet[0], fleet[2]):
        original = shard.queue_depth

        def counting_queue_depth(original=original):
            calls["n"] += 1
            return original()

        shard.queue_depth = counting_queue_depth

    job_id = next(
        f"a{i}" for i in range(200) if router.home_shard(f"a{i}") is fleet[1]
    )
    result = router.submit_adhoc(adhoc_job(job_id, 0))
    assert result.accepted
    assert result.shard in ("s0", "s2")
    assert calls["n"] == 0, "spill order probed queue_depth inline"


def test_router_reroutes_workflow_off_dead_home(fleet):
    router, detector, clock = make_stack(fleet, suspect_after=1, dead_after_s=0.0)
    detector.probe_all()
    # Find a tenant whose home is s0, then kill s0.
    tenant = next(
        f"t{i}" for i in range(100) if router.home_shard(f"t{i}/w") is fleet[0]
    )
    fleet[0].kill()
    clock.advance(1.0)
    detector.probe_all()
    assert detector.state("s0") == "dead"

    workflow = workflow_of(0, tenant)
    result = router.submit_workflow(workflow, idempotency_key="k0")
    assert result.accepted
    assert result.shard in ("s1", "s2")
    # Placement pinned: the same wid now resolves to the new owner.
    assert router.shard_for_workflow(workflow.workflow_id).name == result.shard
    registry = router.obs.registry.snapshot()
    assert registry["router.failover.rerouted"]["value"] == 1


def test_router_without_detector_behaves_as_before(fleet):
    router = ShardRouter(fleet)  # no detector attached
    workflow = workflow_of(1, "t1")
    assert router.submit_workflow(workflow).accepted
    fleet[0].kill()
    # Dead shard, no detector: workflow answer is unavailable (no reroute).
    tenant = next(
        f"t{i}" for i in range(100) if router.home_shard(f"t{i}/w") is fleet[0]
    )
    result = router.submit_workflow(workflow_of(2, tenant))
    assert not result.accepted
    assert result.reason == "unavailable"


# -- supervisor: restart + failover + fencing ------------------------------------


def submit_until_on(router, shard, n, prefix="t"):
    """Submit workflows until *n* of them land on *shard*; returns ids."""
    landed = []
    index = 0
    while len(landed) < n:
        tenant = f"{prefix}{index}"
        index += 1
        if router.home_shard(f"{tenant}/w") is not shard:
            continue
        workflow = workflow_of(index, tenant)
        result = router.submit_workflow(
            workflow, idempotency_key=f"key-{workflow.workflow_id}"
        )
        assert result.accepted, result
        landed.append(workflow.workflow_id)
        assert index < 1000
    return landed


def test_supervisor_restarts_dead_local_shard(fleet):
    router, detector, clock = make_stack(fleet, suspect_after=1, dead_after_s=0.0)
    detector.probe_all()
    supervisor = Supervisor(router, detector, SupervisorConfig())
    fleet[2].kill()
    clock.advance(1.0)
    detector.probe_all()
    assert detector.state("s2") == "dead"
    summary = supervisor.cycle()
    assert summary["restarted"] == ["s2"]
    assert fleet[2].alive()
    assert detector.state("s2") == "live"  # re-probed inside the cycle


def test_supervisor_failover_rehomes_committed_workflows(fleet):
    router, detector, clock = make_stack(fleet, suspect_after=1, dead_after_s=0.0)
    detector.probe_all()
    supervisor = Supervisor(
        router,
        detector,
        SupervisorConfig(auto_restart=False, failover_after_s=0.0),
    )
    accepted = submit_until_on(router, fleet[0], 3)
    fleet[0].kill()
    clock.advance(1.0)
    detector.probe_all()
    summary = supervisor.cycle()
    rehomed = summary["failed_over"]["s0"]["rehomed"]
    assert sorted(r["workflow_id"] for r in rehomed) == sorted(accepted)
    for wid in accepted:
        owner = router.shard_for_workflow(wid)
        assert owner is not fleet[0]
        assert owner.owns(wid)
    # Zero accepted-work loss, exactly-once, placement consistent.  The
    # dead shard is excluded from the survey: a crashed process answers
    # nothing (the in-process kill simulation leaves its memory readable,
    # which a real SIGKILL would not).
    owned = {
        name: ids
        for name, ids in router.owned_by_shard().items()
        if detector.is_live(name)
    }
    report = check_cross_shard_conservation(
        accepted,
        owned,
        {
            name: list(entries)
            for name, entries in router.orphans_by_shard().items()
            if detector.is_live(name)
        },
        placement=router.placement_overrides,
    )
    assert report.ok, report.render()


def test_supervisor_failover_is_idempotent(fleet):
    router, detector, clock = make_stack(fleet, suspect_after=1, dead_after_s=0.0)
    detector.probe_all()
    supervisor = Supervisor(
        router,
        detector,
        SupervisorConfig(auto_restart=False, failover_after_s=0.0),
    )
    accepted = submit_until_on(router, fleet[0], 2)
    fleet[0].kill()
    clock.advance(1.0)
    detector.probe_all()
    first = supervisor.fail_over(fleet[0])
    assert len(first["rehomed"]) == 2
    second = supervisor.fail_over(fleet[0])
    assert second["rehomed"] == []
    assert sorted(second["already_owned"]) == sorted(accepted)
    owned = {
        name: ids
        for name, ids in router.owned_by_shard().items()
        if detector.is_live(name)
    }
    report = check_cross_shard_conservation(accepted, owned)
    assert report.ok, report.render()


def test_zombie_return_is_fenced_durably(fleet):
    router, detector, clock = make_stack(fleet, suspect_after=1, dead_after_s=0.0)
    detector.probe_all()
    supervisor = Supervisor(
        router,
        detector,
        SupervisorConfig(auto_restart=False, failover_after_s=0.0),
    )
    accepted = submit_until_on(router, fleet[0], 2)
    fleet[0].kill()
    clock.advance(1.0)
    detector.probe_all()
    supervisor.cycle()  # fails over both workflows

    # The zombie returns: journal replay re-owns everything it had.
    fleet[0].restart()
    assert all(fleet[0].owns(wid) for wid in accepted)
    detector.probe_all()
    summary = supervisor.cycle()
    assert sorted(summary["fenced"]["s0"]) == sorted(accepted)
    assert not any(fleet[0].owns(wid) for wid in accepted)

    # Fencing is journaled on the zombie: another crash + replay must not
    # resurrect the claim.
    fleet[0].kill()
    fleet[0].restart()
    assert not any(fleet[0].owns(wid) for wid in accepted)
    report = check_cross_shard_conservation(
        accepted,
        router.owned_by_shard(),
        {
            name: list(entries)
            for name, entries in router.orphans_by_shard().items()
        },
        placement=router.placement_overrides,
    )
    assert report.ok, report.render()


def test_vetoed_shard_is_left_alone(fleet):
    router, detector, clock = make_stack(fleet, suspect_after=1, dead_after_s=0.0)
    detector.probe_all()
    supervisor = Supervisor(
        router,
        detector,
        SupervisorConfig(auto_restart=False, failover_after_s=0.0),
    )
    submit_until_on(router, fleet[0], 1)
    supervisor.veto("s0")
    fleet[0].kill()
    clock.advance(1.0)
    detector.probe_all()
    summary = supervisor.cycle()
    assert summary["failed_over"] == {} and summary["restarted"] == []
    supervisor.veto("s0", False)
    summary = supervisor.cycle()
    assert "s0" in summary["failed_over"]


def test_failover_epochs_outrank_rebalancer_epochs(fleet):
    router, detector, clock = make_stack(fleet, suspect_after=1, dead_after_s=0.0)
    detector.probe_all()
    rebalancer = Rebalancer(router)
    supervisor = Supervisor(
        router,
        detector,
        SupervisorConfig(auto_restart=False, failover_after_s=0.0),
        rebalancer=rebalancer,
    )
    # Simulate rebalance traffic having consumed epochs.
    rebalancer._epoch = 41
    accepted = submit_until_on(router, fleet[0], 1)
    fleet[0].kill()
    clock.advance(1.0)
    detector.probe_all()
    summary = supervisor.fail_over(fleet[0])
    assert summary["rehomed"][0]["epoch"] > 41
    assert accepted  # sanity


# -- stale-epoch fence at the service layer --------------------------------------


def test_migrate_in_rejects_stale_epoch(fleet):
    router, _, _ = make_stack(fleet)
    accepted = submit_until_on(router, fleet[0], 1)
    wid = accepted[0]
    handoff = fleet[0].migrate_out(wid, dest="s1", epoch=7)
    result = fleet[1].migrate_in(handoff["workflow"], key=handoff["key"], epoch=7)
    assert result.accepted
    fleet[0].confirm(wid, epoch=7)
    # s1 later hands the workflow onward at epoch 9; a zombie replaying
    # the *old* epoch-7 handoff into s1 must bounce off the watermark.
    handoff2 = fleet[1].migrate_out(wid, dest="s2", epoch=9)
    stale = fleet[1].migrate_in(handoff["workflow"], key=handoff["key"], epoch=7)
    assert not stale.accepted
    assert stale.reason == "stale_epoch"
    # The epoch-9 handoff itself still lands and settles normally.
    fresh = fleet[2].migrate_in(handoff2["workflow"], key=handoff2["key"], epoch=9)
    assert fresh.accepted
    fleet[1].confirm(wid, epoch=9)


def test_stale_epoch_watermark_survives_restart(fleet):
    router, _, _ = make_stack(fleet)
    accepted = submit_until_on(router, fleet[0], 1)
    wid = accepted[0]
    handoff = fleet[0].migrate_out(wid, dest="s1", epoch=12)
    fleet[1].migrate_in(handoff["workflow"], key=handoff["key"], epoch=12)
    fleet[0].confirm(wid, epoch=12)
    fleet[0].kill()
    fleet[0].restart()  # journal replay must rebuild the watermark
    stale = fleet[0].migrate_in(handoff["workflow"], key=handoff["key"], epoch=4)
    assert not stale.accepted
    assert stale.reason == "stale_epoch"


def test_placement_epoch_ignores_stale_writes(fleet):
    router, _, _ = make_stack(fleet)
    router.record_placement("t9/w", "s1", epoch=5)
    router.record_placement("t9/w", "s2", epoch=3)  # stale: ignored
    assert router.placement_overrides["t9/w"] == "s1"
    router.record_placement("t9/w", "s2", epoch=6)
    assert router.placement_overrides["t9/w"] == "s2"


# -- detector-driven reconcile loop ----------------------------------------------


def test_periodic_reconcile_settles_orphans(fleet):
    router, detector, _ = make_stack(fleet)
    detector.probe_all()
    accepted = submit_until_on(router, fleet[0], 1)
    wid = accepted[0]
    # Interrupted migration: tombstone only.
    fleet[0].migrate_out(wid, dest="s1", epoch=1)
    assert wid in fleet[0].orphans()
    router.start_reconcile_loop(0.05)
    try:
        deadline = 100
        import time as _time

        while wid in fleet[0].orphans() and deadline:
            _time.sleep(0.02)
            deadline -= 1
        assert wid not in fleet[0].orphans(), "loop never settled the orphan"
        assert fleet[0].owns(wid)
    finally:
        router.stop_reconcile_loop()


def test_supervisor_snapshot_shape(fleet):
    router, detector, _ = make_stack(fleet)
    supervisor = Supervisor(router, detector)
    snapshot = supervisor.snapshot()
    assert snapshot == {"vetoed": [], "failed_over": {}, "epoch": 0}


def test_random_kill_failover_conservation(fleet):
    """Randomized mini-experiment: submit, kill a random shard, fail over,
    zombie-return, fence — conservation must hold throughout."""
    rng = random.Random(99)
    router, detector, clock = make_stack(fleet, suspect_after=1, dead_after_s=0.0)
    detector.probe_all()
    supervisor = Supervisor(
        router,
        detector,
        SupervisorConfig(auto_restart=False, failover_after_s=0.0),
    )
    accepted = []
    for i in range(12):
        workflow = workflow_of(i, f"t{rng.randrange(8)}")
        result = router.submit_workflow(
            workflow, idempotency_key=f"key-{workflow.workflow_id}"
        )
        if result.accepted:
            accepted.append(workflow.workflow_id)
    victim = rng.choice(fleet)
    victim.kill()
    clock.advance(1.0)
    detector.probe_all()
    supervisor.cycle()
    victim.restart()
    detector.probe_all()
    supervisor.cycle()  # fence the zombie
    report = check_cross_shard_conservation(
        accepted,
        router.owned_by_shard(),
        {
            name: list(entries)
            for name, entries in router.orphans_by_shard().items()
        },
        placement=router.placement_overrides,
    )
    assert report.ok, report.render()
    assert accepted
