"""Integration tests: migration protocol and skyline rebalancer over
real fleets of in-process :class:`SchedulerService` shards.

Shards run in *realtime* mode with an hour-long slot, so the virtual
clock effectively never advances during a test — submitted workflows
stay un-started and migratable, making every migration scenario
deterministic.  Crash scenarios use ``SchedulerService.kill`` + ``restart``
(same journal), exactly the recovery path a crashed ``repro serve``
process takes.
"""

import time

import pytest

from repro.cluster import (
    RebalanceConfig,
    Rebalancer,
    ShardRouter,
    slice_capacity,
)
from repro.model.cluster import ClusterCapacity
from repro.model.workflow import Workflow
from repro.service import SchedulerService, ServiceConfig
from repro.verify import check_cross_shard_conservation
from tests.conftest import deadline_job


def chain(wid: str, deadline: int = 600) -> Workflow:
    jobs = [deadline_job(f"{wid}-j{i}", wid) for i in range(2)]
    return Workflow.from_jobs(
        wid, jobs, [(f"{wid}-j0", f"{wid}-j1")], 0, deadline
    )


def frozen_config(tmp_path, index: int) -> ServiceConfig:
    """Journaled service whose clock (1 slot/hour, realtime) never moves."""
    return ServiceConfig(
        realtime=True,
        slot_seconds=3600.0,
        journal_path=str(tmp_path / f"shard{index}.jsonl"),
        journal_fsync=False,
    )


@pytest.fixture
def fleet(tmp_path):
    cluster = ClusterCapacity.uniform(cpu=40, mem=80)
    shards = [
        SchedulerService(capacity, frozen_config(tmp_path, i), name=f"s{i}").start()
        for i, capacity in enumerate(slice_capacity(cluster, 2))
    ]
    yield shards
    for shard in shards:
        shard.kill()


def conservation(router: ShardRouter, accepted: list[str]):
    orphans = {
        name: list(entries)
        for name, entries in router.orphans_by_shard().items()
    }
    return check_cross_shard_conservation(
        accepted, router.owned_by_shard(), orphans
    )


def submit_tenant_burst(router: ShardRouter, n: int = 6) -> list[str]:
    """n workflows of one tenant — all land on one shard (skewed fleet)."""
    accepted = []
    for i in range(n):
        workflow = chain(f"t/{i}")
        result = router.submit_workflow(workflow)
        assert result.accepted, result
        accepted.append(workflow.workflow_id)
    return accepted


class TestMigrationProtocol:
    def test_happy_path_moves_ownership(self, fleet):
        router = ShardRouter(fleet)
        accepted = submit_tenant_burst(router)
        source = router.shard_for_workflow(accepted[0])
        dest = next(s for s in fleet if s is not source)

        handoff = source.migrate_out(accepted[0], dest=dest.name, epoch=1)
        result = dest.migrate_in(
            handoff["workflow"], key=handoff["key"], epoch=1
        )
        assert result.accepted
        source.confirm(accepted[0], epoch=1)

        assert not source.owns(accepted[0])
        assert dest.owns(accepted[0])
        assert source.orphans() == {}
        assert conservation(router, accepted).ok

    def test_migrate_in_reruns_admission_and_can_reject(self, fleet):
        router = ShardRouter(fleet)
        source = router.home_shard("t/x")
        dest = next(s for s in fleet if s is not source)
        # 20 serial slots of work against a 10-slot window: infeasible on
        # any slice, so the destination must refuse the handoff.
        wid = "t/heavy"
        job = deadline_job(f"{wid}-j0", wid, count=2, duration=20)
        heavy = Workflow.from_jobs(wid, [job], [], 0, 10)
        result = source.submit_workflow(heavy)
        assert not result.accepted  # admission also rejects it up front

        accepted = submit_tenant_burst(router, n=2)
        handoff = source.migrate_out(accepted[0], dest=dest.name, epoch=1)
        # Shrink the destination's view by filling it first.
        assert dest.migrate_in(
            handoff["workflow"], key=handoff["key"], epoch=1
        ).accepted

    def test_started_workflow_not_migratable(self, tmp_path):
        # Virtual-time shard: the clock races, everything starts at once.
        cluster = ClusterCapacity.uniform(cpu=20, mem=40)
        config = ServiceConfig(
            journal_path=str(tmp_path / "v.jsonl"), journal_fsync=False
        )
        shard = SchedulerService(cluster, config, name="v0").start()
        try:
            assert shard.submit_workflow(chain("w1", deadline=60)).accepted
            deadline = time.monotonic() + 30
            while not shard._core.workflow_started("w1"):
                assert time.monotonic() < deadline, "workflow never started"
                time.sleep(0.01)
            with pytest.raises(ValueError, match="not withdrawable"):
                shard.migrate_out("w1", dest="v1", epoch=1)
        finally:
            shard.kill()

    def test_migrate_in_idempotent_on_redelivery(self, fleet):
        router = ShardRouter(fleet)
        accepted = submit_tenant_burst(router, n=2)
        source = router.shard_for_workflow(accepted[0])
        dest = next(s for s in fleet if s is not source)
        handoff = source.migrate_out(accepted[0], dest=dest.name, epoch=1)
        first = dest.migrate_in(handoff["workflow"], key=handoff["key"], epoch=1)
        second = dest.migrate_in(handoff["workflow"], key=handoff["key"], epoch=1)
        assert first.accepted and second.accepted
        assert dest.workflow_ids().count(accepted[0]) == 1

    def test_migration_preserves_idempotency_key(self, fleet):
        router = ShardRouter(fleet)
        workflow = chain("t/keyed")
        assert router.submit_workflow(
            workflow, idempotency_key="key-1"
        ).accepted
        source = router.shard_for_workflow("t/keyed")
        dest = next(s for s in fleet if s is not source)
        handoff = source.migrate_out("t/keyed", dest=dest.name, epoch=1)
        assert handoff["key"] == "key-1"
        assert dest.migrate_in(
            handoff["workflow"], key="key-1", epoch=1
        ).accepted
        # A retry of the original submission against the new owner
        # answers from the pinned key instead of double-admitting.
        replay = dest.submit_workflow(workflow, idempotency_key="key-1")
        assert replay.accepted
        assert dest.workflow_ids().count("t/keyed") == 1

    def test_counters_not_shifted_by_migration(self, fleet):
        router = ShardRouter(fleet)
        accepted = submit_tenant_burst(router, n=3)
        before = router.status()["aggregate"]["accepted_workflows"]
        source = router.shard_for_workflow(accepted[0])
        dest = next(s for s in fleet if s is not source)
        handoff = source.migrate_out(accepted[0], dest=dest.name, epoch=1)
        dest.migrate_in(handoff["workflow"], key=handoff["key"], epoch=1)
        source.confirm(accepted[0], epoch=1)
        assert router.status()["aggregate"]["accepted_workflows"] == before


class TestCrashRecovery:
    def test_unconfirmed_handoff_survives_source_crash_as_orphan(self, fleet):
        router = ShardRouter(fleet)
        accepted = submit_tenant_burst(router)
        source = router.shard_for_workflow(accepted[0])
        dest = next(s for s in fleet if s is not source)
        source.migrate_out(accepted[0], dest=dest.name, epoch=7)
        source.kill()
        source.restart()
        orphans = source.orphans()
        assert accepted[0] in orphans
        assert orphans[accepted[0]]["dest"] == dest.name
        assert orphans[accepted[0]]["epoch"] == 7
        # Never landed on the destination -> reconcile restores it home.
        summary = router.reconcile()
        assert summary == {"confirmed": 0, "restored": 1, "held": 0}
        assert source.owns(accepted[0])
        assert conservation(router, accepted).ok

    def test_landed_handoff_confirmed_after_source_crash(self, fleet):
        router = ShardRouter(fleet)
        accepted = submit_tenant_burst(router)
        source = router.shard_for_workflow(accepted[0])
        dest = next(s for s in fleet if s is not source)
        handoff = source.migrate_out(accepted[0], dest=dest.name, epoch=3)
        dest.migrate_in(handoff["workflow"], key=handoff["key"], epoch=3)
        # Crash before confirm: on replay the tombstone is an orphan, but
        # the destination owns the workflow -> reconcile must confirm,
        # NOT restore (restoring would duplicate it).
        source.kill()
        source.restart()
        summary = router.reconcile()
        assert summary == {"confirmed": 1, "restored": 0, "held": 0}
        assert not source.owns(accepted[0])
        assert dest.owns(accepted[0])
        assert router.shard_for_workflow(accepted[0]).name == dest.name
        assert conservation(router, accepted).ok

    def test_confirmed_migration_stays_gone_after_replay(self, fleet):
        router = ShardRouter(fleet)
        accepted = submit_tenant_burst(router)
        source = router.shard_for_workflow(accepted[0])
        dest = next(s for s in fleet if s is not source)
        handoff = source.migrate_out(accepted[0], dest=dest.name, epoch=1)
        dest.migrate_in(handoff["workflow"], key=handoff["key"], epoch=1)
        source.confirm(accepted[0], epoch=1)
        source.kill()
        source.restart()
        assert source.orphans() == {}
        assert not source.owns(accepted[0])
        assert conservation(router, accepted).ok

    def test_dest_crash_replays_migrated_in_workflow(self, fleet):
        router = ShardRouter(fleet)
        accepted = submit_tenant_burst(router)
        source = router.shard_for_workflow(accepted[0])
        dest = next(s for s in fleet if s is not source)
        handoff = source.migrate_out(accepted[0], dest=dest.name, epoch=1)
        dest.migrate_in(handoff["workflow"], key=handoff["key"], epoch=1)
        source.confirm(accepted[0], epoch=1)
        dest.kill()
        dest.restart()
        assert dest.owns(accepted[0])  # journaled on accept, replayed
        assert conservation(router, accepted).ok

    def test_reconcile_holds_orphan_while_dest_down(self, fleet):
        router = ShardRouter(fleet)
        accepted = submit_tenant_burst(router)
        source = router.shard_for_workflow(accepted[0])
        dest = next(s for s in fleet if s is not source)
        source.migrate_out(accepted[0], dest=dest.name, epoch=1)
        dest.kill()
        summary = router.reconcile()
        assert summary["held"] == 1
        assert accepted[0] in source.orphans()  # still in limbo, not lost
        dest.restart()
        summary = router.reconcile()
        assert summary["restored"] == 1
        assert conservation(router, accepted).ok


class TestRebalancer:
    def test_skewed_fleet_rebalances_toward_slack_shard(self, fleet):
        router = ShardRouter(fleet)
        accepted = submit_tenant_burst(router, n=6)
        rebalancer = Rebalancer(
            router,
            RebalanceConfig(
                saturation_gap=0.0, min_saturation=0.0, max_moves=3
            ),
        )
        summary = rebalancer.cycle()
        assert summary["moved"] == 3
        owned = router.owned_by_shard()
        assert sorted(len(ids) for ids in owned.values()) == [3, 3]
        # Routing follows the moved workflows to their new home.
        for move in summary["moves"]:
            assert (
                router.shard_for_workflow(move["workflow_id"]).name
                == move["to"]
            )
        assert conservation(router, accepted).ok

    def test_balanced_fleet_not_touched(self, fleet):
        router = ShardRouter(fleet)
        submit_tenant_burst(router, n=2)
        rebalancer = Rebalancer(
            router, RebalanceConfig(saturation_gap=0.9, min_saturation=0.9)
        )
        summary = rebalancer.cycle()
        assert summary["moved"] == 0
        assert summary["skipped"] == "balanced"

    def test_moves_bounded_per_cycle(self, fleet):
        router = ShardRouter(fleet)
        submit_tenant_burst(router, n=6)
        rebalancer = Rebalancer(
            router,
            RebalanceConfig(
                saturation_gap=0.0, min_saturation=0.0, max_moves=1
            ),
        )
        assert rebalancer.cycle()["moved"] == 1

    def test_epoch_monotonic_across_cycles(self, fleet):
        router = ShardRouter(fleet)
        submit_tenant_burst(router, n=4)
        rebalancer = Rebalancer(
            router,
            RebalanceConfig(
                saturation_gap=0.0, min_saturation=0.0, max_moves=2
            ),
        )
        rebalancer.cycle()
        first = rebalancer.epoch
        rebalancer.cycle()
        assert rebalancer.epoch >= first

    def test_cycle_with_one_dead_shard_skips(self, fleet):
        router = ShardRouter(fleet)
        submit_tenant_burst(router, n=2)
        fleet[1].kill()
        rebalancer = Rebalancer(
            router, RebalanceConfig(saturation_gap=0.0, min_saturation=0.0)
        )
        summary = rebalancer.cycle()
        assert summary["moved"] == 0
        assert summary["skipped"] == "fewer than two reachable shards"
