"""Property test: no interleaving of submit / migrate / kill+replay ever
loses or duplicates an accepted workflow.

Each case drives a real 3-shard fleet (frozen realtime clock, journaled)
through a seeded-random schedule of operations:

* submit a tenant workflow through the router;
* run a migration *partially* — stop after the tombstone, after the
  handoff landed, after an explicit restore, or run it to confirmation;
* kill a random shard and restart it on its journal (crash + replay);
* run a router reconcile pass at a random point.

After the dust settles (all shards restarted, reconcile run to a fixed
point), the cross-shard conservation check must hold: every workflow
whose submission was answered *accepted* is owned by exactly one shard,
and no migration orphans remain.  This is the sharding subsystem's core
safety claim (docs/SHARDING.md) — the point of the test is that it holds
on *every* interleaving, including the ones the happy-path tests never
compose.
"""

import random

import pytest

from repro.cluster import ShardRouter, slice_capacity
from repro.model.cluster import ClusterCapacity
from repro.model.workflow import Workflow
from repro.service import SchedulerService, ServiceConfig
from repro.verify import check_cross_shard_conservation
from tests.conftest import deadline_job

N_SHARDS = 3
N_OPS = 30

_OP_ERRORS = (ValueError, RuntimeError, TimeoutError, OSError)


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


def workflow_of(index: int, tenant: int) -> Workflow:
    wid = f"t{tenant}/w{index}"
    jobs = [deadline_job(f"{wid}-j{j}", wid) for j in range(2)]
    return Workflow.from_jobs(
        wid, jobs, [(f"{wid}-j0", f"{wid}-j1")], 0, 2000
    )


class Driver:
    """One randomized schedule over a fleet; tracks the accepted ledger."""

    def __init__(self, shards, rng: random.Random):
        self.shards = shards
        self.router = ShardRouter(shards)
        self.rng = rng
        self.accepted: list[str] = []
        self.epoch = 0
        self.next_index = 0

    # -- operations (each must be safe to fail) ------------------------------

    def op_submit(self) -> None:
        workflow = workflow_of(self.next_index, self.rng.randrange(4))
        self.next_index += 1
        result = self.router.submit_workflow(
            workflow, idempotency_key=f"key-{workflow.workflow_id}"
        )
        if result.accepted:
            self.accepted.append(workflow.workflow_id)

    def _pick_move(self):
        source = self.rng.choice(self.shards)
        owned = []
        try:
            owned = source.workflow_ids()
        except _OP_ERRORS:
            return None
        if not owned:
            return None
        wid = self.rng.choice(sorted(owned))
        dest = self.rng.choice([s for s in self.shards if s is not source])
        return wid, source, dest

    def op_migrate(self) -> None:
        move = self._pick_move()
        if move is None:
            return
        wid, source, dest = move
        self.epoch += 1
        try:
            handoff = source.migrate_out(wid, dest=dest.name, epoch=self.epoch)
        except _OP_ERRORS:
            return
        # How far does this migration get before "something happens"?
        stage = self.rng.choice(
            ("tombstone_only", "landed", "confirmed", "restored")
        )
        if stage == "tombstone_only":
            return  # orphan; reconcile must settle it
        if stage == "restored":
            try:
                source.restore(handoff["workflow"], key=handoff["key"])
                self.router.record_placement(wid, source.name)
            except _OP_ERRORS:
                pass
            return
        try:
            result = dest.migrate_in(
                handoff["workflow"], key=handoff["key"], epoch=self.epoch
            )
        except _OP_ERRORS:
            return  # landed-or-not unknown: exactly what reconcile is for
        if not result.accepted:
            try:
                source.restore(handoff["workflow"], key=handoff["key"])
            except _OP_ERRORS:
                pass
            return
        self.router.record_placement(wid, dest.name)
        if stage == "confirmed":
            try:
                source.confirm(wid, epoch=self.epoch)
            except _OP_ERRORS:
                pass

    def op_kill_replay(self) -> None:
        shard = self.rng.choice(self.shards)
        shard.kill()
        if self.rng.random() < 0.8:
            shard.restart()  # else left dead until the final settle

    def op_reconcile(self) -> None:
        self.router.reconcile()

    def run(self, n_ops: int) -> None:
        operations = (
            self.op_submit,
            self.op_submit,  # submissions twice as likely as the rest
            self.op_migrate,
            self.op_kill_replay,
            self.op_reconcile,
        )
        for _ in range(n_ops):
            self.rng.choice(operations)()

    def settle(self) -> None:
        """Restart every dead shard, reconcile to a fixed point."""
        for shard in self.shards:
            if not shard.alive():
                shard.restart()
        for _ in range(N_SHARDS + 1):
            summary = self.router.reconcile()
            if summary["held"] == 0 and not any(
                self.router.orphans_by_shard().values()
            ):
                return
        raise AssertionError("reconcile did not reach a fixed point")


@pytest.mark.parametrize("seed", [7, 23, 1789])
def test_interleavings_conserve_accepted_workflows(tmp_path, seed):
    shards = make_fleet(tmp_path)
    try:
        driver = Driver(shards, random.Random(seed))
        driver.run(N_OPS)
        driver.settle()
        orphans = {
            name: list(entries)
            for name, entries in driver.router.orphans_by_shard().items()
        }
        report = check_cross_shard_conservation(
            driver.accepted, driver.router.owned_by_shard(), orphans
        )
        assert report.ok, report.render()
        # Something real must have happened: the schedule accepts work.
        assert driver.accepted
    finally:
        for shard in shards:
            shard.kill()
