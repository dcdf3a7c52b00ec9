"""Partition-tolerance property: no interleaving of submits, network
partitions, crashes, failovers and reconciles ever loses or duplicates
an accepted workflow.

This composes the sharding property test with the failure machinery: the
fleet's shards sit behind :class:`~repro.chaos.ChaosTransport` wrappers,
so a *partitioned* shard is indistinguishable from a dead one at the
wire — the detector declares it dead, the router reroutes around it, the
supervisor re-homes its journal — while the shard itself keeps running
and honestly believes it owns its workflows.  When the partition heals,
the supervisor's fencing pass must strip the returned "zombie" of
everything that was re-homed, leaving exactly one owner per accepted
workflow.

Each case is a seeded-random schedule; after the dust settles (heal all
partitions, restart all crashed shards, probe, fence, reconcile to a
fixed point) the cross-shard conservation check — including the
placement-consistency check — must be violation-free.
"""

import random

import pytest

from repro.chaos import ChaosTransport, ChaosTransportConfig
from repro.cluster import (
    DetectorConfig,
    FailureDetector,
    ShardRouter,
    Supervisor,
    SupervisorConfig,
    slice_capacity,
)
from repro.model.cluster import ClusterCapacity
from repro.model.workflow import Workflow
from repro.service import SchedulerService, ServiceConfig
from repro.verify import check_cross_shard_conservation
from tests.conftest import deadline_job

N_SHARDS = 3
N_OPS = 40

_OP_ERRORS = (ValueError, RuntimeError, TimeoutError, OSError)


def workflow_of(index: int, tenant: int) -> Workflow:
    wid = f"t{tenant}/w{index}"
    jobs = [deadline_job(f"{wid}-j{j}", wid) for j in range(2)]
    return Workflow.from_jobs(
        wid, jobs, [(f"{wid}-j0", f"{wid}-j1")], 0, 2000
    )


class Driver:
    """One seeded schedule over a chaos-wrapped 3-shard fleet."""

    def __init__(self, tmp_path, seed: int):
        self.rng = random.Random(seed)
        cluster = ClusterCapacity.uniform(cpu=60, mem=120)
        self.transports = []
        for i, capacity in enumerate(slice_capacity(cluster, N_SHARDS)):
            config = ServiceConfig(
                realtime=True,
                slot_seconds=3600.0,
                journal_path=str(tmp_path / f"shard{i}.jsonl"),
                journal_fsync=False,
            )
            shard = SchedulerService(capacity, config, name=f"s{i}").start()
            self.transports.append(
                ChaosTransport(shard, ChaosTransportConfig(seed=seed + i))
            )
        self.router = ShardRouter(self.transports)
        self.detector = FailureDetector(
            self.transports,
            DetectorConfig(suspect_after=1, dead_after_s=0.0),
            obs=self.router.obs,
        )
        self.router.attach_detector(self.detector)
        self.supervisor = Supervisor(
            self.router,
            self.detector,
            SupervisorConfig(auto_restart=False, failover_after_s=0.0),
        )
        self.detector.probe_all()
        self.accepted: set[str] = set()
        self.next_index = 0

    # -- operations --------------------------------------------------------------

    def op_submit(self) -> None:
        workflow = workflow_of(self.next_index, self.rng.randrange(6))
        self.next_index += 1
        try:
            result = self.router.submit_workflow(
                workflow, idempotency_key=f"key-{workflow.workflow_id}"
            )
        except _OP_ERRORS:
            return
        if result.accepted:
            self.accepted.add(workflow.workflow_id)

    def op_partition(self) -> None:
        self.rng.choice(self.transports).partition()

    def op_heal(self) -> None:
        self.rng.choice(self.transports).heal()

    def op_kill_restart(self) -> None:
        transport = self.rng.choice(self.transports)
        transport.kill()
        transport.restart()

    def op_probe(self) -> None:
        self.detector.probe_all()

    def op_supervise(self) -> None:
        self.detector.probe_all()
        try:
            self.supervisor.cycle()
        except _OP_ERRORS:
            pass

    def op_reconcile(self) -> None:
        try:
            self.router.reconcile()
        except _OP_ERRORS:
            pass

    def step(self) -> None:
        op = self.rng.choices(
            [
                self.op_submit,
                self.op_partition,
                self.op_heal,
                self.op_kill_restart,
                self.op_probe,
                self.op_supervise,
                self.op_reconcile,
            ],
            weights=[8, 2, 3, 1, 2, 3, 2],
        )[0]
        op()

    # -- settling ----------------------------------------------------------------

    def settle(self) -> None:
        """Heal, revive, fence and reconcile until nothing changes."""
        for transport in self.transports:
            transport.heal()
            if not transport.wrapped.alive():
                transport.restart()
        self.detector.probe_all()
        for _ in range(10):
            summary = self.supervisor.cycle()
            outcome = self.router.reconcile()
            orphans = sum(
                len(entries)
                for entries in self.router.orphans_by_shard().values()
            )
            if (
                not summary["fenced"]
                and not summary["failed_over"]
                and outcome["confirmed"] == 0
                and outcome["restored"] == 0
                and orphans == 0
            ):
                return
        raise AssertionError("fleet did not settle in 10 rounds")


@pytest.mark.parametrize("seed", [11, 97, 2026])
def test_partition_tolerance_conserves_accepted_workflows(tmp_path, seed):
    driver = Driver(tmp_path, seed)
    for _ in range(N_OPS):
        driver.step()
    driver.settle()
    report = check_cross_shard_conservation(
        sorted(driver.accepted),
        driver.router.owned_by_shard(),
        {
            name: list(entries)
            for name, entries in driver.router.orphans_by_shard().items()
        },
        placement=driver.router.placement_overrides,
    )
    assert report.ok, report.render()
    assert driver.accepted, f"seed {seed} accepted nothing — weights broken"
