"""Failover benchmark: kill a shard under load, measure the blast radius.

docs/ROBUSTNESS.md claims the supervision stack turns a shard loss from
"stranded commitments" into a bounded, measurable event.  This harness
quantifies that claim on an in-process 3-shard fleet (no subprocess or
network noise — the latencies below are the detector's and supervisor's
own):

* **kill under load** — workflows stream through the router while one
  shard is hard-killed mid-stream.  Measured: *detection latency* (kill
  → the detector's ``dead`` verdict), *failover duration* (kill → every
  accepted workflow owned by a survivor), and the cross-shard
  conservation check over the survivors.  The victim is then restarted
  on its journal — the *zombie return* — and the run is only clean if
  the supervisor fences it back to zero re-homed claims with
  conservation still violation-free.
* **deadline delta** — the same mixed workflow + ad-hoc stream run twice
  in virtual time and drained to completion: once undisturbed, once with
  a mid-stream shard kill and journal-driven failover.  The difference
  in deadline-miss rate is the *price of the failure*, which the
  supervision stack is supposed to keep bounded (re-homed workflows
  restart on their new shard; workflows that cannot be re-admitted
  anywhere count as missed).

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_failover.py --check

Writes ``BENCH_failover.json`` (see ``--out``).  ``--check`` enforces
the gates: detection within ``--max-detect-s``, full re-homing within
``--max-failover-s``, both conservation checks clean, and the
deadline-miss delta within ``--max-miss-delta`` (absolute).  ``--quick``
runs a reduced workload for CI smoke (gates still apply to what ran).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from typing import Sequence

from repro.cluster import (
    DetectorConfig,
    FailureDetector,
    ShardRouter,
    Supervisor,
    SupervisorConfig,
    slice_capacity,
)
from repro.model.cluster import ClusterCapacity
from repro.model.job import Job, JobKind, TaskSpec
from repro.model.resources import CPU, MEM, ResourceVector
from repro.model.workflow import Workflow
from repro.service import SchedulerService, ServiceConfig
from repro.verify import check_cross_shard_conservation

N_SHARDS = 3
#: Tenants the workflow stream is spread over (routing co-locates each).
TENANTS = 8
#: Detector/supervisor cadence for the kill-under-load phase: tight, so
#: the measured latencies reflect the machinery, not the configuration.
PROBE_INTERVAL_S = 0.05
DEAD_AFTER_S = 0.25
FAILOVER_AFTER_S = 0.1
WAIT_TIMEOUT_S = 30.0


def _workflow(index: int, window_slots: int, start_slot: int = 0) -> Workflow:
    wid = f"t{index % TENANTS}/fw{index}"
    spec = TaskSpec(
        count=1, duration_slots=4, demand=ResourceVector({CPU: 1, MEM: 2})
    )
    jobs = [
        Job(job_id=f"{wid}-j{j}", tasks=spec, workflow_id=wid)
        for j in range(2)
    ]
    return Workflow.from_jobs(
        wid,
        jobs,
        [(f"{wid}-j0", f"{wid}-j1")],
        start_slot,
        start_slot + window_slots,
    )


def _adhoc(index: int) -> Job:
    spec = TaskSpec(
        count=1, duration_slots=1, demand=ResourceVector({CPU: 1, MEM: 1})
    )
    return Job(
        job_id=f"fa{index}", tasks=spec, kind=JobKind.ADHOC, arrival_slot=0
    )


def make_fleet(
    cluster: ClusterCapacity,
    *,
    frozen_clock: bool,
    journal_dir: str | None = None,
) -> list[SchedulerService]:
    shards = []
    for i, capacity in enumerate(slice_capacity(cluster, N_SHARDS)):
        config = ServiceConfig(
            admission=True,
            batch_window_s=0.0,
            journal_fsync=False,
            journal_path=(
                f"{journal_dir}/shard{i}.jsonl" if journal_dir else None
            ),
            realtime=frozen_clock,
            slot_seconds=3600.0 if frozen_clock else 1.0,
        )
        shards.append(SchedulerService(capacity, config, name=f"s{i}").start())
    return shards


def _wait(predicate, what: str) -> float:
    started = time.monotonic()
    deadline = started + WAIT_TIMEOUT_S
    while time.monotonic() < deadline:
        if predicate():
            return time.monotonic() - started
        time.sleep(0.01)
    raise RuntimeError(f"timed out waiting for {what}")


def run_kill_under_load(cluster: ClusterCapacity, n_workflows: int) -> dict:
    """Stream submissions, kill a shard mid-stream, time the recovery."""
    tmp = tempfile.mkdtemp(prefix="bench-failover-")
    shards = make_fleet(cluster, frozen_clock=True, journal_dir=tmp)
    router = ShardRouter(shards)
    detector = FailureDetector(
        shards,
        DetectorConfig(
            probe_interval_s=PROBE_INTERVAL_S,
            suspect_after=2,
            dead_after_s=DEAD_AFTER_S,
        ),
        obs=router.obs,
    ).start()
    router.attach_detector(detector)
    supervisor = Supervisor(
        router,
        detector,
        SupervisorConfig(
            auto_restart=False, failover_after_s=FAILOVER_AFTER_S
        ),
    ).start(PROBE_INTERVAL_S)
    victim = shards[0]
    accepted: list[str] = []
    killed_at = 0.0
    #: Stamped by the watcher thread the moment each milestone is seen,
    #: so detection/failover latency is measured concurrently with the
    #: still-running submission stream, not after it.
    milestones: dict[str, float] = {}

    def watch(stranded: set[str]) -> None:
        deadline = time.monotonic() + WAIT_TIMEOUT_S
        while time.monotonic() < deadline:
            if detector.state(victim.name) == "dead":
                milestones["detected_s"] = time.monotonic() - killed_at
                break
            time.sleep(0.005)
        while time.monotonic() < deadline:
            owned: set[str] = set()
            for shard in shards:
                if shard is victim:
                    continue
                owned.update(shard.workflow_ids())
            if owned >= stranded:
                milestones["rehomed_s"] = time.monotonic() - killed_at
                return
            time.sleep(0.005)

    try:
        kill_index = n_workflows // 2
        watcher: threading.Thread | None = None
        for index in range(n_workflows):
            if index == kill_index:
                victim.kill()
                killed_at = time.monotonic()
                watcher = threading.Thread(
                    target=watch, args=(set(accepted),), daemon=True
                )
                watcher.start()
            workflow = _workflow(index, window_slots=600)
            try:
                result = router.submit_workflow(
                    workflow, idempotency_key=f"key-{workflow.workflow_id}"
                )
            except (RuntimeError, TimeoutError, OSError):
                continue
            if result.accepted:
                accepted.append(workflow.workflow_id)

        watcher.join(timeout=WAIT_TIMEOUT_S)
        if "detected_s" not in milestones or "rehomed_s" not in milestones:
            raise RuntimeError(f"recovery never completed: {milestones}")
        detection_s = milestones["detected_s"]
        failover_s = milestones["rehomed_s"]

        def rehomed() -> bool:
            owned = set()
            for shard in shards:
                if shard is victim:
                    continue
                owned.update(shard.workflow_ids())
            return owned >= set(accepted)

        _wait(rehomed, "all accepted workflows on survivors")
        survivors = {
            name: ids
            for name, ids in router.owned_by_shard().items()
            if name != victim.name
        }
        orphans = {
            name: list(entries)
            for name, entries in router.orphans_by_shard().items()
            if name != victim.name
        }
        before = check_cross_shard_conservation(
            accepted, survivors, orphans,
            placement=router.placement_overrides,
        )
        moved = supervisor.snapshot()["failed_over"].get(victim.name, [])

        # Zombie return: journal replay re-claims; fencing must strip it.
        victim.restart()
        _wait(
            lambda: detector.state(victim.name) == "live", "zombie live"
        )
        fence_started = time.monotonic()
        _wait(
            lambda: not supervisor.snapshot()["failed_over"],
            "fencing ledger drained",
        )
        fence_s = time.monotonic() - fence_started
        after = check_cross_shard_conservation(
            accepted,
            router.owned_by_shard(),
            {
                name: list(entries)
                for name, entries in router.orphans_by_shard().items()
            },
            placement=router.placement_overrides,
        )
    finally:
        supervisor.stop()
        detector.stop()
        for shard in shards:
            shard.kill()
    return {
        "n_submitted": n_workflows,
        "n_accepted": len(accepted),
        "n_rehomed": len(moved),
        "detection_s": round(detection_s, 4),
        "failover_s": round(failover_s, 4),
        "fence_s": round(fence_s, 4),
        "probe_interval_s": PROBE_INTERVAL_S,
        "dead_after_s": DEAD_AFTER_S,
        "failover_after_s": FAILOVER_AFTER_S,
        "conservation_survivors_ok": before.ok,
        "conservation_after_zombie_ok": after.ok,
        "violations": [str(v) for v in (*before.violations, *after.violations)][:10],
    }


def run_deadline_stream(
    cluster: ClusterCapacity,
    n_workflows: int,
    adhoc_per_workflow: int,
    window_slots: int,
    *,
    interrupted: bool,
) -> dict:
    """Mixed stream in virtual time, drained; optionally kill + fail over."""
    tmp = tempfile.mkdtemp(prefix="bench-failover-dl-")
    shards = make_fleet(cluster, frozen_clock=False, journal_dir=tmp)
    router = ShardRouter(shards)
    detector = FailureDetector(
        shards,
        DetectorConfig(suspect_after=1, dead_after_s=0.0),
        obs=router.obs,
    )
    router.attach_detector(detector)
    supervisor = Supervisor(
        router,
        detector,
        SupervisorConfig(auto_restart=False, failover_after_s=0.0),
    )
    detector.probe_all()
    victim = shards[0]
    accepted = rejected = unplaced = 0
    adhoc_index = 0
    try:
        kill_index = n_workflows // 2
        for index in range(n_workflows):
            if interrupted and index == kill_index:
                victim.kill()
                detector.probe_all()
                outcome = supervisor.cycle()
                unplaced = len(
                    outcome["failed_over"]
                    .get(victim.name, {})
                    .get("unplaced", [])
                )
            now_slot = max(
                (s.status().slot for s in shards if s.alive()), default=0
            )
            workflow = _workflow(index, window_slots, start_slot=now_slot + 1)
            try:
                result = router.submit_workflow(workflow)
            except (RuntimeError, TimeoutError, OSError):
                rejected += 1
                continue
            accepted += result.accepted
            rejected += not result.accepted
            for _ in range(adhoc_per_workflow):
                try:
                    router.submit_adhoc(_adhoc(adhoc_index))
                except (RuntimeError, TimeoutError, OSError):
                    pass
                adhoc_index += 1
        missed = unplaced  # a workflow nobody could re-admit is a miss
        for shard in shards:
            if not shard.alive():
                continue
            result = shard.drain()
            missed += sum(
                not w.met_deadline for w in result.workflows.values()
            )
    finally:
        for shard in shards:
            shard.kill()
    return {
        "interrupted": interrupted,
        "accepted_workflows": accepted,
        "rejected_workflows": rejected,
        "unplaced_workflows": unplaced,
        "missed_workflows": missed,
        "miss_rate": round(missed / accepted, 4) if accepted else 0.0,
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced workload for CI smoke (gates still apply)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero when any acceptance gate fails",
    )
    parser.add_argument(
        "--max-detect-s", type=float, default=2.0,
        help="gate: kill-to-dead detection latency ceiling",
    )
    parser.add_argument(
        "--max-failover-s", type=float, default=10.0,
        help="gate: kill-to-fully-rehomed duration ceiling",
    )
    parser.add_argument(
        "--max-miss-delta", type=float, default=0.35,
        help="gate: absolute deadline-miss-rate delta vs uninterrupted",
    )
    parser.add_argument("--out", default="BENCH_failover.json")
    args = parser.parse_args(argv)

    cluster = ClusterCapacity.uniform(cpu=120, mem=240)
    n_kill = 40 if args.quick else 120
    n_deadline = 24 if args.quick else 60
    window = 40

    print(f"kill-under-load: {n_kill} workflows, kill at {n_kill // 2} ...")
    kill = run_kill_under_load(cluster, n_kill)
    print(
        f"  detection {kill['detection_s']}s  failover {kill['failover_s']}s"
        f"  rehomed {kill['n_rehomed']}  fence {kill['fence_s']}s"
    )

    print(f"deadline stream: {n_deadline} workflows, uninterrupted ...")
    baseline = run_deadline_stream(
        cluster, n_deadline, adhoc_per_workflow=2, window_slots=window,
        interrupted=False,
    )
    print(f"  baseline miss rate {baseline['miss_rate']}")
    print(f"deadline stream: {n_deadline} workflows, shard killed ...")
    disturbed = run_deadline_stream(
        cluster, n_deadline, adhoc_per_workflow=2, window_slots=window,
        interrupted=True,
    )
    print(f"  interrupted miss rate {disturbed['miss_rate']}")
    miss_delta = round(disturbed["miss_rate"] - baseline["miss_rate"], 4)

    gates = {
        "detection_ok": kill["detection_s"] <= args.max_detect_s,
        "failover_ok": kill["failover_s"] <= args.max_failover_s,
        "conservation_ok": (
            kill["conservation_survivors_ok"]
            and kill["conservation_after_zombie_ok"]
        ),
        "miss_delta_ok": miss_delta <= args.max_miss_delta,
    }
    report = {
        "benchmark": "failover",
        "quick": args.quick,
        "n_shards": N_SHARDS,
        "kill_under_load": kill,
        "deadline": {
            "baseline": baseline,
            "interrupted": disturbed,
            "miss_delta": miss_delta,
        },
        "gates": {
            **gates,
            "max_detect_s": args.max_detect_s,
            "max_failover_s": args.max_failover_s,
            "max_miss_delta": args.max_miss_delta,
        },
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")

    failed = [name for name, ok in gates.items() if ok is False]
    if failed:
        print(f"GATES FAILED: {failed}", file=sys.stderr)
        return 1 if args.check else 0
    print("all gates pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
