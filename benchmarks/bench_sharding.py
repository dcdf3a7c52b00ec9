"""Sharded-fleet benchmark: aggregate throughput, deadline quality, safety.

FlowTime's admission check and re-planning LP both price a submission
against *every* workflow the scheduler has already committed to, so
per-submission cost grows with committed state.  Sharding
(docs/SHARDING.md) splits the cluster into N capacity slices, each owning
1/N of the committed set — the same total work arrives, but every
admission prices against a fraction of the state.  This harness measures
what that is worth on one process and one core (no thread-parallelism
flattery), plus what sharding costs in schedule quality.  The throughput
ratio is reported, not gated: memory binds this workload, admission is one
max-flow per submission, and what a smaller committed set saves is the
O(committed jobs) Python around it — 1.1-1.6x at 4 shards, run to run.

Three phases per run:

* **throughput** — a saturated admission regime: the service clock is
  frozen (``realtime`` with an hour-long slot) so nothing ever starts
  and the committed set grows monotonically, exactly the worst case for
  admission pricing.  The 10x workload is submitted through the router
  at fleet sizes 1, 2 and 4 and aggregate accepted submissions/sec is
  compared.
* **quality** — the same generator in virtual time (work executes while
  submissions land), mixed with an ad-hoc stream, drained to completion:
  deadline-miss rate of the 4-shard fleet vs the monolith.  Slicing
  capacity must not cost deadlines beyond the relative tolerance.
* **safety** — on the 4-shard fleet from the throughput phase: SIGKILL
  simulation (hard-stop one shard, restart it on its journal) followed
  by the cross-shard conservation check over every workflow the clients
  saw accepted — zero lost, zero duplicated.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_sharding.py --check

Writes ``BENCH_sharding.json`` (see ``--out``).  ``--check`` enforces
the acceptance gates: deadline-miss rate within ``--max-miss-delta``
relative, conservation clean.  ``--quick`` runs a reduced workload for CI
smoke (gates still apply to what ran).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from typing import Sequence

from repro.cluster import ShardRouter, slice_capacity
from repro.model.cluster import ClusterCapacity
from repro.model.job import Job, JobKind, TaskSpec
from repro.model.resources import CPU, MEM, ResourceVector
from repro.model.workflow import Workflow
from repro.service import SchedulerService, ServiceConfig
from repro.verify import check_cross_shard_conservation

#: Fleet sizes compared in the throughput phase (1 is the monolith).
FLEET_SIZES = (1, 2, 4)
#: Tenants the workflow stream is spread over (routing co-locates each).
TENANTS = 8


def _workflow(
    index: int, window_slots: int, start_slot: int = 0
) -> Workflow:
    wid = f"t{index % TENANTS}/bw{index}"
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
        job_id=f"ba{index}", tasks=spec, kind=JobKind.ADHOC, arrival_slot=0
    )


def make_fleet(
    cluster: ClusterCapacity,
    n_shards: int,
    *,
    frozen_clock: bool,
    journal_dir: str | None = None,
) -> list[SchedulerService]:
    """N started shards over equal capacity slices.

    ``frozen_clock`` pins the realtime clock with an hour-long slot so no
    workflow ever starts — the saturated-admission regime.  A journal per
    shard (needed by the safety phase) is written when ``journal_dir`` is
    given; fsync stays off so the disk doesn't become the variable under
    measurement.
    """
    shards = []
    for i, capacity in enumerate(slice_capacity(cluster, n_shards)):
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


def run_throughput(
    cluster: ClusterCapacity,
    n_shards: int,
    n_workflows: int,
    deadline_slot: int,
    journal_dir: str | None = None,
) -> tuple[dict, list[SchedulerService], ShardRouter, list[str]]:
    """Submit the workflow stream against a frozen fleet; measure rate."""
    shards = make_fleet(
        cluster, n_shards, frozen_clock=True, journal_dir=journal_dir
    )
    router = ShardRouter(shards)
    accepted_ids: list[str] = []
    rejected = 0
    started = time.monotonic()
    for index in range(n_workflows):
        workflow = _workflow(index, deadline_slot)
        result = router.submit_workflow(workflow)  # frozen clock: slot 0
        if result.accepted:
            accepted_ids.append(workflow.workflow_id)
        else:
            rejected += 1
    elapsed = time.monotonic() - started
    summary = {
        "n_shards": n_shards,
        "submitted": n_workflows,
        "accepted": len(accepted_ids),
        "rejected": rejected,
        "elapsed_s": round(elapsed, 3),
        "submissions_per_s": round(n_workflows / elapsed, 2),
    }
    return summary, shards, router, accepted_ids


def run_quality(
    cluster: ClusterCapacity,
    n_shards: int,
    n_workflows: int,
    n_adhoc: int,
    deadline_slot: int,
) -> dict:
    """Mixed stream in virtual time, drained: the deadline outcome."""
    shards = make_fleet(cluster, n_shards, frozen_clock=False)
    try:
        router = ShardRouter(shards)
        accepted = rejected = adhoc_ok = adhoc_shed = 0
        adhoc_per_workflow = n_adhoc // max(n_workflows, 1)
        adhoc_index = 0
        for index in range(n_workflows):
            # Anchor each window at the fleet's current virtual slot so
            # every workflow faces the same *relative* deadline pressure
            # regardless of how far the racing clock has advanced — an
            # absolute deadline would make late submissions infeasible.
            now_slot = max(
                (s.status().slot for s in shards if s.alive()), default=0
            )
            result = router.submit_workflow(
                _workflow(index, deadline_slot, start_slot=now_slot + 1)
            )
            accepted += result.accepted
            rejected += not result.accepted
            for _ in range(adhoc_per_workflow):
                answer = router.submit_adhoc(_adhoc(adhoc_index))
                adhoc_index += 1
                adhoc_ok += answer.accepted
                adhoc_shed += not answer.accepted
        missed = 0
        for shard in shards:
            result = shard.drain()
            missed += sum(
                not w.met_deadline for w in result.workflows.values()
            )
    finally:
        for shard in shards:
            shard.kill()
    return {
        "n_shards": n_shards,
        "accepted_workflows": accepted,
        "rejected_workflows": rejected,
        "adhoc_accepted": adhoc_ok,
        "adhoc_shed": adhoc_shed,
        "missed_workflows": missed,
        "miss_rate": round(missed / accepted, 4) if accepted else 0.0,
    }


def run_safety(
    shards: list[SchedulerService], router: ShardRouter, accepted_ids: list[str]
) -> dict:
    """Crash one shard, replay its journal, check conservation."""
    victim = shards[0]
    owned_before = len(victim.workflow_ids())
    victim.kill()
    victim.restart()
    owned_after = len(victim.workflow_ids())
    orphans = {
        name: list(entries)
        for name, entries in router.orphans_by_shard().items()
    }
    report = check_cross_shard_conservation(
        accepted_ids, router.owned_by_shard(), orphans
    )
    return {
        "killed_shard": victim.name,
        "owned_before_crash": owned_before,
        "owned_after_replay": owned_after,
        "conservation_ok": report.ok,
        "conservation": report.summary(),
        "violations": [str(v) for v in report.violations[:10]],
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced workload (CI smoke; ~4x fewer submissions)",
    )
    parser.add_argument(
        "--workflows", type=int, default=160, metavar="N",
        help="workflows in the 10x stream (default: %(default)s = 10x the "
        "16-workflow base unit)",
    )
    parser.add_argument(
        "--adhoc", type=int, default=320, metavar="N",
        help="ad-hoc jobs mixed into the quality phase (default: %(default)s)",
    )
    parser.add_argument(
        "--deadline", type=int, default=120, metavar="SLOT",
        help="absolute deadline slot for every workflow (default: %(default)s)",
    )
    parser.add_argument(
        "--max-miss-delta", type=float, default=0.10, metavar="FRAC",
        help="--check: maximum relative deadline-miss-rate increase of the "
        "4-shard fleet over the monolith (default: %(default)s)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="enforce the acceptance gates (exit 1 on violation)",
    )
    parser.add_argument(
        "--out", default="BENCH_sharding.json",
        help="output JSON path (default: %(default)s)",
    )
    parser.add_argument("--cpu", type=int, default=64, help="cluster CPU cores")
    parser.add_argument("--mem", type=int, default=128, help="cluster memory (GB)")
    args = parser.parse_args(argv)

    n_workflows = args.workflows // 4 if args.quick else args.workflows
    n_adhoc = args.adhoc // 4 if args.quick else args.adhoc
    cluster = ClusterCapacity.uniform(cpu=args.cpu, mem=args.mem)

    throughput: list[dict] = []
    safety: dict = {}
    for n_shards in FLEET_SIZES:
        journal_dir = (
            tempfile.mkdtemp(prefix="bench-sharding-")
            if n_shards == FLEET_SIZES[-1]
            else None
        )
        summary, shards, router, accepted_ids = run_throughput(
            cluster, n_shards, n_workflows, args.deadline, journal_dir
        )
        throughput.append(summary)
        print(
            f"[throughput] shards={n_shards} "
            f"{summary['submissions_per_s']}/s "
            f"({summary['accepted']} accepted in {summary['elapsed_s']}s)",
            flush=True,
        )
        try:
            if n_shards == FLEET_SIZES[-1]:
                safety = run_safety(shards, router, accepted_ids)
                print(
                    f"[safety] replayed {safety['owned_after_replay']} "
                    f"workflows on {safety['killed_shard']}; "
                    f"{safety['conservation']}",
                    flush=True,
                )
        finally:
            for shard in shards:
                shard.kill()

    base_rate = throughput[0]["submissions_per_s"]
    for entry in throughput:
        entry["speedup_vs_monolith"] = round(
            entry["submissions_per_s"] / base_rate, 2
        )

    quality = [
        run_quality(cluster, n, n_workflows, n_adhoc, args.deadline)
        for n in (1, FLEET_SIZES[-1])
    ]
    for entry in quality:
        print(
            f"[quality] shards={entry['n_shards']} "
            f"miss_rate={entry['miss_rate']} "
            f"({entry['missed_workflows']}/{entry['accepted_workflows']})",
            flush=True,
        )
    mono_miss, sharded_miss = (entry["miss_rate"] for entry in quality)
    # Relative increase of the sharded fleet over the monolith; a fleet
    # that misses *fewer* deadlines never fails the gate.
    miss_delta = (
        max(0.0, sharded_miss - mono_miss) / mono_miss
        if mono_miss
        else (1.0 if sharded_miss else 0.0)
    )

    report = {
        "benchmark": "sharding",
        "quick": args.quick,
        "cluster": {"cpu": args.cpu, "mem": args.mem},
        "workload": {
            "n_workflows": n_workflows,
            "n_adhoc": n_adhoc,
            "tenants": TENANTS,
            "deadline_slot": args.deadline,
        },
        "throughput": throughput,
        "quality": quality,
        "safety": safety,
        "summary": {
            "speedup_4_shards": throughput[-1]["speedup_vs_monolith"],
            "monolith_miss_rate": mono_miss,
            "sharded_miss_rate": sharded_miss,
            "relative_miss_increase": round(miss_delta, 4),
            "conservation_ok": safety.get("conservation_ok", False),
        },
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")

    if not args.check:
        return 0
    failures = []
    if miss_delta > args.max_miss_delta:
        failures.append(
            f"sharded miss rate {sharded_miss} vs monolith {mono_miss} "
            f"(+{miss_delta:.0%} relative) exceeds {args.max_miss_delta:.0%}"
        )
    if not report["summary"]["conservation_ok"]:
        failures.append(f"conservation violated: {safety.get('violations')}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
