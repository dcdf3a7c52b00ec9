#!/usr/bin/env python3
"""FlowTime as a live service: dynamic submissions, batching, backpressure.

The paper's system is online — workflows and ad-hoc jobs arrive while the
scheduler runs.  This example starts an in-process
:class:`~repro.service.core.SchedulerService` (no HTTP needed), feeds it a
Poisson mix of deadline workflows and ad-hoc jobs, drains gracefully, and
prints what the service layer measured:

* queue depth over the run (ad-hoc backpressure),
* re-plan batch sizes (how many submissions one LP ladder paid for),
* decide latency (the per-slot scheduling cost).

Run:  python examples/online_service.py
"""

import numpy as np

from repro import ClusterCapacity
from repro.service import SchedulerService, ServiceConfig
from repro.workloads import adhoc_stream, generate_trace


def main() -> None:
    cluster = ClusterCapacity.uniform(cpu=64, mem=128)
    rng = np.random.default_rng(7)

    # A replayable workload: 6 deadline workflows + a Poisson ad-hoc stream.
    # workflow_spread_slots=1 makes the workflows a genuine burst (all want
    # to start now), which is what batched re-planning is for.
    trace = generate_trace(
        n_workflows=6,
        jobs_per_workflow=10,
        n_adhoc=0,
        capacity=cluster,
        workflow_spread_slots=1,
        seed=7,
    )
    adhoc_jobs = adhoc_stream(40, rate_per_slot=0.6, horizon_slots=120, seed=8)

    # batch_window_s holds the virtual clock open after each arrival, so a
    # burst of submissions coalesces into ONE re-plan instead of one each.
    service = SchedulerService(
        cluster,
        ServiceConfig(batch_window_s=0.05, adhoc_queue_limit=16),
    ).start()

    # Interleave submissions the way a live frontend would: workflows and
    # ad-hoc jobs in random order, in small bursts.
    submissions = [("wf", wf) for wf in trace.workflows]
    submissions += [("adhoc", job) for job in adhoc_jobs]
    rng.shuffle(submissions)

    outcomes = {"admitted": 0, "queued": 0, "infeasible": 0, "queue_full": 0}
    for kind, payload in submissions:
        if kind == "wf":
            result = service.submit_workflow(payload)
        else:
            result = service.submit_adhoc(payload)
        outcomes[result.reason] = outcomes.get(result.reason, 0) + 1

    final = service.drain()
    status = service.status()
    metrics = service.metrics()

    print("online service run")
    print(f"  scheduler:        {status.scheduler}")
    print(f"  slots simulated:  {final.n_slots} (finished={final.finished})")
    print(
        f"  workflows:        {status.accepted_workflows} admitted, "
        f"{status.rejected_workflows} rejected"
    )
    print(
        f"  ad-hoc jobs:      {status.accepted_adhoc} queued, "
        f"{status.shed_adhoc} shed (queue limit 16)"
    )
    missed = sum(not w.met_deadline for w in final.workflows.values())
    print(f"  deadline misses:  {missed} (admission only lets feasible work in)")

    batch = metrics["service.replan.batch_size"]
    print("\nre-plan batching (workflow arrivals coalesced per plan call)")
    print(
        f"  {int(batch['count'])} arrival batches for "
        f"{status.accepted_workflows} admitted workflows"
    )
    print(
        f"  batch size p50={batch['p50']:.0f}  "
        f"p95={batch['p95']:.0f}  max={batch['max']:.0f}"
    )

    decide = metrics["sched.decide"]
    print("\ndecide latency per slot")
    print(
        f"  p50={decide['p50'] * 1e3:.1f} ms  "
        f"p95={decide['p95'] * 1e3:.1f} ms  "
        f"max={decide['max'] * 1e3:.1f} ms"
    )

    depth = metrics["service.queue.depth"]
    print(f"\nad-hoc queue depth at drain: {depth['value']:.0f}")


if __name__ == "__main__":
    main()
