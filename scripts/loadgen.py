#!/usr/bin/env python3
"""Rate-driven load generator for a running scheduler service.

Submits a mixed stream — small deadline workflows and ad-hoc jobs — to one
HTTP frontend at a target request rate, each submission carrying its own
``X-Request-Id``, and reports what came back: accept/reject/shed counts,
client-observed latency quantiles, and the request ids used (so a trace
written with ``repro serve --trace-out`` can be queried afterwards with
``repro trace query``).

Run against a live server::

    PYTHONPATH=src python scripts/loadgen.py --url http://127.0.0.1:8080 \
        --rate 20 --duration 10

or import :func:`run_load` (the CI obs-smoke and shard-smoke jobs do
both).

``--concurrency N`` spreads the target rate over N sender threads (each
paced at rate/N with its own HTTP connection pool), which is how to
saturate the server — one thread tops out at the client's own request
round-trip rate long before the server does.
Submission indices stay globally unique across senders, so ids and
request ids never collide.

The generator is shard-router aware (docs/SHARDING.md): pointing
``--url`` at a ``repro serve --shards N`` frontend needs no flags — every
answer carries the deciding shard's name, tallied into the summary's
``by_shard`` breakdown.  ``--tenants K`` prefixes workflow ids with
``tK/`` so the router's tenant-prefix hashing co-locates each simulated
tenant on one shard (0, the default, leaves ids unprefixed).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import threading
import time

from repro.model.cluster import ClusterCapacity  # noqa: F401  (re-export for callers)
from repro.model.job import Job, JobKind, TaskSpec
from repro.model.resources import CPU, MEM, ResourceVector
from repro.model.workflow import Workflow
from repro.service import HttpServiceClient, QueueFullError, ServiceError


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[index]


def _workflow(
    index: int, *, deadline_slots: int = 200, tenants: int = 0
) -> Workflow:
    spec = TaskSpec(
        count=1, duration_slots=2, demand=ResourceVector({CPU: 1, MEM: 1})
    )
    prefix = f"t{index % tenants}/" if tenants > 0 else ""
    wid = f"{prefix}lg-w{index}"
    jobs = [
        Job(job_id=f"{wid}-j{j}", tasks=spec, workflow_id=wid)
        for j in range(2)
    ]
    return Workflow.from_jobs(
        wid, jobs, [(f"{wid}-j0", f"{wid}-j1")], 0, deadline_slots
    )


def _adhoc(index: int) -> Job:
    spec = TaskSpec(
        count=1, duration_slots=1, demand=ResourceVector({CPU: 1, MEM: 1})
    )
    return Job(
        job_id=f"lg-a{index}", tasks=spec, kind=JobKind.ADHOC, arrival_slot=0
    )


def run_load(
    url: str,
    *,
    rate: float = 10.0,
    duration_s: float = 5.0,
    workflow_every: int = 5,
    tenants: int = 0,
    concurrency: int = 1,
    quiet: bool = False,
) -> dict:
    """Drive *url* at ``rate`` submissions/s for ``duration_s`` seconds.

    Every ``workflow_every``-th submission is a deadline workflow; the
    rest are ad-hoc jobs (the paper's mixed regime).  ``workflow_every=0``
    sends ad-hoc jobs only — the overload regime the throughput benchmark
    measures, where every submission is one queue decision with no
    admission LP in the way.  ``concurrency`` spreads the rate over that
    many sender threads (each paced at ``rate / concurrency``); tallies
    and indices are shared, so the summary is identical in shape to a
    single-threaded run.  Returns a summary dict; ``request_ids`` maps
    every submission to the correlation id it carried, and ``by_shard``
    breaks acceptance down by the shard that answered (single-service
    targets report under the ``""`` shard).
    """
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if workflow_every < 0:
        raise ValueError(f"workflow_every must be >= 0, got {workflow_every}")
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    started = time.monotonic()
    deadline = started + duration_s
    summary = {
        "url": url,
        "rate": rate,
        "duration_s": duration_s,
        "concurrency": concurrency,
        "submitted": 0,
        "accepted": 0,
        "rejected": 0,
        "shed": 0,
        "errors": 0,
        "request_ids": {},
        "by_shard": {},
        # Workflow ids whose submission was answered accepted: the
        # client-side ledger a cross-shard conservation check runs against.
        "accepted_workflow_ids": [],
    }
    lock = threading.Lock()
    indices = itertools.count()
    latencies: list[float] = []

    def tally_shard(shard: str, accepted: bool) -> None:
        entry = summary["by_shard"].setdefault(
            shard, {"accepted": 0, "rejected": 0}
        )
        entry["accepted" if accepted else "rejected"] += 1

    def sender() -> None:
        client = HttpServiceClient(url, max_retries=1)
        try:
            send(client)
        finally:
            client.close()

    def send(client: HttpServiceClient) -> None:
        interval = concurrency / rate
        next_send = time.monotonic()
        while time.monotonic() < deadline:
            now = time.monotonic()
            if now < next_send:
                time.sleep(min(next_send - now, interval))
                continue
            next_send += interval
            index = next(indices)
            request_id = f"loadgen-{index}"
            is_workflow = workflow_every > 0 and index % workflow_every == 0
            outcome = "ok"
            result = None
            workflow = None
            t0 = time.monotonic()
            try:
                if is_workflow:
                    workflow = _workflow(index, tenants=tenants)
                    result = client.submit_workflow(
                        workflow, request_id=request_id
                    )
                else:
                    result = client.submit_adhoc(
                        _adhoc(index), request_id=request_id
                    )
            except QueueFullError:
                outcome = "shed"
            except (ServiceError, OSError):
                outcome = "error"
            elapsed = time.monotonic() - t0
            with lock:
                summary["submitted"] += 1
                latencies.append(elapsed)
                if outcome == "shed":
                    summary["shed"] += 1
                elif outcome == "error":
                    summary["errors"] += 1
                else:
                    summary["accepted" if result.accepted else "rejected"] += 1
                    tally_shard(result.shard, result.accepted)
                    if result.accepted and workflow is not None:
                        summary["accepted_workflow_ids"].append(
                            workflow.workflow_id
                        )
                    summary["request_ids"][request_id] = (
                        "workflow" if is_workflow else "adhoc"
                    )

    if concurrency == 1:
        sender()
    else:
        threads = [
            threading.Thread(target=sender, name=f"loadgen-{i}", daemon=True)
            for i in range(concurrency)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    latencies.sort()
    summary["latency"] = {
        "p50_ms": round(_quantile(latencies, 0.50) * 1e3, 3),
        "p95_ms": round(_quantile(latencies, 0.95) * 1e3, 3),
        "p99_ms": round(_quantile(latencies, 0.99) * 1e3, 3),
    }
    summary["achieved_rate"] = round(
        summary["submitted"] / max(time.monotonic() - started, 1e-9), 2
    )
    if not quiet:
        print(
            f"loadgen: {summary['submitted']} submitted "
            f"({summary['accepted']} accepted, {summary['rejected']} rejected, "
            f"{summary['shed']} shed, {summary['errors']} errors) at "
            f"{summary['achieved_rate']}/s; "
            f"p50 {summary['latency']['p50_ms']} ms "
            f"p99 {summary['latency']['p99_ms']} ms"
        )
        named_shards = {
            shard: counts
            for shard, counts in sorted(summary["by_shard"].items())
            if shard
        }
        if named_shards:
            breakdown = "  ".join(
                f"{shard}={counts['accepted']}+{counts['rejected']}rej"
                for shard, counts in named_shards.items()
            )
            print(f"loadgen: per-shard accepts: {breakdown}")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", required=True, help="server root URL")
    parser.add_argument(
        "--rate", type=float, default=10.0, help="submissions per second"
    )
    parser.add_argument(
        "--duration", type=float, default=5.0, metavar="SECONDS",
        help="how long to generate load",
    )
    parser.add_argument(
        "--workflow-every", type=int, default=5, metavar="N",
        help="every Nth submission is a deadline workflow, rest ad-hoc "
        "(0: ad-hoc only)",
    )
    parser.add_argument(
        "--tenants", type=int, default=0, metavar="K",
        help="spread workflows over K tenant id prefixes (tK/...) so a "
        "shard router co-locates each tenant; 0 leaves ids unprefixed",
    )
    parser.add_argument(
        "--concurrency", type=int, default=1, metavar="N",
        help="spread the rate over N sender threads (saturation testing)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the full summary as JSON instead of one line",
    )
    args = parser.parse_args(argv)
    summary = run_load(
        args.url,
        rate=args.rate,
        duration_s=args.duration,
        workflow_every=args.workflow_every,
        tenants=args.tenants,
        concurrency=args.concurrency,
        quiet=args.json,
    )
    if args.json:
        print(json.dumps(summary, indent=2))
    # Zero successful submissions against a live URL means the load never
    # arrived — fail loudly so CI catches a dead server.
    return 0 if summary["accepted"] > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
