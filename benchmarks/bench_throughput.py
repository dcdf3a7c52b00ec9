#!/usr/bin/env python3
"""Service throughput benchmark: asyncio vs threaded transport, idle-gap skipping.

The run loops jump the idle gaps of a sparse workload
(``EngineCore.skip_idle``) and the service's route table is served by a
threaded and by an asyncio HTTP transport.  This harness measures both
halves:

* **sustained submissions/sec** — ``repro serve`` booted as a subprocess
  (so client and server GIL-contend like real deployments, not inside one
  interpreter), once with the threaded frontend and once with ``--async``,
  each driven through a rate ramp by :func:`scripts.loadgen.run_load`.
  The *sustained* rate is the highest achieved rate over the ramp at
  which the server answered every request (zero transport errors) with a
  bounded client p99 — a frontend that answers a burst at 900/s but with
  second-long tail latencies and connection resets is not sustaining it.
  (With the stdlib's listen backlog of 5 the threaded server hit that
  wall at ~400/s; it listens with 128 now, and what is left between the
  two is a thread spawn per connection against a coroutine.)
* **overload behaviour** — the async server with a deliberately small
  ad-hoc queue, driven well past capacity: shed rate (429s / submitted)
  and the *server-side* decide-latency p99 from ``GET /slo``, which must
  stay under the SLO ceiling while the queue sheds — backpressure, not
  collapse.
* **idle-gap skipping wall clock** — the same sparse batch workload run
  in-process through ``Simulation.run()`` (which jumps the idle gaps) and
  through an every-slot ``core.step()`` loop; outcomes are asserted
  identical.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_throughput.py --quick

Writes ``BENCH_throughput.json`` (see ``--out``).  With ``--check`` the
exit code is non-zero unless both transports sustain some clean rate and
the async one at least ``--min-ratio`` times the threaded one's, the
overload decide p99 stays under ``--max-decide-p99``, and both loops
agree (the CI ``throughput-smoke`` job's gate).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import Sequence

ROOT = str(Path(__file__).resolve().parents[1])
sys.path.insert(0, ROOT)
sys.path.insert(0, str(Path(ROOT) / "src"))

from repro.model.cluster import ClusterCapacity  # noqa: E402
from repro.model.job import Job, JobKind, TaskSpec  # noqa: E402
from repro.model.resources import CPU, MEM, ResourceVector  # noqa: E402
from repro.obs import Observability, use_obs  # noqa: E402
from repro.schedulers.registry import make_scheduler  # noqa: E402
from repro.service import HttpServiceClient  # noqa: E402
from repro.simulator.engine import Simulation, SimulationConfig  # noqa: E402
from repro.simulator.runtime import make_engine_core  # noqa: E402
from scripts.loadgen import run_load  # noqa: E402

#: Client p99 above this is not "sustained", it is queueing collapse.
_CLEAN_P99_MS = 250.0
#: Offered-rate ramp (submissions/s) for the sustained-rate search.
_RATES = (200, 400, 600, 900, 1300, 1800)
_RATES_QUICK = (200, 600, 1300)
#: Seconds of load per ramp point.
_BURST_S = 3.0
_BURST_S_QUICK = 1.5


class _Server:
    """One ``repro serve`` subprocess bound to an ephemeral port."""

    def __init__(self, *extra_flags: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(ROOT) / "src")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--no-admission",
                *extra_flags,
            ],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self.url = self._await_url()

    def _await_url(self) -> str:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line and self.proc.poll() is not None:
                raise RuntimeError("repro serve exited before binding")
            if " on http://" in line:
                url = line.split(" on ", 1)[1].split()[0].rstrip("/")
                self._await_healthy(url)
                return url
        raise RuntimeError("repro serve never printed its URL")

    @staticmethod
    def _await_healthy(url: str) -> None:
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(url + "/healthz", timeout=2):
                    return
            except OSError:
                time.sleep(0.1)
        raise RuntimeError(f"{url} never became healthy")

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=15)


def _ramp(url: str, rates: Sequence[int], burst_s: float) -> list[dict]:
    rows = []
    for rate in rates:
        summary = run_load(
            url,
            rate=float(rate),
            duration_s=burst_s,
            workflow_every=0,  # ad-hoc only: one queue decision per request
            concurrency=min(32, max(4, rate // 50)),
            quiet=True,
        )
        rows.append(
            {
                "offered_per_s": rate,
                "achieved_per_s": summary["achieved_rate"],
                "errors": summary["errors"],
                "shed": summary["shed"],
                "p50_ms": summary["latency"]["p50_ms"],
                "p99_ms": summary["latency"]["p99_ms"],
            }
        )
    return rows


def _sustained(rows: list[dict]) -> float:
    """Highest achieved rate with zero errors and a bounded client p99."""
    clean = [
        row["achieved_per_s"]
        for row in rows
        if row["errors"] == 0 and row["p99_ms"] <= _CLEAN_P99_MS
    ]
    return max(clean, default=0.0)


def bench_frontends(rates: Sequence[int], burst_s: float) -> dict:
    out = {}
    for frontend, flags in (("threaded", ()), ("async", ("--async",))):
        server = _Server("--queue-limit", "100000", *flags)
        try:
            rows = _ramp(server.url, rates, burst_s)
        finally:
            server.stop()
        out[frontend] = {
            "ramp": rows,
            "sustained_per_s": _sustained(rows),
        }
        print(
            f"{frontend:8s} sustained {out[frontend]['sustained_per_s']:8.1f}/s "
            f"(ramp to {rates[-1]}/s)",
            flush=True,
        )
    threaded = out["threaded"]["sustained_per_s"]
    out["async_over_threaded"] = (
        round(out["async"]["sustained_per_s"] / threaded, 2) if threaded else None
    )
    return out


def bench_overload(burst_s: float) -> dict:
    """Drive the async frontend far past a tiny queue; shed, don't stall."""
    server = _Server("--async", "--queue-limit", "64")
    try:
        summary = run_load(
            server.url,
            rate=1500.0,
            duration_s=max(burst_s * 2, 3.0),
            workflow_every=0,
            concurrency=32,
            quiet=True,
        )
        slo = HttpServiceClient(server.url).slo()
    finally:
        server.stop()
    submitted = summary["submitted"]
    return {
        "offered_per_s": 1500.0,
        "submitted": submitted,
        "accepted": summary["accepted"],
        "shed": summary["shed"],
        "errors": summary["errors"],
        "shed_rate": round(summary["shed"] / submitted, 4) if submitted else None,
        "client_p99_ms": summary["latency"]["p99_ms"],
        "decide_p99_s": slo["decide_latency"]["p99_s"],
        "decide_objective_s": slo["decide_latency"]["objective_p99_s"],
    }


def _sparse_adhoc(n: int = 40, gap: int = 25) -> list[Job]:
    spec = TaskSpec(
        count=2, duration_slots=3, demand=ResourceVector({CPU: 2, MEM: 4})
    )
    return [
        Job(
            job_id=f"sp{i}", tasks=spec, kind=JobKind.ADHOC,
            arrival_slot=i * gap,
        )
        for i in range(n)
    ]


def _run_every_slot(cluster, scheduler, adhoc):
    """``Simulation.run()`` without the idle-gap jump: one step per slot."""
    obs = Observability()
    core = make_engine_core(cluster, scheduler, SimulationConfig(), obs)
    for job in adhoc:
        core.add_adhoc(job)
    with use_obs(obs):
        while not core.finished:
            core.step()
        core.flush_pending_events()
        core.finalize_metrics()
    return core.result()


def _run_jumping(cluster, scheduler, adhoc):
    return Simulation(cluster, scheduler, adhoc_jobs=adhoc).run()


def bench_engines() -> dict:
    """Wall-clock of the same sparse batch run, jumping vs every slot."""
    out: dict = {}
    results = {}
    for loop, run in (("every_slot", _run_every_slot), ("jumping", _run_jumping)):
        cluster = ClusterCapacity.uniform(cpu=16, mem=32)
        t0 = time.perf_counter()
        result = run(cluster, make_scheduler("FlowTime"), _sparse_adhoc())
        elapsed = time.perf_counter() - t0
        results[loop] = result
        out[loop] = {
            "wall_s": round(elapsed, 4),
            "n_slots": result.n_slots,
            "slot_spans": result.metrics["sim.slot"]["count"],
            "slots_skipped": result.counter_value("sim.slots.skipped") or 0,
        }
    a, b = results["every_slot"], results["jumping"]
    out["outcomes_equal"] = (
        a.n_slots == b.n_slots
        and a.finished == b.finished
        and all(a.jobs[j] == b.jobs[j] for j in a.jobs)
    )
    out["speedup"] = (
        round(out["every_slot"]["wall_s"] / out["jumping"]["wall_s"], 2)
        if out["jumping"]["wall_s"]
        else None
    )
    print(
        f"engines: every slot {out['every_slot']['wall_s']}s vs jumping "
        f"{out['jumping']['wall_s']}s ({out['jumping']['slots_skipped']} slots "
        f"skipped, equal={out['outcomes_equal']})",
        flush=True,
    )
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="shorter bursts and a coarser ramp (CI smoke)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the gates below hold",
    )
    parser.add_argument(
        "--min-ratio", type=float, default=1.0,
        help="--check: minimum async/threaded sustained-rate ratio "
        "(default: 1.0)",
    )
    parser.add_argument(
        "--max-decide-p99", type=float, default=1.0, metavar="SECONDS",
        help="--check: decide-latency p99 ceiling under overload",
    )
    parser.add_argument(
        "--out", default=str(Path(ROOT) / "BENCH_throughput.json"),
        help="result JSON path",
    )
    args = parser.parse_args(argv)

    rates = _RATES_QUICK if args.quick else _RATES
    burst_s = _BURST_S_QUICK if args.quick else _BURST_S
    report = {
        "benchmark": "service throughput: asyncio vs threaded frontend",
        "quick": args.quick,
        "clean_p99_ms": _CLEAN_P99_MS,
        "frontends": bench_frontends(rates, burst_s),
        "overload": bench_overload(burst_s),
        "engines": bench_engines(),
    }
    Path(args.out).write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.out}")

    if not args.check:
        return 0
    failures = []
    for frontend in ("threaded", "async"):
        if not report["frontends"][frontend]["sustained_per_s"]:
            failures.append(
                f"{frontend}: no ramp point without transport errors and "
                f"with p99 <= {_CLEAN_P99_MS:.0f} ms"
            )
    ratio = report["frontends"]["async_over_threaded"]
    if ratio is None or ratio < args.min_ratio:
        failures.append(
            f"async sustained only {ratio}x threaded (< {args.min_ratio}x)"
        )
    overload = report["overload"]
    if overload["errors"]:
        failures.append(
            f"{overload['errors']} transport errors under overload"
        )
    if not overload["shed"]:
        failures.append("overload shed nothing: queue bound not exercised")
    decide_p99 = overload["decide_p99_s"]
    if decide_p99 is not None and decide_p99 > args.max_decide_p99:
        failures.append(
            f"decide p99 {decide_p99}s under overload "
            f"(> {args.max_decide_p99}s)"
        )
    if not report["engines"]["outcomes_equal"]:
        failures.append("jumping and every-slot runs disagreed on the batch run")
    if not report["engines"]["jumping"]["slots_skipped"]:
        failures.append("the run loop skipped nothing on a sparse workload")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
