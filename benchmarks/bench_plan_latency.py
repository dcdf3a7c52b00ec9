"""Plan-latency trajectory benchmark for the incremental re-planning layer.

FlowTime re-solves its lexicographic-minimax LP on every event that changes
the deadline-job mix, and the paper identifies LP latency as the scalability
bottleneck (Fig. 7).  The recurring workloads it targets (Sec. I: "daily,
weekly or monthly") make most of those solves *repeats*: once workflow
instance ``i`` has been planned, instance ``i+1`` presents the planner with
the same demands shifted in time.  This harness measures what the plan
cache and warm-started lexmin buy on exactly that steady-state regime.

For each workload scale it runs the identical recurring trace three times:

* ``cached``   — the planner as shipped (plan cache + warm start, always on),
* ``no-cache`` — its plan cache swapped for one whose lookups always miss
  (warm start still on),
* ``cold``     — every request answered by a fresh planner (no cache, no
  warm start: every replan runs the full lexmin ladder).

The planner has no switch for either ablation; both are built from
outside with the tests' oracle helpers (``tests/planning_oracle.py``).

and records ``sched.plan`` / ``lp.solve`` latency percentiles, LP solve
counts, cache hit rates, and the end-to-end metrics (missed deadlines,
slots) so plan equivalence across modes is visible in the artifact.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_plan_latency.py --quick

Writes ``BENCH_plan_latency.json`` (see ``--out``) and exits non-zero if
the steady-state cache hit rate falls below ``--min-hit-rate``.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.analysis.experiments import run_one
from repro.model.cluster import ClusterCapacity
from repro.model.job import TaskSpec
from repro.model.resources import CPU, MEM, ResourceVector
from repro.workloads.dag_generators import chain_workflow, fork_join_workflow
from repro.workloads.recurring import RecurringWorkflow
from repro.workloads.traces import SyntheticTrace

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tests.planning_oracle import cold_planning, hint_only  # noqa: E402

#: The three planner modes compared at every scale, as context managers.
MODES = {"cached": nullcontext, "no-cache": hint_only, "cold": cold_planning}


@dataclass(frozen=True)
class Scale:
    """One steady-state recurring workload size."""

    name: str
    #: (kind, n_jobs_knob, task_spec) per recurring template; all templates
    #: share one period so the combined demand pattern recurs exactly.
    templates: tuple[tuple[str, int, TaskSpec], ...]
    instances: int
    window_slots: int
    period_slots: int
    #: Planner modes compared at this scale (the xlarge scenario drops the
    #: cold mode: a full-ladder replan per event at that size is pointless
    #: to measure and multiplies the runtime).
    modes: tuple[str, ...] = ("cached", "no-cache", "cold")


def _spec(count: int, duration: int, cpu: int, mem: int) -> TaskSpec:
    return TaskSpec(
        count=count,
        duration_slots=duration,
        demand=ResourceVector({CPU: cpu, MEM: mem}),
    )


SCALES: tuple[Scale, ...] = (
    Scale(
        name="small",
        templates=(
            ("chain", 3, _spec(6, 2, 2, 4)),
            ("fork_join", 3, _spec(4, 2, 2, 4)),
        ),
        instances=4,
        window_slots=18,
        period_slots=24,
    ),
    Scale(
        name="medium",
        templates=(
            ("chain", 4, _spec(8, 2, 2, 4)),
            ("fork_join", 4, _spec(6, 2, 2, 4)),
            ("chain", 2, _spec(10, 3, 2, 2)),
        ),
        instances=5,
        window_slots=24,
        period_slots=30,
    ),
    Scale(
        name="large",
        templates=(
            ("chain", 5, _spec(8, 2, 2, 4)),
            ("fork_join", 6, _spec(6, 2, 2, 4)),
            ("chain", 3, _spec(12, 3, 2, 2)),
            ("fork_join", 4, _spec(8, 2, 1, 2)),
        ),
        instances=6,
        window_slots=30,
        period_slots=36,
    ),
)


def _cpu_spec(count: int, duration: int, cpu: int) -> TaskSpec:
    return TaskSpec(
        count=count,
        duration_slots=duration,
        demand=ResourceVector({CPU: cpu}),
    )


def xlarge_scale() -> Scale:
    """The thousands-of-workflows scenario (opt-in via ``--xlarge``).

    32 distinct templates stamped out 32 times each: 1024 workflows, with
    a whole template generation live concurrently every period.  Demands
    are cpu-only: a scale where the LP path dominates plan latency.
    """
    templates = tuple(
        (
            "chain" if index % 2 == 0 else "fork_join",
            3 + index % 3,
            _cpu_spec(3 + index % 2, 1 + index % 2, 1 + index % 2),
        )
        for index in range(32)
    )
    return Scale(
        name="xlarge",
        templates=templates,
        instances=32,
        window_slots=24,
        period_slots=30,
        modes=("cached", "no-cache"),
    )


def build_trace(scale: Scale) -> SyntheticTrace:
    """The steady-state recurring workload for one scale.

    Every template is anchored at slot 0 and stamped out ``instances``
    times with a shared period longer than the deadline window, so
    occurrences never overlap their predecessors and each period presents
    the planner with a time-shifted copy of the same demand set.  No
    ad-hoc stream: ad-hoc arrivals are Poisson and would perturb the
    deadline jobs' progress differently per period, turning exact repeats
    into near-repeats (that regime is what warm starts are for; the cache
    targets the exact one).
    """
    workflows = []
    for index, (kind, size, spec) in enumerate(scale.templates):
        wid = f"{scale.name}-t{index}"
        if kind == "chain":
            skeleton = chain_workflow(wid, size, 0, scale.window_slots, spec)
        elif kind == "fork_join":
            skeleton = fork_join_workflow(
                wid, size, 0, scale.window_slots, spec
            )
        else:
            raise ValueError(f"unknown template kind {kind!r}")
        recurring = RecurringWorkflow(skeleton, scale.period_slots)
        workflows.extend(recurring.instances(scale.instances))
    return SyntheticTrace(workflows=tuple(workflows), adhoc_jobs=())


def _histogram(stats) -> dict:
    if stats is None:
        return {"count": 0, "p50_ms": 0.0, "p95_ms": 0.0, "total_ms": 0.0}
    return {
        "count": int(stats.get("count", 0)),
        "p50_ms": round(stats.get("p50", 0.0) * 1e3, 4),
        "p95_ms": round(stats.get("p95", 0.0) * 1e3, 4),
        "total_ms": round(stats.get("sum", 0.0) * 1e3, 4),
    }


def run_scale(
    scale: Scale,
    capacity: ClusterCapacity,
) -> dict:
    """Run the scale's modes over its trace and collect the comparison."""
    trace = build_trace(scale)
    runs: dict[str, dict] = {}
    for mode in scale.modes:
        with MODES[mode]():
            outcome = run_one(
                "FlowTime",
                trace,
                capacity,
                # work_conserving soak depends on leftover capacity, which an
                # ad-hoc-free steady state keeps periodic anyway; disabling it
                # removes the one coupling that could differ across modes.
                scheduler_kwargs={"work_conserving": False},
            )
        result = outcome.result
        hits = result.counter_value("sched.plan.cache.hit")
        misses = result.counter_value("sched.plan.cache.miss")
        lookups = hits + misses
        runs[mode] = {
            "sched_plan": _histogram(result.phase_stats("sched.plan")),
            "lp_solve": _histogram(result.phase_stats("lp.solve")),
            "cache": {
                "hits": int(hits),
                "misses": int(misses),
                "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
                "warm_solves": int(result.counter_value("sched.plan.warm")),
                "warm_fallbacks": int(
                    result.counter_value("lexmin.warm.fallback")
                ),
            },
            "outcome": {
                "n_slots": result.n_slots,
                "finished": result.finished,
                "missed_jobs": outcome.n_missed_jobs,
                "missed_workflows": outcome.n_missed_workflows,
            },
        }
    cached_p50 = runs["cached"]["sched_plan"]["p50_ms"]
    baseline_p50 = runs["no-cache"]["sched_plan"]["p50_ms"]
    outcomes = [run["outcome"] for run in runs.values()]
    return {
        "scale": scale.name,
        "n_workflows": len(trace.workflows),
        "n_deadline_jobs": trace.n_deadline_jobs,
        "period_slots": scale.period_slots,
        "instances": scale.instances,
        "runs": runs,
        "p50_speedup_vs_no_cache": (
            round(baseline_p50 / cached_p50, 2) if cached_p50 else None
        ),
        "hit_rate": runs["cached"]["cache"]["hit_rate"],
        # identical deadline outcomes across all three modes = the cache
        # and warm start changed latency, not the plan
        "modes_equivalent": all(o == outcomes[0] for o in outcomes),
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the small scale only (CI smoke mode)",
    )
    parser.add_argument(
        "--xlarge",
        action="store_true",
        help="also run the opt-in thousands-of-workflows scenario (long)",
    )
    parser.add_argument(
        "--min-hit-rate",
        type=float,
        default=None,
        metavar="RATE",
        help="fail (exit 1) if the steady-state cache hit rate at any "
        "scale is below RATE (e.g. 0.5)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_plan_latency.json",
        help="output JSON path (default: %(default)s)",
    )
    parser.add_argument("--cpu", type=int, default=64, help="cluster CPU cores")
    parser.add_argument("--mem", type=int, default=128, help="cluster memory (GB)")
    args = parser.parse_args(argv)

    capacity = ClusterCapacity.uniform(cpu=args.cpu, mem=args.mem)
    scales = SCALES[:1] if args.quick else SCALES
    if args.xlarge:
        scales = tuple(scales) + (xlarge_scale(),)
    scenarios = []
    for scale in scales:
        print(f"[{scale.name}] running {', '.join(scale.modes)} ...", flush=True)
        scenario = run_scale(scale, capacity)
        scenarios.append(scenario)
        print(
            f"[{scale.name}] hit_rate={scenario['hit_rate']:.0%} "
            f"p50 speedup vs no-cache={scenario['p50_speedup_vs_no_cache']}x "
            f"equivalent={scenario['modes_equivalent']}",
            flush=True,
        )

    speedups = [
        s["p50_speedup_vs_no_cache"]
        for s in scenarios
        if s["p50_speedup_vs_no_cache"] is not None
    ]
    report = {
        "benchmark": "plan_latency",
        "quick": args.quick,
        "cluster": {"cpu": args.cpu, "mem": args.mem},
        "scenarios": scenarios,
        "summary": {
            "min_hit_rate": min(s["hit_rate"] for s in scenarios),
            "min_p50_speedup_vs_no_cache": min(speedups) if speedups else None,
            "all_modes_equivalent": all(
                s["modes_equivalent"] for s in scenarios
            ),
        },
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")

    if args.min_hit_rate is not None:
        worst = report["summary"]["min_hit_rate"]
        if worst < args.min_hit_rate:
            print(
                f"FAIL: steady-state cache hit rate {worst:.0%} < "
                f"required {args.min_hit_rate:.0%}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
