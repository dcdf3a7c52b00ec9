"""Solver-backend benchmark: fastsolve vs the LP backends on round LPs.

ISSUE 7's tentpole claim is that the round subproblem of the lexmin ladder
does not need a general-purpose LP solver: Lemma 2's interval structure
lets a parametric max-flow solve it 10-100x faster at scale.  This harness
measures that claim three ways:

* **structured microbench** — seeded single-resource round LPs from tiny
  to thousands of jobs, timed per backend (``fastsolve``, ``highs``, and
  ``simplex`` where the dense solver is tractable), reporting p50/p99 per
  solve and the fastsolve speedup over HiGHS;
* **differential gate** — every timed instance is solved by both fastsolve
  and HiGHS and the objectives compared at 1e-9 relative tolerance, plus a
  slice of the brute-force oracle (:mod:`repro.verify.oracle`) is run with
  ``backend="fastsolve"``; any disagreement is dumped as a JSON repro
  under ``--repro-dir`` and fails ``--check``;
* **end-to-end plan latency** — a cold-planner single-resource simulation
  run under each backend, reporting ``sched.plan`` / ``lp.solve``
  percentiles and the structure-hit counters.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_solver.py --quick

Writes ``BENCH_solver.json`` (see ``--out``).  With ``--check`` the exit
code is non-zero unless the largest measured scale meets ``--min-speedup``
and there are zero disagreements (the CI ``solver-bench`` job's gate).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.analysis.experiments import canonical_windows, run_one
from repro.core.lexmin import build_round_lp
from repro.core.lp_formulation import ScheduleEntry, build_schedule_problem
from repro.lp import LinearProgram, LPStatus, solve_lp
from repro.model.cluster import ClusterCapacity
from repro.model.job import TaskSpec
from repro.model.resources import ResourceVector
from repro.obs import Observability, use_obs
from repro.simulator.metrics import summarize
from repro.verify.oracle import run_oracle
from repro.workloads.dag_generators import chain_workflow, fork_join_workflow
from repro.workloads.recurring import RecurringWorkflow
from repro.workloads.traces import SyntheticTrace

#: Objective agreement required between fastsolve and HiGHS (relative).
_OBJ_TOL = 1e-9
#: Dense simplex is O(rounds * m * n) with dense tableaus; keep it honest.
_SIMPLEX_VAR_LIMIT = 400

#: (name, n_jobs, horizon_slots, instances, repeats) for the microbench.
#: The largest scale is the thousands-of-workflows regime the ISSUE names:
#: every job is one deadline workflow's aggregate demand to the round LP.
MICRO_SCALES: tuple[tuple[str, int, int, int, int], ...] = (
    ("xs", 20, 12, 3, 5),
    ("small", 100, 30, 3, 5),
    ("medium", 500, 60, 3, 3),
    ("large", 2000, 120, 2, 2),
)


def structured_round_instance(
    seed: int, n_jobs: int, horizon: int
) -> LinearProgram:
    """A seeded single-resource coupled round LP (theta-form interval)."""
    rng = np.random.default_rng(seed)
    release = rng.integers(0, horizon - 1, size=n_jobs)
    deadline = release + rng.integers(
        1, np.maximum(2, horizon - release), size=n_jobs
    )
    deadline = np.minimum(deadline, horizon)
    max_parallel = rng.integers(1, 8, size=n_jobs)
    demand = rng.integers(1, 4, size=n_jobs)
    window = deadline - release
    units = 1 + rng.integers(0, window * max_parallel, size=n_jobs)
    entries = [
        ScheduleEntry(
            job_id=f"b{seed}-j{j}",
            release=int(release[j]),
            deadline=int(deadline[j]),
            units=int(units[j]),
            unit_demand=ResourceVector({"cpu": int(demand[j])}),
            max_parallel=int(max_parallel[j]),
        )
        for j in range(n_jobs)
    ]
    # Size the cluster so the optimum lands mid-range (theta* ~ 0.5): the
    # parametric search then does real work instead of stopping at a bound.
    total = float(np.sum(units * demand))
    cpu = max(8.0, np.ceil(2.0 * total / horizon))
    problem = build_schedule_problem(
        entries, np.full((horizon, 1), cpu), ("cpu",)
    )
    n_cells = len(problem.util_cells)
    return build_round_lp(
        problem, range(n_cells), np.full(n_cells, np.inf), problem.cell_caps()
    )


def _fresh(lp: LinearProgram) -> LinearProgram:
    """A new LinearProgram sharing arrays: defeats the per-object detection
    cache so every timed fastsolve call pays detection, like production."""
    return LinearProgram(
        c=lp.c,
        a_ub=lp.a_ub,
        b_ub=lp.b_ub,
        a_eq=lp.a_eq,
        b_eq=lp.b_eq,
        lb=lp.lb,
        ub=lp.ub,
    )


def _percentiles(samples: list[float]) -> dict:
    arr = np.asarray(samples)
    return {
        "samples": len(samples),
        "p50_ms": round(float(np.percentile(arr, 50)) * 1e3, 4),
        "p99_ms": round(float(np.percentile(arr, 99)) * 1e3, 4),
    }


def run_micro_scale(
    name: str,
    n_jobs: int,
    horizon: int,
    instances: int,
    repeats: int,
    repro_dir: Path,
) -> dict:
    """Time every backend on one scale and diff fastsolve against HiGHS."""
    lps = [
        structured_round_instance(1000 + i, n_jobs, horizon)
        for i in range(instances)
    ]
    backends = ["fastsolve", "highs"]
    if lps[0].n_variables <= _SIMPLEX_VAR_LIMIT:
        backends.append("simplex")

    obs = Observability()
    timings: dict[str, list[float]] = {b: [] for b in backends}
    objectives: dict[str, list[float]] = {b: [] for b in backends}
    disagreements = []
    with use_obs(obs):
        for index, lp in enumerate(lps):
            for backend in backends:
                for _ in range(repeats):
                    fresh = _fresh(lp)
                    start = time.perf_counter()
                    solution = solve_lp(fresh, backend=backend)
                    timings[backend].append(time.perf_counter() - start)
                if solution.status is not LPStatus.OPTIMAL:
                    raise RuntimeError(
                        f"{name}/{backend}: unexpected {solution.status}"
                    )
                objectives[backend].append(float(solution.objective))
            gap = abs(objectives["fastsolve"][-1] - objectives["highs"][-1])
            bound = _OBJ_TOL * max(1.0, abs(objectives["highs"][-1]))
            if gap > bound:
                disagreements.append(
                    _dump_repro(
                        repro_dir,
                        scale=name,
                        seed=1000 + index,
                        n_jobs=n_jobs,
                        horizon=horizon,
                        fastsolve=objectives["fastsolve"][-1],
                        highs=objectives["highs"][-1],
                    )
                )

    snapshot = obs.registry.snapshot()
    hits = snapshot.get("lp.fastsolve.hit", {"value": 0})["value"]
    bailouts = snapshot.get("lp.fastsolve.bailout", {"value": 0})["value"]
    misses = snapshot.get("lp.fastsolve.miss", {"value": 0})["value"]
    fast_p50 = float(np.percentile(timings["fastsolve"], 50))
    highs_p50 = float(np.percentile(timings["highs"], 50))
    return {
        "scale": name,
        "n_jobs": n_jobs,
        "horizon_slots": horizon,
        "n_variables": lps[0].n_variables,
        "n_constraints": lps[0].n_constraints,
        "instances": instances,
        "repeats": repeats,
        "backends": {b: _percentiles(timings[b]) for b in backends},
        "speedup_p50_vs_highs": round(highs_p50 / fast_p50, 2),
        "structure_hit_rate": round(
            hits / max(hits + misses + bailouts, 1), 4
        ),
        "bailouts": int(bailouts),
        "disagreements": len(disagreements),
        "repros": disagreements,
    }


def _dump_repro(repro_dir: Path, **payload) -> str:
    repro_dir.mkdir(parents=True, exist_ok=True)
    path = repro_dir / f"disagree_{payload['scale']}_{payload['seed']}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"DISAGREEMENT: {payload} -> {path}", file=sys.stderr)
    return str(path)


def _e2e_trace() -> tuple[SyntheticTrace, ClusterCapacity]:
    """A recurring single-resource workload (the structured e2e regime)."""
    spec = TaskSpec(
        count=6, duration_slots=2, demand=ResourceVector({"cpu": 2})
    )
    join = TaskSpec(
        count=4, duration_slots=2, demand=ResourceVector({"cpu": 1})
    )
    workflows = []
    for skeleton in (
        chain_workflow("e2e-chain", 4, 0, 20, spec),
        fork_join_workflow("e2e-fj", 4, 0, 20, join),
    ):
        workflows.extend(RecurringWorkflow(skeleton, 26).instances(4))
    capacity = ClusterCapacity(base=ResourceVector({"cpu": 48}))
    return SyntheticTrace(workflows=tuple(workflows), adhoc_jobs=()), capacity


def run_e2e(lp_backend: str | None) -> dict:
    """One cold-planner run; plan/solve latency plus outcome metrics."""
    trace, capacity = _e2e_trace()
    obs = Observability()
    outcome = run_one(
        "FlowTime",
        trace,
        capacity,
        # Cold planner: no plan cache, no warm starts — every replan pays
        # full ladder price, which is what the backend comparison measures.
        scheduler_kwargs={
            "planner": {
                "plan_cache": False,
                "warm_start": False,
                **({"backend": lp_backend} if lp_backend else {}),
            },
            "work_conserving": False,
        },
        obs=obs,
    )
    result = outcome.result
    summary = summarize(result, canonical_windows(trace, capacity))
    snapshot = obs.registry.snapshot()

    def stat(name: str) -> dict:
        data = result.phase_stats(name)
        if data is None:
            return {"count": 0, "p50_ms": 0.0, "p95_ms": 0.0}
        return {
            "count": int(data.get("count", 0)),
            "p50_ms": round(data.get("p50", 0.0) * 1e3, 4),
            "p95_ms": round(data.get("p95", 0.0) * 1e3, 4),
        }

    def counter(name: str) -> int:
        return int(snapshot.get(name, {"value": 0})["value"])

    hits = counter("lp.fastsolve.hit")
    misses = counter("lp.fastsolve.miss")
    bailouts = counter("lp.fastsolve.bailout")
    return {
        "lp_backend": lp_backend or "default",
        "sched_plan": stat("sched.plan"),
        "lp_solve": stat("lp.solve"),
        "fastsolve_counters": {
            "hit": hits,
            "miss": misses,
            "bailout": bailouts,
            "hit_rate": round(hits / max(hits + misses + bailouts, 1), 4),
        },
        "outcome": {
            "jobs_missed": summary["jobs_missed"],
            "n_slots": result.n_slots,
        },
    }


def run_oracle_slice(n_seeds: int) -> dict:
    """The differential oracle on fastsolve over its structured slice."""
    outcomes = run_oracle(
        range(n_seeds), backend="fastsolve", single_resource=True
    )
    by_status: dict[str, int] = {}
    for item in outcomes:
        by_status[item.status] = by_status.get(item.status, 0) + 1
    disagreements = [
        {
            "seed": item.seed,
            "oracle_theta": item.oracle_theta,
            "production_theta": item.production_theta,
            "detail": item.detail,
        }
        for item in outcomes
        if item.status == "disagree"
    ]
    return {
        "seeds": n_seeds,
        "by_status": by_status,
        "disagreements": disagreements,
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small microbench scales and a short oracle slice (CI smoke)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless speedup and agreement gates pass",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="--check: required fastsolve p50 speedup over HiGHS at the "
        "largest measured scale (default: 10, or 1.5 with --quick, whose "
        "largest scale is far below the crossover regime)",
    )
    parser.add_argument(
        "--oracle-seeds",
        type=int,
        default=None,
        metavar="N",
        help="oracle slice size (default: 60, or 30 with --quick)",
    )
    parser.add_argument(
        "--repro-dir",
        default="bench_solver_repros",
        help="directory for disagreement repro dumps (default: %(default)s)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_solver.json",
        help="output JSON path (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    if args.min_speedup is None:
        args.min_speedup = 1.5 if args.quick else 10.0

    scales = MICRO_SCALES[:2] if args.quick else MICRO_SCALES
    repro_dir = Path(args.repro_dir)
    micro = []
    for name, n_jobs, horizon, instances, repeats in scales:
        print(f"[micro/{name}] {n_jobs} jobs x {horizon} slots ...", flush=True)
        row = run_micro_scale(
            name, n_jobs, horizon, instances, repeats, repro_dir
        )
        micro.append(row)
        print(
            f"[micro/{name}] fastsolve p50 "
            f"{row['backends']['fastsolve']['p50_ms']}ms vs highs "
            f"{row['backends']['highs']['p50_ms']}ms -> "
            f"{row['speedup_p50_vs_highs']}x, hit rate "
            f"{row['structure_hit_rate']:.0%}",
            flush=True,
        )

    n_oracle = args.oracle_seeds
    if n_oracle is None:
        n_oracle = 30 if args.quick else 60
    print(f"[oracle] {n_oracle} seeds under fastsolve ...", flush=True)
    oracle = run_oracle_slice(n_oracle)
    print(f"[oracle] {oracle['by_status']}", flush=True)

    print("[e2e] cold-planner runs (default vs fastsolve) ...", flush=True)
    e2e = [run_e2e(None), run_e2e("fastsolve")]
    for row in e2e:
        print(
            f"[e2e/{row['lp_backend']}] plan p50 "
            f"{row['sched_plan']['p50_ms']}ms, lp.solve p50 "
            f"{row['lp_solve']['p50_ms']}ms, missed "
            f"{row['outcome']['jobs_missed']}",
            flush=True,
        )

    total_disagreements = sum(row["disagreements"] for row in micro) + len(
        oracle["disagreements"]
    )
    largest = micro[-1]
    report = {
        "benchmark": "solver",
        "quick": args.quick,
        "micro": micro,
        "oracle": oracle,
        "e2e": e2e,
        "summary": {
            "largest_scale": largest["scale"],
            "speedup_p50_at_largest_scale": largest["speedup_p50_vs_highs"],
            "min_structure_hit_rate": min(
                row["structure_hit_rate"] for row in micro
            ),
            "total_bailouts": sum(row["bailouts"] for row in micro),
            "total_disagreements": total_disagreements,
            "e2e_outcomes_equivalent": (
                e2e[0]["outcome"] == e2e[1]["outcome"]
            ),
        },
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")

    if args.check:
        failed = []
        if total_disagreements:
            failed.append(
                f"{total_disagreements} disagreement(s); repros in "
                f"{repro_dir}/"
            )
        speedup = report["summary"]["speedup_p50_at_largest_scale"]
        if speedup < args.min_speedup:
            failed.append(
                f"speedup {speedup}x at {largest['scale']} scale < required "
                f"{args.min_speedup}x"
            )
        if report["summary"]["min_structure_hit_rate"] < 1.0:
            failed.append("structure detection missed a round LP")
        if failed:
            for reason in failed:
                print(f"FAIL: {reason}", file=sys.stderr)
            return 1
        print(
            f"CHECK OK: {speedup}x speedup at {largest['scale']} scale, "
            "0 disagreements"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
