#!/usr/bin/env python3
"""Measure how steady the benchmark is and write ``bench/STABILITY.md``.

    python3 bench/stability.py --sets 3 --runs 10

runs every workload ``--runs`` times per set, each run with another seed
(as the acceptance driver does), and reports per workload and end-to-end
metric: the set medians, the largest relative gap between two set medians,
the widest within-set quartile spread (``statistics.quantiles(n=4)``
distance over the median), and — for the timings — the gap and spread the
same runs would have shown without the reference-speed factor of
:mod:`bench.calibrate`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT))

from bench.run import run_reported  # noqa: E402
from bench.stats import relative_iqr  # noqa: E402

#: Reported at reference speed: ``measured x speed`` (``ops_per_s``: ``/``).
TIMINGS = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "op_ms_max")
#: ISSUE 16: a timing whose gap between sets exceeds this is redesigned.
REDESIGN_GAP = 0.05


def measure(sets: int, runs: int, declared: dict) -> dict:
    """``{workload: [set][run] -> {metric: value}}`` plus wall times."""
    seconds = declared["run_seconds"]
    workloads = [w["name"] for w in declared["workloads"]]
    data = {w: [[] for _ in range(sets)] for w in workloads}
    walls = {w: [] for w in workloads}
    for set_index in range(sets):
        # Round-robin over workloads, so a slow minute of the machine
        # lands on all of them and not on one workload's whole set.
        for run_index in range(runs):
            for workload in workloads:
                seed = 1 + run_index + set_index * runs
                start = time.perf_counter()
                report = run_reported(workload, seed, seconds)
                wall = time.perf_counter() - start
                values = {
                    name: m["value"]
                    for name, m in report["result"]["metrics"].items()
                }
                values["machine.speed"] = report["machine_speed"]
                data[workload][set_index].append(values)
                walls[workload].append(wall)
                print(
                    f"set {set_index} run {run_index} {workload:16s} "
                    f"seed {seed:3d} {wall:5.1f} s  {report['epochs']} epochs",
                    file=sys.stderr, flush=True,
                )
    return {"data": data, "walls": walls}


def _gap(medians: list[float]) -> float:
    """Largest relative gap between two of the set medians."""
    return max(
        (abs(a - b) / min(abs(a), abs(b))
         for a, b in itertools.combinations(medians, 2)),
        default=0.0,
    )


def _at_machine_speed(name: str, run: dict) -> float:
    """The value a run would have reported without the reference-speed
    factor."""
    if name == "ops_per_s":
        return run[name] * run["machine.speed"]
    return run[name] / run["machine.speed"]


def render(measured: dict, declared: dict) -> str:
    data, walls = measured["data"], measured["walls"]
    n_sets = len(next(iter(data.values())))
    n_runs = len(next(iter(data.values()))[0])
    lines = [
        "# Stability of the benchmark on this machine",
        "",
        f"Written by `python3 bench/stability.py --sets {n_sets} --runs "
        f"{n_runs}`: {n_sets} sets of {n_runs} runs per workload at "
        f"`--seconds {declared['run_seconds']}`, every run with another "
        "`--seed`, workloads interleaved round-robin.",
        "",
        "Per end-to-end metric: the median of each set, the largest "
        "relative gap between two set medians (`gap`), the widest "
        "within-set quartile spread as a share of the median (`spread`, "
        "what the acceptance driver computes over ten runs), and the "
        "bound fixed in `BENCHMARK.json`.  `raw gap` and `raw spread` are "
        "those of the same runs without the reference-speed factor of "
        "`bench/calibrate.py` (each value divided by its run's "
        "`machine.speed` again): what the floors alone leave of the "
        "machine's drift.",
        "",
        "`ok`: the bound is at least twice the gap and three times the "
        "spread.  `tight`: twice the gap and the spread itself fit, three "
        "times the spread does not.  For `setup_s`, whose spread the "
        "driver does not gate, only the gap counts.",
        "",
    ]
    worst_gap, drifted = 0.0, []
    for workload, sets in data.items():
        wall = walls[workload]
        lines += [
            f"## {workload}",
            "",
            f"Wall time of one run: median {statistics.median(wall):.1f} s, "
            f"max {max(wall):.1f} s.",
            "",
            "| metric | " + " | ".join(f"set {i}" for i in range(n_sets))
            + " | gap | raw gap | spread | raw spread | bound | |",
            "|---|" + "---:|" * (n_sets + 5) + "---|",
        ]
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = [
                statistics.median(run[name] for run in runs) for runs in sets
            ]
            gap = _gap(medians)
            spread = max(
                relative_iqr([run[name] for run in runs]) for runs in sets
            )
            raw = raw_wide = ""
            if name in TIMINGS:
                raw_sets = [
                    [_at_machine_speed(name, run) for run in runs]
                    for runs in sets
                ]
                raw_gap = _gap([statistics.median(v) for v in raw_sets])
                raw = f"{raw_gap:.4f}"
                raw_wide = f"{max(relative_iqr(v) for v in raw_sets):.4f}"
                if name != "setup_s":
                    worst_gap = max(worst_gap, gap)
                if raw_gap > REDESIGN_GAP:
                    drifted.append(
                        f"`{name}` on `{workload}` ({raw_gap:.3f} raw, "
                        f"{gap:.3f} reported)"
                    )
            if bound < 2 * gap or (name != "setup_s" and bound < spread):
                verdict = "**over**"
            elif name != "setup_s" and bound < 3 * spread:
                verdict = "tight"
            else:
                verdict = "ok"
            lines.append(
                f"| `{name}` | "
                + " | ".join(f"{m:.4g}" for m in medians)
                + f" | {gap:.4f} | {raw} | {spread:.4f} | {raw_wide} "
                + f"| {bound} | {verdict} |"
            )
        speeds = [run["machine.speed"] for runs in sets for run in runs]
        lines += [
            "",
            f"`machine.speed` ranged {min(speeds):.3f}-{max(speeds):.3f}.",
            "",
        ]
    lines += [
        "## Summary",
        "",
        f"Largest gap of a reported timing other than `setup_s`: "
        f"{worst_gap:.4f}.",
        "",
        f"Timings whose raw gap exceeds {REDESIGN_GAP} — the threshold at "
        "which ISSUE 16 asks for a redesign, and the reason the timings "
        "are reported at reference speed: "
        + ("; ".join(drifted) if drifted else "none in these sets") + ".",
        "",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=3)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    measured = measure(args.sets, args.runs, declared)
    (BENCH / "STABILITY.md").write_text(render(measured, declared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
