#!/usr/bin/env python3
"""Benchmark driver: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload batch-mixed --seed 1 --seconds 20 --trace 0

spawns six import probes and one measuring child (:mod:`bench.child`)
with a pinned environment, and prints the result as the last line of
standard output::

    {"correct": true, "attempted": 1680, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones.  The full report (every metric with its
sample count, the work digest, violations) goes to standard error, or to
standard output before the result line with ``--report``.

Exit code 0 for a completed, correct run; 4, after the result line, when a
correctness check failed (``"correct": false``, ``ok_share`` 0); 1 or 2,
with no result line, when the run could not be made at all (no ``src/``
tree beside ``bench/``, a child crashed, epochs disagreed on their work).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Cold-import probes before and again after the measuring child: a slow
#: half-minute of the machine then spoils at most one of the two groups.
IMPORT_PROBES = 3
_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro, repro.service, repro.simulator; "
    "print(time.perf_counter() - t)"
)


def child_env() -> dict:
    """The environment every child runs in.

    Hash seed and BLAS thread counts are pinned so set iteration order and
    solver threading cannot differ between runs; ``PYTHONPATH`` points at
    *this* checkout, so the benchmark never measures an installed copy.
    """
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join([str(ROOT), str(SRC)]),
    )
    return env


def _import_seconds(env: dict) -> list[float]:
    """Cold-process import time of the stack, measured inside each probe."""
    samples = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", _PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"import probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip()))
    return samples


def _measure(args: argparse.Namespace, env: dict) -> dict:
    tmp = ROOT / ".bench_tmp"
    workdir = tmp / f"{os.getpid()}-{time.time_ns()}"
    # Its own session, so that the child and any server it spawned can be
    # stopped together if the run has to be abandoned.
    child = subprocess.Popen(
        [
            sys.executable, "-m", "bench.child",
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--mode", "trace" if args.trace else "measure",
            "--workdir", str(workdir),
        ],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=165)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        try:
            tmp.rmdir()  # only when no other run is using it
        except OSError:
            pass
    if child.returncode != 0:
        raise RuntimeError(f"measuring child exited with {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_reported(workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in a subprocess, for the sibling scripts
    (selftest, stability): the full report, plus the result line under
    ``"result"``.  Raises ``RuntimeError`` unless the run exits 0."""
    done = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--report",
        ],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} --seed {seed} exited {done.returncode}:\n{done.stderr}"
        )
    lines = done.stdout.strip().splitlines()
    report = json.loads("\n".join(lines[:-1]))
    report["result"] = json.loads(lines[-1])
    return report


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    declared = _declared()
    workloads = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(declared["run_seconds"]),
        help="how long the timed epochs run (default: BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--report", action="store_true",
        help="print the full report to standard output, not standard error",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2

    env = child_env()
    try:
        imports = _import_seconds(env)
        child = _measure(args, env)
        imports += _import_seconds(env)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    end_to_end = child.pop("end_to_end")
    per_layer = child.pop("per_layer")
    # Like every timing: floored, then brought to reference speed.
    import_s = min(imports) * child["machine_speed"]
    epoch_setup = end_to_end.pop("epoch_setup_s")
    end_to_end["setup_s"] = {
        "value": import_s + epoch_setup["value"],
        "unit": "s",
        "samples": len(imports) + epoch_setup["samples"],
    }
    per_layer["import_s"] = {
        "value": import_s, "unit": "s", "samples": len(imports),
    }
    if not child["correct"]:
        # A wrong answer is not a slower number: it fails the run.
        end_to_end["ok_share"]["value"] = 0.0

    report = {**child, "end_to_end": end_to_end, "per_layer": per_layer}
    print(
        json.dumps(report, indent=2, sort_keys=True),
        file=sys.stdout if args.report else sys.stderr,
    )

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    measured = per_layer if args.trace else end_to_end
    result = {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {
            m["name"]: {
                "value": measured[m["name"]]["value"],
                "unit": m["unit"],
            }
            for m in wanted
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if child["correct"] else 4


if __name__ == "__main__":
    sys.exit(main())
