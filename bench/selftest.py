#!/usr/bin/env python3
"""Self-test of the benchmark: does it measure the program, not the machine?

    python3 bench/selftest.py

1. Unit tests of the arithmetic (``python -m pytest bench -q``).
2. ``batch-mixed`` twice on one seed: byte-equal work digests and every
   end-to-end metric within its bound.  A second seed: another digest,
   the same checks passed.
3. A second *instance* of every workload (``bench.workloads.INSTANCE``
   patched from 0 to 1: other DAGs, sizes, arrival slots), one verified
   epoch each: no op fails and every correctness check passes on a
   problem the benchmark was not sized on.
4. ``batch-mixed`` again beside two duty-cycled busy loops (0.5 s on,
   0.5 s off): the floored timing metrics must stay within their bounds
   of the quiet run — the ``raw.*`` diagnostics are free to move, and
   both are printed so the difference is visible.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT))

from bench.run import child_env, run_reported  # noqa: E402

WORKLOAD = "batch-mixed"

_OTHER_INSTANCE = """
import json, sys
from pathlib import Path
import bench.workloads as workloads
from bench.child import run_epoch

workloads.INSTANCE = 1
for name, make in workloads.WORKLOADS.items():
    record = run_epoch(make(1, Path(sys.argv[1])), 0, verify=True)
    print(json.dumps({
        "workload": name, "ops": len(record.op_s), "failed": record.failed,
        "violations": record.summary.violations, **record.summary.quality,
    }), flush=True)
"""

_HOG = """
import time
while True:
    end = time.perf_counter() + 0.5
    while time.perf_counter() < end:
        pass
    time.sleep(0.5)
"""


def _worse_by(better: str, base: float, value: float) -> float:
    """Share of *base* by which *value* is worse (negative: better)."""
    if better == "lower":
        return (value - base) / base
    return (base - value) / base


def _check_within_bounds(declared, base, other, label, skip=()) -> None:
    for metric in declared["end_to_end"]:
        name = metric["name"]
        if name in skip:
            continue
        a = base["result"]["metrics"][name]["value"]
        b = other["result"]["metrics"][name]["value"]
        worse = _worse_by(metric["better"], a, b)
        status = "ok" if worse <= metric["bound"] else "FAIL"
        print(f"  {status:4s} {name:24s} {a:12.5g} -> {b:12.5g}  "
              f"{worse:+.4f} (bound {metric['bound']})")
        if status == "FAIL":
            raise SystemExit(f"FAIL: {label}: {name} moved by {worse:+.4f}")


def _check_other_instance() -> None:
    workdir = ROOT / ".bench_tmp" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        done = subprocess.run(
            [sys.executable, "-c", _OTHER_INSTANCE, str(workdir)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise SystemExit("FAIL: the second instance could not be run")
    for line in done.stdout.strip().splitlines():
        epoch = json.loads(line)
        bad = epoch.pop("violations")
        status = "FAIL" if bad or epoch["failed"] else "ok"
        print(f"  {status:4s} {json.dumps(epoch)}")
        if status == "FAIL":
            raise SystemExit(f"FAIL: second instance of {epoch['workload']}: {bad}")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]

    print("== unit tests")
    tests = subprocess.run(
        [sys.executable, "-m", "pytest", str(BENCH), "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT,
    )
    if tests.returncode != 0:
        raise SystemExit("FAIL: unit tests")

    print(f"== {WORKLOAD}, seed 1, twice")
    first = run_reported(WORKLOAD, 1, seconds)
    second = run_reported(WORKLOAD, 1, seconds)
    if first["work_digest"] != second["work_digest"]:
        raise SystemExit("FAIL: two runs on one seed did different work")
    print(f"  ok   work_digest {first['work_digest'][:16]} twice")
    _check_within_bounds(declared, first, second, "same seed")

    print(f"== {WORKLOAD}, seed 2")
    other = run_reported(WORKLOAD, 2, seconds)
    if other["work_digest"] == first["work_digest"]:
        raise SystemExit("FAIL: another seed gave the same digest")
    print(f"  ok   work_digest {other['work_digest'][:16]}, checks passed")
    _check_within_bounds(declared, first, other, "another seed")

    print("== a second instance of every workload, one verified epoch each")
    _check_other_instance()

    print(f"== {WORKLOAD}, seed 1, beside two duty-cycled busy loops")
    hogs = [
        subprocess.Popen([sys.executable, "-c", _HOG]) for _ in range(2)
    ]
    try:
        time.sleep(0.25)
        loaded = run_reported(WORKLOAD, 1, seconds)
    finally:
        for hog in hogs:
            hog.kill()
        for hog in hogs:
            hog.wait()
    if loaded["work_digest"] != first["work_digest"]:
        raise SystemExit("FAIL: the loaded run did different work")
    # Set-up is dominated by cold imports, which a floor over six
    # probes cannot clean as well as a floor over epochs cleans an op.
    _check_within_bounds(declared, first, loaded, "loaded machine",
                         skip=("setup_s",))
    for name in ("raw.op_ms_p50", "raw.op_ms_p90", "raw.epoch_s_iqr"):
        quiet = first["per_layer"][name]["value"]
        noisy = loaded["per_layer"][name]["value"]
        print(f"  info {name:24s} {quiet:12.5g} -> {noisy:12.5g}  (not gated)")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
