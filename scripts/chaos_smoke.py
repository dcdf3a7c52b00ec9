#!/usr/bin/env python3
"""CI chaos gate: solver faults + SIGKILL + restart must lose nothing.

Runs the real ``repro serve`` process twice over the same workload:

1. **Baseline** — fault-free, graceful SIGTERM drain; records which
   workflows met their deadlines.
2. **Chaos** — 30% seeded solver faults (``--chaos-fault-prob``) with a
   write-ahead journal; the process is SIGKILLed mid-run, restarted on
   the same journal (same chaos flags), and must finish with **every
   accepted submission completed** and deadline hits no worse than the
   baseline.

The fault seed is chosen so the first two solves fault, so the
degraded-mode path is exercised deterministically, not probabilistically.

Run:  python scripts/chaos_smoke.py
Exits non-zero with a diagnostic on any failure.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
import uuid

TIMEOUT_S = 60
N_WORKFLOWS = 3
N_ADHOC = 2
N_JOBS = N_WORKFLOWS * 3 + N_ADHOC

# Seed 7 at prob 0.3 faults on the first two solves: chaos bites
# immediately and deterministically (see ChaosInjector's seeded RNG).
CHAOS_ARGS = ["--chaos-fault-prob", "0.3", "--chaos-seed", "7"]


def fail(message: str, proc: subprocess.Popen | None = None) -> None:
    print(f"CHAOS SMOKE FAIL: {message}", file=sys.stderr)
    if proc is not None and proc.poll() is None:
        proc.kill()
    sys.exit(1)


def request(url: str, payload: dict | None = None) -> dict:
    data = json.dumps(payload).encode() if payload is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    if data:
        headers["Idempotency-Key"] = str(uuid.uuid4())
    req = urllib.request.Request(url, data=data, headers=headers)
    with urllib.request.urlopen(req, timeout=TIMEOUT_S) as response:
        return json.loads(response.read())


def start_server(extra: list[str]) -> tuple[subprocess.Popen, str]:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--batch-window", "0.05", "--no-admission",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.time() + TIMEOUT_S
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            fail(f"server exited early (code {proc.returncode})", proc)
        match = re.search(r"on (http://\S+)", line)
        if match:
            return proc, match.group(1)
    fail("server never printed its URL", proc)
    raise AssertionError  # unreachable


def submit_workload(url: str) -> None:
    task = {"count": 4, "duration_slots": 2, "demand": {"cpu": 2, "mem": 4}}
    for w in range(N_WORKFLOWS):
        wid = f"chaos-wf{w}"
        workflow = {
            "workflow_id": wid, "name": "chaos", "start_slot": 0,
            "deadline_slot": 120,
            "jobs": [
                {"job_id": f"{wid}-j{i}", "kind": "deadline",
                 "arrival_slot": 0, "workflow_id": wid, "name": "",
                 "tasks": task}
                for i in range(3)
            ],
            "edges": [[f"{wid}-j0", f"{wid}-j1"], [f"{wid}-j1", f"{wid}-j2"]],
        }
        decision = request(url + "/workflows", workflow)
        if not decision.get("accepted"):
            fail(f"workflow {wid} not accepted: {decision}")
    for a in range(N_ADHOC):
        job = {
            "job_id": f"chaos-adhoc{a}", "kind": "adhoc", "arrival_slot": 0,
            "workflow_id": None, "name": "",
            "tasks": {"count": 2, "duration_slots": 1,
                      "demand": {"cpu": 1, "mem": 2}},
        }
        decision = request(url + "/jobs", job)
        if not decision.get("accepted"):
            fail(f"ad-hoc chaos-adhoc{a} not accepted: {decision}")


def wait_done(url: str, proc: subprocess.Popen) -> None:
    deadline = time.time() + TIMEOUT_S
    while time.time() < deadline:
        status = request(url + "/status")
        if status["n_jobs"] == N_JOBS and status["remaining_jobs"] == 0:
            return
        time.sleep(0.2)
    fail("submitted work never completed", proc)


def drain(proc: subprocess.Popen) -> str:
    proc.send_signal(signal.SIGTERM)
    try:
        output, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("server did not drain within the timeout", proc)
    if proc.returncode != 0:
        fail(f"server exited {proc.returncode}:\n{output}")
    return output


def missed_deadlines(output: str) -> int:
    match = re.search(r"(\d+) missed deadline", output)
    if match is None:
        fail(f"no drain summary in output:\n{output}")
    return int(match.group(1))


def main() -> None:
    # Phase 1: fault-free baseline.
    proc, url = start_server([])
    submit_workload(url)
    wait_done(url, proc)
    baseline_missed = missed_deadlines(drain(proc))
    print(f"baseline: drained clean, {baseline_missed} missed deadline(s)")

    # Phase 2: chaos — faults + journal + SIGKILL + restart.
    journal = os.path.join(tempfile.mkdtemp(prefix="chaos-smoke-"), "wal.jsonl")
    proc, url = start_server(["--journal", journal, *CHAOS_ARGS])
    submit_workload(url)
    proc.kill()  # SIGKILL: no drain, no flush — only the journal survives
    proc.wait(timeout=TIMEOUT_S)
    if not os.path.exists(journal):
        fail("journal file missing after SIGKILL")
    print(f"killed server mid-run; journal at {journal}")

    proc, url = start_server(["--journal", journal, *CHAOS_ARGS])
    status = request(url + "/status")
    if status["accepted_workflows"] != N_WORKFLOWS:
        fail(f"recovery lost workflows: {status}", proc)
    if status["accepted_adhoc"] != N_ADHOC:
        fail(f"recovery lost ad-hoc jobs: {status}", proc)
    print(
        f"restart recovered {status['accepted_workflows']} workflows "
        f"+ {status['accepted_adhoc']} ad-hoc jobs from the journal"
    )
    wait_done(url, proc)

    metrics = request(url + "/metrics")
    solver_errors = sum(
        entry["value"] for name, entry in metrics.items()
        if name.startswith("lp.solve.errors.")
    )
    output = drain(proc)
    chaos_missed = missed_deadlines(output)
    if solver_errors == 0:
        fail(f"chaos never bit: no solver errors in metrics\n{output}")
    print(f"chaos bit: {int(solver_errors)} injected solver errors survived")
    if chaos_missed > baseline_missed:
        fail(
            f"deadline regression under chaos: {chaos_missed} missed "
            f"vs baseline {baseline_missed}\n{output}"
        )
    print(f"chaos run: drained clean, {chaos_missed} missed deadline(s)")
    print("CHAOS SMOKE PASSED")


if __name__ == "__main__":
    main()
