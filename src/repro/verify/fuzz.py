"""Seeded fuzz harness: random workloads through every production path.

Each fuzz case draws a seeded random workload (cluster size, workflow
DAGs, ad-hoc stream) and pushes it through one production path —

* ``batch``: a batch simulation (:func:`repro.analysis.run_one`) on the
  product planner, plan cache and skyline warm hint included;
* ``degraded``: the same with injected solver faults (:mod:`repro.chaos`),
  so the fallback ladder and EDF degraded mode are exercised;
* ``journal``: through the online service with a write-ahead journal, a
  seeded subset of workflows handed off to another shard, a kill, and a
  journal-replay restart that must bring back the killed ledger exactly.

Every result is checked by the independent :class:`~repro.verify.
ScheduleValidator` (capacity, precedence, conservation, windows) and its
reported metrics are recomputed from the records (``check_reported``);
the batch paths also record the run's event trace, check it with
:func:`~repro.verify.validate_trace`, and require the metrics recomputed
from it to equal those recomputed from the result.
A failing case is *shrunk* — workflows and ad-hoc jobs are dropped while
the failure reproduces — and persisted as a self-contained JSON repro
(wire-format workload + capacity + violations) for the seed corpus.

Entry points: :func:`run_fuzz` (budget- or case-bounded loop, used by
``scripts/fuzz_smoke.py``), :func:`run_case` (one seed x path),
:func:`persist_failure` / :func:`load_failure` (repro files).
"""

from __future__ import annotations

import itertools
import json
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.model.cluster import ClusterCapacity
from repro.model.resources import ResourceVector
from repro.workloads.traces import (
    SyntheticTrace,
    generate_trace,
    job_from_dict,
    job_to_dict,
    workflow_from_dict,
    workflow_to_dict,
)

__all__ = [
    "FUZZ_PATHS",
    "FuzzFailure",
    "FuzzResult",
    "load_failure",
    "make_workload",
    "persist_failure",
    "run_case",
    "run_fuzz",
    "shrink_workload",
]

#: Production paths a fuzz case can exercise.
FUZZ_PATHS: tuple[str, ...] = ("batch", "degraded", "journal")

#: Bound on reproduction runs spent minimising one failing workload.
_MAX_SHRINK_RUNS = 40


@dataclass
class FuzzFailure:
    """One failing fuzz case, shrunk and ready to persist."""

    seed: int
    path: str
    violations: list[str]
    trace: SyntheticTrace
    capacity: ClusterCapacity
    #: (workflows, adhoc jobs) of the original workload before shrinking.
    original_size: tuple[int, int] = (0, 0)

    def describe(self) -> str:
        return (
            f"seed {self.seed} via {self.path}: "
            f"{len(self.violations)} violation(s), shrunk to "
            f"{len(self.trace.workflows)} workflow(s) + "
            f"{len(self.trace.adhoc_jobs)} ad-hoc job(s) "
            f"from {self.original_size[0]}+{self.original_size[1]}"
        )


@dataclass
class FuzzResult:
    """Outcome of one fuzz session."""

    cases: int = 0
    seeds_run: list[int] = field(default_factory=list)
    failures: list[FuzzFailure] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"fuzz: {self.cases} cases over {len(self.seeds_run)} seeds "
            f"in {self.elapsed_s:.1f}s — {verdict}"
        )


# -- workload generation ------------------------------------------------------------


def make_workload(seed: int) -> tuple[SyntheticTrace, ClusterCapacity]:
    """A seeded small random workload plus a seeded random cluster.

    Sized so one case runs in well under a second: the point is path
    coverage across many seeds, not scale (the examples cover scale).
    """
    rng = np.random.default_rng(seed)
    cpu = int(rng.integers(16, 49))
    capacity = ClusterCapacity(base=ResourceVector({"cpu": cpu, "mem": 2 * cpu}))
    trace = generate_trace(
        n_workflows=int(rng.integers(1, 4)),
        jobs_per_workflow=int(rng.integers(3, 8)),
        n_adhoc=int(rng.integers(0, 10)),
        capacity=capacity,
        looseness=(2.0, 6.0),
        adhoc_rate_per_slot=float(rng.uniform(0.2, 0.8)),
        workflow_spread_slots=int(rng.integers(1, 20)),
        scientific=bool(rng.integers(0, 2)),
        seed=seed,
    )
    return trace, capacity


# -- one case -----------------------------------------------------------------------


def _validate_outcome(trace, capacity, result, events=None) -> list[str]:
    """Independent validation of one run's result and, when recorded, of
    its event trace too; violation strings."""
    from repro.analysis.experiments import canonical_windows
    from repro.simulator.metrics import summarize
    from repro.verify import ScheduleValidator, TraceIndex, validate_trace
    from repro.verify.validator import METRIC_KEYS, recompute_trace_metrics

    windows = canonical_windows(trace, capacity)
    validator = ScheduleValidator.of_trace(trace, capacity, windows)
    index = TraceIndex.of_result(result)
    report = validator.validate(result)
    validator.check_reported(index, summarize(result, windows), report)
    violations = [str(v) for v in report.violations]
    if events is not None:
        report = validate_trace(events, trace=trace, capacity=capacity, windows=windows)
        violations += [f"trace: {v}" for v in report.violations]
        ours = validator.recompute_metrics(index)
        theirs = recompute_trace_metrics(events, trace=trace, windows=windows)
        violations += [
            f"fronts disagree on {key}: result {ours[key]!r}, trace {theirs[key]!r}"
            for key in METRIC_KEYS
            if ours[key] != theirs[key]
        ]
    return violations


def _run_batch(trace, capacity, seed: int) -> list[str]:
    from repro.analysis.experiments import run_one
    from repro.obs import Observability
    from repro.obs.trace import MemorySink
    from repro.simulator.engine import SimulationConfig

    sink = MemorySink()
    outcome = run_one(
        "FlowTime",
        trace,
        capacity,
        config=SimulationConfig(record_execution=True),
        obs=Observability(sink=sink),
    )
    return _validate_outcome(trace, capacity, outcome.result, sink.events)


def _run_degraded(trace, capacity, seed: int) -> list[str]:
    from repro.chaos import ChaosConfig, chaos_solver

    with chaos_solver(ChaosConfig(solver_fault_prob=0.25, seed=seed)):
        return _run_batch(trace, capacity, seed)


def _run_journal(trace, capacity, seed: int) -> list[str]:
    """Submit, hand off, kill, journal-replay restart, drain — validate.

    The first life only has to write the journal the kill keeps, so its
    clock is frozen: every workflow is still unstarted when a seeded
    subset of them is handed off (half of those left unconfirmed).  The
    restarted service must hold exactly the ledger the killed one held,
    and run everything it still owns to a valid schedule.
    """
    from repro.service import SchedulerService, ServiceConfig

    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory(prefix="fuzz-journal-") as tmp:
        journal = str(Path(tmp) / "journal.jsonl")
        config = ServiceConfig(
            admission=False,
            record_execution=True,
            journal_path=journal,
            journal_fsync=False,
        )
        service = SchedulerService(
            capacity, replace(config, realtime=True, slot_seconds=3600.0)
        ).start()
        try:
            for index, workflow in enumerate(trace.workflows):
                if not service.submit_workflow(
                    workflow, idempotency_key=f"wf-{index}"
                ).accepted:
                    return [f"journal: workflow {workflow.workflow_id} rejected"]
            for job in trace.adhoc_jobs:
                if not service.submit_adhoc(job).accepted:
                    return [f"journal: ad-hoc {job.job_id} rejected"]
            moved = [
                wf.workflow_id for wf in trace.workflows if rng.random() < 0.3
            ]
            for wid in moved:
                service.migrate_out(wid, dest="elsewhere", epoch=1)
                if rng.random() < 0.5:
                    service.confirm(wid, epoch=1)
            service.kill(timeout=60)
            ledger = service.state.ledger()
            service = SchedulerService(capacity, config)
            if service.state.ledger() != ledger:
                return ["journal: recovered ledger differs from the killed one"]
            result = service.start().drain(timeout=300)
        finally:
            if not service.draining:
                service.kill(timeout=60)
    kept = SyntheticTrace(
        workflows=tuple(
            wf for wf in trace.workflows if wf.workflow_id not in moved
        ),
        adhoc_jobs=trace.adhoc_jobs,
    )
    return _validate_outcome(kept, capacity, result)


def run_case(
    trace: SyntheticTrace,
    capacity: ClusterCapacity,
    path: str,
    seed: int,
) -> list[str]:
    """Run one workload through one production path; violation strings.

    An unexpected exception counts as a failure too — the harness's
    contract is "every path completes and validates clean".
    """
    runners: dict[str, Callable[[], list[str]]] = {
        "batch": lambda: _run_batch(trace, capacity, seed),
        "degraded": lambda: _run_degraded(trace, capacity, seed),
        "journal": lambda: _run_journal(trace, capacity, seed),
    }
    if path not in runners:
        raise ValueError(f"unknown fuzz path {path!r}; known: {FUZZ_PATHS}")
    try:
        return runners[path]()
    except Exception as error:  # noqa: BLE001 - any crash is a finding
        return [f"{path}: raised {type(error).__name__}: {error}"]


# -- shrinking ----------------------------------------------------------------------


def shrink_workload(
    trace: SyntheticTrace,
    capacity: ClusterCapacity,
    path: str,
    seed: int,
) -> SyntheticTrace:
    """Greedily drop workflows/ad-hoc jobs while the failure reproduces."""
    budget = _MAX_SHRINK_RUNS

    def still_fails(candidate: SyntheticTrace) -> bool:
        nonlocal budget
        if budget <= 0:
            return False
        budget -= 1
        return bool(run_case(candidate, capacity, path, seed))

    current = trace
    progress = True
    while progress and budget > 0:
        progress = False
        for i in range(len(current.workflows)):
            candidate = SyntheticTrace(
                workflows=current.workflows[:i] + current.workflows[i + 1 :],
                adhoc_jobs=current.adhoc_jobs,
            )
            if (candidate.workflows or candidate.adhoc_jobs) and still_fails(
                candidate
            ):
                current = candidate
                progress = True
                break
        if progress:
            continue
        # Halve the ad-hoc stream from the back, then drop stragglers.
        n = len(current.adhoc_jobs)
        for keep in (n // 2, n - 1):
            if keep < 0 or keep >= n:
                continue
            candidate = SyntheticTrace(
                workflows=current.workflows,
                adhoc_jobs=current.adhoc_jobs[:keep],
            )
            if (candidate.workflows or candidate.adhoc_jobs) and still_fails(
                candidate
            ):
                current = candidate
                progress = True
                break
    return current


# -- persistence --------------------------------------------------------------------


def persist_failure(failure: FuzzFailure, out_dir: str | Path) -> Path:
    """Write one failing case as a self-contained JSON repro file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"fuzz-{failure.path}-seed{failure.seed}.json"
    payload = {
        "seed": failure.seed,
        "path": failure.path,
        "violations": failure.violations,
        "original_size": list(failure.original_size),
        "capacity": dict(failure.capacity.base),
        "workflows": [workflow_to_dict(wf) for wf in failure.trace.workflows],
        "adhoc_jobs": [job_to_dict(job) for job in failure.trace.adhoc_jobs],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def load_failure(path: str | Path) -> FuzzFailure:
    """Reload a persisted repro file (``run_case`` re-runs it)."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    trace = SyntheticTrace(
        workflows=tuple(workflow_from_dict(item) for item in data["workflows"]),
        adhoc_jobs=tuple(job_from_dict(item) for item in data["adhoc_jobs"]),
    )
    return FuzzFailure(
        seed=int(data["seed"]),
        path=str(data["path"]),
        violations=list(data.get("violations", [])),
        trace=trace,
        capacity=ClusterCapacity(base=ResourceVector(data["capacity"])),
        original_size=tuple(data.get("original_size", (0, 0))),
    )


# -- the fuzz loop ------------------------------------------------------------------


def run_fuzz(
    *,
    budget_s: Optional[float] = None,
    max_seeds: Optional[int] = None,
    corpus_seeds: Sequence[int] = (),
    start_seed: int = 1000,
    paths: Iterable[str] = FUZZ_PATHS,
    out_dir: str | Path | None = None,
    shrink: bool = True,
    log: Callable[[str], None] = lambda _msg: None,
) -> FuzzResult:
    """The fuzz session: corpus seeds first, then fresh seeds until done.

    Stops when ``budget_s`` wall seconds elapse or ``max_seeds`` seeds
    ran, whichever comes first (at least the corpus always runs).  With
    ``out_dir`` set, every failure is shrunk (unless ``shrink=False``)
    and persisted there as a repro JSON.
    """
    paths = tuple(paths)
    result = FuzzResult()
    started = time.monotonic()

    def out_of_budget() -> bool:
        if budget_s is not None and time.monotonic() - started >= budget_s:
            return True
        return max_seeds is not None and len(result.seeds_run) >= max_seeds

    corpus = list(dict.fromkeys(int(s) for s in corpus_seeds))
    fresh = (s for s in itertools.count(start_seed) if s not in set(corpus))
    for from_corpus, seed in itertools.chain(
        ((True, s) for s in corpus), ((False, s) for s in fresh)
    ):
        if not from_corpus and out_of_budget():
            break
        trace, capacity = make_workload(seed)
        result.seeds_run.append(seed)
        for path in paths:
            violations = run_case(trace, capacity, path, seed)
            result.cases += 1
            if not violations:
                continue
            log(f"fuzz failure: seed {seed} path {path}: {violations[0]}")
            original = (len(trace.workflows), len(trace.adhoc_jobs))
            small = (
                shrink_workload(trace, capacity, path, seed)
                if shrink
                else trace
            )
            failure = FuzzFailure(
                seed=seed,
                path=path,
                violations=violations,
                trace=small,
                capacity=capacity,
                original_size=original,
            )
            result.failures.append(failure)
            if out_dir is not None:
                persist_failure(failure, out_dir)
    result.elapsed_s = time.monotonic() - started
    return result
