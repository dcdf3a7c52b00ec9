"""Golden-trace regression corpus: pinned runs diffed event-for-event.

Each golden case is a small deterministic workload whose full FlowTime run
is pinned under ``tests/golden/<case>/`` as three files:

* ``workload.json`` — the wire-format workload (capacity + workflows +
  ad-hoc jobs), so the case is reproducible without its builder;
* ``run.jsonl`` — the run's normalised trace events (wall-clock ``ts``
  stripped; everything else — slots, units, ordering — byte-stable);
* ``summary.json`` — the reported metrics (timing-dependent
  ``decide_ms_*`` keys stripped).

:func:`check_corpus` re-runs every case and diffs events and summary
against the pinned files — any scheduler/engine behaviour drift fails CI
with the first diverging event.  :func:`write_corpus` regenerates the
files after an *intentional* behaviour change (``scripts/regen_golden.py``;
review the diff before committing).  Every golden run is also validated by
the :class:`~repro.verify.ScheduleValidator` at regeneration *and* check
time, so the corpus can never pin an invalid schedule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.model.cluster import ClusterCapacity
from repro.model.job import Job, JobKind, TaskSpec
from repro.model.resources import ResourceVector
from repro.model.workflow import Workflow
from repro.workloads.traces import (
    SyntheticTrace,
    generate_trace,
    job_from_dict,
    job_to_dict,
    workflow_from_dict,
    workflow_to_dict,
)

__all__ = [
    "GOLDEN_CASES",
    "GoldenCase",
    "check_corpus",
    "default_corpus_dir",
    "load_workload",
    "normalize_events",
    "run_golden",
    "write_corpus",
]

#: Summary keys whose values depend on wall-clock timing, not behaviour.
_TIMING_KEYS_PREFIX = "decide_ms"


@dataclass(frozen=True)
class GoldenCase:
    """One pinned workload: a name and a deterministic builder."""

    name: str
    build: Callable[[], tuple[SyntheticTrace, ClusterCapacity]]
    description: str = ""


def _diamond() -> tuple[SyntheticTrace, ClusterCapacity]:
    """The quickstart shape: one diamond ETL workflow plus two ad-hoc jobs."""
    capacity = ClusterCapacity(base=ResourceVector({"cpu": 40, "mem": 80}))
    spec = TaskSpec(
        count=6, duration_slots=3, demand=ResourceVector({"cpu": 2, "mem": 4})
    )
    jobs = [
        Job(job_id=f"etl-{name}", tasks=spec, workflow_id="etl", name=name)
        for name in ("extract", "clean", "enrich", "report")
    ]
    workflow = Workflow.from_jobs(
        "etl",
        jobs,
        [
            ("etl-extract", "etl-clean"),
            ("etl-extract", "etl-enrich"),
            ("etl-clean", "etl-report"),
            ("etl-enrich", "etl-report"),
        ],
        start_slot=0,
        deadline_slot=60,
        name="etl",
    )
    adhoc = tuple(
        Job(
            job_id=f"query-{i}",
            tasks=TaskSpec(
                count=4,
                duration_slots=2,
                demand=ResourceVector({"cpu": 2, "mem": 2}),
            ),
            kind=JobKind.ADHOC,
            arrival_slot=2 * i,
        )
        for i in range(2)
    )
    return SyntheticTrace(workflows=(workflow,), adhoc_jobs=adhoc), capacity


def _mixed() -> tuple[SyntheticTrace, ClusterCapacity]:
    """A small seeded mixed workload (layered DAGs + Poisson ad-hoc)."""
    capacity = ClusterCapacity(base=ResourceVector({"cpu": 32, "mem": 64}))
    trace = generate_trace(
        n_workflows=2,
        jobs_per_workflow=6,
        n_adhoc=8,
        capacity=capacity,
        looseness=(3.0, 6.0),
        adhoc_rate_per_slot=0.5,
        workflow_spread_slots=10,
        seed=42,
    )
    return trace, capacity


def _scientific() -> tuple[SyntheticTrace, ClusterCapacity]:
    """A seeded scientific-shape workload (Bharathi DAGs)."""
    capacity = ClusterCapacity(base=ResourceVector({"cpu": 24, "mem": 48}))
    trace = generate_trace(
        n_workflows=2,
        jobs_per_workflow=10,
        n_adhoc=5,
        capacity=capacity,
        looseness=(3.0, 5.0),
        adhoc_rate_per_slot=0.4,
        workflow_spread_slots=6,
        scientific=True,
        seed=7,
    )
    return trace, capacity


GOLDEN_CASES: dict[str, GoldenCase] = {
    case.name: case
    for case in (
        GoldenCase("diamond", _diamond, "quickstart diamond ETL + ad-hoc"),
        GoldenCase("mixed", _mixed, "seeded layered DAGs + Poisson stream"),
        GoldenCase("scientific", _scientific, "seeded Bharathi shapes"),
    )
}


def default_corpus_dir() -> Path:
    """``tests/golden`` relative to the repository root."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def normalize_events(events: Iterable[dict]) -> list[dict]:
    """Events with wall-clock ``ts`` stripped (the only unstable field)."""
    out = []
    for event in events:
        event = dict(event)
        event.pop("ts", None)
        out.append(event)
    return out


def _normalize_summary(summary: dict) -> dict:
    return {
        key: value
        for key, value in summary.items()
        if not key.startswith(_TIMING_KEYS_PREFIX)
    }


def run_golden(case: GoldenCase) -> tuple[list[dict], dict]:
    """Run one case; its normalised events and normalised summary.

    The run is validated by the independent verifier before anything is
    returned, so neither regeneration nor checking can pin (or silently
    accept) a schedule that violates the invariants.
    """
    from repro.analysis.experiments import canonical_windows, run_one
    from repro.obs import Observability
    from repro.obs.trace import MemorySink
    from repro.simulator.engine import SimulationConfig
    from repro.simulator.metrics import summarize
    from repro.verify import ScheduleValidator

    trace, capacity = case.build()
    sink = MemorySink()
    outcome = run_one(
        "FlowTime",
        trace,
        capacity,
        config=SimulationConfig(record_execution=True),
        obs=Observability(sink=sink),
    )
    windows = canonical_windows(trace, capacity)
    validator = ScheduleValidator.of_trace(trace, capacity, windows)
    report = validator.validate(outcome.result)
    summary = summarize(outcome.result, windows)
    validator.check_reported(outcome.result, summary, report)
    report.raise_if_violations()
    return normalize_events(sink.events), _normalize_summary(summary)


def _workload_payload(case: GoldenCase) -> dict:
    trace, capacity = case.build()
    return {
        "case": case.name,
        "description": case.description,
        "capacity": dict(capacity.base),
        "workflows": [workflow_to_dict(wf) for wf in trace.workflows],
        "adhoc_jobs": [job_to_dict(job) for job in trace.adhoc_jobs],
    }


def load_workload(path: str | Path) -> tuple[SyntheticTrace, ClusterCapacity]:
    """Reload a pinned ``workload.json`` (builder-free reproduction)."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    trace = SyntheticTrace(
        workflows=tuple(workflow_from_dict(item) for item in data["workflows"]),
        adhoc_jobs=tuple(job_from_dict(item) for item in data["adhoc_jobs"]),
    )
    return trace, ClusterCapacity(base=ResourceVector(data["capacity"]))


def write_corpus(
    root: str | Path | None = None, names: Optional[Iterable[str]] = None
) -> list[Path]:
    """(Re)generate the pinned files; the directories written."""
    root = Path(root) if root is not None else default_corpus_dir()
    written = []
    for name in names if names is not None else sorted(GOLDEN_CASES):
        case = GOLDEN_CASES[name]
        events, summary = run_golden(case)
        case_dir = root / name
        case_dir.mkdir(parents=True, exist_ok=True)
        (case_dir / "workload.json").write_text(
            json.dumps(_workload_payload(case), indent=2) + "\n",
            encoding="utf-8",
        )
        (case_dir / "run.jsonl").write_text(
            "".join(json.dumps(event) + "\n" for event in events),
            encoding="utf-8",
        )
        (case_dir / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        written.append(case_dir)
    return written


def check_corpus(
    root: str | Path | None = None,
    names: Optional[Iterable[str]] = None,
) -> list[str]:
    """Re-run every pinned case and diff; mismatch descriptions (empty=ok)."""
    root = Path(root) if root is not None else default_corpus_dir()
    problems = []
    for name in names if names is not None else sorted(GOLDEN_CASES):
        case = GOLDEN_CASES[name]
        case_dir = root / name
        if not case_dir.is_dir():
            problems.append(f"{name}: no pinned corpus at {case_dir}")
            continue
        try:
            events, summary = run_golden(case)
        except Exception as error:  # noqa: BLE001 - a crash is a regression
            problems.append(f"{name}: run raised {type(error).__name__}: {error}")
            continue
        pinned_events = [
            json.loads(line)
            for line in (case_dir / "run.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
            if line.strip()
        ]
        if events != pinned_events:
            problems.append(_describe_event_diff(name, pinned_events, events))
        pinned_summary = json.loads(
            (case_dir / "summary.json").read_text(encoding="utf-8")
        )
        if _normalize_summary(pinned_summary) != summary:
            problems.append(
                f"{name}: summary drift: pinned {pinned_summary} != {summary}"
            )
    return problems


def _describe_event_diff(name: str, pinned: list, fresh: list) -> str:
    for i, (a, b) in enumerate(zip(pinned, fresh)):
        if a != b:
            return f"{name}: event {i} drift: pinned {a} != {b}"
    return (
        f"{name}: event count drift: pinned {len(pinned)} != {len(fresh)}"
    )
