"""Metrics matching the paper's evaluation (Sec. VII-A "Metrics").

The paper reports, per algorithm: the distribution of (completion time -
deadline) for deadline-aware jobs (Fig. 4a), the number of jobs that miss
their deadlines (Fig. 4b), the average job turnaround time of ad-hoc jobs
(Fig. 4c), and the number of workflows meeting their deadlines.

Per-*job* deadlines are not a property of the workload (only workflows carry
deadlines); the evaluation uses the decomposed estimated deadlines as the
per-job ground truth, identical for every algorithm, which is what the
``windows`` argument carries.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.decomposition_types import JobWindow
from repro.core.placement import caps_array
from repro.model.cluster import ClusterCapacity
from repro.model.job import JobKind
from repro.simulator.result import JobRecord, SimulationResult


def _end_slot(record: JobRecord, n_slots: int) -> int:
    """The exclusive end-slot boundary of a job's execution.

    A job completing in slot ``s`` occupies ``[arrival, s]`` and its work
    ends at boundary ``s + 1``; an unfinished job's earliest possible
    completion is slot ``n_slots`` (the first un-simulated slot), so its
    end boundary is at least ``n_slots + 1``.  Both the delta and the miss
    metrics derive from this single convention: a job is late iff its end
    boundary exceeds its (exclusive) deadline slot, i.e. iff its deadline
    delta is strictly positive.
    """
    if record.completion_slot is not None:
        return record.completion_slot + 1
    return n_slots + 1


def adhoc_turnaround_seconds(result: SimulationResult) -> float:
    """Average job turnaround time of ad-hoc jobs, in seconds (Fig. 4c).

    Turnaround = completion time - submission time.  Jobs that never
    finished (simulation truncated) count with the simulation end as their
    completion, which under-reports — callers should check
    ``result.finished``; jobs the run ended before they arrived do not
    count.  With no ad-hoc jobs in the run the metric is undefined and
    NaN is returned (0.0 would read as "perfect turnaround" in reports);
    renderers print it as ``n/a``.
    """
    turnarounds = []
    for record in result.jobs_of_kind(JobKind.ADHOC):
        if record.arrival_slot >= result.n_slots:
            continue
        if record.completion_slot is not None:
            slots = record.turnaround_slots()
        else:
            slots = result.n_slots - record.arrival_slot
        turnarounds.append(slots)
    if not turnarounds:
        return float("nan")
    return float(np.mean(turnarounds)) * result.slot_seconds


def deadline_deltas_seconds(
    result: SimulationResult, windows: Mapping[str, JobWindow]
) -> dict[str, float]:
    """Per-job (completion time - deadline) in seconds (Fig. 4a).

    Negative values mean the job finished before its deadline.  Jobs missing
    from *windows* (ad-hoc jobs) are skipped; unfinished jobs use the
    simulation end, a lower bound on their lateness.
    """
    deltas: dict[str, float] = {}
    for job_id, window in windows.items():
        record = result.jobs.get(job_id)
        if record is None:
            continue
        end = _end_slot(record, result.n_slots)
        deltas[job_id] = (end - window.deadline_slot) * result.slot_seconds
    return deltas


def missed_jobs(
    result: SimulationResult, windows: Mapping[str, JobWindow]
) -> list[str]:
    """Deadline-aware jobs that finished after their deadline (Fig. 4b).

    Shares the end-slot convention of :func:`deadline_deltas_seconds`: a
    job is missed iff its delta is strictly positive, so a job finishing
    exactly at its deadline (``delta == 0.0`` s) is *not* missed.
    """
    missed = []
    for job_id, window in windows.items():
        record = result.jobs.get(job_id)
        if record is None:
            continue
        if _end_slot(record, result.n_slots) > window.deadline_slot:
            missed.append(job_id)
    return sorted(missed)


def missed_workflows(result: SimulationResult) -> list[str]:
    """Workflows that finished after their own (un-decomposed) deadline."""
    missed = []
    for wid, record in result.workflows.items():
        if record.completion_slot is None or not record.met_deadline:
            missed.append(wid)
    return sorted(missed)


def utilization_timeline(
    result: SimulationResult, cluster: ClusterCapacity
) -> np.ndarray:
    """Per-slot max-over-resources utilisation of *used* resources."""
    n_slots, n_resources = result.usage.shape
    caps = caps_array(cluster, 0, n_slots)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(caps > 0, result.usage / caps, 0.0)
    return ratio.max(axis=1) if n_resources else np.zeros(n_slots)


def summarize(
    result: SimulationResult, windows: Mapping[str, JobWindow]
) -> dict[str, float | None]:
    """One-line summary used by the comparison harness and reports.

    ``adhoc_turnaround_s`` is ``None`` when the workload had no ad-hoc
    jobs (the metric is undefined; renderers show ``n/a``).  When the run
    recorded observability metrics, scheduler decision-latency stats (the
    live-run Fig. 7 quantity) are included as ``decide_ms_*``.
    """
    deltas = deadline_deltas_seconds(result, windows)
    missed = missed_jobs(result, windows)
    turnaround = adhoc_turnaround_seconds(result)
    summary: dict[str, float | None] = {
        "n_deadline_jobs": float(len(windows)),
        "jobs_missed": float(len(missed)),
        "workflows_missed": float(len(missed_workflows(result))),
        "adhoc_turnaround_s": None if np.isnan(turnaround) else turnaround,
        "max_delta_s": max(deltas.values(), default=0.0),
        "mean_delta_s": float(np.mean(list(deltas.values()))) if deltas else 0.0,
        "finished": float(result.finished),
    }
    decide = result.phase_stats("sched.decide")
    if decide is not None and decide["count"]:
        summary["decide_ms_p50"] = decide["p50"] * 1000.0
        summary["decide_ms_p95"] = decide["p95"] * 1000.0
        summary["decide_ms_mean"] = decide["mean"] * 1000.0
        summary["decide_ms_max"] = decide["max"] * 1000.0
    return summary
