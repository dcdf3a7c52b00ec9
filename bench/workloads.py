"""The four benchmark workloads: inputs from the seed, ops, outcome checks.

Each workload is a *fixed sequence of operations* run for several epochs on
fresh state.  :meth:`Workload.begin` builds everything an epoch needs from
the seed — that is the timed set-up — and returns an
:class:`Epoch` whose :meth:`~Epoch.ops` the epoch loop
(:mod:`bench.child`) times one by one.  Nothing in an epoch branches on
the wall clock: the service clock is frozen (``realtime`` with an hour-long
slot), arrivals are future-dated, and the load generator keeps exactly one
request in flight, so two epochs do byte-identical work (proved by the
``work_digest``).

The instance (cluster, DAGs, sizes, arrival slots) is drawn from
:data:`INSTANCE`, a constant.  ``seed`` salts every entity id, idempotency
key and journal line with an order-preserving prefix: the scheduling
problem is isomorphic across seeds, the bytes the program receives are
not.  The acceptance driver compares runs made with *different* seeds
against a 2-10 % bound, and a second instance of these workloads differs
by 2x (see README.md, "What the seed does"), so the seed cannot pick the
instance; ``selftest.py`` checks a second one.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.core.critical_path import critical_path_length
from repro.model.cluster import ClusterCapacity
from repro.model.job import Job, JobKind, TaskSpec
from repro.model.resources import CPU, MEM, ResourceVector
from repro.model.workflow import Workflow
from repro.obs import Observability, read_trace, use_obs
from repro.schedulers.registry import make_scheduler
from repro.service import (
    HttpServiceClient,
    QueueFullError,
    SchedulerService,
    ServiceConfig,
    ServiceError,
)
from repro.service.journal import read_journal
from repro.simulator.engine import SimulationConfig
from repro.simulator.metrics import adhoc_turnaround_seconds
from repro.simulator.runtime import make_engine_core
from repro.verify import ScheduleValidator, recompute_trace_metrics, validate_trace
from repro.workloads.arrivals import adhoc_stream
from repro.workloads.dag_generators import (
    chain_workflow,
    fork_join_workflow,
    layered_random_workflow,
)
from repro.workloads.recurring import RecurringWorkflow
from repro.workloads.traces import SyntheticTrace, generate_trace

__all__ = ["INSTANCE", "WORKLOADS", "Epoch", "EpochSummary", "Workload"]

#: Seeds the generators: the instance every run measures.  Not an option;
#: ``selftest.py`` patches it to check that a second instance passes too.
INSTANCE = 0

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class EpochSummary:
    """What :meth:`Epoch.finish` reports once the ops have run."""

    #: Folded into the epoch's work digest after the per-op outcomes; the
    #: same in every epoch of a run.
    work: dict
    #: What only a verification epoch learns (a drain's result); folded
    #: into the run's digest on top of the epoch digest.
    verified_work: dict = field(default_factory=dict)
    #: ``deadline_met_share`` / ``accept_share`` / ``adhoc_turnaround_slots``
    #: (verification epochs only; exact because the work is deterministic).
    quality: dict = field(default_factory=dict)
    #: Failed checks (verification epochs only); empty means correct.
    violations: list = field(default_factory=list)
    #: Seconds inside ``ScheduleValidator.validate`` / ``validate_trace``.
    validate_s: float = 0.0
    #: Span dump of a traced server child, if the epoch had one.
    span_file: str | None = None


class Epoch:
    """One run of a workload's op sequence on fresh state."""

    #: Seconds of :meth:`Workload.begin` spent generating inputs.
    generate_s = 0.0

    def ops(self) -> Iterator[Callable[[], object]]:
        """The operations, in order; the loop times each call."""
        raise NotImplementedError

    def outcome(self, raw: object) -> tuple:
        """What an op *did*, for the digest (called outside the timing)."""
        raise NotImplementedError

    def failed(self, raw: object) -> bool:
        """True when the op got no answer (transport/internal error)."""
        return False

    def finish(self) -> EpochSummary:
        """Tear down; in a verification epoch also check the outputs."""
        raise NotImplementedError

    def abort(self) -> None:
        """Best-effort teardown after an exception (no checks)."""


class Workload:
    """Base: holds ``(seed, workdir)`` and the salt of every id."""

    name = ""
    #: The program under test runs in child processes of the measuring
    #: process (their peak RSS is the one to report), not inside it.
    program_is_a_child = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        # Every id of one run shares this prefix, so the lexicographic
        # order among ids — which the scheduler uses to break ties — is the
        # same for every seed.
        self.salt = f"s{seed}."

    def begin(self, *, verify: bool, traced: bool, index: int) -> Epoch:
        """Fresh state for epoch *index*: inputs from the seed, then the
        program around them.  The epoch loop times the whole call."""
        start = time.perf_counter()
        inputs = self.generate()
        generate_s = time.perf_counter() - start
        epoch = self.build(inputs, verify=verify, traced=traced, index=index)
        epoch.generate_s = generate_s
        return epoch

    def generate(self):
        """The epoch's inputs, from the seed alone."""
        raise NotImplementedError

    def build(self, inputs, *, verify: bool, traced: bool, index: int) -> Epoch:
        """Construct (or spawn) the program under test around *inputs*."""
        raise NotImplementedError


# -- helpers ---------------------------------------------------------------------


def _relabel_workflow(workflow: Workflow, salt: str) -> Workflow:
    wid = salt + workflow.workflow_id
    jobs = [
        replace(job, job_id=salt + job.job_id, workflow_id=wid)
        for job in workflow.jobs
    ]
    edges = [(salt + a, salt + b) for a, b in workflow.edges]
    return Workflow.from_jobs(
        wid,
        jobs,
        edges,
        workflow.start_slot,
        workflow.deadline_slot,
        name=workflow.name,
    )


def _relabel_trace(trace: SyntheticTrace, salt: str) -> SyntheticTrace:
    return SyntheticTrace(
        workflows=tuple(_relabel_workflow(wf, salt) for wf in trace.workflows),
        adhoc_jobs=tuple(
            replace(job, job_id=salt + job.job_id) for job in trace.adhoc_jobs
        ),
    )


def _quality(result, n_submitted: int, n_accepted: int) -> dict:
    workflows = list(result.workflows.values())
    met = sum(1 for wf in workflows if wf.met_deadline)
    return {
        "deadline_met_share": met / len(workflows) if workflows else 0.0,
        "accept_share": n_accepted / n_submitted if n_submitted else 0.0,
        "adhoc_turnaround_slots": (
            adhoc_turnaround_seconds(result) / result.slot_seconds
        ),
    }


def _validate(cluster, trace: SyntheticTrace, windows, result) -> tuple[list, float]:
    validator = ScheduleValidator(
        cluster,
        workflows=trace.workflows,
        jobs=trace.adhoc_jobs,
        windows=windows,
    )
    start = time.perf_counter()
    report = validator.validate(result)
    elapsed = time.perf_counter() - start
    violations = [f"{v.check}: {v.message}" for v in report.violations]
    if not result.finished:
        violations.append("run did not finish")
    return violations, elapsed


def _journal_violations(journal: Path, accepted: set[str]) -> list[str]:
    """The journal must hold exactly what the client was told was accepted."""
    journaled = {
        getattr(record.entity, "workflow_id", None) or record.entity.job_id
        for record in read_journal(journal)[0]
    }
    if journaled == accepted:
        return []
    return [
        f"journal holds {len(journaled)} entities, the client was told "
        f"{len(accepted)} were accepted"
    ]


def _result_work(result) -> dict:
    """The end-of-run counters that pin down how much work an epoch did."""
    solves = result.phase_stats("lp.solve")
    return {
        "n_slots": result.n_slots,
        "planning_calls": result.planning_calls,
        "lp_solves": int(solves["count"]) if solves else 0,
        "completions": sorted(
            (wid, rec.completion_slot) for wid, rec in result.workflows.items()
        ),
        "granted_total": float(result.granted.sum()),
    }


# -- batch-mixed / batch-recurring -------------------------------------------------


class _BatchEpoch(Epoch):
    """Drive ``EngineCore.step()`` exactly as ``Simulation._run_loop`` does."""

    def __init__(self, cluster, trace: SyntheticTrace, verify: bool):
        self.cluster = cluster
        self.trace = trace
        self.verify = verify
        self.scheduler = make_scheduler("FlowTime")
        self.obs = Observability()
        # Verification epochs record per-slot execution rows so the
        # validator can also check demand conservation; they are untimed.
        self.config = SimulationConfig(record_execution=verify)
        self.core = make_engine_core(
            cluster, self.scheduler, self.config, self.obs
        )
        self.core.validate_cluster()
        for workflow in trace.workflows:
            self.core.add_workflow(workflow)
        for job in trace.adhoc_jobs:
            self.core.add_adhoc(job)
        self._stack = ExitStack()
        self._stack.enter_context(use_obs(self.obs))
        self.core.emit_run_start()

    def ops(self):
        core = self.core
        max_slots = self.config.max_slots
        while not core.finished and core.slot < max_slots:
            yield core.step

    def outcome(self, raw) -> tuple:
        return (sum(raw.executed.values()), len(raw.completions))

    def finish(self) -> EpochSummary:
        core = self.core
        core.flush_pending_events()
        core.finalize_metrics()
        finished = core.finished
        core.emit_run_end(finished)
        result = core.result(finished)
        self._stack.close()
        summary = EpochSummary(work=_result_work(result))
        if self.verify:
            n = len(self.trace.workflows) + len(self.trace.adhoc_jobs)
            summary.quality = _quality(result, n, n)
            summary.violations, summary.validate_s = _validate(
                self.cluster, self.trace, self.scheduler.windows, result
            )
        return summary

    def abort(self) -> None:
        self._stack.close()


class _BatchWorkload(Workload):
    """``generate`` returns ``(cluster, trace)``; the program is an engine
    core with the default FlowTime scheduler."""

    def build(self, inputs, *, verify, traced, index):
        return _BatchEpoch(*inputs, verify)


class BatchMixed(_BatchWorkload):
    """The paper's Fig. 4 regime, in-process: 5 workflows x 18 jobs on a
    500-CPU cluster plus 40 ad-hoc jobs, default ``FlowTimeScheduler``."""

    name = "batch-mixed"

    def generate(self):
        cluster = ClusterCapacity.uniform(cpu=500, mem=1024)
        trace = generate_trace(capacity=cluster, seed=INSTANCE)
        return cluster, _relabel_trace(trace, self.salt)


#: (kind, size knob, task count, task slots, cpu, mem) per recurring template.
_RECURRING_TEMPLATES = (
    ("chain", 3, 6, 2, 2, 4),
    ("fork_join", 3, 4, 2, 2, 4),
    ("chain", 4, 5, 1, 1, 2),
    ("fork_join", 2, 6, 2, 1, 2),
    ("chain", 2, 8, 2, 2, 2),
    ("fork_join", 4, 3, 1, 2, 4),
    ("chain", 3, 4, 3, 1, 2),
    ("fork_join", 3, 5, 2, 1, 1),
    ("chain", 5, 3, 1, 2, 4),
    ("fork_join", 2, 8, 1, 1, 2),
)
_RECURRING_INSTANCES = 24
_RECURRING_WINDOW = 30
_RECURRING_PERIOD = 38


class BatchRecurring(_BatchWorkload):
    """Recurring templates stamped into many instances with a period longer
    than the deadline window, plus a thin ad-hoc stream: the plan cache
    hits instead of the cold ladder and idle-gap slots dominate."""

    name = "batch-recurring"

    def generate(self):
        cluster = ClusterCapacity.uniform(cpu=64, mem=128)
        rng = np.random.default_rng(INSTANCE)
        order = rng.permutation(len(_RECURRING_TEMPLATES))
        workflows = []
        for slot, template in enumerate(order):
            kind, size, count, duration, cpu, mem = _RECURRING_TEMPLATES[template]
            spec = TaskSpec(
                count=count,
                duration_slots=duration,
                demand=ResourceVector({CPU: cpu, MEM: mem}),
            )
            build = chain_workflow if kind == "chain" else fork_join_workflow
            skeleton = build(f"rt{slot:02d}", size, 0, _RECURRING_WINDOW, spec)
            recurring = RecurringWorkflow(skeleton, _RECURRING_PERIOD)
            workflows.extend(recurring.instances(_RECURRING_INSTANCES))
        horizon = _RECURRING_PERIOD * _RECURRING_INSTANCES
        adhoc = adhoc_stream(
            30,
            rate_per_slot=30 / horizon,
            horizon_slots=horizon,
            seed=INSTANCE + 1,
        )
        trace = SyntheticTrace(
            workflows=tuple(workflows), adhoc_jobs=tuple(adhoc)
        )
        return cluster, _relabel_trace(trace, self.salt)


# -- admit-fill ----------------------------------------------------------------------

_FILL_WORKFLOWS = 64
#: One ad-hoc submission after every this-many workflows (the queue +
#: journal path with no admission LP), so ad-hoc turnaround is defined.
_FILL_ADHOC_AFTER = 8


def _frozen_service_config(journal: Path) -> ServiceConfig:
    """Shipped defaults, except the clock: ``realtime`` with an hour-long
    slot pins the service at slot 0 for the whole submission phase, so
    admission never races the stepping loop."""
    return ServiceConfig(
        realtime=True,
        slot_seconds=3600.0,
        batch_window_s=0.0,
        journal_path=str(journal),
    )


def _fill_submissions(salt: str, cluster) -> list:
    """6-job layered DAGs, all released at slot 0, deadlines 4-9x the
    critical path, with an ad-hoc job after every eighth.

    Tasks are short (1-2 slots) so the verification epoch's drain — the
    plan path over the whole committed set — stays a few seconds.
    """
    rng = np.random.default_rng(1000 + INSTANCE)

    def spec(_index: int) -> TaskSpec:
        cores = int(rng.choice([1, 2, 2]))
        return TaskSpec(
            count=int(rng.integers(4, 16)),
            duration_slots=int(rng.integers(1, 3)),
            demand=ResourceVector(
                {CPU: cores, MEM: cores * int(rng.choice([2, 3, 4]))}
            ),
        )

    submissions: list = []
    for index in range(_FILL_WORKFLOWS):
        wid = f"{salt}fw{index:03d}"
        skeleton = layered_random_workflow(
            wid, 6, int(rng.integers(2, 5)), 0, 10_000, rng,
            edge_density=0.35, spec_of=spec,
        )
        cp = critical_path_length(skeleton, cluster, cluster_aware=True)
        deadline = max(int(round(cp * float(rng.uniform(4.0, 9.0)))), cp + 1)
        submissions.append(
            Workflow.from_jobs(wid, skeleton.jobs, skeleton.edges, 0, deadline)
        )
        if (index + 1) % _FILL_ADHOC_AFTER == 0:
            submissions.append(
                Job(
                    job_id=f"{salt}fa{index:03d}",
                    tasks=TaskSpec(
                        count=int(rng.integers(2, 12)),
                        duration_slots=int(rng.integers(1, 4)),
                        demand=ResourceVector({CPU: 1, MEM: 2}),
                    ),
                    kind=JobKind.ADHOC,
                    arrival_slot=int(rng.integers(0, 20)),
                )
            )
    return submissions


def _split(submissions, accepted_ids) -> SyntheticTrace:
    """The accepted part of a submission list, as a validator workload."""
    return SyntheticTrace(
        workflows=tuple(
            s for s in submissions
            if isinstance(s, Workflow) and s.workflow_id in accepted_ids
        ),
        adhoc_jobs=tuple(
            s for s in submissions
            if isinstance(s, Job) and s.job_id in accepted_ids
        ),
    )


class _FillEpoch(Epoch):
    def __init__(self, cluster, submissions, journal: Path, salt: str, verify: bool):
        self.cluster = cluster
        self.submissions = submissions
        self.journal = journal
        self.salt = salt
        self.verify = verify
        self.accepted: set[str] = set()
        self.service = SchedulerService(
            cluster, _frozen_service_config(journal)
        ).start()

    def ops(self):
        service = self.service
        for index, entity in enumerate(self.submissions):
            submit = (
                service.submit_workflow
                if isinstance(entity, Workflow)
                else service.submit_adhoc
            )
            key = f"{self.salt}k{index}"
            yield lambda submit=submit, entity=entity, key=key, index=index: (
                submit(entity, idempotency_key=key, request_id=f"op-{index}")
            )

    def outcome(self, raw) -> tuple:
        if raw.accepted:
            self.accepted.add(raw.id)
        return (raw.id, raw.accepted, raw.reason)

    def finish(self) -> EpochSummary:
        status = self.service.status()
        work = {
            "accepted_workflows": status.accepted_workflows,
            "rejected_workflows": status.rejected_workflows,
            "accepted_adhoc": status.accepted_adhoc,
            "slot": status.slot,
        }
        if not self.verify:
            # Timed epochs stop here: admission is what the workload
            # measures, and running the plan path out would triple it.
            self.service.kill(timeout=30.0)
            return EpochSummary(work=work)
        result = self.service.drain(timeout=150.0)
        summary = EpochSummary(work=work, verified_work=_result_work(result))
        summary.quality = _quality(
            result, len(self.submissions), len(self.accepted)
        )
        trace = _split(self.submissions, self.accepted)
        summary.violations, summary.validate_s = _validate(
            self.cluster, trace, self.service.scheduler.windows, result
        )
        summary.violations += _journal_violations(self.journal, self.accepted)
        if status.slot != 0:
            summary.violations.append(
                f"clock moved to slot {status.slot} during the fill"
            )
        return summary

    def abort(self) -> None:
        self.service.kill(timeout=30.0)


class AdmitFill(Workload):
    """In-process ``SchedulerService`` with a frozen clock and an fsync'd
    journal, filled with 64 six-job DAGs; the last few find the cluster
    saturated and a handful are infeasible on their own, so the reject
    path runs (accept share about 0.8)."""

    name = "admit-fill"

    def generate(self):
        cluster = ClusterCapacity.uniform(cpu=420, mem=840)
        return cluster, _fill_submissions(self.salt, cluster)

    def build(self, inputs, *, verify, traced, index):
        journal = self.workdir / f"fill-{index}.jsonl"
        return _FillEpoch(*inputs, journal, self.salt, verify)


# -- serve-mixed -----------------------------------------------------------------------

_SERVE_SUBMISSIONS = 200
_SERVE_WORKFLOW_EVERY = 5
_SERVE_CPU, _SERVE_MEM = 64, 128
_SERVE_SLOT_SECONDS = 3600.0

_URL_LINE = re.compile(r"serving \S+ on (http://\S+)")
_SUMMARY_LINES = {
    "drained": re.compile(r"drained after (\d+) slots \(finished=(True|False)\)"),
    "workflows": re.compile(
        r"workflows: (\d+) accepted, (\d+) rejected, (\d+) missed deadline"
    ),
    "adhoc": re.compile(r"ad-hoc:\s+(\d+) accepted, (\d+) shed"),
}


def _serve_submissions(salt: str) -> list:
    """loadgen's mix with future-dated arrivals: every fifth submission a
    4-job diamond workflow starting in [0, 60), the rest ad-hoc jobs
    arriving in [0, 80).  The clock is frozen while they are submitted,
    so they unfold — deterministically, in virtual time — inside the
    drain."""
    rng = np.random.default_rng(2000 + INSTANCE)
    unit = ResourceVector({CPU: 1, MEM: 1})
    submissions: list = []
    for index in range(_SERVE_SUBMISSIONS):
        if index % _SERVE_WORKFLOW_EVERY == 0:
            wid = f"{salt}sw{index:03d}"
            spec = TaskSpec(count=2, duration_slots=2, demand=unit)
            jobs = [
                Job(job_id=f"{wid}-j{j}", tasks=spec, workflow_id=wid)
                for j in range(4)
            ]
            edges = [
                (jobs[0].job_id, jobs[1].job_id),
                (jobs[0].job_id, jobs[2].job_id),
                (jobs[1].job_id, jobs[3].job_id),
                (jobs[2].job_id, jobs[3].job_id),
            ]
            start = int(rng.integers(0, 60))
            submissions.append(
                Workflow.from_jobs(wid, jobs, edges, start, start + 30)
            )
        else:
            submissions.append(
                Job(
                    job_id=f"{salt}sa{index:03d}",
                    tasks=TaskSpec(count=8, duration_slots=2, demand=unit),
                    kind=JobKind.ADHOC,
                    arrival_slot=int(rng.integers(0, 80)),
                )
            )
    return submissions


class _Drain:
    """What the drain op returns: the server's exit and its summary."""

    def __init__(self, returncode: int, stdout: str):
        self.returncode = returncode
        self.summary = {}
        for key, pattern in _SUMMARY_LINES.items():
            match = pattern.search(stdout)
            if match is not None:
                self.summary[key] = match.groups()


class _ServeEpoch(Epoch):
    def __init__(
        self, submissions, workdir: Path, salt: str, verify: bool,
        traced: bool, index: int,
    ):
        self.submissions = submissions
        self.salt = salt
        self.verify = verify
        self.accepted: set[str] = set()
        self.n_accepted = 0
        self.journal = workdir / f"serve-{index}.jsonl"
        self.trace_out = workdir / f"serve-{index}.trace.jsonl"
        self.span_file = workdir / f"serve-{index}.spans.json" if traced else None
        module = "bench.serve_traced" if traced else "repro.cli"
        command = [
            sys.executable, "-m", module, "serve",
            "--port", "0",
            "--realtime", "--slot-seconds", str(_SERVE_SLOT_SECONDS),
            "--journal", str(self.journal),
            # The frozen clock never retires an ad-hoc job, so all 160
            # stay queued; the default limit of 256 is for a live clock.
            "--queue-limit", "100000",
            "--cpu", str(_SERVE_CPU), "--mem", str(_SERVE_MEM),
        ]
        if verify:
            command += ["--trace-out", str(self.trace_out)]
        env = dict(os.environ)
        if self.span_file is not None:
            env["BENCH_SPAN_FILE"] = str(self.span_file)
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        try:
            line = self.process.stdout.readline()
            match = _URL_LINE.search(line)
            if match is None:
                raise RuntimeError(f"server did not announce a URL: {line!r}")
            # One attempt per request: a retry would be a second op.
            self.client = HttpServiceClient(match.group(1), max_retries=0)
            deadline = time.monotonic() + 30.0
            while not self.client.ready():
                if time.monotonic() > deadline:
                    raise RuntimeError("server never became ready")
                time.sleep(0.01)
        except BaseException:
            self.abort()
            raise

    def ops(self):
        client = self.client
        for index, entity in enumerate(self.submissions):
            submit = (
                client.submit_workflow
                if isinstance(entity, Workflow)
                else client.submit_adhoc
            )
            key = f"{self.salt}k{index}"
            yield lambda submit=submit, entity=entity, key=key, index=index: (
                self._submit(submit, entity, key, index)
            )
        yield self._drain

    @staticmethod
    def _submit(submit, entity, key, index):
        try:
            return submit(entity, idempotency_key=key, request_id=f"op-{index}")
        except (QueueFullError, ServiceError, OSError) as error:
            return error

    def _drain(self) -> _Drain:
        """SIGTERM -> process exit: the server stops admitting, runs the
        future-dated work out in virtual time, prints its summary."""
        self.process.send_signal(signal.SIGTERM)
        stdout, _ = self.process.communicate(timeout=150.0)
        return _Drain(self.process.returncode, stdout)

    def outcome(self, raw) -> tuple:
        if isinstance(raw, _Drain):
            self.drain = raw
            return ("drain", raw.returncode, sorted(raw.summary.items()))
        if isinstance(raw, Exception):
            return ("error", type(raw).__name__)
        if raw.accepted:
            self.accepted.add(raw.id)
        return (raw.id, raw.accepted, raw.reason)

    def failed(self, raw) -> bool:
        if isinstance(raw, _Drain):
            return raw.returncode != 0 or len(raw.summary) != len(_SUMMARY_LINES)
        return isinstance(raw, Exception)

    def finish(self) -> EpochSummary:
        summary = EpochSummary(
            work={"accepted": len(self.accepted)},
            span_file=str(self.span_file) if self.span_file else None,
        )
        if not self.verify:
            return summary
        violations = summary.violations
        trace = _split(self.submissions, self.accepted)
        drain = self.drain.summary
        if len(drain) != len(_SUMMARY_LINES):
            violations.append(f"drain summary incomplete: {sorted(drain)}")
            return summary
        n_workflows = sum(isinstance(s, Workflow) for s in self.submissions)
        ledger = {
            "drained": drain["drained"][1] == "True",
            "workflows accepted": int(drain["workflows"][0]) == len(trace.workflows),
            "workflows rejected": int(drain["workflows"][1])
            == n_workflows - len(trace.workflows),
            "ad-hoc accepted": int(drain["adhoc"][0]) == len(trace.adhoc_jobs),
            "ad-hoc shed": int(drain["adhoc"][1]) == 0,
        }
        violations += [
            f"drain summary disagrees with the client ledger on {name}: {drain}"
            for name, agrees in ledger.items()
            if not agrees
        ]
        violations += _journal_violations(self.journal, self.accepted)
        # The served run's event trace, re-checked and re-scored by the
        # independent trace validator (the client never sees the
        # server's SimulationResult).
        events = read_trace(self.trace_out)
        cluster = ClusterCapacity.uniform(cpu=_SERVE_CPU, mem=_SERVE_MEM)
        start = time.perf_counter()
        report = validate_trace(events, trace=trace, capacity=cluster)
        summary.validate_s = time.perf_counter() - start
        violations += [f"{v.check}: {v.message}" for v in report.violations]
        scored = recompute_trace_metrics(
            events, trace=trace, slot_seconds=_SERVE_SLOT_SECONDS
        )
        missed = int(scored["workflows_missed"])
        if missed != int(drain["workflows"][2]):
            violations.append(
                f"trace shows {missed} missed workflows, the drain summary "
                f"{drain['workflows'][2]}"
            )
        summary.quality = {
            "deadline_met_share": (
                1.0 - missed / len(trace.workflows) if trace.workflows else 0.0
            ),
            "accept_share": len(self.accepted) / len(self.submissions),
            "adhoc_turnaround_slots": (
                (scored["adhoc_turnaround_s"] or 0.0) / _SERVE_SLOT_SECONDS
            ),
        }
        return summary

    def abort(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()


class ServeMixed(Workload):
    """The whole stack: ``repro serve`` as a subprocess per epoch, driven
    over HTTP by the shipped ``HttpServiceClient`` with one request in
    flight, then SIGTERM; the drain is the last op."""

    name = "serve-mixed"
    program_is_a_child = True

    def generate(self):
        return _serve_submissions(self.salt)

    def build(self, inputs, *, verify, traced, index):
        return _ServeEpoch(
            inputs, self.workdir, self.salt, verify, traced, index
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (BatchMixed, BatchRecurring, AdmitFill, ServeMixed)
}
