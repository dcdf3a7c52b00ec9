"""The slot-based batch simulation frontend.

One :class:`Simulation` run drives one scheduler over one *canned* workload
(workflows plus an ad-hoc stream) on one cluster.  Per slot:

1. deliver the slot's events (workflow/job arrivals, readiness transitions,
   completions from the previous slot) to the scheduler;
2. ask the scheduler for task-unit grants and validate them — grants to
   unknown, unready, or finished jobs and grants exceeding capacity are
   engine errors (they would be scheduler bugs, not workload conditions);
3. execute: each granted unit runs one *true* task-slot; a job whose
   estimate was wrong simply finishes earlier or later than the scheduler
   believed (the scheduler only ever sees believed progress);
4. process completions, releasing dependent jobs for the next slot.

Tasks are preemptible at slot boundaries with retained progress, the
executable reading of the paper's formulation (its demand constraint (2)
treats a job as a divisible amount of work placed freely in its window).

The slot machinery itself lives in :class:`~repro.simulator.runtime.
EngineCore`, shared with the online scheduler service
(:mod:`repro.service`): this class owns the *batch* clock — register the
whole workload up front, then spin slots as fast as possible until every
job completes (or ``max_slots``), jumping the gaps in which nothing is live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.model.cluster import ClusterCapacity
from repro.model.job import Job
from repro.model.workflow import Workflow
from repro.obs import Observability, use_obs
from repro.simulator.failures import FailureModel
from repro.simulator.nodes import NodeCluster
from repro.simulator.result import SimulationResult
from repro.simulator.runtime import EngineCore, make_engine_core

if TYPE_CHECKING:  # imported lazily to avoid a package import cycle
    from repro.schedulers.base import Scheduler


@dataclass(frozen=True)
class SimulationConfig:
    """Engine knobs.

    Attributes:
        slot_seconds: wall-clock duration of one slot (paper: 10 s).
        max_slots: hard stop; a run not finished by then returns
            ``finished=False`` with whatever completed.
        record_execution: keep a per-slot record of executed task units per
            job (enables Gantt rendering; costs memory on long runs).
        failures: optional failure model injecting progress setbacks.
        node_cluster: optional node-level topology; when set, granted task
            units must also *pack* onto individual nodes, and units lost to
            fragmentation are recorded (schedulers keep the aggregate view).
        verify: validate the run with :mod:`repro.verify`: the engine
            records execution rows, :class:`~repro.verify.ScheduleValidator`
            runs once over the final result, and the run raises
            :class:`~repro.verify.VerificationError` on any violation
            (``repro run --verify``).  Off by default — it turns on
            execution recording.

    A scheduler grant to an unknown, unready or finished job, or one that
    exceeds the slot's capacity, raises ``ValueError``.
    """

    slot_seconds: float = field(default=10.0, metadata={
        "flag": "--slot-seconds", "help": "modelled duration of one slot in seconds",
    })
    max_slots: int = 50_000
    record_execution: bool = False
    failures: FailureModel | None = None
    node_cluster: NodeCluster | None = None
    verify: bool = field(default=False, metadata={
        "flag": "--verify",
        "help": "validate the finished run independently (docs/VERIFICATION.md): "
        "every invariant over the recorded execution plus a reported-metric "
        "recomputation; exits 1 on any violation",
    })


class Simulation:
    """One simulation run binding a cluster, a scheduler, and a workload."""

    def __init__(
        self,
        cluster: ClusterCapacity,
        scheduler: "Scheduler",
        workflows: Iterable[Workflow] = (),
        adhoc_jobs: Iterable[Job] = (),
        config: SimulationConfig | None = None,
        obs: Observability | None = None,
    ):
        self.cluster = cluster
        self.scheduler = scheduler
        self.config = config or SimulationConfig()
        # Each simulation owns its observability handle (metrics registry +
        # trace sink); the default records metrics into a private registry
        # and traces nowhere.  It is installed as the context-wide handle
        # only while ``run`` executes, so concurrent/sequential simulations
        # never share metric state.
        self.obs = obs if obs is not None else Observability()
        self._core = make_engine_core(cluster, scheduler, self.config, self.obs)
        self._core.validate_cluster()
        for workflow in workflows:
            self._core.add_workflow(workflow)
        for job in adhoc_jobs:
            self._core.add_adhoc(job)

    @property
    def workflows(self) -> dict[str, Workflow]:
        return self._core.workflows

    # -- run loop --------------------------------------------------------------

    def run(self) -> SimulationResult:
        # Install this simulation's observability handle for the whole run
        # so the algorithm layers (decomposition, LP, admission) reached
        # from scheduler callbacks record into *this* registry.
        with use_obs(self.obs):
            return self._run_loop()

    def _run_loop(self) -> SimulationResult:
        core = self._core
        core.emit_run_start()
        max_slots = self.config.max_slots
        while not core.finished and core.slot < max_slots:
            # A gap with nothing live and nothing pending holds no
            # decision: jump it (outcome-identical to stepping through,
            # see tests/test_engine_equivalence.py).
            if not core.skip_idle(max_slots):
                core.step()
        core.flush_pending_events()
        core.finalize_metrics()
        finished = core.finished
        core.emit_run_end(finished)
        result = core.result(finished)
        if self.config.verify:
            result.verification = self._verify(core, result)
            # The snapshot above predates the validator's verify.* counters.
            result.metrics = self.obs.registry.snapshot()
        return result

    def _verify(self, core: EngineCore, result: SimulationResult):
        """End-of-run validation of a ``verify=True`` run.

        One independent pass of the :class:`~repro.verify.ScheduleValidator`
        over the final result; raises
        :class:`~repro.verify.VerificationError` on any violation (the
        contract of ``run --verify``).
        """
        from repro.verify import ScheduleValidator

        validator = ScheduleValidator(
            self.cluster,
            workflows=core.workflows.values(),
            jobs=[run.job for run in core.job_runs()],
            allow_setbacks=self.config.failures is not None,
        )
        report = validator.validate(result)
        report.raise_if_violations()
        return report
