"""The lexmin ladder owns its model and sends HiGHS what changes: the same
models, and the same answers, as when each of its LPs was a rebuilt and
re-diffed ``LinearProgram``.

The identity battery runs seeded ladders, the golden shapes and the
``serve-mixed`` submissions twice: on the product path, and on the
test-only oracle of ``tests/ladder_oracle.py`` (the old layout assembled by
``sparse.hstack``, passed by ``_model`` or diffed against the instance's
last optimum).  Before every HiGHS run the model the instance holds must be
the oracle's, and every :class:`~repro.core.lexmin.LexminResult` must be
the oracle's, ``x`` bit for bit.  The contract class pins what one seeded
run shows outside: its solve count, tags, presolve and fallback counters,
iteration histogram and chaos-injector calls, as the oracle path recorded
them.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from repro.chaos import ChaosConfig, chaos_solver
from repro.core import flowtime
from repro.core.lexmin import LexminWarmHint, lexmin_schedule
from repro.core.lp_formulation import ScheduleEntry, build_schedule_problem
from repro.model import ClusterCapacity
from repro.model.resources import ResourceVector
from repro.model.workflow import Workflow
from repro.obs import Observability
from repro.schedulers import make_scheduler
from repro.service.api import ServiceConfig
from repro.service.state import ServiceState
from repro.simulator.engine import Simulation
from repro.verify.golden import GOLDEN_CASES, run_golden
from repro.workloads.traces import generate_trace
from tests.ladder_oracle import oracle_ladders, recording
from tests.test_core_plan_ladder import _own_skyline
from tests.test_lp_backend import _ladder_problems


@contextmanager
def capturing(results: list):
    """Every planner ladder's :class:`LexminResult`, in order, into *results*."""
    real = flowtime.lexmin_schedule

    def capture(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flowtime, "lexmin_schedule", capture)
        yield


def assert_same_as_oracle(work) -> int:
    """Run *work* (which returns the results of its direct ladders) on both
    paths; the number of HiGHS runs compared."""
    paths = []
    for oracle in (False, True):
        results, models = [], []
        with recording(models), oracle_ladders(models) if oracle else nullcontext():
            with capturing(results):
                results += work()
        paths.append((results, models))
    (results, models), (want_results, want_models) = paths
    assert len(models) == len(want_models) > 0
    for index, (have, want) in enumerate(zip(models, want_models)):
        assert have == want, f"HiGHS run {index}: the model differs from the oracle's"
    assert len(results) == len(want_results) > 0
    for have, want in zip(results, want_results):
        assert (have.status, have.thetas, have.rounds, have.warm) == (
            want.status,
            want.thetas,
            want.rounds,
            want.warm,
        )
        assert (have.x is None) == (want.x is None)
        if have.x is not None:
            assert have.x.dtype == want.x.dtype and have.x.tobytes() == want.x.tobytes()
    return len(models)


class TestIdentityBattery:
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_ladders(self, seed):
        """Cold ladders, capped ladders, and hinted ones whose hint finishes
        the ladder or fails and hands it back to round 2."""
        problems = _ladder_problems(12, seed=seed)
        hints = [_own_skyline(problem) for problem in problems]
        failing = [
            None if hint is None else LexminWarmHint(hint.theta, 0 * hint.levels)
            for hint in hints
        ]

        def work():
            results = []
            for problem, hint, bad in zip(problems, hints, failing):
                results.append(lexmin_schedule(problem))
                results.append(lexmin_schedule(problem, max_rounds=1))
                results.append(lexmin_schedule(problem, warm_hint=hint))
                results.append(lexmin_schedule(problem, warm_hint=bad))
            return results

        assert assert_same_as_oracle(work) > len(problems) * 6

    def test_paper_formulation(self):
        """Presolve on the balancing LP too."""
        rng = np.random.default_rng(4)
        entries = []
        for index in range(8):
            release, window, parallel = (int(v) for v in rng.integers([0, 3, 2], [10, 10, 6]))
            entries.append(
                ScheduleEntry(
                    f"j{index}",
                    release,
                    release + window,
                    int(rng.integers(1, window * parallel // 2 + 1)),
                    ResourceVector(cpu=int(rng.integers(1, 4)), mem=int(rng.integers(1, 6))),
                    parallel,
                )
            )
        caps = np.tile([16.0, 40.0], (20, 1))
        problem = build_schedule_problem(entries, caps, ("cpu", "mem"), mode="paper")
        assert lexmin_schedule(problem).is_optimal
        assert assert_same_as_oracle(lambda: [lexmin_schedule(problem, max_rounds=3)]) >= 3

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_golden_shapes(self, name):
        def work():
            run_golden(GOLDEN_CASES[name])
            return []

        assert assert_same_as_oracle(work) > 0

    def test_serve_mixed_submissions(self):
        """The ``serve-mixed`` benchmark's 200 submissions, admitted and run
        out in process."""
        from bench.workloads import _serve_submissions

        submissions = _serve_submissions("identity")

        def work():
            state = ServiceState(
                ClusterCapacity.uniform(cpu=64, mem=128),
                ServiceConfig(slot_seconds=3600.0, adhoc_queue_limit=100_000),
            )
            for index, entity in enumerate(submissions):
                kind = "workflow" if isinstance(entity, Workflow) else "adhoc"
                state.submit(kind, entity, f"k{index}")
            assert state.run_out().finished
            return []

        assert assert_same_as_oracle(work) > 150


def test_a_planner_makes_its_instances_once():
    """Its ladders pass their models onto the planner's HiGHS instances,
    which the battery above holds to fresh ones: a round instance per
    presolve setting and one for balancing LPs, not two per ladder."""
    models, made, ladders = [], [], []
    with recording(models, made), capturing(ladders):
        _seeded_run(Observability())
    assert len(ladders) == 21 and len(made) <= 3


def _seeded_run(obs: Observability) -> None:
    capacity = ClusterCapacity.uniform(cpu=16, mem=32)
    trace = generate_trace(
        n_workflows=4,
        jobs_per_workflow=5,
        n_adhoc=6,
        capacity=capacity,
        workflow_spread_slots=6,
        seed=11,
    )
    Simulation(
        cluster=capacity,
        scheduler=make_scheduler("FlowTime"),
        workflows=trace.workflows,
        adhoc_jobs=trace.adhoc_jobs,
        obs=obs,
    ).run()


class TestObservableContract:
    #: Recorded on the oracle path (each LP a ``LinearProgram``).
    COUNTS = {
        "lexmin.warm.fallback": 19,
        "lp.solve.presolve.off": 41,
        "lp.solve.presolve.on": 1,
        "lp.solve.tag.balance": 21,
        "lp.solve.tag.round": 79,
    }
    SOLVES = 100
    ITERATIONS = (100, 24335, 967)  # count, sum, max

    def test_counts_and_iterations(self):
        obs = Observability()
        with chaos_solver(ChaosConfig(seed=3)) as injector:
            _seeded_run(obs)
        counts = {
            name: int(metric["value"])
            for name, metric in obs.registry.snapshot().items()
            if name.startswith(("lp.solve.", "lexmin."))
        }
        assert counts == self.COUNTS  # lp.solve.warm_fallback: none
        assert obs.histogram("lp.solve").count == self.SOLVES == injector.n_calls
        iterations = obs.histogram("lp.backend.highs.iterations")
        assert (iterations.count, int(iterations.sum), int(iterations.max)) == self.ITERATIONS

