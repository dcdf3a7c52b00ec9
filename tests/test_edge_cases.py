"""Edge-case tests across modules: boundary conditions the main suites skip."""

import numpy as np
import pytest

from repro.core.allocation import greedy_fill, quantize_coupled
from repro.core.lexmin import lexmin_schedule
from repro.core.lp_formulation import ScheduleEntry, build_schedule_problem
from repro.model.resources import CPU, MEM, ResourceVector
from repro.schedulers.fifo import FifoScheduler
from repro.simulator.engine import Simulation, SimulationConfig
from repro.workloads.dag_generators import chain_workflow
from tests.conftest import adhoc_job, spec

RES = (CPU, MEM)


def entry(job_id="j", release=0, deadline=4, units=4, cores=1, mem=2, parallel=4):
    return ScheduleEntry(
        job_id=job_id,
        release=release,
        deadline=deadline,
        units=units,
        unit_demand=ResourceVector({CPU: cores, MEM: mem}),
        max_parallel=parallel,
    )


def caps(horizon, cpu=10, mem=20):
    arr = np.zeros((horizon, 2))
    arr[:, 0], arr[:, 1] = cpu, mem
    return arr


class TestLexminEdges:
    def test_max_rounds_zero_still_produces_plan(self):
        """With no minimax rounds at all, the final balancing solve under
        full-capacity caps still yields a feasible allocation."""
        problem = build_schedule_problem([entry()], caps(4), RES)
        result = lexmin_schedule(problem, max_rounds=0)
        assert result.is_optimal
        assert result.rounds == 0
        assert float(result.x.sum()) == pytest.approx(4.0, abs=1e-6)

    def test_single_slot_window(self):
        problem = build_schedule_problem(
            [entry(release=2, deadline=3, units=3, parallel=3)], caps(3), RES
        )
        result = lexmin_schedule(problem)
        assert result.is_optimal
        assert result.x[-1] == pytest.approx(3.0, abs=1e-6)

    def test_front_load_false_is_still_feasible(self):
        entries = [entry(job_id="a", units=4), entry(job_id="b", units=4)]
        problem = build_schedule_problem(entries, caps(4), RES)
        result = lexmin_schedule(problem, front_load=False)
        assert result.is_optimal
        resid = np.asarray(problem.a_eq @ result.x).ravel() - problem.b_eq
        assert np.allclose(resid, 0.0, atol=1e-6)

    def test_front_load_prefers_early_slots(self):
        # One job, capacity far above the flat rate: with front-loading the
        # earliest slots carry at least as much as the latest.
        problem = build_schedule_problem(
            [entry(units=6, deadline=6, parallel=6)], caps(6, cpu=100, mem=200), RES
        )
        x = lexmin_schedule(problem, max_rounds=1, front_load=True).x
        assert x[0] >= x[-1] - 1e-6


class TestQuantizeEdges:
    def test_zero_fractional_everywhere_pass2_fills(self):
        # A deliberately terrible fractional input (all zeros): the
        # quantiser's spill pass must still place every unit.
        problem = build_schedule_problem([entry(units=4)], caps(4), RES)
        grants = quantize_coupled(problem, np.zeros(problem.n_vars))
        assert grants["j"].sum() == 4

    def test_greedy_fill_empty_entries(self):
        grants = greedy_fill([], caps(4), RES)
        assert grants == {}

    def test_greedy_fill_release_respected(self):
        grants = greedy_fill([entry(release=2, deadline=4)], caps(4), RES)
        assert grants["j"][:2].sum() == 0


class TestFormulationEdges:
    def test_utilisation_zero_allocation(self):
        problem = build_schedule_problem([entry()], caps(4), RES)
        util = problem.utilisation(np.zeros(problem.n_vars))
        assert np.all(util == 0.0)

    def test_caps_shape_validation(self):
        with pytest.raises(ValueError, match="caps"):
            build_schedule_problem([entry()], np.zeros((4, 3)), RES)


class TestEngineEdges:
    def test_empty_workload_finishes_immediately(self, small_cluster):
        result = Simulation(small_cluster, FifoScheduler()).run()
        assert result.finished
        assert result.n_slots == 0

    def test_workflow_never_arriving_leaves_records_incomplete(self, small_cluster):
        wf = chain_workflow("late", 2, 400, 500)
        config = SimulationConfig(max_slots=10)
        result = Simulation(small_cluster, FifoScheduler(), workflows=[wf], config=config).run()
        assert not result.finished
        assert result.jobs["late-j0"].completion_slot is None
        assert result.workflows["late"].completion_slot is None

    def test_adhoc_arriving_last_slot(self, small_cluster):
        job = adhoc_job("a", arrival=0, count=1, duration=1)
        late = adhoc_job("z", arrival=3, count=1, duration=1)
        result = Simulation(small_cluster, FifoScheduler(), adhoc_jobs=[job, late]).run()
        assert result.finished
        assert result.jobs["z"].completion_slot == 3


class TestClusterViewConsistency:
    @staticmethod
    def _seen_per_slot(cluster, workflows):
        """slot -> deadline job ids in that slot's view, and the result."""
        seen = {}

        class Spy(FifoScheduler):
            def assign(self, view):
                seen[view.slot] = [j.job_id for j in view.deadline_jobs]
                return super().assign(view)

        return seen, Simulation(cluster, Spy(), workflows=workflows).run()

    def test_unarrived_workflow_hidden_from_view(self, small_cluster):
        # ``l`` is registered first and arrives later: views list jobs in
        # registration order once both are there.
        late = chain_workflow("l", 1, 3, 60, spec(count=1, duration=8))
        early = chain_workflow("e", 1, 0, 50, spec(count=1, duration=8))
        seen, _ = self._seen_per_slot(small_cluster, [late, early])
        assert seen[0] == ["e-j0"]
        assert all("l-j0" not in seen[slot] for slot in range(3))
        assert seen[3] == ["l-j0", "e-j0"]

    def test_completed_job_absent_from_next_view(self, small_cluster):
        chain = chain_workflow("c", 2, 0, 50)
        seen, result = self._seen_per_slot(small_cluster, [chain])
        done = result.jobs["c-j0"].completion_slot
        assert "c-j0" in seen[done]
        assert all("c-j0" not in ids for slot, ids in seen.items() if slot > done)
        assert seen[done + 1] == ["c-j1"]
