"""Tests for the scheduling-LP builder, including Lemma 2 (TU structure)."""

import numpy as np
import pytest

from repro.core.lp_formulation import ScheduleEntry, build_schedule_problem
from repro.model.resources import CPU, MEM, ResourceVector
from tests.unimodular import (
    has_consecutive_ones_columns,
    is_totally_unimodular,
)

RES = (CPU, MEM)


def entry(job_id="j", release=0, deadline=4, units=6, cores=2, mem=4, parallel=3):
    return ScheduleEntry(
        job_id=job_id,
        release=release,
        deadline=deadline,
        units=units,
        unit_demand=ResourceVector({CPU: cores, MEM: mem}),
        max_parallel=parallel,
    )


def caps(horizon=6, cpu=20, mem=40):
    arr = np.zeros((horizon, 2))
    arr[:, 0] = cpu
    arr[:, 1] = mem
    return arr


class TestScheduleEntry:
    def test_validation(self):
        with pytest.raises(ValueError):
            entry(release=-1)
        with pytest.raises(ValueError):
            entry(release=3, deadline=3)
        with pytest.raises(ValueError):
            entry(units=0)
        with pytest.raises(ValueError):
            entry(parallel=0)

    def test_total_demand_is_sri(self):
        e = entry(units=6, cores=2)
        assert e.total_demand(CPU) == 12


class TestCoupledMode:
    def test_one_variable_per_window_slot(self):
        problem = build_schedule_problem([entry(release=1, deadline=4)], caps(), RES)
        assert problem.n_vars == 3
        assert [m[1] for m in problem.var_meta] == [1, 2, 3]

    def test_demand_equality_per_job(self):
        problem = build_schedule_problem(
            [entry(units=6), entry(job_id="k", units=4)], caps(), RES
        )
        assert problem.a_eq.shape[0] == 2
        assert list(problem.b_eq) == [6.0, 4.0]

    def test_util_rows_couple_resources(self):
        problem = build_schedule_problem([entry(cores=2, mem=4)], caps(), RES)
        # Each (slot, r) row carries the per-task demand as coefficient.
        dense = problem.a_util.toarray()
        cells = problem.util_cells
        cpu_rows = [k for k, (t, r) in enumerate(cells) if r == 0]
        mem_rows = [k for k, (t, r) in enumerate(cells) if r == 1]
        assert all(set(dense[k][dense[k] != 0]) == {2.0} for k in cpu_rows)
        assert all(set(dense[k][dense[k] != 0]) == {4.0} for k in mem_rows)

    def test_per_slot_caps_bound_variables(self):
        problem = build_schedule_problem([entry(units=10, parallel=3)], caps(), RES)
        assert np.all(problem.var_ub == 3.0)

    def test_deadline_beyond_horizon_rejected(self):
        with pytest.raises(ValueError):
            build_schedule_problem([entry(deadline=10)], caps(horizon=4), RES)

    def test_empty_entries_rejected(self):
        with pytest.raises(ValueError):
            build_schedule_problem([], caps(), RES)

    def test_utilisation_helper(self):
        problem = build_schedule_problem([entry(release=0, deadline=2, units=2)], caps(), RES)
        x = np.array([2.0, 0.0])  # 2 units in slot 0
        util = problem.utilisation(x)
        # slot 0: cpu 4/20, mem 8/40 -> both 0.2; other cells 0.
        assert util.max() == pytest.approx(0.2)


class TestPaperMode:
    def test_one_equality_per_job_resource(self):
        problem = build_schedule_problem(
            [entry(units=6, cores=2, mem=4)], caps(), RES, mode="paper"
        )
        assert problem.a_eq.shape[0] == 2  # (job, cpu) and (job, mem)
        assert sorted(problem.b_eq) == [12.0, 24.0]  # s_i^cpu, s_i^mem

    def test_equality_block_is_interval_matrix(self):
        entries = [
            entry(job_id="a", release=0, deadline=3),
            entry(job_id="b", release=1, deadline=5),
        ]
        problem = build_schedule_problem(entries, caps(), RES, mode="paper")
        assert has_consecutive_ones_columns(problem.a_eq.toarray())

    def test_full_constraint_matrix_is_tu_small(self):
        """Lemma 2 verified exactly on a small instance: demand equalities
        stacked with capacity rows form a totally unimodular matrix."""
        entries = [entry(job_id="a", release=0, deadline=2, units=2)]
        problem = build_schedule_problem(entries, caps(horizon=2), RES, mode="paper")
        full = np.vstack([problem.a_eq.toarray(), problem.a_util.toarray()])
        assert is_totally_unimodular(full)

    def test_paper_mode_coefficients_are_unit(self):
        problem = build_schedule_problem([entry()], caps(), RES, mode="paper")
        data = problem.a_util.toarray()
        assert set(np.unique(data)) <= {0.0, 1.0}

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            build_schedule_problem([entry()], caps(), RES, mode="magic")
