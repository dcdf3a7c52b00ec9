"""Tests for Lemma 1 and the λ-representation scalarisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lexmin import lexmin_schedule
from repro.core.lp_formulation import ScheduleEntry, build_schedule_problem
from repro.model.resources import CPU, MEM, ResourceVector
from tests.scalarization import g_scalarization, lex_leq, scalarized_schedule

RES = (CPU, MEM)


def entry(job_id="j", release=0, deadline=4, units=4, cores=1, mem=1, parallel=4):
    return ScheduleEntry(
        job_id=job_id,
        release=release,
        deadline=deadline,
        units=units,
        unit_demand=ResourceVector({CPU: cores, MEM: mem}),
        max_parallel=parallel,
    )


def tiny_caps(horizon, cpu=6, mem=6):
    caps = np.zeros((horizon, 2))
    caps[:, 0], caps[:, 1] = cpu, mem
    return caps


class TestLemma1:
    """g(u) <= g(v) iff sorted-descending u is lexicographically <= v."""

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5),
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5),
    )
    def test_equivalence_on_integer_vectors(self, u, v):
        # Lemma 1 is stated for integer vectors u, v in Z^k with k = dim.
        if len(u) != len(v):
            v = (v * len(u))[: len(u)]
        k = max(len(u), 2)
        gu, gv = g_scalarization(u, k), g_scalarization(v, k)
        if gu < gv - 1e-9:
            assert lex_leq(u, v)
        if lex_leq(u, v) and not lex_leq(v, u):  # strict domination
            assert gu < gv + 1e-9

    def test_examples_from_the_ordering(self):
        # max component dominates: [2, 0] > [1, 1] in minimax terms.
        assert lex_leq([1, 1], [2, 0])
        assert not lex_leq([2, 0], [1, 1])
        assert g_scalarization([1, 1], 2) < g_scalarization([2, 0], 2)

    def test_lex_leq_reflexive(self):
        assert lex_leq([3, 1, 2], [2, 1, 3])  # same multiset

    def test_lex_leq_length_mismatch(self):
        with pytest.raises(ValueError):
            lex_leq([1], [1, 2])


class TestScalarizedSchedule:
    def test_matches_iterative_lexmin_minimax(self):
        entries = [entry(units=4, deadline=4)]
        problem = build_schedule_problem(entries, tiny_caps(4), RES)
        x_scalar = scalarized_schedule(problem)
        assert x_scalar is not None
        result = lexmin_schedule(problem, front_load=False)
        util_scalar = np.sort(problem.utilisation(x_scalar))[::-1]
        util_lexmin = np.sort(result.utilisation)[::-1]
        # Both are lexicographic minimax optima of the same problem.
        assert np.allclose(util_scalar, util_lexmin, atol=1e-6)

    def test_two_jobs_flat_skyline(self):
        entries = [
            entry(job_id="a", units=4, deadline=4),
            entry(job_id="b", units=4, deadline=4),
        ]
        problem = build_schedule_problem(entries, tiny_caps(4, cpu=4, mem=4), RES)
        x = scalarized_schedule(problem)
        util = problem.utilisation(x)
        # 8 units over 4 slots on 4 cores: perfectly flat at 0.5.
        assert util.max() == pytest.approx(0.5, abs=1e-6)
        assert util.min() == pytest.approx(0.5, abs=1e-6)

    def test_demands_met(self):
        entries = [entry(units=5, deadline=3, parallel=3)]
        problem = build_schedule_problem(entries, tiny_caps(3), RES)
        x = scalarized_schedule(problem)
        assert float(x.sum()) == pytest.approx(5.0, abs=1e-6)

    def test_infeasible_returns_none(self):
        entries = [entry(units=30, deadline=2, parallel=30)]
        problem = build_schedule_problem(entries, tiny_caps(2), RES)
        assert scalarized_schedule(problem) is None

    def test_large_instance_rejected(self):
        entries = [entry(units=50, deadline=60, parallel=4)]
        caps = np.zeros((60, 2))
        caps[:, 0], caps[:, 1] = 500, 1000
        problem = build_schedule_problem(entries, caps, RES)
        with pytest.raises(ValueError, match="too large"):
            scalarized_schedule(problem)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_tiny_instances_agree_with_lexmin(self, seed):
        rng = np.random.default_rng(seed)
        entries = []
        for i in range(int(rng.integers(1, 4))):
            release = int(rng.integers(0, 2))
            length = int(rng.integers(2, 4))
            parallel = int(rng.integers(1, 4))
            units = int(rng.integers(1, length * parallel + 1))
            entries.append(
                entry(
                    job_id=f"j{i}",
                    release=release,
                    deadline=release + length,
                    units=units,
                    parallel=parallel,
                )
            )
        horizon = max(e.deadline for e in entries)
        problem = build_schedule_problem(entries, tiny_caps(horizon), RES)
        x_scalar = scalarized_schedule(problem)
        result = lexmin_schedule(problem, front_load=False)
        assert (x_scalar is None) == (not result.is_optimal)
        if x_scalar is None:
            return
        util_scalar = np.sort(problem.utilisation(x_scalar))[::-1]
        util_lexmin = np.sort(result.utilisation)[::-1]
        # The scalarised LP solves the paper's *integer* program (Lemma 1 is
        # stated for integer vectors; the λ-breakpoints are integer loads),
        # while the iterative lexmin solves the continuous relaxation — so
        # its minimax can only be lower, and by less than one integral step
        # of the tightest cell.
        min_cap = min(problem.cap_of_cell(c) for c in range(len(problem.util_cells)))
        assert util_scalar[0] >= util_lexmin[0] - 1e-6
        assert util_scalar[0] <= util_lexmin[0] + 1.0 / min_cap + 1e-6
