"""EXT-4 — LP solver ablation: HiGHS vs the from-scratch reference simplex.

The paper used CPLEX; the reproduction solves every LP with scipy's HiGHS.
This bench calls HiGHS and the test suite's dense two-phase simplex
(``tests/simplex.py``) directly on the same round-1 lexmin LPs, checks they
find the same minimax optimum, and reports each one's latency.  On LPs this
small the two take about 2 ms each; the gap opens with size (seconds
against milliseconds on the ~500-1,100-variable LPs of a mixed workload,
docs/PERFORMANCE.md).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lexmin import assemble_round_pieces, build_round_lp
from repro.core.lp_formulation import ScheduleEntry, build_schedule_problem
from repro.lp import scipy_backend
from repro.model.resources import CPU, MEM, ResourceVector
from tests import simplex

RES = (CPU, MEM)
SOLVERS = {"highs": scipy_backend.solve, "simplex": simplex.solve}


def small_problem(seed: int = 3):
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(4):
        release = int(rng.integers(0, 3))
        length = int(rng.integers(2, 5))
        parallel = int(rng.integers(2, 4))
        units = int(rng.integers(2, length * parallel + 1))
        entries.append(
            ScheduleEntry(
                job_id=f"j{i}",
                release=release,
                deadline=release + length,
                units=units,
                unit_demand=ResourceVector({CPU: 1, MEM: 2}),
                max_parallel=parallel,
            )
        )
    horizon = max(e.deadline for e in entries)
    caps = np.zeros((horizon, 2))
    caps[:, 0], caps[:, 1] = 20, 40
    return build_schedule_problem(entries, caps, RES)


def minimax_lp(seed: int = 3):
    """Round 1 of the lexmin ladder: ``min theta`` with every cell active."""
    problem = small_problem(seed)
    caps = problem.cell_caps()
    n_cells = caps.size
    return build_round_lp(
        problem,
        np.arange(n_cells),
        np.full(n_cells, np.inf),
        caps,
        assemble_round_pieces(problem, caps),
    )


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.benchmark(group="ext4")
def test_ext4_backend_latency(benchmark, solver):
    lp = minimax_lp()
    solution = benchmark(SOLVERS[solver], lp)
    assert solution.is_optimal
    print(
        f"\nEXT-4 solver={solver} minimax={solution.objective:.4f} "
        f"mean={benchmark.stats['mean'] * 1000:.1f} ms"
    )


@pytest.mark.benchmark(group="ext4")
def test_ext4_backends_agree(benchmark):
    def agree():
        values = []
        for seed in range(5):
            lp = minimax_lp(seed)
            highs, reference = (SOLVERS[name](lp) for name in ("highs", "simplex"))
            assert highs.is_optimal and reference.is_optimal
            values.append((highs.objective, reference.objective))
        return values

    values = benchmark.pedantic(agree, rounds=1, iterations=1)
    for highs_minimax, simplex_minimax in values:
        assert highs_minimax == pytest.approx(simplex_minimax, abs=1e-6)
    print(f"\nEXT-4: {len(values)} instances, solvers agree on the minimax")
