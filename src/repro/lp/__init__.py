"""Linear-programming substrate.

The paper solves its scheduling LP with CPLEX (Sec. VII); this
reproduction solves every LP with scipy's HiGHS
(:mod:`repro.lp.scipy_backend`) through one entry point,
:func:`repro.lp.solver.solve_lp`, which adds the fault hook, the wall-time
budget and the counters.

:mod:`repro.lp.unimodular` checks Lemma 2's total-unimodularity claim on
generated instances; Lemma 2's transportation network itself is executable
as the integer max-flow of :func:`repro.core.placement.max_placement`.
"""

from repro.lp.problem import LinearProgram, LPSolution, LPStatus
from repro.lp.solver import SolverFailure, install_fault_injector, solve_lp
from repro.lp.unimodular import has_consecutive_ones_columns, is_totally_unimodular

__all__ = [
    "LPSolution",
    "LPStatus",
    "LinearProgram",
    "SolverFailure",
    "has_consecutive_ones_columns",
    "install_fault_injector",
    "is_totally_unimodular",
    "solve_lp",
]
