"""Linear-programming substrate.

The paper solves its scheduling LP with CPLEX (Sec. VII); this
reproduction solves every LP with scipy's HiGHS
(:mod:`repro.lp.scipy_backend`) through one entry point,
:func:`repro.lp.solver.solve_lp`, which adds the fault hook, the wall-time
budget and the counters.

Lemma 2's transportation network is executable as the integer max-flow of
:func:`repro.core.placement.max_placement`; its total-unimodularity claim
is checked on generated instances by ``tests/unimodular.py``.
"""

from repro.lp.problem import LinearProgram, LPSolution, LPStatus
from repro.lp.solver import SolverFailure, install_fault_injector, solve_lp

__all__ = [
    "LPSolution",
    "LPStatus",
    "LinearProgram",
    "SolverFailure",
    "install_fault_injector",
    "solve_lp",
]
