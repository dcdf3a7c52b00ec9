"""Linear-programming substrate.

The paper solves its scheduling LP with CPLEX (Sec. VII); this reproduction
solves every LP through :func:`repro.lp.solver.solve_lp` (fault hook, wall-time
budget, counters) on scipy's compiled HiGHS, which :mod:`repro.lp.scipy_backend`
loads without importing ``scipy.optimize``.  Lemma 2's transportation network
is the integer max-flow of :func:`repro.core.placement.max_placement`; its
total-unimodularity claim is checked by ``tests/unimodular.py``.
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
