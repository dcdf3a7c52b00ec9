"""Linear-programming substrate.

The paper solves its scheduling LP with CPLEX (Sec. VII).  We provide
interchangeable backends behind one registry (:mod:`repro.lp.solver`):

* :mod:`repro.lp.scipy_backend` — scipy's HiGHS (the default; fast, sparse);
* :mod:`repro.lp.simplex` — a from-scratch dense two-phase simplex, so the
  reproduction does not depend on any external solver for correctness (it is
  also what makes the "LP vertex solutions are integral on TU matrices"
  argument directly observable in tests);
* :mod:`repro.lp.fastsolve` — the structure-exploiting parametric max-flow
  solver: lexmin round subproblems certified by
  :func:`repro.lp.unimodular.detect_interval_structure` are lowered to a
  transportation network and solved combinatorially (Lemma 2 made
  executable); everything else is declined to HiGHS.

:mod:`repro.lp.unimodular` checks Lemma 2's total-unimodularity claim on
generated instances and hosts the public structure-detection API.
"""

from repro.lp.problem import LinearProgram, LPSolution, LPStatus
from repro.lp.solver import (
    DEFAULT_BACKEND,
    FunctionBackend,
    SolverBackend,
    SolverFailure,
    available_backends,
    backend_info,
    get_backend,
    install_fault_injector,
    register_backend,
    solve_lp,
    unregister_backend,
)
from repro.lp.unimodular import (
    IntervalStructure,
    detect_interval_structure,
    has_consecutive_ones_columns,
    is_totally_unimodular,
)

__all__ = [
    "DEFAULT_BACKEND",
    "FunctionBackend",
    "IntervalStructure",
    "LPSolution",
    "LPStatus",
    "LinearProgram",
    "SolverBackend",
    "SolverFailure",
    "available_backends",
    "backend_info",
    "detect_interval_structure",
    "get_backend",
    "has_consecutive_ones_columns",
    "install_fault_injector",
    "is_totally_unimodular",
    "register_backend",
    "solve_lp",
    "unregister_backend",
]
