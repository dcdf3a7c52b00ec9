"""A solver-agnostic linear program container.

Minimise ``c @ x`` subject to ``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq`` and
elementwise bounds ``lb <= x <= ub``.  Matrices may be dense numpy arrays or
scipy sparse matrices; the solver normalises as needed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


def _as_2d(matrix, n_cols: int):
    """Normalise an optional constraint matrix; None becomes a 0-row matrix."""
    if matrix is None:
        return sparse.csr_matrix((0, n_cols))
    matrix = matrix.tocsr() if sparse.issparse(matrix) else np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"constraint matrix must be 2-D, got shape {matrix.shape}")
    if matrix.shape[1] != n_cols:  # sparse too: HiGHS would call it infeasible
        raise ValueError(f"constraint matrix has {matrix.shape[1]} columns, objective has {n_cols}")
    return sparse.csr_matrix(matrix) if isinstance(matrix, np.ndarray) else matrix


def _as_1d(values, size: int, default: float) -> np.ndarray:
    """A float vector; None becomes *size* copies of *default*."""
    if values is None:
        return np.full(size, default)
    return np.asarray(values, dtype=float).ravel()


@dataclass
class LinearProgram:
    """min c @ x  s.t.  A_ub x <= b_ub,  A_eq x == b_eq,  lb <= x <= ub."""

    c: np.ndarray
    a_ub: sparse.csr_matrix = None  # type: ignore[assignment]
    b_ub: np.ndarray = None  # type: ignore[assignment]
    a_eq: sparse.csr_matrix = None  # type: ignore[assignment]
    b_eq: np.ndarray = None  # type: ignore[assignment]
    lb: np.ndarray = None  # type: ignore[assignment]
    ub: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float).ravel()
        n = self.c.size
        if n == 0:
            raise ValueError("a linear program needs at least one variable")
        self.a_ub = _as_2d(self.a_ub, n)
        self.a_eq = _as_2d(self.a_eq, n)
        self.b_ub = _as_1d(self.b_ub, 0, 0.0)
        self.b_eq = _as_1d(self.b_eq, 0, 0.0)
        for name, a, b in (("ub", self.a_ub, self.b_ub), ("eq", self.a_eq, self.b_eq)):
            if a.shape[0] != b.size:
                raise ValueError(f"A_{name} has {a.shape[0]} rows but b_{name} has {b.size}")
        self.lb = _as_1d(self.lb, n, 0.0)
        self.ub = _as_1d(self.ub, n, np.inf)
        if self.lb.size != n or self.ub.size != n:
            raise ValueError("bounds must have one entry per variable")
        if np.any(self.lb > self.ub):
            bad = int(np.argmax(self.lb > self.ub))
            raise ValueError(f"variable {bad} has lb={self.lb[bad]} > ub={self.ub[bad]}")

    @property
    def n_variables(self) -> int:
        return self.c.size

    @property
    def n_constraints(self) -> int:
        return self.a_ub.shape[0] + self.a_eq.shape[0]


@dataclass(frozen=True)
class LPSolution:
    """Result of solving a :class:`LinearProgram`.

    ``duals_ub``/``duals_eq`` follow scipy's sign convention (marginals of
    the optimal objective with respect to the right-hand sides; <= 0 for
    binding ``<=`` rows of a minimisation).  They may be ``None`` when the
    solver reports none.
    """

    status: LPStatus
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    duals_ub: Optional[np.ndarray] = field(default=None, repr=False)
    duals_eq: Optional[np.ndarray] = field(default=None, repr=False)
    message: str = ""

    @property
    def is_optimal(self) -> bool:
        return self.status is LPStatus.OPTIMAL

    def require_optimal(self) -> np.ndarray:
        """Return x, raising a descriptive error if the solve failed."""
        if not self.is_optimal or self.x is None:
            raise RuntimeError(
                f"LP solve failed: status={self.status.value} message={self.message!r}"
            )
        return self.x
