"""Structure detection for the scheduling LPs (Lemma 2 of the paper).

A matrix is *totally unimodular* (TU) when every square submatrix has
determinant in {-1, 0, 1}.  If the constraint matrix of an LP with integral
right-hand sides is TU, the feasible region is an integral polyhedron and
simplex-type solvers return integral vertex optima — that is the paper's
whole argument for solving its ILP as an LP.

Two checks are provided:

* :func:`is_totally_unimodular` — exact brute force over all square
  submatrices (exponential; only usable for small matrices in tests).
* :func:`has_consecutive_ones_columns` — the sufficient condition that
  actually applies to the paper's constraints (2)-(4): each *column* of the
  x-variable block has its ones consecutive within each job's (t, r) run.
  Interval matrices are TU.  (The pre-1.8 ``is_interval_matrix`` alias was
  removed.)

Lemma 2's transportation network is executable in the product as the
integer max-flow of :func:`repro.core.placement.max_placement`.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "has_consecutive_ones_columns",
    "is_totally_unimodular",
    "max_fractionality",
]


def _entries_ok(matrix: np.ndarray) -> bool:
    return bool(np.isin(matrix, (-1.0, 0.0, 1.0)).all())


def is_totally_unimodular(matrix, max_order: int | None = None) -> bool:
    """Exact TU check by enumerating square submatrix determinants.

    ``max_order`` truncates the enumeration (checking submatrices only up to
    that size); leave ``None`` for the full exact check.  Complexity is
    exponential — intended for matrices with at most ~12 rows/columns.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not _entries_ok(arr):
        return False
    rows, cols = arr.shape
    top = min(rows, cols)
    if max_order is not None:
        top = min(top, max_order)
    for order in range(2, top + 1):
        for row_idx in itertools.combinations(range(rows), order):
            sub_rows = arr[list(row_idx), :]
            for col_idx in itertools.combinations(range(cols), order):
                det = np.linalg.det(sub_rows[:, list(col_idx)])
                if abs(det - round(det)) > 1e-6 or round(det) not in (-1, 0, 1):
                    return False
    return True


def has_consecutive_ones_columns(matrix) -> bool:
    """True when every column's non-zeros are a consecutive run of ones.

    Matrices with the consecutive-ones property on columns (row-interval
    matrices) are totally unimodular.  The paper's demand constraint (2)
    sums each x_it^r over the contiguous window t in [a_i, d_i], and the
    capacity constraints touch each variable once, giving this structure.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not bool(np.isin(arr, (0.0, 1.0)).all()):
        return False
    for col in arr.T:
        nz = np.flatnonzero(col)
        if nz.size and not np.array_equal(nz, np.arange(nz[0], nz[-1] + 1)):
            return False
    return True


def max_fractionality(x: np.ndarray) -> float:
    """Distance of the most fractional entry of *x* from the integers.

    Used by the integrality experiments: 0.0 means a fully integral vector.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        return 0.0
    frac = np.abs(arr - np.round(arr))
    return float(frac.max())
