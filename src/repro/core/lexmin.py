"""Lexicographic minimax solve of the scheduling LP (Sec. V-B).

The paper proves (Lemma 1) that the lexicographic minimax objective
``lexmin max_t,r z_t^r / C_t^r`` can be scalarised as ``min sum k^{z/C}``
and (Lemma 2) that the constraint matrix is totally unimodular, so one LP
solve suffices *in exact arithmetic*.  The scalarisation is numerically
unusable at real sizes (``k = |T||R|`` is in the hundreds, and ``k^u``
overflows doubles), so — like production implementations of minimax fair
allocation — we compute the same optimum iteratively:

1. Solve ``min theta`` subject to ``z_t^r <= theta * C_t^r`` over the
   *active* cells, plus the demand equalities, per-variable bounds, and
   ``theta <= 1``, which stands in for the hard capacity rows ``z <= C``
   (:class:`LadderLayout`).
2. Cells that must be saturated at ``theta*`` in every optimum (identified
   by a non-zero dual multiplier; if degeneracy hides the duals, by being at
   ``theta*``) are *frozen*: their load is capped at ``theta* C_t^r``.
3. Repeat on the remaining cells until all are frozen or ``max_rounds`` is
   hit (remaining cells then freeze at the last ``theta*``).
4. A final solve minimises the total normalised load under the frozen caps,
   pinning one balanced representative optimum.

The first round's ``theta*`` is exactly the paper's ``max z/C`` optimum;
subsequent rounds refine lower-order components of the sorted utilisation
vector.  Every LP of a ladder is one model (:class:`LadderLayout`); each
round after the first re-runs from the previous round's basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import sparse

from repro.core.lp_formulation import ScheduleProblem
from repro.lp.problem import LinearProgram, LPSolution, LPStatus
from repro.lp.scipy_backend import Highs
from repro.lp.solver import SolverFailure, solve_lp
from repro.obs import current_obs

_DUAL_TOL = 1e-7
_THETA_TOL = 1e-9
_SAT_TOL = 1e-6  # relative: saturation, and a warm hint's theta and exactness
_FREEZE_RELAX = 1e-7  # relative slack added to frozen caps (numerical safety)


@dataclass(frozen=True)
class LexminWarmHint:
    """Seed for a warm-started lexmin solve: the previous solve's skyline.

    A ladder re-solves its rounds from the previous basis, but a new ladder
    starts from nothing: its problem is another model.  The reusable
    artefact of a solve is therefore its *level vector*: the per-cell
    normalised loads of the final balanced allocation.  When consecutive
    solves see near-identical job mixes, that skyline is already
    (near-)lexmin-optimal — imposing it as frozen caps reduces the whole
    ladder to two LPs (one exact theta solve, one balancing solve) instead
    of up to ``max_rounds + 1``.

    Attributes:
        theta: the previous solve's minimax ``max z/C``.
        levels: per-cell utilisation ``z/C`` as a dense ``[slot, r_index]``
            array in the *problem's* relative coordinates (callers
            re-anchor absolute slots before building the hint); NaN where
            the previous solve had no cell.
    """

    theta: float
    levels: np.ndarray


@dataclass(frozen=True)
class LexminResult:
    """Outcome of a lexicographic minimax schedule solve.

    Attributes:
        status: "optimal" or "infeasible".
        x: fractional allocation variables (None when infeasible).
        minimax: the paper's objective ``max_t,r z/C`` (first-round theta).
        thetas: theta value of every round, non-increasing.
        rounds: number of minimax rounds performed.
        utilisation: per-cell ``z/C`` of the returned allocation.
        warm: True when the solve was completed from a
            :class:`LexminWarmHint` (round-1 theta is still solved exactly;
            the refinement rounds were replaced by the hinted skyline).
    """

    status: str
    x: Optional[np.ndarray] = None
    minimax: float = float("nan")
    thetas: tuple[float, ...] = ()
    rounds: int = 0
    utilisation: Optional[np.ndarray] = field(default=None, repr=False)
    warm: bool = False

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


class LadderLayout:
    """The one model every LP of a lexmin ladder is, so that the ladder's
    :class:`~repro.lp.scipy_backend.Highs` solves each round after the
    first warm.

    The allocation variables plus a trailing ``0 <= theta <= 1``.  Row
    ``k`` is cell ``k``: ``load - theta * C <= 0`` while active, ``load <=
    cap`` once frozen at *cap* (theta coefficient an explicit 0).  The
    demand equalities ``[a_eq | 0]`` close it.  ``theta <= 1`` replaces the
    hard capacity rows ``load <= C``: an active cell has ``load <= theta C
    <= C`` and a frozen cap is at most ``C`` (:func:`_cap_at`), so the
    feasible ``x`` and every ``theta*`` are those of the model with them.
    """

    def __init__(self, problem: ScheduleProblem, caps: np.ndarray):
        n_vars, a_eq = problem.n_vars, problem.a_eq
        # A row's theta entry is its last: freezing zeroes a known entry.
        self._rows = sparse.hstack([problem.a_util, -caps[:, None]], format="csr")
        self._theta_at = self._rows.indptr[1:] - 1
        self._round_cost = np.zeros(n_vars + 1)
        self._round_cost[-1] = 1.0
        self._a_eq = sparse.csr_matrix(  # [a_eq | 0] on a_eq's own arrays
            (a_eq.data, a_eq.indices, a_eq.indptr), shape=(a_eq.shape[0], n_vars + 1)
        )
        self._b_eq = problem.b_eq
        self._lb = np.zeros(n_vars + 1)
        self._ub = np.append(problem.var_ub, 1.0)

    def lp(self, frozen_value: np.ndarray, cost: np.ndarray | None = None) -> LinearProgram:
        """Cells of finite *frozen_value* frozen there; ``min theta`` (a
        round), or *cost* on the allocation variables (the balancing LP)."""
        frozen = np.isfinite(frozen_value)
        a_ub = self._rows.copy()
        a_ub.data[self._theta_at[frozen]] = 0.0
        return LinearProgram(
            c=self._round_cost if cost is None else np.append(cost, 0.0),
            a_ub=a_ub,
            b_ub=np.where(frozen, frozen_value, 0.0),
            a_eq=self._a_eq,
            b_eq=self._b_eq,
            lb=self._lb,
            ub=self._ub,
        )


def _cap_at(theta: float | np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Frozen value of cells saturated at level *theta* (one for all, or
    one per cell): ``theta * C`` with the numerical-safety slack, never
    above the hard capacity."""
    return np.minimum(theta * caps * (1.0 + _FREEZE_RELAX) + _FREEZE_RELAX, caps)


def _warm_frozen_caps(
    problem: ScheduleProblem,
    caps: np.ndarray,
    theta: float,
    hint: LexminWarmHint,
) -> np.ndarray | None:
    """Frozen caps from a warm hint, or None when the hint is unusable.

    The hint only applies when the exact round-1 ``theta`` matches the
    hinted minimax (otherwise the workload shifted enough that the previous
    skyline is stale) and covers every utilisation cell of this problem.
    Each cell is capped at its hinted level — never above ``theta`` or the
    hard capacity — so accepting the warm result can never worsen the
    minimax.
    """
    if not np.isfinite(theta) or not np.isfinite(hint.theta):
        return None
    if abs(theta - hint.theta) > _SAT_TOL * max(abs(theta), 1.0):
        return None
    cells = problem.cell_array()
    if cells[:, 0].max(initial=-1) >= hint.levels.shape[0]:
        return None
    levels = hint.levels[cells[:, 0], cells[:, 1]]
    if np.isnan(levels).any():
        return None
    return np.minimum(_cap_at(levels, caps), _cap_at(theta, caps))


def _finish_warm(
    problem: ScheduleProblem,
    caps: np.ndarray,
    theta: float,
    hint: LexminWarmHint,
    balance: Callable[[np.ndarray], LPSolution],
) -> LexminResult | None:
    """The warm :class:`LexminResult` after the exact round 1 when the hinted
    skyline, solved by *balance*, is feasible and exact (no cell above
    theta); None to go on with the cold ladder."""
    frozen = _warm_frozen_caps(problem, caps, theta, hint)
    if frozen is None:
        return None
    sol = balance(frozen)
    if sol.status is not LPStatus.OPTIMAL:
        return None
    x = sol.x[: problem.n_vars]
    utilisation = np.asarray(problem.a_util @ x).ravel() / caps
    if float(utilisation.max(initial=0.0)) > theta * (1.0 + _SAT_TOL) + _SAT_TOL:
        return None  # exactness check failed: hint would worsen the minimax
    return LexminResult(
        status="optimal",
        x=x,
        minimax=theta,
        thetas=(theta,),
        rounds=1,
        utilisation=utilisation,
        warm=True,
    )


def _balance_cost(problem: ScheduleProblem, caps: np.ndarray, front_load: bool) -> np.ndarray:
    """The final solve's cost: total normalised load.

    With time-invariant caps the total normalised load is a constant, so a
    small *earliness* term picks the representative optimum that front-loads
    work within the frozen skyline: the minimax value is untouched (the caps
    bound every slot) but estimation noise and joint overload become far
    less likely to turn into deadline misses.
    """
    c_final = np.asarray((1.0 / caps) @ problem.a_util).ravel()
    if front_load:
        horizon = max(problem.horizon, 1)
        earliness = (problem.var_meta[:, 1] + 1.0) / horizon
        eps = 1e-3 * max(float(np.min(c_final[c_final > 0], initial=1.0)), 1e-6)
        c_final = c_final + eps * earliness
    return c_final


def _answered(sol: LPSolution, stage: str) -> bool:
    """True for an optimal *sol*, False for an infeasible one."""
    if sol.status is LPStatus.OPTIMAL:
        return True
    if sol.status is LPStatus.INFEASIBLE:
        return False
    raise SolverFailure(  # pragma: no cover - solve_lp raises first
        f"lexmin {stage} failed: {sol.message}",
        backend="highs",
        reason="error",
        elapsed=0.0,
    )


def lexmin_schedule(
    problem: ScheduleProblem,
    *,
    max_rounds: int | None = None,
    front_load: bool = True,
    warm_hint: LexminWarmHint | None = None,
    solve_budget_s: float | None = None,
) -> LexminResult:
    """Run the iterative lexicographic minimax on a :class:`ScheduleProblem`.

    Args:
        problem: pre-assembled LP structure.
        max_rounds: cap on minimax rounds; ``None`` means run until every
            utilisation cell is frozen (exact lexicographic optimum).
        front_load: break ties among balanced optima toward *earlier* slots
            (a tiny earliness term in the final solve).  The minimax skyline
            is untouched (frozen caps bound every slot) but estimation noise
            is far less likely to turn into last-minute deadline misses.
            False reproduces the paper's formulation verbatim, which leaves
            the choice among optimal vertices to the solver — that is what
            makes the deadline-slack feature of Fig. 5 necessary.
        warm_hint: optional :class:`LexminWarmHint` from a previous solve.
            Round 1 (the exact minimax theta) always runs cold; if the
            hinted theta matches, the hinted skyline replaces the remaining
            refinement rounds and the result is checked for exactness
            (max utilisation must not exceed theta).  Any mismatch falls
            back to the cold ladder, counted as ``lexmin.warm.fallback``.
        solve_budget_s: optional per-LP wall-time budget forwarded to
            :func:`repro.lp.solver.solve_lp`; a blown budget (or a solver
            fault) raises
            :class:`~repro.lp.solver.SolverFailure`, which propagates to
            the caller — the FlowTime scheduler's degraded mode handles it.

    Returns:
        A :class:`LexminResult`; ``status == "infeasible"`` means some job's
        demand cannot fit its window under the capacity caps (callers relax
        windows and retry).
    """
    n_cells = len(problem.util_cells)
    n_vars = problem.n_vars
    caps = problem.cell_caps()
    if np.any(caps <= 0):
        raise ValueError("every utilisation cell must have positive capacity")

    layout = LadderLayout(problem, caps)
    # Every round solves on it, warm after the first.  Presolve halves a
    # cold round 1's iterations; on a hinted re-plan it saves none.
    highs = Highs(presolve=warm_hint is None)

    c_final = _balance_cost(problem, caps, front_load)

    def balance(frozen_value: np.ndarray) -> LPSolution:
        """Final solve: minimise ``c_final`` under the frozen caps, fresh (the
        rounds' basis is far from it) and unpresolved (it saves no iteration)."""
        lp_final = layout.lp(frozen_value, c_final)
        return solve_lp(
            lp_final, tag="balance", time_budget_s=solve_budget_s, highs=Highs(presolve=False)
        )

    active = np.arange(n_cells)
    frozen_value = np.full(n_cells, np.inf)
    thetas: list[float] = []
    rounds = 0

    while active.size:
        if max_rounds is not None and rounds >= max_rounds:
            break
        lp = layout.lp(frozen_value)
        sol = solve_lp(lp, tag="round", time_budget_s=solve_budget_s, highs=highs)
        if not _answered(sol, "round"):
            return LexminResult(status="infeasible")
        x_full = sol.x
        theta = float(x_full[-1])
        thetas.append(theta)
        rounds += 1

        if rounds == 1 and warm_hint is not None:
            warm = _finish_warm(problem, caps, theta, warm_hint, balance)
            if warm is not None:
                return warm
            current_obs().counter("lexmin.warm.fallback").inc()

        to_freeze = active[np.abs(sol.duals_ub[active]) > _DUAL_TOL]
        if not to_freeze.size:  # degeneracy hid the duals: saturation decides
            loads = np.asarray(problem.a_util[active] @ x_full[:n_vars]).ravel()
            saturated = loads / caps[active] >= theta - _SAT_TOL * max(theta, 1.0)
            to_freeze = active[saturated]
        if not to_freeze.size:  # defensive: never loop without progress
            to_freeze = active
        if theta <= _THETA_TOL:
            to_freeze = active

        frozen_value[to_freeze] = _cap_at(theta, caps)[to_freeze]
        active = active[~np.isfinite(frozen_value[active])]

    if active.size:  # max_rounds exhausted: freeze the rest at the last theta
        last = thetas[-1] if thetas else 1.0
        frozen_value[active] = _cap_at(last, caps)[active]

    sol = balance(frozen_value)
    if not _answered(sol, "final solve"):
        return LexminResult(status="infeasible")

    x = sol.x[:n_vars]
    utilisation = np.asarray(problem.a_util @ x).ravel() / caps
    return LexminResult(
        status="optimal",
        x=x,
        minimax=thetas[0] if thetas else float(utilisation.max(initial=0.0)),
        thetas=tuple(thetas),
        rounds=rounds,
        utilisation=utilisation,
    )
