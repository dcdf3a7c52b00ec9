"""The one LP solve path: HiGHS plus its guardrails.

Every LP goes through :func:`solve_lp`, the observability and fault-tolerance
choke point.  One call is one attempt: the fault hook first
(:func:`install_fault_injector`; only the chaos harness, :mod:`repro.chaos`,
installs one), then HiGHS (:func:`repro.lp.scipy_backend.solve`), timed into
the ``lp.solve`` histogram.  A solver exception, an ERROR status or an answer
after the optional wall-time budget raises :class:`SolverFailure` (counted in
``lp.solve.errors.highs`` and ``lp.solve.failures``, or in
``lp.solve.budget_exceeded``): callers never consume a broken solution, and the
FlowTime scheduler answers the slot from degraded mode instead of stalling.
INFEASIBLE and UNBOUNDED are answers, returned and counted in
``lp.solve.nonoptimal``; ``tag`` adds an ``lp.solve.tag.<tag>`` count.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.lp import scipy_backend
from repro.lp.problem import LinearProgram, LPSolution, LPStatus
from repro.obs import current_obs

__all__ = ["SolverFailure", "install_fault_injector", "solve_lp"]

#: The solver every attempt runs on; what :class:`SolverFailure` names.
_BACKEND = "highs"


class SolverFailure(RuntimeError):
    """The solver itself misbehaved: an exception, an ERROR status, or a
    blown wall-time budget.  An *infeasible* or *unbounded* LP is an answer
    (relaxation ladders probe for infeasibility), not a failure.  Callers
    that can progress without a fresh solution (the FlowTime scheduler's
    degraded mode) catch this type.

    Attributes:
        backend: the solver that failed (``"highs"``).
        reason: ``"error"`` (solver exception or bad status) or
            ``"budget"`` (wall-time budget exceeded).
        elapsed: wall-clock seconds the attempt took.
    """

    def __init__(self, message: str, *, backend: str, reason: str, elapsed: float):
        super().__init__(message)
        self.backend = backend
        self.reason = reason
        self.elapsed = elapsed


# -- fault injection (chaos harness support) ------------------------------------

#: Called as ``injector(problem)`` immediately before the solver runs; it
#: may raise (an injected solver fault) or sleep (a slow solve).
_fault_injector: Optional[Callable[[LinearProgram], None]] = None
_injector_lock = threading.Lock()


def install_fault_injector(
    injector: Optional[Callable[[LinearProgram], None]],
) -> None:
    """Install (or with ``None``, remove) the process-wide solver fault hook.

    Test/chaos-harness support: the injector runs before every solve and
    may raise or sleep.  Use :func:`repro.chaos.chaos_solver` for the
    managed context-manager form.
    """
    global _fault_injector
    with _injector_lock:
        _fault_injector = injector


def solve_lp(
    problem: LinearProgram,
    *,
    tag: str | None = None,
    time_budget_s: float | None = None,
    highs: scipy_backend.Highs | None = None,
) -> LPSolution:
    """Solve *problem*, a ``LinearProgram`` or a lexmin ladder's LP
    (:func:`repro.lp.scipy_backend.solve`), with HiGHS: one attempt, under
    the guardrails above.

    ``tag`` attributes the solve to a caller-chosen purpose (e.g.
    ``"round"``) via an ``lp.solve.tag.<tag>`` counter.  ``time_budget_s``
    bounds the attempt's wall time.  ``highs`` is the instance to solve on
    (a ladder round's push lands on its optimum), a fresh one without it.
    A fault or a blown budget raises :class:`SolverFailure`; INFEASIBLE and
    UNBOUNDED are returned.
    """
    obs = current_obs()
    if tag is not None:
        obs.counter(f"lp.solve.tag.{tag}").inc()
    injector = _fault_injector
    start = time.perf_counter()
    error: Exception | None = None
    with obs.span("lp.solve"):
        try:
            if injector is not None:
                injector(problem)
            solution = scipy_backend.solve(problem, highs)
        except Exception as exc:  # the solver blew up: a fault, not an answer
            error = exc
    elapsed = time.perf_counter() - start

    if error is None:
        if time_budget_s is not None and elapsed > time_budget_s:
            # Even a usable answer that arrives too late is a failure from
            # the scheduling loop's point of view.
            obs.counter("lp.solve.budget_exceeded").inc()
            raise SolverFailure(
                f"LP solve blew its {time_budget_s:.3f}s budget ({elapsed:.3f}s)",
                backend=_BACKEND,
                reason="budget",
                elapsed=elapsed,
            )
        if solution.status is not LPStatus.ERROR:
            if not solution.is_optimal:
                obs.counter("lp.solve.nonoptimal").inc()
            return solution
    obs.counter(f"lp.solve.errors.{_BACKEND}").inc()
    obs.counter("lp.solve.failures").inc()
    detail = (
        f"{type(error).__name__}: {error}"
        if error is not None
        else f"status {solution.status.value!r}: {solution.message}"
    )
    raise SolverFailure(
        f"LP solve failed ({detail})",
        backend=_BACKEND,
        reason="error",
        elapsed=elapsed,
    ) from error
