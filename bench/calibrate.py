"""A fixed reference computation that prices the machine's current speed.

This VM's speed drifts by 10-20 % over tens of minutes (other tenants,
frequency): two sets of runs of *identical code* half an hour apart
differed by 12-18 % on every timing metric, floors included, and import
time moved with them.  A floor over the epochs of one run cannot remove
that — the whole run sits inside one speed regime.

So each run also times a reference kernel between its epochs — a
pure-Python loop plus a HiGHS solve of a fixed LP through scipy, nothing
from ``src/`` — and reports its timing metrics at *reference speed*:
``measured x REFERENCE_S / floor(kernel)``.  A machine that is 15 % slow
during a run is 15 % slow on the kernel too, and the factor cancels.  The
factor itself is reported as ``machine.speed`` and the un-normalised
throughput as ``raw.ops_per_s``; ``STABILITY.md`` shows, for the same
runs, the gap between sets with and without the factor.

``REFERENCE_S`` only fixes the unit — what "1.0" means — so that the
reported milliseconds are real milliseconds of this machine in its quiet
regime.  Any other value scales every timing of every run alike and
changes no comparison; it cannot be derived inside a run, because a run
sees only its own regime.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

__all__ = ["REFERENCE_S", "Calibrator"]

#: Floor of the kernel on this machine in its quiet regime;
#: ``machine.speed`` is 1.0 there.
REFERENCE_S = 0.0375

_PYTHON_ITERATIONS = 200_000
_JOBS, _SLOTS = 128, 64


class Calibrator:
    """Times the reference kernel between epochs."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        n = _JOBS * _SLOTS
        slot_of = np.tile(np.arange(_SLOTS), _JOBS)
        job_of = np.repeat(np.arange(_JOBS), _SLOTS)
        weights = rng.integers(1, 4, size=n).astype(float)
        self._problem = dict(
            c=rng.random(n),
            A_ub=sparse.csr_matrix((weights, (slot_of, np.arange(n)))),
            b_ub=np.full(_SLOTS, 100.0),
            A_eq=sparse.csr_matrix((np.ones(n), (job_of, np.arange(n)))),
            b_eq=rng.integers(5, 25, size=_JOBS).astype(float),
            bounds=(0, 4),
            method="highs",
        )
        self._samples: list[float] = []
        self._last = float("-inf")

    def sample_if_due(self, gap_s: float = 2.0, repeats: int = 3) -> None:
        """Run the kernel *repeats* times — unless it ran less than *gap_s*
        ago (short epochs would otherwise spend their budget here)."""
        if time.perf_counter() - self._last < gap_s:
            return
        for _ in range(repeats):
            start = time.perf_counter()
            acc = 0
            table: dict[int, int] = {}
            for i in range(_PYTHON_ITERATIONS):
                table[i & 1023] = acc
                acc += (i * i) % 7
            solution = linprog(**self._problem)
            end = time.perf_counter()
            if solution.status != 0:
                raise RuntimeError("reference LP did not solve")
            self._samples.append(end - start)
        self._last = time.perf_counter()

    @property
    def samples(self) -> int:
        return len(self._samples)

    def speed(self, tries: int) -> float:
        """Machine speed relative to the reference: below 1.0 is slower.

        *tries* is the number of epochs each op's floor was taken over.
        The kernel's floor is taken at the same depth, the ``1/(tries+1)``
        quantile of its samples: with twenty-odd samples against six
        epochs, the kernel's very fastest sample catches a luckier window
        of the machine than any op had the chance to.
        """
        return REFERENCE_S / float(
            np.quantile(self._samples, 1.0 / (tries + 1))
        )
