"""Floor, quantile and digest arithmetic of the benchmark.

Every workload is a fixed sequence of operations that is repeated for
several epochs on fresh state.  Timing noise on a shared machine is
additive (a pre-empted process only ever runs *longer*), so for identical
work the minimum over epochs of one operation's time is the
least-contaminated estimate of its cost.  All timing metrics are computed
from that per-operation floor; the un-floored numbers are kept as
diagnostics (``raw.*``) so the contamination itself is visible.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Sequence

import numpy as np

__all__ = [
    "floor_per_op",
    "timing_metrics",
    "relative_iqr",
    "WorkDigest",
]


def floor_per_op(epochs: Sequence[Sequence[float]]) -> list[float]:
    """Per-operation minimum across epochs of identical work.

    Raises ``ValueError`` when the epochs disagree on the number of
    operations: the floor is only meaningful over identical work.
    """
    if not epochs:
        raise ValueError("need at least one epoch")
    n_ops = len(epochs[0])
    for index, epoch in enumerate(epochs):
        if len(epoch) != n_ops:
            raise ValueError(
                f"epoch {index} ran {len(epoch)} ops, epoch 0 ran {n_ops}: "
                "the work is not deterministic"
            )
    return [min(epoch[i] for epoch in epochs) for i in range(n_ops)]


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median.

    The spread statistic the acceptance driver uses
    (``statistics.quantiles(values, n=4)``); 0.0 for fewer than two values.
    """
    if len(values) < 2:
        return 0.0
    first, median, third = statistics.quantiles(values, n=4)
    return (third - first) / median if median else 0.0


def timing_metrics(epochs: Sequence[Sequence[float]]) -> dict[str, float]:
    """The timing end-to-end metrics and their raw twins, from per-epoch
    per-operation seconds.

    ``ops_per_s`` is operations per epoch over the *sum* of the per-op
    floors; the ``op_ms_*`` quantiles are over operations, of the floor.
    ``raw.*`` are the same statistics per epoch, un-floored, then the
    median over epochs.
    """
    floor = floor_per_op(epochs)
    totals = [sum(epoch) for epoch in epochs]
    return {
        "ops_per_s": len(floor) / sum(floor),
        "op_ms_p50": float(np.percentile(floor, 50)) * 1e3,
        "op_ms_p90": float(np.percentile(floor, 90)) * 1e3,
        "op_ms_max": max(floor) * 1e3,
        "raw.op_ms_p50": float(np.median(np.percentile(epochs, 50, axis=1))) * 1e3,
        "raw.op_ms_p90": float(np.median(np.percentile(epochs, 90, axis=1))) * 1e3,
        "raw.epoch_s_iqr": relative_iqr(totals),
    }


class WorkDigest:
    """sha256 over what an epoch *did*, never over how long it took.

    Two epochs (or two runs on one seed) that did the same work produce
    byte-equal digests; a timing difference between them is then noise
    or a code change, not different work.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *fields: object) -> None:
        """Fold one record (an op's outcome, a counter) into the digest."""
        self._hash.update(
            json.dumps(fields, sort_keys=True, default=str).encode("utf-8")
        )
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
