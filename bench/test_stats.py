"""Unit tests of the floor/quantile/digest arithmetic on synthetic data."""

import statistics

import pytest

from bench.stats import (
    WorkDigest,
    floor_per_op,
    relative_iqr,
    timing_metrics,
)


def test_floor_is_the_per_op_minimum_across_epochs():
    epochs = [[3.0, 1.0, 5.0], [2.0, 4.0, 5.5], [2.5, 1.5, 4.0]]
    assert floor_per_op(epochs) == [2.0, 1.0, 4.0]


def test_floor_refuses_epochs_of_different_length():
    with pytest.raises(ValueError, match="not deterministic"):
        floor_per_op([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        floor_per_op([])


def test_relative_iqr_is_the_drivers_spread_statistic():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    first, median, third = statistics.quantiles(values, n=4)
    assert relative_iqr(values) == pytest.approx((third - first) / median)
    assert relative_iqr([5.0]) == 0.0


def test_additive_noise_moves_the_raw_numbers_not_the_floor():
    base = [0.001] * 90 + [0.050] * 10  # bimodal, like a replanning run
    # Each epoch a different tenth of the ops is hit by 20 ms of noise.
    epochs = []
    for e in range(5):
        epoch = list(base)
        for i in range(e, len(base), 10):
            epoch[i] += 0.020
        epochs.append(epoch)
    metrics = timing_metrics(epochs)
    assert metrics["ops_per_s"] == pytest.approx(len(base) / sum(base))
    assert metrics["op_ms_p50"] == pytest.approx(1.0)
    assert metrics["op_ms_max"] == pytest.approx(50.0)
    assert metrics["raw.op_ms_p90"] > metrics["op_ms_p90"]
    assert metrics["raw.epoch_s_iqr"] == 0.0  # every epoch equally noisy


def test_digest_depends_on_what_was_done_and_in_which_order():
    def digest(records):
        d = WorkDigest()
        for record in records:
            d.add(*record)
        return d.hexdigest()

    ops = [(0, ("wf0", True, "admitted")), (1, ("wf1", False, "infeasible"))]
    assert digest(ops) == digest(list(ops))
    assert digest(ops) != digest(ops[::-1])
    assert digest(ops) != digest([ops[0], (1, ("wf1", True, "admitted"))])
    # Counters are folded in too: same outcomes, more solves, new digest.
    assert digest(ops + [("work", {"lp_solves": 7})]) != digest(
        ops + [("work", {"lp_solves": 8})]
    )
