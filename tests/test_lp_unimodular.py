"""Tests for the total-unimodularity checks (Lemma 2 machinery)."""

import numpy as np
import pytest

from tests.unimodular import (
    has_consecutive_ones_columns,
    is_totally_unimodular,
    max_fractionality,
)


class TestBruteForceTU:
    def test_identity_is_tu(self):
        assert is_totally_unimodular(np.eye(4))

    def test_interval_matrix_is_tu(self):
        matrix = np.array(
            [
                [1, 1, 0, 0],
                [0, 1, 1, 0],
                [0, 0, 1, 1],
            ]
        )
        assert is_totally_unimodular(matrix)

    def test_classic_non_tu(self):
        # Incidence-like matrix with determinant 2 submatrix (odd cycle).
        matrix = np.array(
            [
                [1, 1, 0],
                [0, 1, 1],
                [1, 0, 1],
            ]
        )
        assert not is_totally_unimodular(matrix)

    def test_entries_outside_pm1_fail_fast(self):
        assert not is_totally_unimodular(np.array([[2.0]]))

    def test_max_order_truncation(self):
        matrix = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        # The violating submatrix has order 3; truncating at 2 passes.
        assert is_totally_unimodular(matrix, max_order=2)
        assert not is_totally_unimodular(matrix, max_order=3)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            is_totally_unimodular(np.ones(3))


class TestIntervalMatrix:
    def test_consecutive_ones(self):
        matrix = np.array([[1, 0], [1, 1], [0, 1], [0, 1]])
        assert has_consecutive_ones_columns(matrix)

    def test_gap_fails(self):
        matrix = np.array([[1], [0], [1]])
        assert not has_consecutive_ones_columns(matrix)

    def test_non_binary_fails(self):
        assert not has_consecutive_ones_columns(np.array([[2.0]]))

    def test_empty_columns_ok(self):
        assert has_consecutive_ones_columns(np.zeros((3, 2)))


class TestFractionality:
    def test_integral_vector(self):
        assert max_fractionality(np.array([1.0, 2.0, -3.0])) == 0.0

    def test_half_is_worst(self):
        assert max_fractionality(np.array([1.5, 2.1])) == pytest.approx(0.5)

    def test_empty(self):
        assert max_fractionality(np.array([])) == 0.0
