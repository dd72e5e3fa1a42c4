"""Tests for the Theorem 2 equivalence checks."""

import numpy as np

from repro.core.equivalence import (
    check_equivalence,
    common_prefix_length,
    output_values_equal,
)


class TestCommonPrefix:
    def test_identical(self):
        assert common_prefix_length([1, 2, 3], [1, 2, 3]) == 3

    def test_divergence_point(self):
        assert common_prefix_length([1, 2, 3], [1, 9, 3]) == 1

    def test_different_lengths(self):
        assert common_prefix_length([1, 2], [1, 2, 3]) == 2

    def test_empty(self):
        assert common_prefix_length([], [1]) == 0

    def test_numpy_payloads(self):
        a = [np.arange(3), np.arange(3)]
        b = [np.arange(3), np.arange(1, 4)]
        assert common_prefix_length(a, b) == 1

    def test_nested_tuples(self):
        a = [(1, np.arange(2))]
        b = [(1, np.arange(2))]
        assert common_prefix_length(a, b) == 1


class TestOutputValuesEqual:
    def test_prefix_relation_holds(self):
        assert output_values_equal([1, 2, 3], [1, 2])

    def test_mismatch_fails(self):
        assert not output_values_equal([1, 2, 3], [1, 9])

    def test_both_empty(self):
        assert output_values_equal([], [])


class TestCheckEquivalence:
    def test_perfect_match(self):
        report = check_equivalence(
            [1, 2, 3], [1, 2, 3], [0.0, 1.0, 2.0], [0.0, 1.0, 2.0]
        )
        assert report.equivalent
        assert report.values_equal
        assert report.max_time_shift_ms == 0.0
        assert report.prefix_length == 3

    def test_time_shift_measured(self):
        report = check_equivalence(
            [1, 2], [1, 2], [0.0, 10.0], [0.5, 10.2]
        )
        assert report.max_time_shift_ms == 0.5
        assert report.mean_time_shift_ms > 0

    def test_value_divergence_fails(self):
        report = check_equivalence([1, 2], [1, 3], [0.0, 1.0], [0.0, 1.0])
        assert not report.values_equal
        assert not report.equivalent

    def test_duplicated_stalls_break_equivalence(self):
        report = check_equivalence(
            [1], [1], [0.0], [0.0],
            reference_stalls=0, duplicated_stalls=3,
        )
        assert not report.equivalent

    def test_stall_parity_is_acceptable(self):
        report = check_equivalence(
            [1], [1], [0.0], [0.0],
            reference_stalls=2, duplicated_stalls=2,
        )
        assert report.equivalent
