"""Tests for argument validation helpers."""

import argparse

import pytest

from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    non_negative_float,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive(1, "x")
        check_positive(0.001, "x")

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive(0, "x")
        with pytest.raises(ValueError):
            check_positive(-3, "x")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        check_non_negative(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="x must be >= 0"):
            check_non_negative(-1, "x")


class TestCheckInRange:
    def test_accepts_bounds(self):
        check_in_range(0, 0, 1, "x")
        check_in_range(1, 0, 1, "x")

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            check_in_range(1.5, 0, 1, "x")
        with pytest.raises(ValueError):
            check_in_range(-0.5, 0, 1, "x")

    def test_message_names_argument(self):
        with pytest.raises(ValueError, match="threshold"):
            check_in_range(2, 0, 1, "threshold")


class TestNonNegativeFloat:
    def test_accepts_zero_and_fractions(self):
        assert non_negative_float("0") == 0.0
        assert non_negative_float("0.15") == 0.15

    @pytest.mark.parametrize("text", ["-1", "-0.01", "nan", "inf", "abc"])
    def test_rejects_negative_and_non_finite(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="non-negative number"):
            non_negative_float(text)
