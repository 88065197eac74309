"""Argument validation helpers.

The simulator's public entry points validate eagerly so configuration
mistakes fail at construction time with a clear message instead of
surfacing as nonsense statistics after a long run.
"""

from __future__ import annotations

import argparse


def check_positive(value: float, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_non_negative(value: float, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is >= 0."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_in_range(value: float, lo: float, hi: float, name: str) -> None:
    """Raise ``ValueError`` unless ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")


# -- argparse ``type=`` converters: a bad value exits 2 with a usage
# message instead of a traceback from deep inside a run.


def positive_int(text: str) -> int:
    """Parse an integer > 0."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def non_negative_int(text: str) -> int:
    """Parse an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def non_negative_float(text: str) -> float:
    """Parse a finite number >= 0 (e.g. a fractional budget)."""
    try:
        value = float(text)
    except ValueError:
        value = -1.0
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a non-negative number, got {text!r}")
    return value


def sampling_rate(text: str) -> float | str:
    """Parse a page-relative sampling rate: a positive number, or ``full``."""
    if text == "full":
        return text
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number or 'full', got {text!r}"
        )
    return value
