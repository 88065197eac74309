"""Sampling accuracy metrics (paper Section II.B.2, formulae (1), (2)).

Given two correlation maps A (the estimate) and B (the reference), the
paper measures their distance by the Euclidean norm

    E_EUC = sqrt( sum (a_ij - b_ij)^2 ) / sqrt( sum b_ij^2 )

and by absolute value

    E_ABS = sum |a_ij - b_ij| / sum b_ij

**Absolute accuracy** compares an estimate against the full-sampling
map; **relative accuracy** compares two sampled maps where A samples
less frequently than B.  The paper's finding — reproduced by the Fig. 9
benchmark — is that E_ABS is the more stable signal and that relative
accuracy tracks absolute accuracy closely enough to drive the adaptive
controller, which only ever has relative information.
"""

from __future__ import annotations

import math

import numpy as np


def _as_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def euclidean_error(a: np.ndarray, b: np.ndarray) -> float:
    """Formula (1): Frobenius distance normalized by ||B||."""
    a, b = _as_pair(a, b)
    denom = math.sqrt(float((b * b).sum()))
    if denom == 0.0:
        return 0.0 if float((a * a).sum()) == 0.0 else math.inf
    return math.sqrt(float(((a - b) ** 2).sum())) / denom


def absolute_error(a: np.ndarray, b: np.ndarray) -> float:
    """Formula (2): L1 distance normalized by sum(B)."""
    a, b = _as_pair(a, b)
    denom = float(np.abs(b).sum())
    if denom == 0.0:
        return 0.0 if float(np.abs(a).sum()) == 0.0 else math.inf
    return float(np.abs(a - b).sum()) / denom


def accuracy(a: np.ndarray, b: np.ndarray, metric: str = "abs") -> float:
    """Accuracy = 1 - error, floored at 0 (the paper plots percentages)."""
    if metric == "abs":
        err = absolute_error(a, b)
    elif metric == "euc":
        err = euclidean_error(a, b)
    else:
        raise ValueError(f"unknown metric {metric!r}; use 'abs' or 'euc'")
    if math.isinf(err):
        return 0.0
    return max(0.0, 1.0 - err)
