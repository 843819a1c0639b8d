"""
Reporting metrics: ensemble MSE curves, normalized weight difference,
steady-state levels and convergence-iteration detection.

Conventions: MSE is a power quantity and uses 10*log10, NWD is an
amplitude ratio and uses 20*log10.  Exact-zero ratios are floored at
-320 dB so reports stay finite and serializable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .filters import tap_dot

__all__ = [
    "DB_FLOOR",
    "TAIL_FRACTION",
    "MARGIN_DB",
    "EnsembleReport",
    "weight_distance",
    "nwd_db",
    "steady_state_level",
    "convergence_iteration",
    "build_report",
]

DB_FLOOR = -320.0
TAIL_FRACTION = 0.25  # steady state: mean of the last quarter of a curve
MARGIN_DB = 1.0  # converged: within this of the steady state from then on


@dataclass
class EnsembleReport:
    """Averaged curves plus convergence summaries for one algorithm/SNR cell."""

    mse_db: np.ndarray
    nwd_db: np.ndarray
    steady_mse_db: float
    mse_conv_iter: Optional[int]
    steady_nwd_db: float
    nwd_conv_iter: Optional[int]
    runs_used: int
    diverged_at: list[int]  # the sorted sample index at which each diverged run was masked

    @property
    def runs_diverged(self) -> int:
        return len(self.diverged_at)


def weight_distance(truth):
    """Squared normalized weight distance to truth: est -> ||truth - est||**2 / ||truth||**2.

    truth is one (K,) weight vector or a (K, rows) column per row; its norm
    is computed and checked once here.  An estimate has truth's shape, or
    more axes right after the taps: a (K, C, rows) stack of estimates gives
    (C, rows) ratios, each bitwise equal to the ratio of its own slice.
    """
    t = np.asarray(truth, dtype=float)
    tnorm2 = tap_dot(t, t)
    if np.any(tnorm2 == 0.0):
        raise ValueError("truth vector must be nonzero")

    def ratio(estimated):
        e = np.asarray(estimated, dtype=float)
        stacked = e.ndim - t.ndim
        if stacked < 0 or e.shape[:1] + e.shape[1 + stacked :] != t.shape:
            raise ValueError(f"length mismatch: estimated {e.shape} vs truth {t.shape}")
        d = t.reshape(t.shape[:1] + (1,) * stacked + t.shape[1:]) - e
        return tap_dot(d, d) / tnorm2

    return ratio


def nwd_db(distance):
    """Normalized weight difference in dB, 20*log10(||truth - est|| / ||truth||).

    Converts each squared distance ratio of :func:`weight_distance` (any
    shape) with libm's log10, the function math.log10 calls, through
    numpy's strided fallback loop: np.log10's SIMD loop is 1 ulp off libm
    on a few percent of inputs, which would change the curves.  A negative
    ratio raises ValueError, as math.log10 does.
    """
    d = np.asarray(distance, dtype=float)
    if np.any(d < 0.0):
        raise ValueError("a squared distance ratio is negative")
    # only a 1-D array read backwards, output allocated by numpy, skips the SIMD
    # loop for libm per element: a reversed out= view or a 2-D array reversed
    # along an axis takes SIMD again (test_metrics.py guards the route); a zero's -inf floors to DB_FLOOR
    with np.errstate(divide="ignore"):
        db = np.log10(d.ravel()[::-1])[::-1].reshape(d.shape)
    db *= 10.0
    return np.maximum(db, DB_FLOOR)


def _ensemble_mean(curves) -> np.ndarray:
    """Per-iteration mean of (runs, N) rows, summed row by row in run order.

    Not curves.sum(axis=0): at N = 1 numpy sums the one column pairwise.  A
    column whose sum overflows is summed again over its rows times 2**-64,
    which is exact, so the mean of finite rows stays finite.
    """
    acc = np.zeros(np.shape(curves)[1])
    with np.errstate(over="ignore"):
        for row in curves:
            acc += row
    mean = acc / len(curves)
    over = np.isinf(acc)
    if over.any():  # only a sum of finite rows is redone: a column that holds inf stays inf
        over &= np.isfinite(curves).all(axis=0)
        mean[over] = _ensemble_mean(curves[:, over] * 2.0**-64) * 2.0**64
    return mean


def steady_state_level(curve_db) -> float:
    """Mean of the last ceil(TAIL_FRACTION * N) entries of a dB curve."""
    c = np.asarray(curve_db, dtype=float)
    if c.size == 0:
        raise ValueError("empty curve")
    k = math.ceil(TAIL_FRACTION * c.size)
    return float(np.mean(c[c.size - k:]))


def convergence_iteration(curve_db, steady_db: float) -> Optional[int]:
    """Smallest n with curve[m] <= steady_db + MARGIN_DB for every m >= n.

    Returns None when even the final sample sits above the threshold (NaN counts as above).
    """
    c = np.asarray(curve_db, dtype=float)
    above = np.nonzero(~(c <= steady_db + MARGIN_DB))[0]
    if above.size == 0:
        return 0
    n = int(above[-1]) + 1
    return n if n < c.size else None


def build_report(squared_error, nwd_db, diverged_at: list[int]) -> EnsembleReport:
    """Aggregate a cell's non-diverged runs, (runs, N) rows of e**2 and of NWD dB, and its diverged_at into a report.

    With no runs (all diverged) the curves are empty and the levels NaN.
    """
    if len(squared_error) == 0:
        return EnsembleReport(np.empty(0), np.empty(0), math.nan, None, math.nan, None, 0, diverged_at)
    with np.errstate(divide="ignore"):
        mse = np.maximum(10.0 * np.log10(_ensemble_mean(squared_error)), DB_FLOOR)
    nwd = _ensemble_mean(nwd_db)
    s_mse = steady_state_level(mse)
    s_nwd = steady_state_level(nwd)
    return EnsembleReport(
        mse_db=mse,
        nwd_db=nwd,
        steady_mse_db=s_mse,
        mse_conv_iter=convergence_iteration(mse, s_mse),
        steady_nwd_db=s_nwd,
        nwd_conv_iter=convergence_iteration(nwd, s_nwd),
        runs_used=len(squared_error),
        diverged_at=diverged_at,
    )
