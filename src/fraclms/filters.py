"""
Adaptive filter cores: LMS, FLMS and RVSS-FLMS
==============================================

Single-sample weight updates for the least mean square family of adaptive
filters.  The fractional LMS (FLMS) augments the usual stochastic-gradient
update with a fractional-order gradient term; RVSS-FLMS additionally drives
the step size from a low-pass filtered error autocorrelation (see
:func:`update_correlation` and :func:`update_step_size`).

All operations are pure: they take a state and return a new state.  The
taps are the first axis: a state holds (K,) weights and scalar nu, p and
prev_error for one filter, or (K, rows) weights and (rows,) arrays for a
batch of independent filters advanced together.  The tap window x is (K,)
or (K, rows), most recent input first.  Every row is computed with the
same operations in the same order as a single filter, so a batch row is
bitwise equal to that filter run alone.  An update is pure arithmetic
and never checks its result: a diverging row turns non-finite, and the
caller decides what that means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FilterConfig",
    "FilterState",
    "tap_dot",
    "predict",
    "frac_power",
    "update_correlation",
    "update_step_size",
    "flms_step",
    "rvss_flms_step",
]


@dataclass(frozen=True)
class FilterConfig:
    """Static hyperparameters of one adaptive filter instance.

    The filter has one weight per coefficient of the plant it identifies.

    Attributes
    ----------
    frac_order : float
        Fractional derivative order f, 0 < f < 1.
    nu_init : float
        Initial step size.  FLMS and plain LMS keep it constant.
    nu_f_init : float
        Step size of the fractional gradient term.  Plain LMS is FLMS with
        it at 0, set where the batch kernel builds its per-row vector.
    nu_min, nu_max : float
        Clamp bounds for the RVSS step-size recursion.
    alpha : float
        Forgetting factor of the error-energy correlation, 0 < alpha < 1.
    beta : float
        Geometric step-size decay factor, 0 < beta < 1.
    gamma : float
        Gain on the squared error-energy correlation, > 0.
    weight_init : float
        Initial value of every tap weight.
    """

    frac_order: float
    nu_init: float
    nu_f_init: float
    nu_min: float
    nu_max: float
    alpha: float
    beta: float
    gamma: float
    weight_init: float = 0.0

    def violations(self) -> list[str]:
        """Return a description of every violated invariant (empty if valid)."""
        bad = []
        if not 0.0 < self.frac_order < 1.0:
            bad.append(f"frac_order must lie in (0, 1), got {self.frac_order}")
        if not (math.isfinite(self.nu_f_init) and self.nu_f_init >= 0.0):
            bad.append(f"nu_f_init must be finite and >= 0, got {self.nu_f_init}")
        if not self.nu_min > 0.0:
            bad.append(f"nu_min must be > 0, got {self.nu_min}")
        if not self.nu_max > self.nu_min:
            bad.append(f"nu_max must exceed nu_min, got nu_max={self.nu_max} <= nu_min={self.nu_min}")
        elif not math.isfinite(self.nu_max):
            bad.append(f"nu_max must be finite, got {self.nu_max}")
        elif not self.nu_min <= self.nu_init <= self.nu_max:
            bad.append(f"nu_init must lie in [nu_min, nu_max], got {self.nu_init}")
        if not 0.0 < self.alpha < 1.0:
            bad.append(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            bad.append(f"beta must lie in (0, 1), got {self.beta}")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            bad.append(f"gamma must be finite and > 0, got {self.gamma}")
        if not math.isfinite(self.weight_init):
            bad.append(f"weight_init must be finite, got {self.weight_init}")
        return bad


@dataclass(slots=True)
class FilterState:
    """Weights, step size and error correlation of one filter or of a batch.

    One filter: (K,) weights and float nu, p and prev_error.  A batch:
    (K, rows) weights, a column per filter, and (rows,) nu, p, prev_error.
    """

    weights: np.ndarray
    nu: float | np.ndarray
    p: float | np.ndarray
    prev_error: float | np.ndarray


def tap_dot(a, b):
    """Inner product over the first axis, accumulated in tap order from 0.0.

    All products are formed at once, then their tap rows are added one by
    one; trailing axes broadcast, also a (K,) a against a (K, ...) b.  Every
    inner product of the simulation goes through here, so each row is
    bit-reproducible against a plain sequential loop in python floats.
    Below 8 taps one np.add.reduce adds them: numpy sums fewer than 8 terms
    in order in any layout, but 8 or more in one contiguous run pairwise.
    """
    a = np.asarray(a, dtype=float)
    prod = a * b if a.ndim == np.ndim(b) else a.reshape(a.shape + (1,) * (np.ndim(b) - a.ndim)) * b
    if len(prod) < 8:
        return np.add.reduce(prod, axis=0, initial=0.0)
    acc = 0.0
    for i in range(len(prod)):
        acc = acc + prod[i]
    return acc


def predict(state: FilterState, x: np.ndarray):
    """Filter output: inner product of the weights with the tap window x, per row."""
    w = state.weights
    if len(w) != len(x):
        raise ValueError(f"regressor length {len(x)} does not match tap count {len(w)}")
    return tap_dot(w, x)


def frac_power(w, exponent: float):
    """Evaluate w**exponent elementwise as sign(w)*|w|**exponent, exponent in (0, 1).

    A real power of a negative base is undefined for such an exponent, but
    adaptive weights routinely go negative.  Carrying the sign keeps the
    update odd in w; copysign keeps the sign of a zero, and NaN stays NaN.
    """
    return np.copysign(np.abs(w) ** exponent, w)


def update_correlation(p_prev, e_now, e_prev, alpha: float):
    """Average error-energy correlation: alpha*p + (1-alpha)*e(n)*e(n-1)."""
    return alpha * p_prev + (1.0 - alpha) * e_now * e_prev


def update_step_size(nu, p, cfg):
    """Advance the step size, beta*nu + gamma*p**2, clamped to [nu_min, nu_max].

    cfg is the filter's FilterConfig.  Boundary values pass through
    unchanged (closed interval).
    """
    raw = cfg.beta * nu + cfg.gamma * p * p
    # max/min return one of their operands exactly, and a NaN raw stays NaN
    return np.minimum(np.maximum(raw, cfg.nu_min), cfg.nu_max)


def flms_step(
    state: FilterState, x: np.ndarray, desired: float, cfg: FilterConfig
) -> tuple[FilterState, float]:
    """One FLMS update with constant step sizes nu_init and nu_f_init.

    w <- w + nu*e*x + nu_f*e*x*w**(1-f)/gamma(2-f).  With nu_f_init = 0
    this is exactly the plain LMS recursion, so every algorithm but
    RVSS-FLMS steps here, LMS and FLMS in one call.  In a batch,
    cfg.nu_init and cfg.nu_f_init may be (rows,) vectors, one step size
    per row; f stays one scalar.

    Returns the advanced state and the prediction error of each row.
    """
    error = desired - predict(state, x)
    f = cfg.frac_order
    wp = frac_power(state.weights, 1.0 - f)
    w = state.weights + (cfg.nu_init * error) * x + (cfg.nu_f_init * error) * x * wp / math.gamma(2.0 - f)
    return FilterState(weights=w, nu=state.nu, p=state.p, prev_error=error), error


def rvss_flms_step(
    state: FilterState, x: np.ndarray, desired: float, cfg: FilterConfig
) -> tuple[FilterState, float]:
    """One RVSS-FLMS update.

    The weight update w <- w + nu(n)*e*x*(1 + w**(1-f)) uses the current
    step size; afterwards the error-energy correlation p and the step size
    nu are advanced, so the returned state carries nu(n+1).
    """
    error = desired - predict(state, x)
    wp = frac_power(state.weights, 1.0 - cfg.frac_order)
    w = state.weights + (state.nu * error) * x * (1.0 + wp)
    p = update_correlation(state.p, error, state.prev_error, cfg.alpha)
    nu = update_step_size(state.nu, p, cfg)
    return FilterState(weights=w, nu=nu, p=p, prev_error=error), error
