"""Robust variable step size: error-energy correlation and clamped geometric
step update.  Pure elementwise functions: floats for one filter, (rows,)
arrays for a batch."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StepSizeParams", "update_correlation", "update_step_size"]


@dataclass(frozen=True)
class StepSizeParams:
    """Constants of the step-size recursion.

    Any object with these attributes works where a StepSizeParams is
    expected; in particular a FilterConfig can be passed directly.
    """

    alpha: float
    beta: float
    gamma: float
    nu_min: float
    nu_max: float


def update_correlation(p_prev, e_now, e_prev, alpha: float):
    """Average error-energy correlation: alpha*p + (1-alpha)*e(n)*e(n-1)."""
    return alpha * p_prev + (1.0 - alpha) * e_now * e_prev


def update_step_size(nu, p, params):
    """Advance the step size, beta*nu + gamma*p**2, clamped to [nu_min, nu_max].

    Boundary values pass through unchanged (closed interval).
    """
    raw = params.beta * nu + params.gamma * p * p
    # max/min return one of their operands exactly, and a NaN raw stays NaN
    return np.minimum(np.maximum(raw, params.nu_min), params.nu_max)
