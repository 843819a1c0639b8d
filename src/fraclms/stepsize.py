"""Robust variable step size: error-energy correlation and clamped geometric
step update.  Pure elementwise functions: floats for one filter, (rows,)
arrays for a batch."""

from __future__ import annotations

import numpy as np

__all__ = ["update_correlation", "update_step_size"]


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
