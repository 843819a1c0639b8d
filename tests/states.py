"""Filter states shared by the tests."""

import numpy as np

from fraclms.filters import FilterConfig, FilterState


def fresh_state(cfg: FilterConfig, k: int) -> FilterState:
    """Fresh state of one k-tap filter: every weight at weight_init, nu at nu_init, no history."""
    return FilterState(np.full(k, float(cfg.weight_init)), float(cfg.nu_init), 0.0, 0.0)
