"""Tests for the robust variable step-size recursion."""

import numpy as np
import pytest

from fraclms.filters import FilterConfig, update_correlation, update_step_size


def params(**over):
    base = dict(
        tap_count=1, frac_order=0.5, nu_init=2e-4, nu_f_init=0.0,
        nu_min=1e-4, nu_max=3e-4, alpha=0.5, beta=0.5, gamma=0.5,
    )
    base.update(over)
    return FilterConfig(**base)


PAPERISH = params()


class TestUpdateCorrelation:
    def test_zero_inputs(self):
        assert update_correlation(0.0, 0.0, 5.0, 0.5) == 0.0

    def test_pure_decay(self):
        assert update_correlation(1.0, 0.0, 123.0, 0.5) == 0.5

    def test_hand_value(self):
        got = update_correlation(0.2, 1.0, -1.0, 0.5)
        assert got == pytest.approx(-0.4, rel=1e-12)


class TestUpdateStepSize:
    def test_decay_to_lower_bound(self):
        # raw value 0.5 * 2e-4 lands exactly on nu_min and passes through
        assert update_step_size(2e-4, 0.0, PAPERISH) == 1e-4

    def test_upper_clamp(self):
        # raw = 0.5e-4 + 0.5 = 0.50005
        assert update_step_size(1e-4, 1.0, PAPERISH) == 3e-4

    def test_repeated_decay_reaches_floor(self):
        nu = 3e-4
        for _ in range(60):
            nu = update_step_size(nu, 0.0, PAPERISH)
            assert 1e-4 <= nu <= 3e-4
        assert nu == 1e-4

    def test_clamp_totality(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            nu = float(rng.uniform(-10.0, 10.0))
            p = float(rng.normal(scale=100.0))
            out = update_step_size(nu, p, PAPERISH)
            assert PAPERISH.nu_min <= out <= PAPERISH.nu_max

    def test_sign_insensitive(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            nu = float(rng.uniform(1e-4, 3e-4))
            p = float(rng.normal())
            assert update_step_size(nu, p, PAPERISH) == update_step_size(nu, -p, PAPERISH)

    def test_monotone_in_correlation_magnitude(self):
        ps = np.linspace(0.0, 0.02, 40)
        outs = [update_step_size(2e-4, p, PAPERISH) for p in ps]
        assert all(b >= a for a, b in zip(outs, outs[1:]))

    def test_geometric_decay_law_exact_for_half(self):
        # beta = 0.5 halves exactly; no clamp active with wide bounds
        wide = params(nu_init=0.75, nu_min=1e-300, nu_max=1.0)
        nu = 0.75
        for k in range(1, 40):
            nu = update_step_size(nu, 0.0, wide)
            assert nu == 0.5**k * 0.75

    def test_geometric_decay_law_generic_beta(self):
        wide = params(nu_init=0.2, beta=0.7, nu_min=1e-300, nu_max=1.0)
        nu = 0.2
        for k in range(1, 12):
            nu = update_step_size(nu, 0.0, wide)
            assert nu == pytest.approx(0.7**k * 0.2, rel=1e-12)

    def test_filter_config_works_as_params(self):
        cfg = FilterConfig(
            tap_count=1, frac_order=0.5, nu_init=2e-4, nu_f_init=0.0,
            nu_min=1e-4, nu_max=3e-4, alpha=0.5, beta=0.5, gamma=0.5,
        )
        assert update_step_size(2e-4, 0.0, cfg) == 1e-4
