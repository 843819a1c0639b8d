"""Tests for the filter cores: fractional powers, the update rules and the
formulas inside them.

The gradient terms and gamma(2 - f) have no functions of their own: each
is read off one executed step (flms_step with one of its step sizes at 0),
so these tests check the code the simulation runs."""

import math

import numpy as np
import pytest

from fraclms.filters import (
    FilterConfig,
    FilterState,
    flms_step,
    frac_power,
    predict,
    rvss_flms_step,
    tap_dot,
)

# closed forms, cross-checked against quadrature in TestGamma
GAMMA_1_5 = 0.88622692545275801365
GAMMA_1_25 = 0.90640247705547707798


def make_config(**over):
    base = dict(
        frac_order=0.5,
        nu_init=0.01,
        nu_f_init=0.01,
        nu_min=0.005,
        nu_max=0.03,
        alpha=0.5,
        beta=0.5,
        gamma=0.5,
        weight_init=0.0,
    )
    base.update(over)
    return FilterConfig(**base)


def state_with(weights, nu=0.01, p=0.0, prev_error=0.0):
    return FilterState(np.asarray(weights, dtype=float), nu, p, prev_error)


def integer_gradient(w, x, d, nu=0.5):
    """Gradient of the cost (d - w.x)**2 / 2, read off one LMS step: (w - w') / nu."""
    cfg = make_config(nu_init=nu, nu_f_init=0.0)
    st = state_with(w)
    return (st.weights - flms_step(st, np.asarray(x, dtype=float), d, cfg)[0].weights) / nu


def fractional_gradient(w, x, d, f, nu_f=0.5):
    """The fractional term -e*x*w**(1-f)/gamma(2-f), read off one FLMS step with nu_init = 0."""
    cfg = make_config(frac_order=f, nu_init=0.0, nu_f_init=nu_f)
    st = state_with(w)
    return (st.weights - flms_step(st, np.asarray(x, dtype=float), d, cfg)[0].weights) / nu_f


def recovered_gamma(f):
    """gamma(2 - f) from one FLMS step whose fractional term alone moves w = 1 by 1/gamma(2 - f)."""
    cfg = make_config(frac_order=f, nu_init=0.0, nu_f_init=1.0)
    new, _ = flms_step(state_with([1.0]), np.array([1.0]), 2.0, cfg)
    return 1.0 / (new.weights[0] - 1.0)


class TestPredict:
    def test_selector_weight(self):
        assert predict(state_with([1.0, 0.0, 0.0]), np.array([5.0, 7.0, 9.0])) == 5.0

    def test_zero_weights(self):
        assert predict(state_with([0.0, 0.0, 0.0]), np.array([3.0, -2.0, 8.0])) == 0.0

    def test_hand_inner_product(self):
        got = predict(state_with([0.9, 0.3, -0.1]), np.array([1.0, 1.0, 1.0]))
        assert got == pytest.approx(1.1, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="tap count"):
            predict(state_with([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


class TestTapDot:
    """A batch call sums over the taps on axis 0, each column bitwise as a call of its own."""

    @staticmethod
    def bits(values):
        return np.asarray(values, dtype=float).view(np.int64)

    def test_batch_of_columns(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, 3, 6))
        a[:, 0], b[:, 0] = (0.0, -0.0, 2.0), (5.0, 3.0, -1.5)  # products 0.0, -0.0 and -3.0
        a[:, 1], b[:, 1] = -0.0, 4.0  # every product -0.0
        got = tap_dot(a, b)
        assert got.shape == (6,)
        assert np.array_equal(self.bits(got), self.bits([tap_dot(a[:, j], b[:, j]) for j in range(6)]))

    def test_coefficient_vector_meets_every_window(self):
        rng = np.random.default_rng(4)
        coeffs = np.array([0.5, -0.0, -1.25])
        windows = rng.normal(size=(3, 5, 4))
        windows[:, 2, 1] = 0.0, 7.0, 2.0  # products 0.0, -0.0 and -2.5
        got = tap_dot(coeffs, windows)
        assert got.shape == (5, 4)
        each = [[tap_dot(coeffs, windows[:, n, r]) for r in range(4)] for n in range(5)]
        assert np.array_equal(self.bits(got), self.bits(each))

    @pytest.mark.parametrize("trailing", [(), (1,), (1, 1), (2,), (16, 40)], ids=str)
    @pytest.mark.parametrize("k", range(1, 13))
    def test_summation_route_adds_in_tap_order(self, k, trailing):
        # tap_dot hands fewer than 8 taps to np.add.reduce, resting on numpy's
        # reduce loop: it adds fewer than 8 terms one by one from the initial
        # value in any layout, but 8 or more that lie in one contiguous run
        # (the (K,), (K, 1) and (K, 1, 1) layouts) pairwise, which differs
        # from tap order in the last bits.  A numpy that moves that boundary
        # down, or a tap_dot that reduces at 8 taps or more, fails here.
        rng = np.random.default_rng(k)
        for draw in range(8 if trailing != (16, 40) else 1):
            shape = (k,) + trailing
            a = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)
            b = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)
            a[rng.random(shape) < 0.2] = 0.0
            b[rng.random(shape) < 0.2] = -0.0
            if draw == 1:  # every product a signed zero
                b[...] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
            want = np.empty(trailing)
            for col in np.ndindex(trailing):
                acc = 0.0
                for i in range(k):
                    acc += float(a[(i,) + col]) * float(b[(i,) + col])
                want[col] = acc
            assert np.array_equal(self.bits(tap_dot(a, b)), self.bits(want))


class TestIntegerGradient:
    """The integer-order term of flms_step: -e*x."""

    def test_zero_error(self):
        w = [0.5, -0.5, 2.0]
        out = integer_gradient(w, [4.0, -1.0, 2.0], 0.5 * 4.0 + 0.5 + 4.0)
        assert np.array_equal(out, np.zeros(3))

    def test_sign_flip(self):
        out = integer_gradient([0.0, 0.0, 0.0], [1.0, -1.0, 2.0], 1.0)
        assert np.array_equal(out, np.array([-1.0, 1.0, -2.0]))

    def test_hand_value(self):
        out = integer_gradient([0.0, 0.0, 0.0], [2.0, 0.0, 4.0], 0.5)
        assert np.array_equal(out, np.array([-1.0, 0.0, -2.0]))

    def test_matches_central_finite_differences(self):
        # J(w) = (d - w.x)**2 / 2 is quadratic in each w_k, so the
        # central difference is exact up to roundoff.
        rng = np.random.default_rng(1234)
        h = 1e-6
        for _ in range(100):
            w = rng.uniform(-2.0, 2.0, size=3)
            x = rng.uniform(-2.0, 2.0, size=3)
            d = float(rng.uniform(-3.0, 3.0))
            grad = integer_gradient(w, x, d)
            fd = np.empty(3)
            for k in range(3):
                wp, wm = w.copy(), w.copy()
                wp[k] += h
                wm[k] -= h
                jp = 0.5 * (d - predict(state_with(wp), x)) ** 2
                jm = 0.5 * (d - predict(state_with(wm), x)) ** 2
                fd[k] = (jp - jm) / (2.0 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-7)


class TestFracPower:
    def test_positive_branch(self):
        assert frac_power(4.0, 0.5) == 2.0

    def test_negative_branch(self):
        assert frac_power(-4.0, 0.5) == -2.0

    def test_zero(self):
        assert frac_power(0.0, 0.3) == 0.0

    @pytest.mark.parametrize("a", [0.5, 0.3])
    def test_bits_of_sign_times_magnitude_at_every_nonzero_w(self, a):
        rng = np.random.default_rng(6)
        w = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=20000, endpoint=True).view(float)
        extremes = [np.finfo(float).max, np.finfo(float).smallest_normal, np.finfo(float).smallest_subnormal, 1.0]
        w = np.concatenate([w[np.isfinite(w) & (w != 0.0)], extremes, np.negative(extremes)])
        with np.errstate(all="ignore"):
            want = np.sign(w) * np.abs(w) ** a
        assert np.array_equal(frac_power(w, a).view(np.int64), want.view(np.int64))

    def test_signed_zero_keeps_its_sign(self):
        got = frac_power(np.array([0.0, -0.0]), 0.5)
        assert np.array_equal(got, [0.0, 0.0])
        assert list(np.signbit(got)) == [False, True]

    def test_nan_stays_nan(self):
        assert np.isnan(frac_power(np.array([np.nan, -np.nan]), 0.3)).all()

    def test_odd_under_signed_magnitude(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            w = float(rng.uniform(-10.0, 10.0))
            a = float(rng.uniform(0.01, 0.99))
            assert frac_power(-w, a) == -frac_power(w, a)


class TestGamma:
    """gamma(2 - f) as flms_step applies it; f in (0, 1) puts its argument in (1, 2)."""

    def test_frozen_values(self):
        assert recovered_gamma(0.5) == pytest.approx(GAMMA_1_5, rel=1e-12)
        assert recovered_gamma(0.75) == pytest.approx(GAMMA_1_25, rel=1e-12)

    def test_against_quadrature_oracle(self):
        # independent check: Euler integral evaluated numerically; the
        # truncated tail beyond t=60 is below 1e-24 for these arguments
        from scipy.integrate import quad

        for x in (1.05, 1.25, 1.5, 1.75):
            ref, err = quad(
                lambda t, x=x: t ** (x - 1.0) * math.exp(-t), 0.0, 60.0,
                epsabs=1e-13, epsrel=1e-13,
            )
            assert err < 1e-11
            assert recovered_gamma(2.0 - x) == pytest.approx(ref, rel=1e-10)

    def test_squared_half_integer_identity(self):
        assert recovered_gamma(0.5) ** 2 == pytest.approx(math.pi / 4.0, rel=1e-10)


class TestFractionalGradient:
    """The fractional term of flms_step: -e*x*w**(1-f)/gamma(2-f)."""

    def test_zero_error(self):
        w = [0.5, -0.5, 2.0]
        out = fractional_gradient(w, [1.0, 2.0, 3.0], 0.5 - 1.0 + 6.0, 0.5)
        assert np.array_equal(out, np.zeros(3))

    def test_unit_case(self):
        out = fractional_gradient([1.0], [1.0], 2.0, 0.5)
        assert out[0] == pytest.approx(-1.1283791670955126, rel=1e-12)

    def test_near_integer_order_matches_integer_gradient(self):
        rng = np.random.default_rng(77)
        f = 1.0 - 1e-8
        for _ in range(50):
            w = rng.uniform(0.1, 3.0, size=4)
            x = rng.uniform(-2.0, 2.0, size=4)
            d = float(rng.uniform(-2.0, 2.0))
            frac = fractional_gradient(w, x, d, f)
            np.testing.assert_allclose(frac, integer_gradient(w, x, d), rtol=1e-6, atol=1e-12)


def _plain_lms(w0, nu, samples):
    """Independent LMS: pure-python floats, tap-order accumulation."""
    w = [float(v) for v in w0]
    trail = []
    for x, d in samples:
        y = 0.0
        for i in range(len(w)):
            y += w[i] * x[i]
        e = d - y
        for i in range(len(w)):
            w[i] = w[i] + (nu * e) * x[i]
        trail.append((e, list(w)))
    return trail


class TestFlmsStep:
    def test_zero_error_fixed_point(self):
        cfg = make_config()
        st = state_with([0.4, -0.2, 0.7], nu=cfg.nu_init)
        reg = np.array([1.0, -1.0, 1.0])
        desired = predict(st, reg)
        new, err = flms_step(st, reg, desired, cfg)
        assert err == 0.0
        assert np.array_equal(new.weights, st.weights)
        assert new.nu == st.nu and new.p == st.p

    def test_lms_degeneracy_bitwise(self):
        cfg = make_config(nu_f_init=0.0, nu_init=0.05)
        rng = np.random.default_rng(99)
        samples = [
            (rng.uniform(-1.5, 1.5, size=3), float(rng.uniform(-2.0, 2.0))) for _ in range(200)
        ]
        st = state_with([0.1, -0.3, 0.2], nu=cfg.nu_init)
        ref = _plain_lms(st.weights, cfg.nu_init, samples)
        for (x, d), (e_ref, w_ref) in zip(samples, ref):
            st, e = flms_step(st, x, d, cfg)
            assert e == e_ref
            assert list(st.weights) == w_ref

    def test_hand_step_with_coupled_step_sizes(self):
        # nu_f = nu * gamma(2 - f) makes both terms contribute 0.1 here
        nu = 0.1
        cfg = make_config(nu_init=nu, nu_f_init=nu * math.gamma(1.5), nu_min=0.01, nu_max=0.5)
        st = state_with([1.0], nu=nu)
        new, err = flms_step(st, np.array([1.0]), 2.0, cfg)
        assert err == 1.0
        assert new.weights[0] == pytest.approx(1.2, rel=1e-14)

    def test_divergence_returns_non_finite_weights(self):
        cfg = make_config(nu_init=1.0, nu_f_init=0.0, nu_max=2.0)
        with np.errstate(all="ignore"):
            new, err = flms_step(state_with([1e200], nu=1.0), np.array([1e200]), 0.0, cfg)
        assert not np.isfinite(err) and not np.isfinite(new.weights).any()


class TestRvssFlmsStep:
    def test_zero_error_path(self):
        cfg = make_config()
        st = state_with([0.5, 0.1, -0.4], nu=0.02, p=0.6, prev_error=0.3)
        reg = np.array([1.0, 1.0, -1.0])
        new, err = rvss_flms_step(st, reg, predict(st, reg), cfg)
        assert err == 0.0
        assert np.array_equal(new.weights, st.weights)
        assert new.p == cfg.alpha * st.p
        expected_nu = min(max(cfg.beta * st.nu + cfg.gamma * new.p * new.p, cfg.nu_min), cfg.nu_max)
        assert new.nu == expected_nu
        assert new.prev_error == 0.0

    def test_hand_step_unit_weight(self):
        # w**(1-f) = 1 for w = 1 regardless of f
        for f in (0.2, 0.5, 0.8):
            cfg = make_config(frac_order=f, nu_init=0.2, nu_min=0.01, nu_max=0.5)
            st = state_with([1.0], nu=0.2)
            new, err = rvss_flms_step(st, np.array([1.0]), 2.0, cfg)
            assert err == 1.0
            assert new.weights[0] == pytest.approx(1.4, rel=1e-15)

    def test_increment_scales_exactly_with_error(self):
        # with zero weights the add is transparent, so the observed
        # increment is the mathematical one and doubling the error
        # doubles it bitwise
        cfg = make_config()
        st = state_with([0.0, 0.0, 0.0], nu=0.015)
        reg = np.array([1.0, -1.0, 1.0])
        new1, e1 = rvss_flms_step(st, reg, 0.25, cfg)
        new2, e2 = rvss_flms_step(st, reg, 0.5, cfg)
        assert e1 == 0.25 and e2 == 0.5
        assert np.array_equal(new2.weights, 2.0 * new1.weights)

    def test_increment_scales_with_error_general_state(self):
        # through a nonzero state the add/subtract costs at most one
        # rounding per tap, so the scaling holds to machine precision
        cfg = make_config()
        st = state_with([0.5, -0.25, 0.125], nu=0.015)
        reg = np.array([1.0, -1.0, 1.0])
        base = predict(st, reg)
        new1, e1 = rvss_flms_step(st, reg, base + 0.25, cfg)
        new2, e2 = rvss_flms_step(st, reg, base + 0.5, cfg)
        assert e1 == 0.25 and e2 == 0.5
        inc1 = new1.weights - st.weights
        inc2 = new2.weights - st.weights
        np.testing.assert_allclose(inc2, 2.0 * inc1, rtol=1e-13)

    def test_increment_scales_with_arbitrary_factor(self):
        cfg = make_config()
        st = state_with([0.7, -0.2, 0.05], nu=0.015)
        reg = np.array([0.8, -1.2, 0.4])
        base = predict(st, reg)
        c = 1.7
        new1, _ = rvss_flms_step(st, reg, base + 0.25, cfg)
        new2, _ = rvss_flms_step(st, reg, base + c * 0.25, cfg)
        np.testing.assert_allclose(new2.weights - st.weights, c * (new1.weights - st.weights), rtol=1e-14)

    def test_uses_current_nu_before_advancing_it(self):
        cfg = make_config(nu_init=0.02, nu_min=0.001, nu_max=0.5, gamma=100.0)
        st = state_with([1.0], nu=0.02, p=0.0, prev_error=1.0)
        new, err = rvss_flms_step(st, np.array([1.0]), 2.0, cfg)
        # weight moved by nu(n) = 0.02, not by the advanced step size
        assert new.weights[0] == pytest.approx(1.0 + 0.02 * 1.0 * 2.0, rel=1e-15)
        assert new.nu != st.nu

    def test_divergence_returns_non_finite_weights(self):
        cfg = make_config(nu_init=0.02, nu_max=0.5)
        with np.errstate(all="ignore"):
            new, err = rvss_flms_step(state_with([1e300], nu=0.3), np.array([1e300]), 0.0, cfg)
        assert not np.isfinite(err) and not np.isfinite(new.weights).any()


class TestFilterConfigValidation:
    def test_valid_config_has_no_violations(self):
        assert make_config().violations() == []

    def test_swapped_bounds_named(self):
        bad = make_config(nu_min=0.5, nu_max=0.1)
        msgs = bad.violations()
        assert any("nu_max" in m and "nu_min" in m for m in msgs)

    def test_all_violations_reported(self):
        bad = make_config(frac_order=1.5, alpha=2.0, beta=-1.0, gamma=0.0)
        msgs = bad.violations()
        for field in ("frac_order", "alpha", "beta", "gamma"):
            assert any(field in m for m in msgs), field

    def test_nu_init_outside_bounds(self):
        bad = make_config(nu_init=1.0)
        assert any("nu_init" in m for m in bad.violations())

    @pytest.mark.parametrize("nu_f", [math.nan, math.inf, -0.01])
    def test_nu_f_init_must_be_finite_and_nonnegative(self, nu_f):
        assert any("nu_f_init" in m for m in make_config(nu_f_init=nu_f).violations())


    @pytest.mark.parametrize(
        "over, key",
        [
            (dict(nu_max=math.inf), "nu_max"),
            (dict(nu_max=math.inf, nu_init=math.inf), "nu_max"),
            (dict(gamma=math.inf), "gamma"),
            (dict(gamma=math.nan), "gamma"),
        ],
    )
    def test_step_size_constants_must_be_finite(self, over, key):
        assert any(m.startswith(f"{key} must be finite") for m in make_config(**over).violations())
