"""Tests for curve aggregation and convergence summaries."""

import functools
import math

import numpy as np
import pytest

from fraclms.metrics import (
    DB_FLOOR,
    _ensemble_mean,
    build_report,
    convergence_iteration,
    nwd_db,
    steady_state_level,
)

TRUTH = np.array([0.9, 0.3, -0.1])


def generator_nwd_db(distance):
    """nwd_db as one Python expression per element, frozen as the reference."""
    d = np.asarray(distance, dtype=float)
    db = np.fromiter((10.0 * math.log10(r) if r else DB_FLOOR for r in d.flat), float, d.size)
    return np.maximum(db.reshape(d.shape), DB_FLOOR)


def squared_ratio(truth, est):
    """||truth - est||**2 / ||truth||**2, the ratio that run_identification converts with nwd_db."""
    truth, est = np.asarray(truth, dtype=float), np.asarray(est, dtype=float)
    return np.sum((truth - est) ** 2) / np.sum(truth**2)


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@functools.lru_cache(maxsize=1)
def log10_probe():
    """Ratios on which this host's contiguous np.log10 differs from math.log10.

    Drawn at test time over 1e-310..1e308, around 1 and over (1e-12, 1), so
    the subset is this host's own; where no value differs (numpy's float64
    log10 already calls libm), the whole draw.
    """
    rng = np.random.default_rng(27)
    draw = np.concatenate(
        [10.0 ** rng.uniform(-310.0, 308.0, 20_000), 1.0 + rng.normal(0.0, 1e-3, 20_000), rng.uniform(1e-12, 1.0, 20_000)]
    )
    libm = np.fromiter(map(math.log10, draw), float, draw.size)
    differs = np.log10(draw) != libm
    probe = draw[differs] if differs.any() else draw
    probe.flags.writeable = False
    return probe


def nwd_db_matches_math_log10():
    """Whether nwd_db equals the math.log10 reference bit for bit on the whole probe."""
    probe = log10_probe()
    return bitwise_equal(nwd_db(probe), generator_nwd_db(probe))


class TestNwdDb:
    def test_perfect_identification_hits_floor(self):
        assert nwd_db(squared_ratio(TRUTH, TRUTH.copy())) == DB_FLOOR

    def test_zero_estimate_is_zero_db(self):
        assert nwd_db(squared_ratio(TRUTH, np.zeros(3))) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        est = np.array([0.9, 0.3, 0.1])
        # 20*log10(0.2 / sqrt(0.91))
        assert nwd_db(squared_ratio(TRUTH, est)) == pytest.approx(-13.5698140099313, abs=1e-10)

    def test_scale_covariant(self):
        est = np.array([0.7, 0.4, 0.0])
        base = nwd_db(squared_ratio(TRUTH, est))
        assert nwd_db(squared_ratio(2.0 * TRUTH, 2.0 * est)) == base
        assert nwd_db(squared_ratio(-1.7 * TRUTH, -1.7 * est)) == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize(
        "distance",
        [
            0.0,
            -0.0,
            5e-324,
            1e-33,
            1.0,
            math.nan,
            math.inf,
            np.array(0.25),
            np.array([[0.0, 5e-324, 1e-33, 1e-40], [1.0, math.nan, math.inf, 3.7]]),
            np.random.default_rng(3).exponential(size=(6, 50)) ** 9,
        ],
    )
    def test_bitwise_equal_to_generator(self, distance):
        assert bitwise_equal(nwd_db(distance), generator_nwd_db(distance))

    @pytest.mark.parametrize(
        "sizes",
        [range(1, 70), range(127, 130), range(255, 258), range(1023, 1026), range(8191, 8194)],
        ids=["1-69", "127-129", "255-257", "1023-1025", "8191-8193"],
    )
    def test_libm_route_where_simd_differs(self, sizes):
        # nwd_db reaches libm's log10 only through numpy's strided fallback;
        # a numpy that sends negative strides through its SIMD loop fails here
        probe = log10_probe()
        for n in sizes:
            distance = np.resize(probe, n)
            assert bitwise_equal(nwd_db(distance), generator_nwd_db(distance)), n

    @pytest.mark.parametrize(
        "layout",
        [
            lambda p: np.array(p[0]),
            lambda p: np.resize(p, (40, 37)),
            lambda p: np.asfortranarray(np.resize(p, (40, 37))),
            lambda p: np.resize(p, (40, 37)).T,
            lambda p: np.resize(p, 3 * 517)[1::3],
        ],
        ids=["0-d", "C-ordered", "F-ordered", "transposed", "strided view"],
    )
    def test_libm_route_in_every_layout(self, layout):
        distance = layout(log10_probe())
        assert bitwise_equal(nwd_db(distance), generator_nwd_db(distance))

    @pytest.mark.parametrize("distance", [-1e-3, -math.inf, np.array([[0.5, 0.0], [-2.0, 1.0]])])
    def test_negative_ratio_raises(self, distance):
        with pytest.raises(ValueError):
            generator_nwd_db(distance)
        with pytest.raises(ValueError):
            nwd_db(distance)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(8)
        est = rng.normal(size=5)
        truth = rng.normal(size=5)
        base = nwd_db(squared_ratio(truth, est))
        for _ in range(10):
            perm = rng.permutation(5)
            assert nwd_db(squared_ratio(truth[perm], est[perm])) == pytest.approx(base, rel=1e-12)


def report(e2, nwd=None, diverged_at=()):
    """build_report on (runs, N) rows of squared error and NWD; NWD defaults to zeros, diverged_at to none."""
    e2 = np.asarray(e2, dtype=float)
    return build_report(e2, np.zeros_like(e2) if nwd is None else np.asarray(nwd, dtype=float), list(diverged_at))


class TestEnsembleCurves:
    def test_single_run_unit_errors(self):
        out = report([[1.0, 1.0, 1.0]]).mse_db
        assert np.array_equal(out, np.zeros(3))

    def test_two_run_mean(self):
        out = report([[1.0], [3.0]]).mse_db
        assert out[0] == pytest.approx(3.0102999566398120, rel=1e-12)

    def test_order_independent(self):
        runs = [[float(i + 1), float(2 * i + 1)] for i in range(6)]
        fwd = report(runs).mse_db
        rev = report(runs[::-1]).mse_db
        np.testing.assert_allclose(fwd, rev, rtol=1e-14)

    def test_identical_runs_equal_single_curve(self):
        one = [0.5, 0.1, 0.02]
        single = report([one]).mse_db
        four = report([one] * 4).mse_db  # power-of-two mean is exact
        assert np.array_equal(single, four)
        three = report([one] * 3).mse_db
        np.testing.assert_allclose(three, single, rtol=1e-14)

    def test_empty_ensemble(self):
        rep = build_report(np.empty((0, 8)), np.empty((0, 8)), [0, 3, 3, 7])
        assert rep.mse_db.size == rep.nwd_db.size == 0
        assert math.isnan(rep.steady_mse_db) and math.isnan(rep.steady_nwd_db)
        assert rep.mse_conv_iter is None and rep.nwd_conv_iter is None
        assert (rep.runs_used, rep.runs_diverged) == (0, 4)
        assert rep.diverged_at == [0, 3, 3, 7]

    def test_nwd_curve_is_mean_of_db_values(self):
        out = report([[1.0, 1.0], [1.0, 1.0]], nwd=[[-10.0, -20.0], [-30.0, -40.0]]).nwd_db
        assert np.array_equal(out, np.array([-20.0, -30.0]))

    @pytest.mark.parametrize("runs", [8, 16, 17, 40, 100, 128, 129, 200, 257])
    def test_single_sample_mean_sums_in_run_order(self, runs):
        # at N = 1 a numpy reduction over the runs sums the one column
        # pairwise; the mean must be the run-order sum, bit for bit
        column = np.random.default_rng(runs).lognormal(0.0, 3.0, size=(runs, 1))
        acc = 0.0
        for (value,) in column.tolist():
            acc += value
        rep = report(column, nwd=-column)
        assert rep.nwd_db.tolist() == [-acc / runs]
        assert rep.mse_db.tolist() == [10.0 * np.log10(acc / runs)]

    def test_overflowing_sum_keeps_a_finite_mean(self):
        # the run-order sum of the first column overflows, its mean does not:
        # that column is summed again over rows scaled exactly by 2**-64,
        # with no overflow warning, and the other column is left alone
        e2 = np.array([[1e308, 1.0], [1e308, 3.0], [1e308, 5.0], [1e308, 7.0]])
        rep = report(e2, nwd=[[-3080.0, 1e308]] * 4)
        assert np.isfinite([*rep.mse_db, rep.steady_mse_db, *rep.nwd_db, rep.steady_nwd_db]).all()
        assert bitwise_equal(rep.mse_db, 10.0 * np.log10(np.array([1e308, 4.0])))
        assert rep.nwd_db.tolist() == [-3080.0, 1e308]

    def test_infinite_row_keeps_its_column_infinite(self):
        rep = report([[math.inf, 1e308], [1.0, 1e308]])
        assert rep.mse_db[0] == math.inf and math.isfinite(rep.mse_db[1])

    def test_overflowing_columns_get_the_mean_of_scaled_rows(self):
        # 40 rows of 1e-280..1.5e308: the sum of the last column overflows.
        # Scaling a normal float by 2**-64 is exact, so every column's mean
        # is that of the scaled rows times 2**64, bit for bit
        rows = np.random.default_rng(11).uniform(0.5, 1.5, size=(40, 64)) * np.logspace(-280, 308, 64)
        with np.errstate(over="ignore"):
            assert np.isinf(np.sum(rows, axis=0)).tolist() == [False] * 63 + [True]
        assert bitwise_equal(_ensemble_mean(rows), _ensemble_mean(rows * 2.0**-64) * 2.0**64)


class TestSteadyStateLevel:
    def test_constant_curve(self):
        assert steady_state_level(np.full(40, -7.5)) == -7.5

    def test_default_fraction_uses_last_quarter(self):
        curve = np.concatenate([np.zeros(30), np.full(10, -12.0)])
        assert steady_state_level(curve) == -12.0

    def test_empty_curve(self):
        with pytest.raises(ValueError):
            steady_state_level(np.array([]))

    @pytest.mark.parametrize(
        "curve, level",
        [([0.0] * 7 + [-3.0, -6.0, -9.0], -6.0), ([-4.5], -4.5)],
        ids=["N10_last_3", "N1_the_sample"],
    )
    def test_tail_rounds_up(self, curve, level):
        # ceil(N / 4) samples: 3 of 10, and the one sample of a 1-sample curve
        assert steady_state_level(np.array(curve)) == level


class TestConvergenceIteration:
    def test_already_converged(self):
        assert convergence_iteration(np.full(10, -5.0), steady_db=-5.0) == 0

    def test_hand_case(self):
        curve = np.array([0.0, -5.0, -9.5, -10.0, -10.0])
        assert convergence_iteration(curve, steady_db=-10.0) == 2

    def test_monotone_curve_first_crossing(self):
        curve = np.linspace(0.0, -20.0, 201)
        steady = -20.0
        n = convergence_iteration(curve, steady)
        assert curve[n] <= steady + 1.0
        assert curve[n - 1] > steady + 1.0

    def test_never_converges(self):
        assert convergence_iteration(np.array([0.0, -1.0, 0.0]), steady_db=-10.0) is None

    def test_nan_counts_as_not_converged(self):
        assert convergence_iteration(np.array([5.0, math.nan, math.nan]), 0.0) is None


class TestBuildReport:
    def test_counts_and_fields(self):
        rep = report(np.full((3, 8), 0.01), nwd=np.full((3, 8), -15.0), diverged_at=[5, 9])
        assert rep.runs_used == 3
        assert rep.runs_diverged == 2
        assert rep.diverged_at == [5, 9]
        assert rep.steady_mse_db == pytest.approx(-20.0, rel=1e-12)
        assert rep.steady_nwd_db == -15.0
        assert rep.mse_conv_iter == 0
        assert len(rep.mse_db) == 8 and len(rep.nwd_db) == 8
