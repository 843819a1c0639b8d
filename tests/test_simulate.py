"""Tests for signal generation, the noisy plant and the identification loop."""

import math

import numpy as np
import pytest

from fraclms.configfile import bundled_path, load
from fraclms.filters import FilterConfig, flms_step, rvss_flms_step
from fraclms.metrics import build_report
from fraclms.simulate import (
    ROLE_DISTURBANCE,
    ROLE_INPUT,
    AlgorithmSpec,
    ExperimentConfig,
    PlantSpec,
    bpsk_sequence,
    clean_plant_power,
    plant_output,
    run_identification,
    signal_bank,
    snr_to_variance,
    stream,
)
from states import fresh_state
from test_kernel import assert_rows_match_oracle

PAPER_PLANT = PlantSpec(coeffs=(0.9, 0.3, -0.1))


def single_run(algorithm, cfg, plant, n, seed, run=0):
    """run_identification on a batch of one: run `run` of `seed` against plant.

    Returns its (1, n) squared error and NWD rows, (0, n) if it diverged,
    and the masked sample indices.
    """
    x = bpsk_sequence(n, stream(seed, run, ROLE_INPUT))[None]
    z = stream(seed, run, ROLE_DISTURBANCE).standard_normal(n)[None]
    [[cell]] = run_identification([AlgorithmSpec(algorithm, cfg)], [plant], x, z)
    return cell


def scaled_config(**over):
    """Benchmark filter constants with usable (60x) step sizes."""
    base = dict(
        frac_order=0.5,
        nu_init=6e-3,
        nu_f_init=6e-3,
        nu_min=6e-3,
        nu_max=1.8e-2,
        alpha=0.5,
        beta=0.5,
        gamma=0.5,
        weight_init=1e-20,
    )
    base.update(over)
    return FilterConfig(**base)


class TestBpskSequence:
    def test_alphabet(self):
        x = bpsk_sequence(500, stream(1, 0, ROLE_INPUT))
        assert np.all(x * x == 1.0)

    def test_deterministic_given_stream(self):
        a = bpsk_sequence(256, stream(42, 3, ROLE_INPUT))
        b = bpsk_sequence(256, stream(42, 3, ROLE_INPUT))
        assert np.array_equal(a, b)

    def test_runs_are_independent_streams(self):
        a = bpsk_sequence(256, stream(42, 0, ROLE_INPUT))
        b = bpsk_sequence(256, stream(42, 1, ROLE_INPUT))
        assert not np.array_equal(a, b)

    def test_empirical_mean(self):
        x = bpsk_sequence(100_000, stream(42, 0, ROLE_INPUT))
        assert -0.02 < float(np.mean(x)) < 0.02

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            bpsk_sequence(0, stream(1, 0, ROLE_INPUT))


class TestPlantPower:
    def test_single_unit_tap(self):
        assert clean_plant_power((1.0,)) == 1.0

    def test_hand_sum(self):
        assert clean_plant_power(PAPER_PLANT.coeffs) == pytest.approx(0.91, rel=1e-12)

    def test_zero(self):
        assert clean_plant_power((0.0, 0.0)) == 0.0


class TestSnrToVariance:
    def test_equal_powers_at_zero_db(self):
        assert snr_to_variance(0.0, 0.91) == 0.91

    def test_ten_db(self):
        assert snr_to_variance(10.0, 0.91) == pytest.approx(0.091, rel=1e-12)

    def test_two_decades(self):
        assert snr_to_variance(20.0, 1.0) == pytest.approx(0.01, rel=1e-12)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            snr_to_variance(10.0, 0.0)


class TestPlantOutput:
    def test_noiseless_hand_value(self):
        spec = PlantSpec(coeffs=(0.9, 0.3, -0.1), disturbance_variance=0.0)
        got = plant_output(np.ones(3), spec, stream(0, 0, ROLE_DISTURBANCE).standard_normal())
        assert got == pytest.approx(1.1, rel=1e-12)

    def test_selector(self):
        spec = PlantSpec(coeffs=(1.0, 0.0, 0.0), disturbance_variance=0.0)
        got = plant_output(np.array([-1.0, 1.0, 1.0]), spec, stream(0, 0, 1).standard_normal())
        assert got == -1.0

    def test_window_mismatch(self):
        spec = PlantSpec(coeffs=(1.0, 0.5))
        with pytest.raises(ValueError):
            plant_output(np.ones(3), spec, 0.0)

    def test_disturbance_variance_calibration(self):
        spec = PlantSpec(coeffs=(1.0,), disturbance_variance=0.01)
        rng = stream(7, 0, ROLE_DISTURBANCE)
        zero_windows = np.zeros((1, 100_000))
        draws = plant_output(zero_windows, spec, rng.standard_normal(100_000))
        assert 0.0093 < float(np.var(draws)) < 0.0107

    def test_snr_calibration_within_tenth_db(self):
        power = clean_plant_power(PAPER_PLANT.coeffs)
        for requested in (10.0, 20.0, 30.0, 40.0):
            var = snr_to_variance(requested, power)
            rng = stream(11, 0, ROLE_DISTURBANCE)
            d = rng.standard_normal(100_000) * math.sqrt(var)
            measured = 10.0 * math.log10(power / float(np.var(d)))
            assert abs(measured - requested) < 0.1, (requested, measured)


class TestRunIdentification:
    def test_scalar_lms_contraction(self):
        cfg = scaled_config(nu_init=0.4, nu_f_init=0.0, nu_min=0.1, nu_max=0.5)
        plant = PlantSpec(coeffs=(0.5,), disturbance_variance=0.0)
        e2, nwd, _ = single_run("lms", cfg, plant, 50, seed=3)
        assert np.all(np.diff(e2[0]) <= 0.0)
        # |w - 0.5| < 1e-3 means NWD below 20*log10(1e-3 / 0.5)
        assert nwd[0, -1] < 20.0 * math.log10(1e-3 / 0.5)

    def test_bit_for_bit_reproducible(self):
        cfg = scaled_config()
        plant = PlantSpec(coeffs=PAPER_PLANT.coeffs, disturbance_variance=0.05)
        a_e2, a_nwd, _ = single_run("rvss-flms", cfg, plant, 120, seed=9, run=4)
        b_e2, b_nwd, _ = single_run("rvss-flms", cfg, plant, 120, seed=9, run=4)
        assert a_e2.shape == (1, 120)
        assert np.array_equal(a_e2, b_e2)
        assert np.array_equal(a_nwd, b_nwd)

    def test_replay_with_manual_windows_matches_bitwise(self):
        """Replays a plain-LMS run entirely in python floats, building the
        tap-delay windows by hand; validates window shifting, zero
        prehistory and the loop wiring in one shot."""
        nu = 0.05
        cfg = scaled_config(nu_init=nu, nu_f_init=0.0, nu_min=0.01, nu_max=0.1)
        var = 0.02
        plant = PlantSpec(coeffs=PAPER_PLANT.coeffs, disturbance_variance=var)
        n = 200
        e2, _, _ = single_run("lms", cfg, plant, n, seed=21)

        x = [float(v) for v in bpsk_sequence(n, stream(21, 0, 0))]
        drng = stream(21, 0, 1)
        w = [1e-20] * 3
        coeffs = list(PAPER_PLANT.coeffs)
        for i in range(n):
            window = [x[i - k] if i - k >= 0 else 0.0 for k in range(3)]
            if i > 0:
                prev = [x[i - 1 - k] if i - 1 - k >= 0 else 0.0 for k in range(3)]
                assert window[1:] == prev[:-1]  # shifted by one, new sample in front
            desired = 0.0
            for k in range(3):
                desired += coeffs[k] * window[k]
            desired += float(drng.standard_normal()) * math.sqrt(var)
            y = 0.0
            for k in range(3):
                y += w[k] * window[k]
            e = desired - y
            for k in range(3):
                w[k] = w[k] + (nu * e) * window[k]
            assert e2[0, i] == e * e, i

    def test_matches_manual_step_loop(self):
        cfg = scaled_config()
        var = 0.0091
        plant = PlantSpec(coeffs=PAPER_PLANT.coeffs, disturbance_variance=var)
        n = 150
        e2, _, _ = single_run("rvss-flms", cfg, plant, n, seed=5, run=2)

        x = bpsk_sequence(n, stream(5, 2, 0))
        drng = stream(5, 2, 1)
        padded = np.concatenate([np.zeros(2), x])
        state = fresh_state(cfg, 3)
        for i in range(n):
            reg = padded[i : i + 3][::-1]
            desired = plant_output(reg, plant, drng.standard_normal())
            state, e = rvss_flms_step(state, reg, desired, cfg)
            assert e2[0, i] == e * e

    def test_noise_free_identifiability(self):
        # nu_min = nu_init keeps the variable step from decaying mid-run
        plant = PlantSpec(coeffs=PAPER_PLANT.coeffs, disturbance_variance=0.0)
        cfg = scaled_config(nu_init=0.05, nu_f_init=0.05, nu_min=0.05, nu_max=0.1)
        for algo in ("lms", "flms", "rvss-flms"):
            _, nwd, _ = single_run(algo, cfg, plant, 600, seed=1)
            assert nwd[0, -1] < -60.0, algo

    def test_overflowing_square_diverges_at_first_sample(self):
        # every value of the first step is finite; only the squared error
        # overflows, and that alone masks the run
        cfg = scaled_config(weight_init=1e160)
        plant = PlantSpec(coeffs=PAPER_PLANT.coeffs, disturbance_variance=0.0)
        x = bpsk_sequence(1, stream(3, 0, 0))
        window = np.array([x[0], 0.0, 0.0])
        _, err = flms_step(fresh_state(cfg, 3), window, 0.0, cfg)
        with np.errstate(over="ignore"):
            assert math.isfinite(err) and not math.isfinite(err * err)
        e2, nwd, diverged_at = single_run("lms", cfg, plant, 10, seed=3)
        assert e2.shape == nwd.shape == (0, 10)
        assert diverged_at == [0]

    def test_all_zero_plant_raises_instead_of_masking(self):
        # ||truth|| = 0 makes every distance ratio non-finite, which would
        # otherwise mask every run as diverged; it is listed with the batch's other problems
        plant = PlantSpec(coeffs=(0.0, 0.0, 0.0), disturbance_variance=0.01)
        with pytest.raises(ValueError) as info:
            single_run("lms", scaled_config(frac_order=1.5), plant, 10, seed=0)
        assert str(info.value) == (
            "[lms] frac_order must lie in (0, 1), got 1.5; plant coeffs must not all be zero, got (0.0, 0.0, 0.0)"
        )

    def test_unknown_algorithm_is_listed_with_the_other_problems(self):
        batch = [AlgorithmSpec("amflms", scaled_config(frac_order=1.5))]
        with pytest.raises(ValueError) as info:
            run_identification(batch, [], np.ones((1, 10)), np.zeros((1, 10)))
        assert str(info.value) == (
            "unknown algorithm 'amflms'; expected one of ('lms', 'flms', 'rvss-flms');"
            " [amflms] frac_order must lie in (0, 1), got 1.5; plants must be non-empty"
        )

    @pytest.mark.parametrize(
        "names, message",
        [
            ((), "algorithms list must be non-empty"),
            (("amflms",), "unknown algorithm 'amflms'; expected one of ('lms', 'flms', 'rvss-flms')"),
            (("flms", "flms"), "algorithm 'flms' listed twice"),
        ],
        ids=["empty", "unknown", "repeated"],
    )
    def test_kernel_words_an_algorithm_list_as_the_config_does(self, names, message):
        batch = tuple(AlgorithmSpec(name, scaled_config()) for name in names)
        assert ExperimentConfig(PAPER_PLANT, (20.0,), 10, 1, 0, batch).violations() == [message]
        with pytest.raises(ValueError) as info:
            run_identification(batch, [PAPER_PLANT], np.ones((1, 10)), np.zeros((1, 10)))
        assert str(info.value) == message

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            single_run("amflms", scaled_config(), PAPER_PLANT, 10, seed=0)

    @pytest.mark.parametrize(
        "names, over, match",
        [
            (("lms", "rvss-flms"), {}, "must share"),
            (("lms", "flms"), dict(frac_order=0.75), "must share"),
            (("flms", "flms"), {}, "listed twice"),
        ],
    )
    def test_batch_of_algorithms_that_cannot_share_a_step_raises(self, names, over, match):
        batch = [AlgorithmSpec(names[0], scaled_config()), AlgorithmSpec(names[1], scaled_config(**over))]
        x, z = np.ones((1, 10)), np.zeros((1, 10))
        with pytest.raises(ValueError, match=match):
            run_identification(batch, [PAPER_PLANT], x, z)

    @pytest.mark.parametrize(
        "names, plants, x_shape, message",
        [
            ((), [PAPER_PLANT], (1, 10), "algorithms list must be non-empty"),
            (("lms",), [], (1, 10), "plants must be non-empty"),
            (("lms",), [PAPER_PLANT, PlantSpec((0.9, 0.3))], (1, 10), "plants must share one order, got orders [2, 3]"),
            (("lms",), [PAPER_PLANT], (10,), "x must be a non-empty 2-D (R, N) array, got shape (10,)"),
            (("lms",), [PAPER_PLANT], (1, 0), "x must be a non-empty 2-D (R, N) array, got shape (1, 0)"),
            (("lms",), [PAPER_PLANT], (0, 10), "x must be a non-empty 2-D (R, N) array, got shape (0, 10)"),
        ],
        ids=["empty_batch", "no_plants", "plant_orders_differ", "x_1d", "x_no_samples", "x_no_runs"],
    )
    def test_malformed_batch_is_named(self, names, plants, x_shape, message):
        batch = [AlgorithmSpec(name, scaled_config()) for name in names]
        with pytest.raises(ValueError) as info:
            run_identification(batch, plants, np.ones(x_shape), np.zeros(x_shape))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "cfg, plant, z_runs, messages",
        [
            (scaled_config(), PAPER_PLANT, 1, ["z has shape (1, 10), x has shape (2, 10)"]),
            (
                scaled_config(frac_order=1.5, nu_f_init=-1.0),
                PAPER_PLANT,
                2,
                ["[flms] frac_order must lie in (0, 1)", "[flms] nu_f_init must be finite and >= 0"],
            ),
            (
                scaled_config(),
                PlantSpec(coeffs=(0.9, math.nan, -0.1), disturbance_variance=-1.0),
                2,
                ["plant coeffs must be finite", "disturbance_variance must be >= 0"],
            ),
        ],
        ids=["z_broadcast", "bad_filter", "bad_plant"],
    )
    def test_invalid_input_raises_listing_every_problem(self, cfg, plant, z_runs, messages):
        x, z = np.ones((2, 10)), np.zeros((z_runs, 10))
        with pytest.raises(ValueError) as info:
            run_identification([AlgorithmSpec("flms", cfg)], [plant], x, z)
        for message in messages:
            assert message in str(info.value)


class TestRunEnsemble:
    # each batch goes through run_identification on signal_bank's draws, its
    # rows checked bit for bit against the scalar oracle (test_kernel)

    def test_signal_bank_rows_are_the_named_streams(self):
        x, z = signal_bank(50, 3, seed=77)
        assert x.shape == z.shape == (3, 50)
        for r in range(3):
            assert np.array_equal(x[r], bpsk_sequence(50, stream(77, r, ROLE_INPUT)))
            assert np.array_equal(z[r], stream(77, r, ROLE_DISTURBANCE).standard_normal(50))

    def test_common_random_numbers_across_algorithms(self):
        # identical (seed, run, role) streams mean the first-sample error is
        # identical for every algorithm starting from the same weights
        plant = PlantSpec(coeffs=PAPER_PLANT.coeffs, disturbance_variance=0.01)
        cfg = scaled_config()
        first = {}
        for algo in ("lms", "flms", "rvss-flms"):
            [[(e2, _, _)]] = assert_rows_match_oracle([AlgorithmSpec(algo, cfg)], [plant], 1, 3, seed=77)
            first[algo] = e2[:, 0].tolist()
        assert first["lms"] == first["flms"] == first["rvss-flms"]

    def test_diverged_runs_counted_and_excluded(self):
        cfg = scaled_config(nu_init=2.0, nu_f_init=0.0, nu_min=0.1, nu_max=3.0)
        plant = PlantSpec(coeffs=PAPER_PLANT.coeffs, disturbance_variance=0.0)
        [[(e2, nwd, diverged_at)]] = assert_rows_match_oracle([AlgorithmSpec("lms", cfg)], [plant], 600, 4, seed=12)
        report = build_report(e2, nwd, diverged_at)
        assert len(diverged_at) == report.runs_diverged == 4
        assert e2.shape == nwd.shape == (0, 600)
        assert report.runs_used == 0

    def test_reaches_noise_floor_at_40db_in_most_runs(self):
        # at 40 dB SNR the squared error should drop below 1e-3 within the
        # run for nearly every ensemble member
        power = clean_plant_power(PAPER_PLANT.coeffs)
        plant = PlantSpec(coeffs=PAPER_PLANT.coeffs, disturbance_variance=snr_to_variance(40.0, power))
        rvss = AlgorithmSpec("rvss-flms", scaled_config())
        [[(e2, _, diverged_at)]] = assert_rows_match_oracle([rvss], [plant], 600, 40, seed=30)
        assert diverged_at == []
        hits = np.count_nonzero(e2.min(axis=1) < 1e-3)
        assert hits >= 0.95 * len(e2)


def lms_theory_mse(coeffs, variance, nu, weight_init, n_samples):
    """LMS's mean squared prediction error per sample, from the closed form.

    Under +-1 input and the independence assumption (Widrow & Stearns;
    Haykin, Adaptive Filter Theory), d_i, the mean-square deviation of tap
    i, starts at (a_i - weight_init)**2.  At sample n only the first
    m = min(n+1, K) taps see input (zero prehistory), so MSE(n) = variance
    + S with S the sum of their d_i, and each of them moves to
    (1 - 2 nu) d_i + nu**2 (S + variance).
    """
    d = [(a - weight_init) ** 2 for a in coeffs]
    mse = np.empty(n_samples)
    for n in range(n_samples):
        m = min(n + 1, len(d))
        s = sum(d[:m])
        mse[n] = variance + s
        d[:m] = [(1 - 2 * nu) * di + nu * nu * (s + variance) for di in d[:m]]
    return mse


def test_lms_follows_its_closed_form_learning_curve():
    # paper-x60's LMS cells, every run kept: in each window the harness's
    # mean MSE lies within 4 standard errors of the theory's, in dB, the
    # error taken from the per-run window means.  4 is a two-sided 1e-4
    # level per window, about 2e-3 over all 20, and is not tuned: the
    # largest |z| here is about 1.1
    config = load(bundled_path("paper-x60.config"))
    [lms] = [spec for spec in config.algorithms if spec.name == "lms"]
    plants = [config.plant_at(snr) for snr in config.snr_db_list]
    x, z = signal_bank(config.samples_per_run, config.monte_carlo_runs, config.rng_seed)
    [cells] = run_identification([lms], plants, x, z)
    for snr, plant, (e2, _, diverged_at) in zip(config.snr_db_list, plants, cells):
        assert diverged_at == [] and len(e2) == 200
        theory = lms_theory_mse(
            plant.coeffs, plant.disturbance_variance, lms.filter.nu_init, lms.filter.weight_init, len(e2[0])
        )
        for lo, hi in ((0, 50), (50, 150), (150, 300), (300, 450), (450, 600)):
            per_run = e2[:, lo:hi].mean(axis=1)
            mean = per_run.mean()
            diff_db = 10 * math.log10(mean / theory[lo:hi].mean())
            se_db = 10 / math.log(10) * per_run.std(ddof=1) / math.sqrt(len(per_run)) / mean
            assert abs(diff_db) <= 4 * se_db, (snr, lo, hi, diff_db, se_db)
