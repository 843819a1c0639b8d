"""Tests for signal generation, the noisy plant and the identification loop."""

import math

import numpy as np
import pytest

from fraclms.filters import FilterConfig, flms_step, rvss_flms_step
from fraclms.simulate import (
    ROLE_DISTURBANCE,
    ROLE_INPUT,
    AlgorithmSpec,
    PlantSpec,
    bpsk_sequence,
    clean_plant_power,
    plant_output,
    run_ensemble,
    run_identification,
    snr_to_variance,
    stream,
)
from states import fresh_state

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
        # otherwise mask every run as diverged
        plant = PlantSpec(coeffs=(0.0, 0.0, 0.0), disturbance_variance=0.01)
        with pytest.raises(ValueError, match="truth vector must be nonzero"):
            single_run("lms", scaled_config(), plant, 10, seed=0)

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
            ((), [PAPER_PLANT], (1, 10), "a batch must hold at least one algorithm"),
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
    def test_common_random_numbers_across_algorithms(self):
        # identical (seed, run, role) streams mean the first-sample error is
        # identical for every algorithm starting from the same weights
        plant = PlantSpec(coeffs=PAPER_PLANT.coeffs, disturbance_variance=0.01)
        cfg = scaled_config()
        first = {}
        for algo in ("lms", "flms", "rvss-flms"):
            [[(e2, _, _)]] = run_ensemble([AlgorithmSpec(algo, cfg)], [plant], 1, 3, seed=77)
            first[algo] = e2[:, 0].tolist()
        assert first["lms"] == first["flms"] == first["rvss-flms"]

    def test_diverged_runs_counted_and_excluded(self):
        cfg = scaled_config(nu_init=2.0, nu_f_init=0.0, nu_min=0.1, nu_max=3.0)
        plant = PlantSpec(coeffs=PAPER_PLANT.coeffs, disturbance_variance=0.0)
        [[(e2, nwd, diverged_at)]] = run_ensemble([AlgorithmSpec("lms", cfg)], [plant], 600, 4, seed=12)
        assert len(diverged_at) == 4
        assert e2.shape == nwd.shape == (0, 600)

    def test_reaches_noise_floor_at_40db_in_most_runs(self):
        # at 40 dB SNR the squared error should drop below 1e-3 within the
        # run for nearly every ensemble member
        power = clean_plant_power(PAPER_PLANT.coeffs)
        plant = PlantSpec(coeffs=PAPER_PLANT.coeffs, disturbance_variance=snr_to_variance(40.0, power))
        rvss = AlgorithmSpec("rvss-flms", scaled_config())
        [[(e2, _, diverged_at)]] = run_ensemble([rvss], [plant], 600, 40, seed=30)
        assert diverged_at == []
        hits = np.count_nonzero(e2.min(axis=1) < 1e-3)
        assert hits >= 0.95 * len(e2)
