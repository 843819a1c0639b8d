"""Tests for signal generation, the noisy plant and the identification loop."""

import math

import numpy as np
import pytest

from fraclms.filters import FilterConfig, flms_step, initial_state, rvss_flms_step
from fraclms.simulate import (
    ROLE_DISTURBANCE,
    ROLE_INPUT,
    PlantSpec,
    bpsk_sequence,
    clean_plant_power,
    plant_output,
    run_ensemble,
    run_identification,
    snr_to_variance,
    stream,
)

PAPER_PLANT = PlantSpec(coeffs=(0.9, 0.3, -0.1))


def single_run(algorithm, cfg, plant, n, seed, run=0):
    """run_identification on a batch of one: run `run` of `seed` against plant.

    Returns the run's series (None if it diverged) and the masked sample
    indices.
    """
    x = bpsk_sequence(n, stream(seed, run, ROLE_INPUT))[None]
    z = stream(seed, run, ROLE_DISTURBANCE).standard_normal(n)[None]
    [(series, diverged_at)] = run_identification(algorithm, cfg, [plant], x, z)
    return (series[0] if series else None), diverged_at


def scaled_config(**over):
    """Benchmark filter constants with usable (60x) step sizes."""
    base = dict(
        tap_count=3,
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
        zero_windows = np.zeros((100_000, 1))
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
        cfg = scaled_config(tap_count=1, nu_init=0.4, nu_f_init=0.0, nu_min=0.1, nu_max=0.5)
        plant = PlantSpec(coeffs=(0.5,), disturbance_variance=0.0)
        series, _ = single_run("lms", cfg, plant, 50, seed=3)
        assert np.all(np.diff(series.squared_error) <= 0.0)
        # |w - 0.5| < 1e-3 means NWD below 20*log10(1e-3 / 0.5)
        assert series.nwd_db[-1] < 20.0 * math.log10(1e-3 / 0.5)

    def test_bit_for_bit_reproducible(self):
        cfg = scaled_config()
        plant = PlantSpec(coeffs=PAPER_PLANT.coeffs, disturbance_variance=0.05)
        a, _ = single_run("rvss-flms", cfg, plant, 120, seed=9, run=4)
        b, _ = single_run("rvss-flms", cfg, plant, 120, seed=9, run=4)
        assert np.array_equal(a.squared_error, b.squared_error)
        assert np.array_equal(a.nwd_db, b.nwd_db)

    def test_replay_with_manual_windows_matches_bitwise(self):
        """Replays a plain-LMS run entirely in python floats, building the
        tap-delay windows by hand; validates window shifting, zero
        prehistory and the loop wiring in one shot."""
        nu = 0.05
        cfg = scaled_config(nu_init=nu, nu_f_init=0.0, nu_min=0.01, nu_max=0.1)
        var = 0.02
        plant = PlantSpec(coeffs=PAPER_PLANT.coeffs, disturbance_variance=var)
        n = 200
        series, _ = single_run("lms", cfg, plant, n, seed=21)

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
            assert series.squared_error[i] == e * e, i

    def test_matches_manual_step_loop(self):
        cfg = scaled_config()
        var = 0.0091
        plant = PlantSpec(coeffs=PAPER_PLANT.coeffs, disturbance_variance=var)
        n = 150
        series, _ = single_run("rvss-flms", cfg, plant, n, seed=5, run=2)

        x = bpsk_sequence(n, stream(5, 2, 0))
        drng = stream(5, 2, 1)
        padded = np.concatenate([np.zeros(2), x])
        state = initial_state(cfg)
        for i in range(n):
            reg = padded[i : i + 3][::-1]
            desired = plant_output(reg, plant, drng.standard_normal())
            state, e = rvss_flms_step(state, reg, desired, cfg)
            assert series.squared_error[i] == e * e

    def test_noise_free_identifiability(self):
        # nu_min = nu_init keeps the variable step from decaying mid-run
        plant = PlantSpec(coeffs=PAPER_PLANT.coeffs, disturbance_variance=0.0)
        cfg = scaled_config(nu_init=0.05, nu_f_init=0.05, nu_min=0.05, nu_max=0.1)
        for algo in ("lms", "flms", "rvss-flms"):
            series, _ = single_run(algo, cfg, plant, 600, seed=1)
            assert series.nwd_db[-1] < -60.0, algo

    def test_overflowing_square_diverges_at_first_sample(self):
        # every value of the first step is finite; only the squared error
        # overflows, and that alone masks the run
        cfg = scaled_config(weight_init=1e160)
        plant = PlantSpec(coeffs=PAPER_PLANT.coeffs, disturbance_variance=0.0)
        x = bpsk_sequence(1, stream(3, 0, 0))
        window = np.array([x[0], 0.0, 0.0])
        _, err = flms_step(initial_state(cfg), window, 0.0, cfg)
        with np.errstate(over="ignore"):
            assert math.isfinite(err) and not math.isfinite(err * err)
        assert single_run("lms", cfg, plant, 10, seed=3) == (None, [0])

    def test_all_zero_plant_raises_instead_of_masking(self):
        # ||truth|| = 0 makes every distance ratio non-finite, which would
        # otherwise mask every run as diverged
        plant = PlantSpec(coeffs=(0.0, 0.0, 0.0), disturbance_variance=0.01)
        with pytest.raises(ValueError, match="truth vector must be nonzero"):
            single_run("lms", scaled_config(), plant, 10, seed=0)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            single_run("amflms", scaled_config(), PAPER_PLANT, 10, seed=0)

    def test_plant_order_mismatch(self):
        with pytest.raises(ValueError, match="plant order"):
            single_run("lms", scaled_config(tap_count=4), PAPER_PLANT, 10, seed=0)


class TestRunEnsemble:
    def test_common_random_numbers_across_algorithms(self):
        # identical (seed, run, role) streams mean the first-sample error is
        # identical for every algorithm starting from the same weights
        plant = PlantSpec(coeffs=PAPER_PLANT.coeffs, disturbance_variance=0.01)
        cfg = scaled_config()
        first = {}
        for algo in ("lms", "flms", "rvss-flms"):
            [(series, _)] = run_ensemble(algo, cfg, [plant], 1, 3, seed=77)
            first[algo] = [s.squared_error[0] for s in series]
        assert first["lms"] == first["flms"] == first["rvss-flms"]

    def test_diverged_runs_counted_and_excluded(self):
        cfg = scaled_config(nu_init=2.0, nu_f_init=0.0, nu_min=0.1, nu_max=3.0)
        plant = PlantSpec(coeffs=PAPER_PLANT.coeffs, disturbance_variance=0.0)
        [(series, diverged_at)] = run_ensemble("lms", cfg, [plant], 600, 4, seed=12)
        assert len(diverged_at) == 4
        assert series == []

    def test_reaches_noise_floor_at_40db_in_most_runs(self):
        # at 40 dB SNR the squared error should drop below 1e-3 within the
        # run for nearly every ensemble member
        power = clean_plant_power(PAPER_PLANT.coeffs)
        plant = PlantSpec(coeffs=PAPER_PLANT.coeffs, disturbance_variance=snr_to_variance(40.0, power))
        [(series, diverged_at)] = run_ensemble("rvss-flms", scaled_config(), [plant], 600, 40, seed=30)
        assert diverged_at == []
        hits = sum(1 for s in series if np.min(s.squared_error) < 1e-3)
        assert hits >= 0.95 * len(series)
