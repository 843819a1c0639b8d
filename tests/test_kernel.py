"""The batch kernel against the frozen per-sample loop, row by row, bit for bit.

run_ensemble advances every (plant, run) row of an algorithm together;
scalar_oracle runs the same runs one at a time the way the simulation did
before the kernel.  Squared errors and NWD curves must be array_equal, the
same runs must survive, and each diverged run must be dropped at the
sample where the loop raised.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, target
from hypothesis import strategies as st

import scalar_oracle
from fraclms import simulate
from fraclms.filters import DivergedError, FilterConfig, FracPowerPolicy, flms_step, initial_state
from fraclms.simulate import ALGORITHMS, PlantSpec, run_ensemble

unit = st.floats(0.05, 0.95)


@st.composite
def coefficients(draw, taps):
    magnitudes = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.5)), min_size=taps, max_size=taps))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=taps, max_size=taps))
    coeffs = [s * m for s, m in zip(signs, magnitudes)]
    if not any(coeffs):
        coeffs[0] = 1.0
    return tuple(coeffs)


@st.composite
def experiments(draw):
    taps = draw(st.integers(1, 5))
    # the update stays stable up to about 2/taps: straddle that edge
    nu_min = draw(st.one_of(st.floats(0.01, 1.0), st.floats(1.5, 3.0))) / taps
    nu_max = nu_min * draw(st.floats(1.01, 2.0))
    cfg = FilterConfig(
        tap_count=taps,
        frac_order=draw(unit),
        nu_init=draw(st.floats(nu_min, nu_max)),
        nu_f_init=draw(st.floats(0.0, 3.0)) / taps,
        nu_min=nu_min,
        nu_max=nu_max,
        alpha=draw(unit),
        beta=draw(unit),
        gamma=draw(st.floats(0.01, 50.0)),
        frac_power_policy=draw(st.sampled_from(FracPowerPolicy)),
        weight_init=draw(st.sampled_from((0.0, 1e-20, -0.3, 0.7))),
    )
    plants = draw(
        st.lists(
            st.builds(PlantSpec, coefficients(taps), st.sampled_from((0.0, 1e-3, 0.05, 0.5, 2.0))),
            min_size=1,
            max_size=3,
        )
    )
    return dict(
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        cfg=cfg,
        plants=plants,
        n_samples=draw(st.integers(1, 150)),
        monte_carlo_runs=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


def assert_rows_match_oracle(algorithm, cfg, plants, n_samples, monte_carlo_runs, seed):
    cells = run_ensemble(algorithm, cfg, plants, n_samples, monte_carlo_runs, seed)
    assert len(cells) == len(plants)
    for plant, (series, diverged_at) in zip(plants, cells):
        ref_series, ref_diverged_at = scalar_oracle.run_ensemble(
            algorithm, cfg, plant, n_samples, monte_carlo_runs, seed
        )
        assert diverged_at == sorted(ref_diverged_at)
        # the survivors come in run order; distinct streams give every run its own curve
        assert len(series) == len(ref_series)
        for got, ref in zip(series, ref_series):
            assert np.array_equal(got.squared_error, ref.squared_error)
            assert np.array_equal(got.nwd_db, ref.nwd_db)
    return cells


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(experiments())
def test_kernel_rows_equal_scalar_loop(experiment):
    cells = assert_rows_match_oracle(**experiment)
    # steer the search towards batches in which only some runs of a plant diverge
    runs = experiment["monte_carlo_runs"]
    target(float(sum(0 < len(diverged_at) < runs for _, diverged_at in cells)))


@pytest.mark.parametrize("algorithm, nu", [("lms", 1.35), ("flms", 0.34), ("rvss-flms", 0.34)])
def test_partly_diverged_batch_equals_scalar_loop(algorithm, nu):
    # steps near the stability edge at 8 and 10 dB: some runs of each plant diverge, at different samples
    cfg = FilterConfig(
        tap_count=3, frac_order=0.5, nu_init=nu, nu_f_init=nu, nu_min=nu, nu_max=1.3 * nu,
        alpha=0.5, beta=0.5, gamma=0.5, weight_init=1e-20,
    )
    plants = [PlantSpec((0.9, 0.3, -0.1), 0.143), PlantSpec((0.9, 0.3, -0.1), 0.091)]
    cells = assert_rows_match_oracle(algorithm, cfg, plants, 600, 12, seed=12345)
    lost = [len(diverged_at) for _, diverged_at in cells]
    assert all(0 < n < 12 for n in lost), lost


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_all_diverged_batch_masks_live_rows_at_the_break(algorithm, monkeypatch):
    # noise-free plants with one huge tap at delays 0, 1 and 2: with zero
    # weights and zero prehistory a row's error is exactly 0 until its
    # plant's delay, where a step of 1e200 overflows its weights.  Rows of
    # the first two plants are masked at samples 0 and 1 while other rows
    # are finite; at sample 2 no row is finite and the step raises.
    cfg = FilterConfig(
        tap_count=3, frac_order=0.5, nu_init=1e200, nu_f_init=1e200, nu_min=1e199, nu_max=1e201,
        alpha=0.5, beta=0.5, gamma=0.5,
    )
    plants = [PlantSpec(tuple(1e120 * (i == delay) for i in range(3))) for delay in range(3)]
    breaks = []
    step_name = "rvss_flms_step" if algorithm == "rvss-flms" else "flms_step"
    step_fn = getattr(simulate, step_name)

    def recording_step(*args):
        try:
            return step_fn(*args)
        except DivergedError as exc:
            breaks.append(exc.iteration)
            raise

    monkeypatch.setattr(simulate, step_name, recording_step)
    with np.errstate(all="ignore"):
        cells = assert_rows_match_oracle(algorithm, cfg, plants, 50, 3, seed=2)
    assert breaks == [2]
    assert [diverged_at for _, diverged_at in cells] == [[0, 0, 0], [1, 1, 1], [2, 2, 2]]


def test_step_raises_only_when_no_row_is_finite():
    cfg = FilterConfig(
        tap_count=1, frac_order=0.5, nu_init=1.0, nu_f_init=0.0, nu_min=0.5, nu_max=2.0,
        alpha=0.5, beta=0.5, gamma=0.5,
    )
    state = initial_state(cfg, rows=2)
    state.weights[0] = 1e200
    with np.errstate(all="ignore"):
        new, _ = flms_step(state, np.array([[1e200], [1.0]]), np.zeros(2), cfg)
        assert not np.isfinite(new.weights[0]).all() and np.isfinite(new.weights[1]).all()
        state.weights[1] = 1e200
        state.iteration = 5
        with pytest.raises(DivergedError) as exc:
            flms_step(state, np.full((2, 1), 1e200), np.zeros(2), cfg)
    assert exc.value.iteration == 5
