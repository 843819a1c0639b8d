"""The batch kernel against the frozen per-sample loop, row by row, bit for bit.

simulate.run_identification advances every (algorithm, plant, run) row of
a batch of algorithms together on one signal bank and returns each cell's
rows; scalar_oracle runs the same runs one algorithm and one run at a time
the way the simulation did before the kernel.  Squared errors and NWD
curves must be array_equal, the same runs must survive, and each diverged
run must be dropped at the sample where the loop raised.  The steps themselves never raise: the kernel masks each
row at its first non-finite sample.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, target
from hypothesis import strategies as st

import scalar_oracle
from fraclms import experiment, simulate
from fraclms.configfile import bundled_path, load
from fraclms.filters import FilterConfig, FilterState, flms_step
from fraclms.metrics import build_report
from fraclms.simulate import ALGORITHMS, AlgorithmSpec, ExperimentConfig, PlantSpec, signal_bank
from states import fresh_state

unit = st.floats(0.05, 0.95)

# traced peak of one merged LMS+FLMS batch, in (N, rows) float arrays,
# measured with numpy 2.4: 3.83 on the edge batch, of which about 0.25 is
# the weights of one CHUNK of steps and their distance temporaries.  Where
# no run diverges (paper-x60) every run is copied out and it reads 4.15:
# 5.14 if the squared errors are still held while NWD is converted, 5.15
# if the time-reversed input is still held while the kept rows are copied
# out, and 4.58 with the (K, N, runs) tap windows copied out of their view
MEMORY_ROW_ARRAYS = 4.5


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
    taps = draw(st.integers(1, 10))  # tap_dot reduces in one call below 8 taps, loops from 8
    # the update stays stable up to about 2/taps: straddle that edge
    nu_min = draw(st.one_of(st.floats(0.01, 1.0), st.floats(1.5, 3.0))) / taps
    nu_max = nu_min * draw(st.floats(1.01, 2.0))
    # a -0.0 weight gives a -0.0 fractional power in the kernel (copysign)
    # and +0.0 in the oracle (np.sign): no output may see the difference
    cfg = FilterConfig(
        frac_order=draw(unit),
        nu_init=draw(st.floats(nu_min, nu_max)),
        nu_f_init=draw(st.floats(0.0, 3.0)) / taps,
        nu_min=nu_min,
        nu_max=nu_max,
        alpha=draw(unit),
        beta=draw(unit),
        gamma=draw(st.floats(0.01, 50.0)),
        weight_init=draw(st.sampled_from((0.0, -0.0, 1e-20, -0.3, 0.7))),
    )
    plants = draw(
        st.lists(
            st.builds(PlantSpec, coefficients(taps), st.sampled_from((0.0, 1e-3, 0.05, 0.5, 2.0))),
            min_size=1,
            max_size=3,
        )
    )
    # one algorithm alone, or LMS and FLMS merged into one batch, each
    # with its own nu_init, nu_f_init and weight_init
    names = draw(st.sampled_from([(name,) for name in ALGORITHMS] + [("lms", "flms"), ("flms", "lms")]))
    algorithms = [AlgorithmSpec(names[0], cfg)]
    for name in names[1:]:
        own = replace(
            cfg,
            nu_init=draw(st.floats(nu_min, nu_max)),
            nu_f_init=draw(st.floats(0.0, 3.0)) / taps,
            weight_init=draw(st.sampled_from((0.0, -0.0, 1e-20, -0.3, 0.7))),
        )
        algorithms.append(AlgorithmSpec(name, own))
    return dict(
        algorithms=algorithms,
        plants=plants,
        n_samples=draw(st.integers(1, 150)),
        monte_carlo_runs=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


def assert_rows_match_oracle(algorithms, plants, n_samples, monte_carlo_runs, seed):
    """Check one batch against the oracle; return its (squared_error, nwd_db, diverged_at) cells."""
    # through the module: test_frac_order_override_splits_the_batch counts the kernel's calls there
    cells = simulate.run_identification(algorithms, plants, *signal_bank(n_samples, monte_carlo_runs, seed))
    assert len(cells) == len(algorithms)
    for spec, per_plant in zip(algorithms, cells):
        assert len(per_plant) == len(plants)
        for plant, (e2, nwd, diverged_at) in zip(plants, per_plant):
            ref_series, ref_diverged_at = scalar_oracle.run_ensemble(
                spec.name, spec.filter, plant, n_samples, monte_carlo_runs, seed
            )
            assert diverged_at == sorted(ref_diverged_at)
            # the report of the cell counts the runs that it lists
            report = build_report(e2, nwd, diverged_at)
            assert report.diverged_at is diverged_at
            assert report.runs_diverged == len(report.diverged_at) == len(ref_diverged_at)
            assert report.runs_used == len(ref_series)
            # the survivors come in run order; distinct streams give every run its own curve
            assert e2.shape == nwd.shape == (len(ref_series), n_samples)
            for got_e2, got_nwd, ref in zip(e2, nwd, ref_series):
                assert np.array_equal(got_e2, ref.squared_error)
                assert np.array_equal(got_nwd, ref.nwd_db)
    return cells


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(experiments())
def test_kernel_rows_equal_scalar_loop(experiment):
    cells = assert_rows_match_oracle(**experiment)
    # steer the search towards batches in which only some runs of a plant diverge
    runs = experiment["monte_carlo_runs"]
    target(float(sum(0 < len(diverged_at) < runs for per_plant in cells for _, _, diverged_at in per_plant)))


@pytest.mark.parametrize("algorithm, nu", [("lms", 1.35), ("flms", 0.34), ("rvss-flms", 0.34)])
def test_partly_diverged_batch_equals_scalar_loop(algorithm, nu):
    # steps near the stability edge at 8 and 10 dB: some runs of each plant diverge, at different samples
    cfg = FilterConfig(
        frac_order=0.5, nu_init=nu, nu_f_init=nu, nu_min=nu, nu_max=1.3 * nu,
        alpha=0.5, beta=0.5, gamma=0.5, weight_init=1e-20,
    )
    plants = [PlantSpec((0.9, 0.3, -0.1), 0.143), PlantSpec((0.9, 0.3, -0.1), 0.091)]
    [cells] = assert_rows_match_oracle([AlgorithmSpec(algorithm, cfg)], plants, 600, 12, seed=12345)
    lost = [len(diverged_at) for _, _, diverged_at in cells]
    assert all(0 < n < 12 for n in lost), lost


@pytest.mark.parametrize("n_samples", [simulate.CHUNK - 1, simulate.CHUNK, simulate.CHUNK + 1, 2 * simulate.CHUNK + 1])
@pytest.mark.parametrize("names", [(name,) for name in ALGORITHMS] + [("lms", "flms")], ids="+".join)
def test_chunk_edges_equal_scalar_loop(names, n_samples):
    # the weight distance is measured once per CHUNK steps: lengths on
    # either side of a chunk boundary, and a last chunk of one step
    cfg = FilterConfig(
        frac_order=0.5, nu_init=0.05, nu_f_init=0.05, nu_min=0.01, nu_max=0.1,
        alpha=0.5, beta=0.5, gamma=0.5, weight_init=1e-20,
    )
    algorithms = [AlgorithmSpec(name, cfg) for name in names]
    plants = [PlantSpec((0.9, 0.3, -0.1), 0.1), PlantSpec((0.9, 0.3, -0.1), 0.001)]
    assert_rows_match_oracle(algorithms, plants, n_samples, 3, seed=12345)


# LMS near its stability edge with its own constants; FLMS and RVSS-FLMS share theirs
EDGE = FilterConfig(
    frac_order=0.5, nu_init=0.34, nu_f_init=0.34, nu_min=0.34, nu_max=0.44,
    alpha=0.5, beta=0.5, gamma=0.5, weight_init=1e-20,
)
EDGE_LMS = replace(EDGE, nu_init=1.35, nu_f_init=1.35, nu_min=1.35, nu_max=1.55, weight_init=-0.3)


@pytest.mark.parametrize(
    "lms_order, batched",
    [(0.5, [("lms", "flms"), ("rvss-flms",)]), (0.75, [("lms",), ("flms",), ("rvss-flms",)])],
)
def test_frac_order_override_splits_the_batch(lms_order, batched, tmp_path, monkeypatch):
    # the exponent 1 - f stays a scalar of its step call, so an LMS of its
    # own frac_order steps in a batch of its own
    algorithms = [
        AlgorithmSpec("lms", replace(EDGE_LMS, frac_order=lms_order)),
        AlgorithmSpec("flms", EDGE),
        AlgorithmSpec("rvss-flms", EDGE),
    ]
    config = ExperimentConfig(PlantSpec((0.9, 0.3, -0.1)), (8.0, 10.0), 600, 6, 12345, tuple(algorithms))
    kernel = simulate.run_identification
    steps = []

    def counting_kernel(group, *args):
        steps.append(tuple(spec.name for spec in group))
        return kernel(group, *args)

    def checked_ensemble(group, plants, x, z):
        # the grid's one bank, then every row of the batch checked before it is reduced
        runs, n_samples = x.shape
        assert all(map(np.array_equal, (x, z), signal_bank(n_samples, runs, config.rng_seed)))
        cells = assert_rows_match_oracle(group, plants, n_samples, runs, config.rng_seed)
        return [[build_report(*cell) for cell in per_plant] for per_plant in cells]

    monkeypatch.setattr(simulate, "run_identification", counting_kernel)
    monkeypatch.setattr(experiment, "run_ensemble", checked_ensemble)
    manifest = experiment.run_experiment(config, tmp_path)
    assert steps == batched
    assert list(manifest.batch_seconds) == ["+".join(names) for names in batched]
    assert any(manifest.cells[f"lms@{snr}"]["diverged_at"] for snr in ("8dB", "10dB"))


def test_merged_batch_memory_is_a_few_row_arrays():
    # The kernel keeps about three (N, rows) float arrays: the time-reversed
    # input, desired turned squared error and the weight distance, and nu
    # on the RVSS-FLMS batch alone.  A (K, N, rows) copy of the tap windows,
    # or a weight history, adds K more.
    paper_x60 = load(bundled_path("paper-x60.config"))
    batches = {
        "edge": (
            [AlgorithmSpec("lms", EDGE_LMS), AlgorithmSpec("flms", EDGE)],
            [PlantSpec((0.9, 0.3, -0.1), 0.143), PlantSpec((0.9, 0.3, -0.1), 0.091)],
        ),
        # paper-x60's LMS+FLMS batch at 10 and 20 dB, where no run diverges
        "paper-x60": (list(paper_x60.algorithms[:2]), [paper_x60.plant_at(10.0), paper_x60.plant_at(20.0)]),
    }
    n_samples, runs = 600, 40
    for name, (algorithms, plants) in batches.items():
        experiment.run_ensemble(algorithms, plants, *signal_bank(n_samples, runs, 12345))  # warm up numpy's caches
        tracemalloc.start()
        try:
            experiment.run_ensemble(algorithms, plants, *signal_bank(n_samples, runs, 12345))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row_array = len(algorithms) * len(plants) * runs * n_samples * 8
        assert peak < MEMORY_ROW_ARRAYS * row_array, (name, peak / row_array)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_all_diverged_batch_steps_every_sample_and_masks_each_row_once(algorithm, monkeypatch):
    # noise-free plants with one huge tap at delays 0, 1 and 2: with zero
    # weights and zero prehistory a row's error is exactly 0 until its
    # plant's delay, where a step of 1e200 overflows its weights.  Rows of
    # the first two plants are masked at samples 0 and 1 while other rows
    # are finite; from sample 2 on no row is finite, yet the kernel steps
    # all 50 samples and each row stays masked where it first overflowed.
    cfg = FilterConfig(
        frac_order=0.5, nu_init=1e200, nu_f_init=1e200, nu_min=1e199, nu_max=1e201,
        alpha=0.5, beta=0.5, gamma=0.5,
    )
    plants = [PlantSpec(tuple(1e120 * (i == delay) for i in range(3))) for delay in range(3)]
    calls = []
    step_name = "rvss_flms_step" if algorithm == "rvss-flms" else "flms_step"
    step_fn = getattr(simulate, step_name)

    def counting_step(*args):
        calls.append(1)
        return step_fn(*args)

    monkeypatch.setattr(simulate, step_name, counting_step)
    with np.errstate(all="ignore"):
        [cells] = assert_rows_match_oracle([AlgorithmSpec(algorithm, cfg)], plants, 50, 3, seed=2)
    assert len(calls) == 50
    assert [diverged_at for _, _, diverged_at in cells] == [[0, 0, 0], [1, 1, 1], [2, 2, 2]]


def test_step_never_raises_and_rows_stay_independent():
    cfg = FilterConfig(
        frac_order=0.5, nu_init=1.0, nu_f_init=0.0, nu_min=0.5, nu_max=2.0,
        alpha=0.5, beta=0.5, gamma=0.5,
    )
    state = FilterState(np.zeros((1, 2)), np.ones(2), np.zeros(2), np.zeros(2))
    state.weights[0] = 1e200, 0.3
    alone = fresh_state(cfg, 1)
    alone.weights[0] = 0.3
    with np.errstate(all="ignore"):
        new, _ = flms_step(state, np.array([[1e200, 0.7]]), np.array([0.0, 1.1]), cfg)
        assert not np.isfinite(new.weights[:, 0]).any()
        assert np.array_equal(new.weights[:, 1], flms_step(alone, np.array([0.7]), 1.1, cfg)[0].weights)
        state.weights[:, 1] = 1e200
        new, err = flms_step(state, np.full((1, 2), 1e200), np.zeros(2), cfg)
    assert not np.isfinite(err).any() and not np.isfinite(new.weights).any()
