"""Frozen per-sample identification loop: the scalar reference for the kernel.

This is the simulation path as it was before the batch kernel, one run and
one sample at a time on (K,) weights and python floats: the step
functions, the plant, the NWD metric and the loop, kept verbatim in their
arithmetic, operand order and divergence rule.  test_kernel compares
every row of ``fraclms.simulate.run_identification`` with it bit for bit.
It shares only the random streams, the BPSK draw and the config classes
with the package, so a change to the package's arithmetic shows up as a
difference.

The one change to the loop: run_ensemble also returns the iteration at
which each diverged run raised, instead of only counting them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from fraclms.filters import FilterConfig
from fraclms.simulate import ROLE_DISTURBANCE, ROLE_INPUT, PlantSpec, bpsk_sequence, stream

DB_FLOOR = -320.0


class RunSeries(NamedTuple):
    squared_error: np.ndarray
    nwd_db: np.ndarray


class DivergedError(RuntimeError):
    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"non-finite filter state at iteration {iteration}")


@dataclass(slots=True)
class FilterState:
    weights: np.ndarray
    nu: float
    p: float
    prev_error: float
    iteration: int = 0


def initial_state(cfg: FilterConfig, k: int) -> FilterState:
    w = np.full(k, float(cfg.weight_init))
    return FilterState(weights=w, nu=float(cfg.nu_init), p=0.0, prev_error=0.0, iteration=0)


def tap_dot(a, b) -> float:
    acc = 0.0
    for i in range(len(a)):
        acc += float(a[i]) * float(b[i])
    return acc


def predict(state: FilterState, x: np.ndarray) -> float:
    return tap_dot(state.weights, x)


def frac_power(w, exponent: float):
    mag = np.abs(w) ** exponent
    return np.sign(w) * mag


def update_correlation(p_prev: float, e_now: float, e_prev: float, alpha: float) -> float:
    return alpha * p_prev + (1.0 - alpha) * e_now * e_prev


def update_step_size(nu: float, p: float, params) -> float:
    raw = params.beta * nu + params.gamma * p * p
    if raw > params.nu_max:
        return params.nu_max
    if raw < params.nu_min:
        return params.nu_min
    return raw


def _check_finite(weights: np.ndarray, error: float, nu: float, iteration: int) -> None:
    if not (math.isfinite(error) and math.isfinite(nu) and bool(np.isfinite(weights).all())):
        raise DivergedError(iteration)


def flms_step(state: FilterState, x: np.ndarray, desired: float, cfg: FilterConfig):
    error = desired - predict(state, x)
    f = cfg.frac_order
    wp = frac_power(state.weights, 1.0 - f)
    w = state.weights + (cfg.nu_init * error) * x + (cfg.nu_f_init * error) * x * wp / math.gamma(2.0 - f)
    _check_finite(w, error, state.nu, state.iteration)
    new = FilterState(weights=w, nu=state.nu, p=state.p, prev_error=error, iteration=state.iteration + 1)
    return new, error


def rvss_flms_step(state: FilterState, x: np.ndarray, desired: float, cfg: FilterConfig):
    error = desired - predict(state, x)
    wp = frac_power(state.weights, 1.0 - cfg.frac_order)
    w = state.weights + (state.nu * error) * x * (1.0 + wp)
    p = update_correlation(state.p, error, state.prev_error, cfg.alpha)
    nu = update_step_size(state.nu, p, cfg)
    _check_finite(w, error, nu, state.iteration)
    new = FilterState(weights=w, nu=nu, p=p, prev_error=error, iteration=state.iteration + 1)
    return new, error


def plant_output(x: np.ndarray, spec: PlantSpec, rng: np.random.Generator) -> float:
    return tap_dot(spec.coeffs, x) + float(rng.standard_normal()) * math.sqrt(spec.disturbance_variance)


def nwd_db(estimated, truth) -> float:
    t = np.asarray(truth, dtype=float)
    e = np.asarray(estimated, dtype=float)
    tnorm2 = tap_dot(t, t)
    d = t - e
    dnorm2 = tap_dot(d, d)
    if dnorm2 == 0.0:
        return DB_FLOOR
    return max(10.0 * math.log10(dnorm2 / tnorm2), DB_FLOOR)


def _dispatch(algorithm: str, cfg: FilterConfig):
    if algorithm == "lms":
        return flms_step, replace(cfg, nu_f_init=0.0)
    if algorithm == "flms":
        return flms_step, cfg
    if algorithm == "rvss-flms":
        return rvss_flms_step, cfg
    raise ValueError(f"unknown algorithm {algorithm!r}")


def run_identification(algorithm, cfg, plant, n_samples, input_rng, disturbance_rng) -> RunSeries:
    step_fn, step_cfg = _dispatch(algorithm, cfg)
    k = len(plant.coeffs)

    x = bpsk_sequence(n_samples, input_rng)
    padded = np.concatenate([np.zeros(k - 1), x])
    truth = np.asarray(plant.coeffs, dtype=float)

    state = initial_state(cfg, k)
    e2 = np.empty(n_samples)
    nwd = np.empty(n_samples)
    for n in range(n_samples):
        x_n = padded[n : n + k][::-1]
        desired = plant_output(x_n, plant, disturbance_rng)
        state, err = step_fn(state, x_n, desired, step_cfg)
        sq = err * err
        val = nwd_db(state.weights, truth)
        if not (math.isfinite(sq) and math.isfinite(val)):
            raise DivergedError(n)
        e2[n] = sq
        nwd[n] = val
    return RunSeries(squared_error=e2, nwd_db=nwd)


def run_ensemble(algorithm, cfg, plant, n_samples, monte_carlo_runs, seed) -> tuple[list[RunSeries], list[int]]:
    """The runs that stayed finite, and the iteration at which each other run raised."""
    series: list[RunSeries] = []
    diverged_at = []
    for r in range(monte_carlo_runs):
        try:
            input_rng, disturbance_rng = stream(seed, r, ROLE_INPUT), stream(seed, r, ROLE_DISTURBANCE)
            series.append(run_identification(algorithm, cfg, plant, n_samples, input_rng, disturbance_rng))
        except DivergedError as exc:
            diverged_at.append(exc.iteration)
    return series, diverged_at
