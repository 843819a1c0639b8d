"""
System-identification simulation: BPSK excitation, FIR plant with additive
Gaussian disturbance, and the identification loop, which advances every
run of an algorithm against every plant as one batch of rows.

Randomness is organized as named streams: every (run index, role) pair gets
an independent generator derived from (seed, run, role), so Monte-Carlo
runs are order-independent and the input / disturbance draws of a run are
shared across algorithms (common random numbers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .filters import FilterConfig, flms_step, initial_state, rvss_flms_step, tap_dot
from .metrics import nwd_db, weight_distance

__all__ = [
    "LABELS",
    "ALGORITHMS",
    "ROLE_INPUT",
    "ROLE_DISTURBANCE",
    "PlantSpec",
    "AlgorithmSpec",
    "ExperimentConfig",
    "RunSeries",
    "stream",
    "bpsk_sequence",
    "clean_plant_power",
    "snr_to_variance",
    "plant_output",
    "run_identification",
    "run_ensemble",
]

# algorithm name -> display label; _dispatch maps each name to its update
LABELS = {"lms": "LMS", "flms": "FLMS", "rvss-flms": "RVSS-FLMS"}
ALGORITHMS = tuple(LABELS)

ROLE_INPUT = 0
ROLE_DISTURBANCE = 1


@dataclass(frozen=True)
class PlantSpec:
    """True system: FIR coefficients plus disturbance variance."""

    coeffs: tuple[float, ...]
    disturbance_variance: float = 0.0

    def violations(self) -> list[str]:
        bad = []
        if len(self.coeffs) == 0:
            bad.append("plant coeffs must be non-empty")
        elif not all(math.isfinite(c) for c in self.coeffs):
            bad.append(f"plant coeffs must be finite, got {self.coeffs}")
        elif not any(self.coeffs):
            bad.append(f"plant coeffs must not all be zero, got {self.coeffs}")
        if not (math.isfinite(self.disturbance_variance) and self.disturbance_variance >= 0.0):
            bad.append(f"disturbance_variance must be >= 0, got {self.disturbance_variance}")
        return bad


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm under test: its name and filter hyperparameters."""

    name: str
    filter: FilterConfig


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one benchmark experiment."""

    plant: PlantSpec
    snr_db_list: tuple[float, ...]
    samples_per_run: int
    monte_carlo_runs: int
    rng_seed: int
    algorithms: tuple[AlgorithmSpec, ...]

    def plant_at(self, snr_db: float) -> PlantSpec:
        """The plant with the disturbance variance that realizes snr_db."""
        power = clean_plant_power(self.plant.coeffs)
        return replace(self.plant, disturbance_variance=snr_to_variance(snr_db, power))

    def violations(self) -> list[str]:
        bad = self.plant.violations()
        if len(self.snr_db_list) == 0:
            bad.append("snr_db list must be non-empty")
        elif not all(math.isfinite(s) for s in self.snr_db_list):
            bad.append(f"snr_db values must be finite, got {self.snr_db_list}")
        elif not self.plant.violations():
            for snr in self.snr_db_list:
                try:
                    variance = self.plant_at(snr).disturbance_variance
                except (ArithmeticError, ValueError):
                    variance = math.nan
                if not (math.isfinite(variance) and variance > 0.0):
                    bad.append(f"snr_db value {snr:g} gives no finite nonzero disturbance variance")
        for snr in sorted({s for s in self.snr_db_list if self.snr_db_list.count(s) > 1}):
            bad.append(f"snr_db value {snr:g} listed twice")
        if self.monte_carlo_runs < 1:
            bad.append(f"monte_carlo_runs must be >= 1, got {self.monte_carlo_runs}")
        if not 0 <= self.rng_seed < 2**64:
            bad.append(f"rng_seed must be a 64-bit unsigned integer, got {self.rng_seed}")
        if len(self.algorithms) == 0:
            bad.append("algorithms list must be non-empty")
        seen = set()
        for spec in self.algorithms:
            if spec.name not in ALGORITHMS:
                bad.append(f"unknown algorithm {spec.name!r}; expected one of {ALGORITHMS}")
                continue
            if spec.name in seen:
                bad.append(f"algorithm {spec.name!r} listed twice")
            seen.add(spec.name)
            for v in spec.filter.violations():
                bad.append(f"[{spec.name}] {v}")
            if self.samples_per_run < spec.filter.tap_count:
                bad.append(
                    f"[{spec.name}] samples_per_run must be >= tap_count, "
                    f"got {self.samples_per_run} < {spec.filter.tap_count}"
                )
            if spec.filter.tap_count != len(self.plant.coeffs):
                bad.append(
                    f"[{spec.name}] tap_count {spec.filter.tap_count} does not match "
                    f"plant order {len(self.plant.coeffs)}"
                )
        return bad


@dataclass
class RunSeries:
    """Per-iteration traces of one identification run."""

    squared_error: np.ndarray
    nwd_db: np.ndarray


def stream(seed: int, run_index: int, role: int) -> np.random.Generator:
    """Independent generator for one (run, role) pair under a master seed."""
    return np.random.default_rng(np.random.SeedSequence((seed, run_index, role)))


def bpsk_sequence(n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Equiprobable i.i.d. +-1 sequence drawn from the given stream."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    return rng.integers(0, 2, n_samples) * 2.0 - 1.0


def clean_plant_power(coeffs) -> float:
    """Output power of the FIR plant under unit-power uncorrelated +-1 input."""
    return float(tap_dot(coeffs, coeffs))


def snr_to_variance(snr_db: float, signal_power: float) -> float:
    """Disturbance variance that realizes the requested output SNR."""
    if not signal_power > 0.0:
        raise ValueError(f"signal_power must be > 0, got {signal_power}")
    return signal_power / 10.0 ** (snr_db / 10.0)


def plant_output(x: np.ndarray, spec: PlantSpec, z):
    """Noisy plant response: coeffs . x + z * sqrt(disturbance_variance).

    x holds tap windows on its last axis, newest first: one window, or one
    per run and sample.  z holds the standard-normal disturbance draws, one
    per window.
    """
    if len(spec.coeffs) != np.shape(x)[-1]:
        raise ValueError(f"window length {np.shape(x)[-1]} does not match plant order {len(spec.coeffs)}")
    return tap_dot(spec.coeffs, x) + z * math.sqrt(spec.disturbance_variance)


def _dispatch(algorithm: str, cfg: FilterConfig):
    if algorithm == "lms":
        # plain LMS is the fractional update with the fractional term off
        return flms_step, replace(cfg, nu_f_init=0.0)
    if algorithm == "flms":
        return flms_step, cfg
    if algorithm == "rvss-flms":
        return rvss_flms_step, cfg
    raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")


def run_identification(
    algorithm: str,
    cfg: FilterConfig,
    plants: Sequence[PlantSpec],
    x: np.ndarray,
    z: np.ndarray,
) -> list[tuple[list[RunSeries], list[int]]]:
    """Drive a batch of filters through the identification loop together.

    x and z are (R, N): the BPSK input and the standard-normal disturbance
    draws of R runs.  Every plant reuses them, scaled by its own
    sqrt(disturbance_variance), so the batch has one row per (plant, run),
    plant-major: row s*R + r is run r against plants[s].  The regressor
    window uses zero prehistory for the first tap_count - 1 samples.

    A row is masked at the first sample whose squared error, step size or
    NWD is not finite; the loop stops once no row's error is finite.
    Returns, per plant, the series of the runs that stayed finite (squared
    prediction error and NWD after every update) and the sorted sample index
    at which each other run was masked.
    """
    step_fn, step_cfg = _dispatch(algorithm, cfg)
    k = cfg.tap_count
    for plant in plants:
        if len(plant.coeffs) != k:
            raise ValueError(f"tap_count {k} does not match plant order {len(plant.coeffs)}")
    runs, n_samples = x.shape
    rows = len(plants) * runs

    padded = np.zeros((len(plants), runs, k - 1 + n_samples))
    padded[:, :, k - 1 :] = x
    windows = sliding_window_view(padded.reshape(rows, -1), k, axis=1)[..., ::-1]  # (rows, N, K), newest first
    desired = np.empty((rows, n_samples))
    for s, plant in enumerate(plants):
        desired[s * runs : (s + 1) * runs] = plant_output(windows[s * runs : (s + 1) * runs], plant, z)
    ratio = weight_distance(np.repeat([plant.coeffs for plant in plants], runs, axis=0))

    state = initial_state(cfg, rows)
    e2 = desired  # a step consumes its column of desired; its squared errors then overwrite it
    distance = np.empty((rows, n_samples))
    nu = np.empty((rows, n_samples))
    done = n_samples
    with np.errstate(all="ignore"):
        for n in range(n_samples):
            state, err = step_fn(state, windows[:, n], desired[:, n], step_cfg)
            e2[:, n] = err * err
            distance[:, n] = ratio(state.weights)
            nu[:, n] = state.nu
            if not np.isfinite(err).any():  # every row is masked by now: stop early
                done = n + 1
                break
    del windows, padded  # free the input before the dB conversion allocates

    # a row is masked at its first non-finite sample; n_samples: it stayed finite
    bad = np.ones((rows, done + 1), dtype=bool)
    bad[:, :done] = ~(np.isfinite(e2[:, :done]) & np.isfinite(distance[:, :done]) & np.isfinite(nu[:, :done]))
    masked_at = bad.argmax(axis=1)

    cells = []
    for s in range(len(plants)):
        lost = masked_at[s * runs : (s + 1) * runs]
        kept = s * runs + np.flatnonzero(lost == n_samples)
        nwd = nwd_db(distance[kept])
        series = [RunSeries(squared_error=e2[row], nwd_db=curve) for row, curve in zip(kept, nwd)]
        cells.append((series, sorted(lost[lost < n_samples].tolist())))
    return cells


def run_ensemble(
    algorithm: str,
    cfg: FilterConfig,
    plants: Sequence[PlantSpec],
    n_samples: int,
    monte_carlo_runs: int,
    seed: int,
) -> list[tuple[list[RunSeries], list[int]]]:
    """Execute an ensemble of independent runs against every plant, as one batch.

    Every run r draws its input and disturbance from streams derived from
    (seed, r, role) regardless of algorithm and plant, so different
    algorithms see identical signals.  Returns what
    :func:`run_identification` returns: per plant, the runs that stayed
    finite and the sample index at which each other run diverged.
    """
    x = np.empty((monte_carlo_runs, n_samples))
    z = np.empty((monte_carlo_runs, n_samples))
    for r in range(monte_carlo_runs):
        x[r] = bpsk_sequence(n_samples, stream(seed, r, ROLE_INPUT))
        z[r] = stream(seed, r, ROLE_DISTURBANCE).standard_normal(n_samples)
    return run_identification(algorithm, cfg, plants, x, z)
