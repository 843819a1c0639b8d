"""
System-identification simulation: BPSK excitation, FIR plant with additive
Gaussian disturbance, and the identification loop, which advances every
run of a batch of algorithms against every plant as one batch of rows:
LMS and FLMS in one, RVSS-FLMS in another.

Randomness is organized as named streams: every (run index, role) pair gets
an independent generator derived from (seed, run, role), so Monte-Carlo
runs are order-independent and the input / disturbance draws of a run are
shared across algorithms (common random numbers).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .filters import FilterConfig, FilterState, flms_step, rvss_flms_step, tap_dot
from .metrics import nwd_db

__all__ = [
    "LABELS",
    "ALGORITHMS",
    "ROLE_INPUT",
    "ROLE_DISTURBANCE",
    "PlantSpec",
    "AlgorithmSpec",
    "ExperimentConfig",
    "stream",
    "bpsk_sequence",
    "clean_plant_power",
    "snr_to_variance",
    "plant_output",
    "batches",
    "signal_bank",
    "snr_tag",
    "run_identification",
]

# algorithm name -> display label; _batch_key maps each name to its step and batch
LABELS = {"lms": "LMS", "flms": "FLMS", "rvss-flms": "RVSS-FLMS"}
ALGORITHMS = tuple(LABELS)

ROLE_INPUT = 0
ROLE_DISTURBANCE = 1

# run_identification measures the weight distance of CHUNK steps in one
# call: 16 spreads its numpy call overhead thin at a (K, 16, rows) buffer
CHUNK = 16


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
        elif not 0.0 < clean_plant_power(self.coeffs) < math.inf:  # the kernel divides each NWD ratio by it
            bad.append(f"plant coeffs must have a finite, nonzero squared norm, got {self.coeffs}")
        if not (math.isfinite(self.disturbance_variance) and self.disturbance_variance >= 0.0):
            bad.append(f"disturbance_variance must be >= 0, got {self.disturbance_variance}")
        return bad


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm under test: its name and filter hyperparameters."""

    name: str
    filter: FilterConfig


def _algorithm_problems(algorithms: Sequence[AlgorithmSpec]) -> list[str]:
    """Every problem of an algorithm list: none listed, an unknown or repeated name, an invalid filter."""
    bad = []
    if len(algorithms) == 0:
        bad.append("algorithms list must be non-empty")
    seen = set()
    for spec in algorithms:
        if spec.name not in ALGORITHMS:
            bad.append(f"unknown algorithm {spec.name!r}; expected one of {ALGORITHMS}")
        elif spec.name in seen:
            bad.append(f"algorithm {spec.name!r} listed twice")
        seen.add(spec.name)
        for v in spec.filter.violations():
            bad.append(f"[{spec.name}] {v}")
    return bad


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
        elif not bad:  # the plant is valid
            for snr in self.snr_db_list:
                try:
                    variance = self.plant_at(snr).disturbance_variance
                except (ArithmeticError, ValueError):
                    variance = math.nan
                if not (math.isfinite(variance) and variance > 0.0):
                    bad.append(f"snr_db value {snr:g} gives no finite nonzero disturbance variance")
        # artifacts name an SNR by its tag, so values that share one collide
        tags = [snr_tag(s) for s in self.snr_db_list]
        for tag in sorted({t for t in tags if tags.count(t) > 1}, key=float):
            bad.append(f"snr_db value {tag} listed twice")
        order = len(self.plant.coeffs)
        if self.samples_per_run < order:
            bad.append(f"samples_per_run must be >= the plant order, got {self.samples_per_run} < {order}")
        if self.monte_carlo_runs < 1:
            bad.append(f"monte_carlo_runs must be >= 1, got {self.monte_carlo_runs}")
        # numpy must address the kernel's largest array: samples_per_run + order - 1 float64s per row
        rows = len(self.algorithms) * len(self.snr_db_list) * self.monte_carlo_runs
        if (self.samples_per_run + order - 1) * rows * 8 > sys.maxsize:
            bad.append(f"grid too large to address: {rows} runs of {self.samples_per_run + order - 1} float64s each")
        if not 0 <= self.rng_seed < 2**64:
            bad.append(f"rng_seed must be a 64-bit unsigned integer, got {self.rng_seed}")
        return bad + _algorithm_problems(self.algorithms)


def stream(seed: int, run_index: int, role: int) -> np.random.Generator:
    """Independent generator for one (run, role) pair under a master seed."""
    return np.random.default_rng(np.random.SeedSequence((seed, run_index, role)))


def bpsk_sequence(n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Equiprobable i.i.d. +-1 sequence drawn from the given stream."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    return rng.integers(0, 2, n_samples) * 2.0 - 1.0


def clean_plant_power(coeffs) -> float:
    """Output power of the FIR plant under unit-power uncorrelated +-1 input: its squared norm, inf on overflow."""
    with np.errstate(over="ignore"):  # PlantSpec.violations reports an overflowing norm; numpy need not warn
        return float(tap_dot(coeffs, coeffs))


def snr_to_variance(snr_db: float, signal_power: float) -> float:
    """Disturbance variance that realizes the requested output SNR."""
    if not signal_power > 0.0:
        raise ValueError(f"signal_power must be > 0, got {signal_power}")
    return signal_power / 10.0 ** (snr_db / 10.0)


def plant_output(x: np.ndarray, spec: PlantSpec, z):
    """Noisy plant response: coeffs . x + z * sqrt(disturbance_variance).

    x holds tap windows on its first axis, newest first: one (K,) window,
    or a (K, N, runs) stack of one per sample and run.  z holds the
    standard-normal disturbance draws, one per window.
    """
    if len(spec.coeffs) != len(x):
        raise ValueError(f"window length {len(x)} does not match plant order {len(spec.coeffs)}")
    return tap_dot(spec.coeffs, x) + z * math.sqrt(spec.disturbance_variance)


def snr_tag(snr_db: float) -> str:
    """How every artifact names an SNR: its %g text, with -0 folded into 0."""
    return f"{snr_db + 0.0:g}"


def _batch_key(spec: AlgorithmSpec) -> tuple[bool, float]:
    # what one step call shares across its rows: rvss_flms_step or not (LMS
    # is FLMS with nu_f_init = 0), and frac_order.  The exponent stays a
    # scalar: numpy's a ** 0.5 is sqrt, which an array exponent is not.
    # Other constants go per row (run_identification), but alpha: only rvss-flms, alone in its batch, reads it.
    return spec.name == "rvss-flms", spec.filter.frac_order


def batches(algorithms: Sequence[AlgorithmSpec]) -> list[tuple[AlgorithmSpec, ...]]:
    """Split algorithms into the batches that one step call each can advance.

    Algorithms share a batch when both or neither are RVSS-FLMS and their
    frac_order agrees: LMS and FLMS by default, with RVSS-FLMS on its own.
    Batches and their members keep config order.
    """
    grouped: dict = {}
    for spec in algorithms:
        grouped.setdefault(_batch_key(spec), []).append(spec)
    return [tuple(group) for group in grouped.values()]


def run_identification(
    algorithms: Sequence[AlgorithmSpec],
    plants: Sequence[PlantSpec],
    x: np.ndarray,
    z: np.ndarray,
) -> list[list[tuple[np.ndarray, np.ndarray, list[int]]]]:
    """Drive a batch of filters through the identification loop together.

    algorithms is one batch of :func:`batches`.  x and z are (R, N): the
    BPSK input and the standard-normal disturbance draws of R runs.  Every
    algorithm and plant reuses them, the plant scaling the disturbance by
    its own sqrt(disturbance_variance), so the batch has one row per
    (algorithm, plant, run), algorithm-major: row (a*S + s)*R + r is run r
    of algorithms[a] against plants[s].  Each row steps with its own
    algorithm's constants other than frac_order and alpha.  The filters have K
    taps, the order that every plant must share, and the regressor window
    uses zero prehistory for the first K - 1 samples.  ValueError lists
    every problem of the batch at once: those of the algorithm list, worded
    as ExperimentConfig.violations words them, then known algorithms that cannot
    share a step, no plants or plants of different orders, an x that is not
    a non-empty 2-D (R, N) array or a z not shaped like it, and every
    invalid plant.

    Every row steps all N samples, and is masked at the first sample whose
    squared error, step size or NWD is not finite.
    Returns, per algorithm and then per plant, (squared_error, nwd_db,
    diverged_at): one (runs_used, N) row per run that stayed finite, in run
    order, of its squared prediction error and NWD in dB after every
    update, and the sorted sample index at which each other run was masked.
    """
    problems = _algorithm_problems(algorithms)
    if len({_batch_key(spec) for spec in algorithms if spec.name in ALGORITHMS}) > 1:
        problems.append("a batch's algorithms must share step function and frac_order")
    orders = sorted({len(plant.coeffs) for plant in plants})
    if not plants:
        problems.append("plants must be non-empty")
    elif len(orders) != 1:
        problems.append(f"plants must share one order, got orders {orders}")
    if np.ndim(x) != 2 or 0 in np.shape(x):
        problems.append(f"x must be a non-empty 2-D (R, N) array, got shape {np.shape(x)}")
    elif np.shape(z) != np.shape(x):
        problems.append(f"z has shape {np.shape(z)}, x has shape {np.shape(x)}")
    problems += [v for plant in plants for v in plant.violations()]  # a plant the NWD cannot divide by among them
    if problems:
        raise ValueError("; ".join(problems))
    rvss, _ = _batch_key(algorithms[0])
    step_fn = rvss_flms_step if rvss else flms_step  # looked up per call: perfbench and tests wrap them
    k = orders[0]
    runs, n_samples = x.shape
    truth = np.tile(np.repeat(np.transpose([p.coeffs for p in plants]), runs, axis=1), len(algorithms))  # (k, rows)
    tnorm2 = tap_dot(truth, truth)  # the plant check keeps it finite and nonzero
    block = len(plants) * runs  # the rows of one algorithm
    rows = len(algorithms) * block

    def per_row(field):  # one value per algorithm -> its (rows,) vector
        return np.repeat(np.array([getattr(spec.filter, field) for spec in algorithms], dtype=float), block)

    # a (rows,) operand costs numpy less than a python float; alpha stays one, or 1.0 - alpha costs an op per step
    fields = ("nu_init", "nu_min", "nu_max", "beta", "gamma")
    lms = np.repeat([spec.name == "lms" for spec in algorithms], block)
    nu_f_init = np.where(lms, 0.0, per_row("nu_f_init"))  # plain LMS is FLMS with the fractional step off
    step_cfg = replace(algorithms[0].filter, nu_f_init=nu_f_init, **{field: per_row(field) for field in fields})

    # the input newest first over k - 1 zeros: sample n's window is the block latest[N-1-n : N-1-n+k]
    latest = np.zeros((n_samples + k - 1, rows))
    latest.reshape(-1, len(algorithms) * len(plants), runs)[:n_samples] = x.T[::-1, None]
    windows = np.moveaxis(sliding_window_view(latest[:, :runs], k, axis=0)[::-1], -1, 0)  # (k, N, runs)
    desired = np.empty((n_samples, rows))
    for s, plant in enumerate(plants):  # every algorithm sees the same desired signal and plant
        desired.reshape(n_samples, len(algorithms), -1, runs)[:, :, s] = plant_output(windows, plant, z.T)[:, None]

    state = FilterState(np.tile(per_row("weight_init"), (k, 1)), per_row("nu_init"), np.zeros(rows), np.zeros(rows))
    e2 = desired  # a step consumes its row of desired; its error, then squared error, overwrites it
    distance = np.empty((n_samples, rows))
    nu = np.empty((n_samples, rows)) if rvss else None  # flms_step keeps nu_init
    recent = np.empty((k, CHUNK, rows))  # the weights after each step of a chunk
    with np.errstate(all="ignore"):
        for start in range(0, n_samples, CHUNK):
            stop = min(start + CHUNK, n_samples)
            for n in range(start, stop):
                state, err = step_fn(state, latest[n_samples - 1 - n : n_samples - 1 - n + k], desired[n], step_cfg)
                e2[n] = err
                recent[:, n - start] = state.weights
                if nu is not None:
                    nu[n] = state.nu
            gap = truth[:, None] - recent[:, : stop - start]  # NWD's ratio ||a - w||**2 / ||a||**2 per step
            distance[start:stop] = tap_dot(gap, gap) / tnorm2
        np.multiply(e2, e2, out=e2)
    del latest, windows, gap  # free the input and the last gap before the dB conversion allocates

    # a row is masked at its first non-finite sample; n_samples: it stayed finite
    bad = ~(np.isfinite(e2) & np.isfinite(distance))
    if nu is not None:
        bad |= ~np.isfinite(nu)
    masked_at = np.where(bad.any(axis=0), bad.argmax(axis=0), n_samples)
    del bad, nu  # free them before the kept rows are copied out

    kept = [first + np.flatnonzero(masked_at[first : first + runs] == n_samples) for first in range(0, rows, runs)]
    squared = [e2.T[keep] for keep in kept]  # a cell per block of runs, copied out C-ordered
    del e2, desired  # free the squared errors before the dB conversion allocates

    cells = [[] for _ in algorithms]
    for first, keep, cell_e2 in zip(range(0, rows, runs), kept, squared):
        lost = masked_at[first : first + runs]
        cells[first // block].append((cell_e2, nwd_db(distance.T[keep]), sorted(lost[lost < n_samples].tolist())))
    return cells


def signal_bank(n_samples: int, monte_carlo_runs: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (R, N) BPSK input x and standard-normal disturbance draws z of R runs.

    Run r draws its rows from the streams of (seed, r, role), whatever the
    algorithm and plant: one bank serves a grid (common random numbers).
    """
    x = np.empty((monte_carlo_runs, n_samples))
    z = np.empty((monte_carlo_runs, n_samples))
    for r in range(monte_carlo_runs):
        x[r] = bpsk_sequence(n_samples, stream(seed, r, ROLE_INPUT))
        z[r] = stream(seed, r, ROLE_DISTURBANCE).standard_normal(n_samples)
    return x, z

