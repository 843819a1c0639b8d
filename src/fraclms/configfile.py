"""
Experiment config files.

Plain INI-style text with three section kinds::

    [experiment]
    snr_db = 10, 20, 30, 40          # comma-separated floats
    samples_per_run = 600
    monte_carlo_runs = 200
    rng_seed = 12345
    algorithms = lms, flms, rvss-flms

    [plant]
    coeffs = 0.9, 0.3, -0.1

    [filter]                         # shared filter hyperparameters
    tap_count = 3
    ...

    [filter.rvss-flms]               # optional per-algorithm overrides
    nu_max = 3e-4

Unknown sections or keys are hard errors, as is any violated invariant;
all problems found in one file are reported together.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import asdict
from pathlib import Path

from .filters import FilterConfig, FracPowerPolicy
from .simulate import ALGORITHMS, AlgorithmSpec, ExperimentConfig, PlantSpec

__all__ = ["ConfigError", "loads", "dumps", "load", "bundled_path"]

_EXPERIMENT_KEYS = ("snr_db", "samples_per_run", "monte_carlo_runs", "rng_seed", "algorithms")
_PLANT_KEYS = ("coeffs",)
_FILTER_REQUIRED = (
    "tap_count",
    "frac_order",
    "nu_init",
    "nu_f_init",
    "nu_min",
    "nu_max",
    "alpha",
    "beta",
    "gamma",
    "weight_init",
)
_FILTER_KEYS = _FILTER_REQUIRED + ("frac_power_policy",)

_INT_KEYS = {"samples_per_run", "monte_carlo_runs", "rng_seed", "tap_count"}


class ConfigError(ValueError):
    """Invalid experiment config; carries every problem found."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid config:\n  " + "\n  ".join(self.problems))


def _parse_float(text: str, where: str, problems: list[str]) -> float:
    try:
        return float(text)
    except ValueError:
        problems.append(f"{where}: not a number: {text!r}")
        return math.nan


def _parse_int(text: str, where: str, problems: list[str]) -> int:
    try:
        return int(text)
    except ValueError:
        problems.append(f"{where}: not an integer: {text!r}")
        return 0


def _parse_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _check_keys(values, where, allowed, required, problems) -> dict[str, str]:
    """The allowed keys of values; unknown and missing keys go to problems.

    A missing key gets a parseable placeholder so that later checks still run.
    """
    problems.extend(f"{where}: unknown key {key!r}" for key in values if key not in allowed)
    known = {key: raw for key, raw in values.items() if key in allowed}
    for key in required:
        if key not in known:
            problems.append(f"{where}: missing required key {key!r}")
            known[key] = "0.5" if key in _FILTER_KEYS and key not in _INT_KEYS else "1"
    return known


def _filter_from_section(values: dict[str, str], where: str, problems: list[str]) -> FilterConfig:
    kwargs = {}
    values = _check_keys(values, where, _FILTER_KEYS, _FILTER_REQUIRED, problems)
    for key, raw in values.items():
        if key == "frac_power_policy":
            try:
                kwargs[key] = FracPowerPolicy(raw)
            except ValueError:
                problems.append(
                    f"{where}: frac_power_policy must be one of "
                    f"{[p.value for p in FracPowerPolicy]}, got {raw!r}"
                )
                kwargs[key] = FracPowerPolicy.SIGNED_MAGNITUDE
        elif key in _INT_KEYS:
            kwargs[key] = _parse_int(raw, f"{where}: {key}", problems)
        else:
            kwargs[key] = _parse_float(raw, f"{where}: {key}", problems)
    return FilterConfig(**kwargs)


def loads(text: str) -> ExperimentConfig:
    """Parse and validate config text; raises ConfigError listing every problem."""
    parser = configparser.ConfigParser(
        delimiters=("=",), inline_comment_prefixes=("#",), interpolation=None
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"parse error: {exc}"]) from exc

    problems: list[str] = []

    for required in ("experiment", "plant", "filter"):
        if required not in parser:
            problems.append(f"missing required section [{required}]")
    for section in parser.sections():
        if section in ("experiment", "plant", "filter"):
            continue
        if not section.startswith("filter."):
            problems.append(f"unknown section [{section}]")
        elif section[len("filter."):] not in ALGORITHMS:
            problems.append(f"unknown algorithm in section [{section}]; expected one of {ALGORITHMS}")
    if problems:
        raise ConfigError(problems)

    exp = _check_keys(parser["experiment"], "[experiment]", _EXPERIMENT_KEYS, _EXPERIMENT_KEYS, problems)
    plant_sec = _check_keys(parser["plant"], "[plant]", _PLANT_KEYS, _PLANT_KEYS, problems)
    base_sec = _check_keys(parser["filter"], "[filter]", _FILTER_KEYS, (), problems)

    snr_db = tuple(
        _parse_float(s, "[experiment]: snr_db", problems) for s in _parse_list(exp["snr_db"])
    )
    samples = _parse_int(exp["samples_per_run"], "[experiment]: samples_per_run", problems)
    runs = _parse_int(exp["monte_carlo_runs"], "[experiment]: monte_carlo_runs", problems)
    seed = _parse_int(exp["rng_seed"], "[experiment]: rng_seed", problems)
    algo_names = _parse_list(exp["algorithms"])

    coeffs = tuple(
        _parse_float(s, "[plant]: coeffs", problems) for s in _parse_list(plant_sec["coeffs"])
    )

    for section in parser.sections():
        if section.startswith("filter.") and section[len("filter."):] not in algo_names:
            problems.append(f"section [{section}] has no matching entry in [experiment] algorithms")

    algorithms = []
    for name in algo_names:
        values = dict(base_sec)
        override = f"filter.{name}"
        if override in parser:
            values.update(_check_keys(parser[override], f"[{override}]", _FILTER_KEYS, (), problems))
        algorithms.append(
            AlgorithmSpec(name=name, filter=_filter_from_section(values, f"filter for {name!r}", problems))
        )

    config = ExperimentConfig(
        plant=PlantSpec(coeffs=coeffs, disturbance_variance=0.0),
        snr_db_list=snr_db,
        samples_per_run=samples,
        monte_carlo_runs=runs,
        rng_seed=seed,
        algorithms=tuple(algorithms),
    )
    problems.extend(config.violations())
    if problems:
        raise ConfigError(problems)
    return config


def _fmt(value) -> str:
    if isinstance(value, FracPowerPolicy):
        return value.value
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dumps(config: ExperimentConfig) -> str:
    """Serialize to the canonical text form (round-trips through loads)."""
    out = io.StringIO()
    out.write("[experiment]\n")
    out.write("snr_db = " + ", ".join(repr(float(s)) for s in config.snr_db_list) + "\n")
    out.write(f"samples_per_run = {config.samples_per_run}\n")
    out.write(f"monte_carlo_runs = {config.monte_carlo_runs}\n")
    out.write(f"rng_seed = {config.rng_seed}\n")
    out.write("algorithms = " + ", ".join(a.name for a in config.algorithms) + "\n")
    out.write("\n[plant]\n")
    out.write("coeffs = " + ", ".join(repr(float(c)) for c in config.plant.coeffs) + "\n")

    base = config.algorithms[0].filter
    base_dict = asdict(base)
    out.write("\n[filter]\n")
    for key in _FILTER_KEYS:
        out.write(f"{key} = {_fmt(base_dict[key])}\n")
    for spec in config.algorithms:
        diff = {k: v for k, v in asdict(spec.filter).items() if v != base_dict[k]}
        if diff:
            out.write(f"\n[filter.{spec.name}]\n")
            for key in _FILTER_KEYS:
                if key in diff:
                    out.write(f"{key} = {_fmt(diff[key])}\n")
    return out.getvalue()


def load(path) -> ExperimentConfig:
    try:
        return loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{path}: not UTF-8 text"]) from exc


def bundled_path(name: str) -> Path:
    """Path of a data file shipped with the package (e.g. 'paper.config')."""
    from importlib import resources

    candidate = resources.files("fraclms") / "data" / name
    with resources.as_file(candidate) as p:
        return Path(p)
