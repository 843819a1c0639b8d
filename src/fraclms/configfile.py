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

The [filter] keys are the fields of FilterConfig, each read as its
annotated type, and all of them but frac_power_policy are required.
Unknown sections or keys are hard errors, as is any violated invariant;
all problems found in one file are reported together.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import asdict
from pathlib import Path
from typing import get_type_hints

from .filters import FilterConfig, FracPowerPolicy
from .simulate import ALGORITHMS, AlgorithmSpec, ExperimentConfig, PlantSpec

__all__ = ["ConfigError", "loads", "dumps", "load", "bundled_path"]

# The kind of each key's value: int, float, str or FracPowerPolicy, or a
# one-tuple of one of them for a comma-separated list.
_SECTIONS = {
    "experiment": {
        "snr_db": (float,),
        "samples_per_run": int,
        "monte_carlo_runs": int,
        "rng_seed": int,
        "algorithms": (str,),
    },
    "plant": {"coeffs": (float,)},
}
# [filter] is FilterConfig: a key per field, in declaration order except that
# the optional keys, which may be left to the field's default, come last
_FILTER_OPTIONAL = ("frac_power_policy",)
_FILTER = dict(sorted(get_type_hints(FilterConfig).items(), key=lambda item: item[0] in _FILTER_OPTIONAL))


class ConfigError(ValueError):
    """Invalid experiment config; carries every problem found."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid config:\n  " + "\n  ".join(self.problems))


def _value(kind, text: str, where: str, problems: list[str]):
    """text read as kind; an invalid value goes to problems and reads as a placeholder."""
    if isinstance(kind, tuple):
        return tuple(_value(kind[0], item.strip(), where, problems) for item in text.split(",") if item.strip())
    try:
        return kind(text)
    except ValueError:
        pass
    if kind is FracPowerPolicy:
        problems.append(f"{where} must be one of {[p.value for p in FracPowerPolicy]}, got {text!r}")
        return FracPowerPolicy.SIGNED_MAGNITUDE
    problems.append(f"{where}: not {'an integer' if kind is int else 'a number'}: {text!r}")
    return 0 if kind is int else math.nan


def _check_keys(values, where, kinds, optional, problems) -> dict[str, str]:
    """The keys of values that kinds names; unknown keys, and missing ones
    not in optional, go to problems.

    A missing key gets a parseable placeholder so that later checks still run.
    """
    problems.extend(f"{where}: unknown key {key!r}" for key in values if key not in kinds)
    known = {key: raw for key, raw in values.items() if key in kinds}
    for key in kinds:
        if key not in known and key not in optional:
            problems.append(f"{where}: missing required key {key!r}")
            known[key] = "0.5" if kinds[key] is float else "1"
    return known


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

    checked = {name: _check_keys(parser[name], f"[{name}]", kinds, (), problems) for name, kinds in _SECTIONS.items()}
    base_sec = _check_keys(parser["filter"], "[filter]", _FILTER, _FILTER, problems)
    exp, plant = (
        {key: _value(kind, checked[name][key], f"[{name}]: {key}", problems) for key, kind in kinds.items()}
        for name, kinds in _SECTIONS.items()
    )

    for section in parser.sections():
        if section.startswith("filter.") and section[len("filter."):] not in exp["algorithms"]:
            problems.append(f"section [{section}] has no matching entry in [experiment] algorithms")

    algorithms = []
    for name in exp["algorithms"]:
        values = dict(base_sec)
        override = f"filter.{name}"
        if override in parser:
            values.update(_check_keys(parser[override], f"[{override}]", _FILTER, _FILTER, problems))
        where = f"filter for {name!r}"
        values = _check_keys(values, where, _FILTER, _FILTER_OPTIONAL, problems)
        kwargs = {key: _value(_FILTER[key], raw, f"{where}: {key}", problems) for key, raw in values.items()}
        algorithms.append(AlgorithmSpec(name=name, filter=FilterConfig(**kwargs)))

    config = ExperimentConfig(
        plant=PlantSpec(coeffs=plant["coeffs"], disturbance_variance=0.0),
        snr_db_list=exp["snr_db"],
        samples_per_run=exp["samples_per_run"],
        monte_carlo_runs=exp["monte_carlo_runs"],
        rng_seed=exp["rng_seed"],
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
    for key in _FILTER:
        out.write(f"{key} = {_fmt(base_dict[key])}\n")
    for spec in config.algorithms:
        diff = {k: v for k, v in asdict(spec.filter).items() if v != base_dict[k]}
        if diff:
            out.write(f"\n[filter.{spec.name}]\n")
            for key in _FILTER:
                if key in diff:
                    out.write(f"{key} = {_fmt(diff[key])}\n")
    return out.getvalue()


def load(path) -> ExperimentConfig:
    try:
        return loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{path}: not UTF-8 text"]) from exc
    except OSError as exc:  # missing, a directory, unreadable: nothing has run yet
        raise ConfigError([f"{path}: {exc.strerror}"]) from exc


def bundled_path(name: str) -> Path:
    """Path of a data file shipped with the package (e.g. 'paper.config')."""
    return Path(__file__).parent / "data" / name
