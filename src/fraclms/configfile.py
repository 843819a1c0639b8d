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
    frac_order = 0.5
    ...

    [filter.rvss-flms]               # optional per-algorithm overrides
    nu_max = 3e-4

The [filter] keys are the fields of FilterConfig, each read as its
annotated type, and all of them are required.  The filter order is not
a key: it is the number of plant coeffs.
Unknown sections or keys are hard errors, as is any violated invariant.
A file is checked in two stages, each reporting all its problems at once:
its text (sections, keys, values that cannot be read), then, only once
all of that parses, the invariants of the config it describes.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict
from pathlib import Path
from typing import get_type_hints

from .filters import FilterConfig
from .simulate import AlgorithmSpec, ExperimentConfig, PlantSpec

__all__ = ["ConfigError", "loads", "dumps", "load", "bundled_path"]

# The kind of each key's value: int, float or str, or a one-tuple of one
# of them for a comma-separated list.
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
# [filter] is FilterConfig: a key per field, in declaration order
_FILTER = get_type_hints(FilterConfig)


class ConfigError(ValueError):
    """Invalid experiment config; carries every problem found."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid config:\n  " + "\n  ".join(self.problems))


def _value(kind, text: str, where: str, problems: list[str]):
    """text read as kind; an invalid value goes to problems and reads as None."""
    if isinstance(kind, tuple):
        return tuple(_value(kind[0], item.strip(), where, problems) for item in text.split(",") if item.strip())
    try:
        return kind(text)
    except ValueError:
        problems.append(f"{where}: not {'an integer' if kind is int else 'a number'}: {text!r}")


def _text(kind, value) -> str:
    """value written as kind: the mirror of _value."""
    if isinstance(kind, tuple):
        return ", ".join(_text(kind[0], item) for item in value)
    if kind is float:
        return repr(float(value))
    return str(value)


def _check_keys(values, where, kinds, optional, problems) -> dict[str, str]:
    """The keys of values that kinds names; unknown keys, and missing ones
    not in optional, go to problems."""
    problems.extend(f"{where}: unknown key {key!r}" for key in values if key not in kinds)
    for key in kinds:
        if key not in values and key not in optional:
            problems.append(f"{where}: missing required key {key!r}")
    return {key: raw for key, raw in values.items() if key in kinds}


def loads(text: str) -> ExperimentConfig:
    """Parse, then validate config text; raises ConfigError listing every problem of the first stage with any."""
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
        if section not in ("experiment", "plant", "filter") and not section.startswith("filter."):
            problems.append(f"unknown section [{section}]")
    if problems:
        raise ConfigError(problems)

    checked = {name: _check_keys(parser[name], f"[{name}]", kinds, (), problems) for name, kinds in _SECTIONS.items()}
    base_sec = _check_keys(parser["filter"], "[filter]", _FILTER, _FILTER, problems)
    exp, plant = (
        {key: _value(kinds[key], raw, f"[{name}]: {key}", problems) for key, raw in checked[name].items()}
        for name, kinds in _SECTIONS.items()
    )

    names = exp.get("algorithms")  # None: the key is missing, so no section can match it
    for section in parser.sections():
        if names is not None and section.startswith("filter.") and section[len("filter."):] not in names:
            problems.append(f"section [{section}] has no matching entry in [experiment] algorithms")

    filters = []
    for name in names or ():
        values = dict(base_sec)
        override = f"filter.{name}"
        if override in parser:
            values.update(_check_keys(parser[override], f"[{override}]", _FILTER, _FILTER, problems))
        where = f"filter for {name!r}"
        values = _check_keys(values, where, _FILTER, (), problems)
        kwargs = {key: _value(_FILTER[key], raw, f"{where}: {key}", problems) for key, raw in values.items()}
        filters.append((name, kwargs))
    if problems:
        raise ConfigError(problems)

    config = ExperimentConfig(
        plant=PlantSpec(coeffs=plant["coeffs"], disturbance_variance=0.0),
        snr_db_list=exp["snr_db"],
        samples_per_run=exp["samples_per_run"],
        monte_carlo_runs=exp["monte_carlo_runs"],
        rng_seed=exp["rng_seed"],
        algorithms=tuple(AlgorithmSpec(name=name, filter=FilterConfig(**kwargs)) for name, kwargs in filters),
    )
    problems = config.violations()
    if problems:
        raise ConfigError(problems)
    return config


def dumps(config: ExperimentConfig) -> str:
    """Serialize to the canonical text form (round-trips through loads)."""
    base = asdict(config.algorithms[0].filter)
    sections = {
        "experiment": {
            "snr_db": config.snr_db_list,
            "samples_per_run": config.samples_per_run,
            "monte_carlo_runs": config.monte_carlo_runs,
            "rng_seed": config.rng_seed,
            "algorithms": [spec.name for spec in config.algorithms],
        },
        "plant": {"coeffs": config.plant.coeffs},
        "filter": base,
    }
    for spec in config.algorithms:
        diff = {key: value for key, value in asdict(spec.filter).items() if value != base[key]}
        if diff:
            sections[f"filter.{spec.name}"] = diff
    lines = []
    for section, values in sections.items():
        kinds = _SECTIONS.get(section, _FILTER)
        lines += ["", f"[{section}]"] + [f"{key} = {_text(kinds[key], values[key])}" for key in kinds if key in values]
    return "\n".join(lines[1:]) + "\n"


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
