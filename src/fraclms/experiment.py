"""
Experiment runner: executes the SNR x algorithm grid, writes CSV curves,
a summary table, SVG plots and a JSON manifest, and checks summaries
against a reference table.

All files are written with deterministic bytes for a fixed (config, seed),
except the manifest, which carries a timestamp, the time of each batch's
simulation and the time spent writing the other files.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import time
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, simulate
from .configfile import ConfigError, dumps, load
from .metrics import EnsembleReport, build_report
from .simulate import LABELS, ExperimentConfig, batches, signal_bank, snr_tag
from .plotting import KINDS, emit_plot

__all__ = [
    "SUMMARY_FIELDS",
    "CURVE_FIELDS",
    "FormatError",
    "ExperimentManifest",
    "CellCheck",
    "ComparisonReport",
    "run_experiment",
    "read_summary",
    "read_curve",
    "read_reference",
    "compare_to_reference",
]

# each kind of summary measure as (how run writes it, how verify reads it back)
_LEVEL = (float.__repr__, float)
_ITERATION = (lambda v: "none" if v is None else str(v), lambda text: None if text == "none" else int(text))
_COUNT = (str, int)

# each summary.csv column after algorithm and snr_db: the EnsembleReport field of that name
_SUMMARY_COLUMNS = {
    "steady_mse_db": _LEVEL,
    "mse_conv_iter": _ITERATION,
    "steady_nwd_db": _LEVEL,
    "nwd_conv_iter": _ITERATION,
    "runs_used": _COUNT,
    "runs_diverged": _COUNT,
}

SUMMARY_FIELDS = ("algorithm", "snr_db", *_SUMMARY_COLUMNS)

CURVE_FIELDS = ("iteration", "mse_db", "nwd_db")

REFERENCE_FIELDS = (
    "algorithm",
    "snr_db",
    "mse_conv_iter",
    "steady_mse_db",
    "nwd_conv_iter",
    "steady_nwd_db",
    "time_s",
)

# verify tolerances: dB on steady-state levels, factor on convergence iterations
MSE_TOL_DB = 0.5
ITER_FACTOR = 2.0


class FormatError(ValueError):
    """A summary or reference file does not match the expected schema."""


@dataclass
class ExperimentManifest:
    """What an experiment produced: effective config, artifacts, provenance."""

    config_text: str
    artifact_paths: dict
    # wall seconds of each batch, keyed by its algorithm names joined by "+" (e.g.
    # "lms+flms"): its simulation, its cells' reports and, pooled, their curves CSV texts
    batch_seconds: dict
    # wall seconds from the first curves file to the end of summary.csv; a serial
    # run formats each curves CSV in them, a pooled run only writes it
    artifact_seconds: float
    # per <algorithm>@<snr>dB cell: {"curves": file name, None if all runs diverged, "diverged_at": [...]}
    cells: dict
    software_version: str
    timestamp: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def run_ensemble(group, plants, x, z) -> list[list[EnsembleReport]]:
    """Per algorithm and then per plant, the report of each cell of simulate.run_identification."""
    # run_identification through simulate, build_report as a global here: a tracer wraps those attributes
    return [[build_report(*cell) for cell in per_plant] for per_plant in simulate.run_identification(group, plants, x, z)]


def _run_batch(args) -> tuple[tuple, list, float]:
    # a module-level function that looks run_ensemble up per call, so a process pool can pickle it
    # even when run_ensemble is wrapped.  Per cell: (report, its curves CSV text if texts and it kept a run)
    group, plants, x, z, texts = args
    t0 = time.perf_counter()
    cells = [[(report, _curves_text(report) if texts and report.runs_used else None) for report in per_snr]
             for per_snr in run_ensemble(group, plants, x, z)]
    return group, cells, time.perf_counter() - t0


def _remove_previous_run(out: Path) -> None:
    """Delete the files that a manifest already in out lists, then the manifest."""
    manifest = out / "manifest.json"
    try:
        old = json.loads(manifest.read_text(encoding="utf-8"))
        # a name, or a map of names: plots, and curves in a manifest written before the cells map
        listed = [*old.get("artifact_paths", {}).values(), *(c.get("curves") for c in old.get("cells", {}).values())]
        names = [name for entry in listed for name in (entry.values() if isinstance(entry, dict) else [entry])]
    except (OSError, ValueError, AttributeError):
        names = []
    for name in names:
        if not isinstance(name, str) or ".." in name:
            continue
        path = out / name
        # the old manifest is outside input: unlink only plain names directly inside out
        if path.name == name and path.is_file():
            path.unlink()
    manifest.unlink(missing_ok=True)


def run_experiment(
    config,
    out_dir,
    seed: Optional[int] = None,
    runs: Optional[int] = None,
    parallel: int = 1,
) -> ExperimentManifest:
    """Run the full grid described by a config (path or ExperimentConfig).

    Writes, under out_dir: one curves CSV per (algorithm, SNR) cell, one
    MSE and one NWD SVG per SNR, summary.csv, and manifest.json (last).
    Diverged runs are excluded from averages and counted per cell.  A cell
    whose runs all diverged gets only its summary row (runs_used 0, NaN
    levels) and is left out of the curves and plots.  The files of an
    earlier run that the manifest in out_dir lists are deleted first.

    Algorithms that share a step function and frac_order are simulated as
    one batch over every SNR and run (LMS and FLMS in one, RVSS-FLMS in
    another) on signals drawn once per grid, and a batch reduces each of
    its cells to a report; with parallel > 1 and more than one batch a
    process pool runs the batches, at most one worker per batch, and a
    worker also formats its cells' curves CSVs.  The manifest records
    how long each batch took, how long the other files took to write
    and, per cell, its curves CSV and when each diverged run was dropped.
    """
    if not isinstance(config, ExperimentConfig):
        config = load(config)
    if seed is not None:
        config = replace(config, rng_seed=seed)
    if runs is not None:
        config = replace(config, monte_carlo_runs=runs)
    bad = config.violations()
    if bad:
        raise ConfigError(bad)
    # out_dir is made only after the grid has run: refuse a file in its place now
    out = Path(out_dir)
    blocker = next(path for path in (out, *out.parents) if path.exists())
    if not blocker.is_dir():
        raise NotADirectoryError(f"output directory {out}: {blocker} is not a directory")

    plants = [config.plant_at(snr) for snr in config.snr_db_list]
    x, z = signal_bank(config.samples_per_run, config.monte_carlo_runs, config.rng_seed)
    groups = batches(config.algorithms)
    # a fork-started pool forks every worker at once, so start no more than there are batches
    workers = min(parallel, len(groups))
    # only a pool worker formats curves CSVs ahead: a serial run would just hold every text longer
    jobs = [(group, plants, x, z, workers > 1) for group in groups]
    if workers > 1:
        # imported here: a serial run, one batch included, never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_batch, jobs))
    else:
        results = map(_run_batch, jobs)

    batch_seconds, done = {}, {}  # done: (algorithm name, snr) -> (report, curves CSV text or None)
    for group, per_algorithm, seconds in results:
        batch_seconds["+".join(spec.name for spec in group)] = seconds
        for spec, per_snr in zip(group, per_algorithm):
            done.update(((spec.name, snr), cell) for snr, cell in zip(config.snr_db_list, per_snr))
    reports: dict[tuple[str, float], EnsembleReport] = {key: report for key, (report, _) in done.items()}

    # only now: a simulation that aborts leaves no empty directory behind
    out.mkdir(parents=True, exist_ok=True)
    _remove_previous_run(out)
    artifact_paths: dict = {"plots": {}, "summary": "summary.csv"}
    cells = {}
    t0 = time.perf_counter()
    for (name, snr), (report, text) in done.items():
        fname = f"{name}_{snr_tag(snr)}dB.csv" if report.runs_used else None
        if fname:
            (out / fname).write_text(text or _curves_text(report), encoding="utf-8")
        cells[f"{name}@{snr_tag(snr)}dB"] = {"curves": fname, "diverged_at": report.diverged_at}

    for snr in config.snr_db_list:
        per_algo = {LABELS[s.name]: reports[(s.name, snr)] for s in config.algorithms}
        per_algo = {label: r for label, r in per_algo.items() if r.runs_used > 0}
        if not per_algo:
            continue
        for kind in KINDS:
            fname = f"{kind}_{snr_tag(snr)}dB.svg"
            emit_plot(per_algo, out / fname, kind)
            artifact_paths["plots"][f"{kind}@{snr_tag(snr)}dB"] = fname

    _write_summary(out / "summary.csv", reports)
    artifact_seconds = time.perf_counter() - t0

    manifest = ExperimentManifest(
        config_text=dumps(config),
        artifact_paths=artifact_paths,
        batch_seconds=batch_seconds,
        artifact_seconds=artifact_seconds,
        cells=cells,
        software_version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    (out / "manifest.json").write_text(manifest.to_json(), encoding="utf-8")
    return manifest


@functools.lru_cache(maxsize=8)
def _curve_format(n: int) -> str:
    """The text of an n-row curves CSV, with %r in place of each mse_db and nwd_db."""
    return ",".join(CURVE_FIELDS) + "\n" + "".join(f"{i},%r,%r\n" for i in range(n))


def _curves_text(report: EnsembleReport) -> str:
    # %r of a float is its repr: one % fills every row
    values = np.column_stack((report.mse_db, report.nwd_db)).ravel().tolist()
    return _curve_format(len(report.mse_db)) % tuple(values)


def _write_summary(path: Path, reports) -> None:
    buf = io.StringIO()
    buf.write(",".join(SUMMARY_FIELDS) + "\n")
    for name, snr in sorted(reports):
        measures = [fmt(getattr(reports[(name, snr)], col)) for col, (fmt, _) in _SUMMARY_COLUMNS.items()]
        buf.write(",".join([LABELS[name], snr_tag(snr), *measures]) + "\n")
    path.write_text(buf.getvalue(), encoding="utf-8")


def _field(raw: dict, name: str, where: str, parse=float):
    try:
        return parse(raw[name])
    except ValueError as exc:
        raise FormatError(f"{where}: bad {name} {raw[name]!r}") from exc


def _csv_rows(path, fields, kind: str) -> list[tuple[str, dict]]:
    """(path:line, row) of each row of a UTF-8 CSV file whose header is exactly fields."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}:{line}: not UTF-8 text") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    rows = []
    try:
        got = tuple(reader.fieldnames or ())
        if got != tuple(fields):
            raise FormatError(f"{path}:1: not a {kind} file: header {got} != {tuple(fields)}")
        for raw in reader:
            where = f"{path}:{reader.line_num}"
            # DictReader files extra fields under None and fills missing ones with None
            if None in raw or None in raw.values():
                raise FormatError(f"{where}: expected {len(fields)} fields")
            rows.append((where, raw))
    except csv.Error as exc:  # a field over csv.field_size_limit()
        raise FormatError(f"{path}:{reader.line_num}: {exc}") from exc
    return rows


def _read_table(path, fields, kind: str) -> list[dict]:
    rows = []
    seen = set()
    for where, raw in _csv_rows(path, fields, kind):
        key = (raw["algorithm"], _field(raw, "snr_db", where))
        if key in seen:
            raise FormatError(f"{where}: duplicate row for {key[0]} at {key[1]:g} dB")
        seen.add(key)
        row = {"algorithm": key[0], "snr_db": key[1]}
        # a reference table has no run counts; its time_s column is not read
        for name, (_, parse) in _SUMMARY_COLUMNS.items():
            if name in raw:
                row[name] = _field(raw, name, where, parse)
        rows.append(row)
    return rows


def read_summary(path) -> list[dict]:
    """Parse a summary.csv written by run_experiment."""
    return _read_table(path, SUMMARY_FIELDS, "summary")


def read_reference(path) -> list[dict]:
    """Parse a reference table (same cells plus a timing column)."""
    return _read_table(path, REFERENCE_FIELDS, "reference")


def read_curve(path, column: str) -> np.ndarray:
    """One column ('mse_db' or 'nwd_db') of a curves CSV written by run_experiment."""
    curve = np.array([_field(raw, column, where) for where, raw in _csv_rows(path, CURVE_FIELDS, "curves")])
    if not np.isfinite(curve).all():  # run never writes one; the plot axes need finite bounds
        raise FormatError(f"{path}: {column} holds a value that is not finite")
    return curve


@dataclass
class CellCheck:
    algorithm: str
    snr_db: float
    quantity: str
    observed: object
    reference: object
    passed: bool
    detail: str


@dataclass
class ComparisonReport:
    cells: list[CellCheck]
    passed: bool
    nwd_offset_db: dict[str, float]


def compare_to_reference(summary_path, reference_path) -> ComparisonReport:
    """Per-cell verdicts of a summary against a reference table.

    Steady-state MSE and NWD levels must agree within +-MSE_TOL_DB;
    convergence iterations within a multiplicative ITER_FACTOR.  Only
    (algorithm, SNR) pairs present in both files are compared, and a
    summary that shares none with the reference fails; the timing column
    of the reference is ignored.  The mean observed-minus-reference NWD
    level difference per algorithm is reported alongside the verdicts.
    """
    summary = {(r["algorithm"], r["snr_db"]): r for r in read_summary(summary_path)}
    reference = {(r["algorithm"], r["snr_db"]): r for r in read_reference(reference_path)}

    cells: list[CellCheck] = []
    nwd_diffs: dict[str, list[float]] = {}
    for key in sorted(summary):
        if key not in reference:
            continue
        algo, snr = key
        for quantity in ("steady_mse_db", "steady_nwd_db", "mse_conv_iter", "nwd_conv_iter"):
            obs, refv = summary[key][quantity], reference[key][quantity]
            if quantity.endswith("_db"):  # a level: an absolute tolerance in dB
                diff = obs - refv
                ok = abs(diff) <= MSE_TOL_DB
                detail = f"diff {diff:+.2f} dB vs tolerance +-{MSE_TOL_DB:g} dB"
                if quantity == "steady_nwd_db":
                    nwd_diffs.setdefault(algo, []).append(diff)
            elif obs is None or refv is None:  # an iteration that was never reached
                ok = obs is refv
                detail = f"observed {obs} vs reference {refv}"
            else:  # an iteration: a multiplicative tolerance
                ok = refv / ITER_FACTOR <= obs <= refv * ITER_FACTOR
                detail = f"observed {obs} vs reference {refv} (factor {ITER_FACTOR:g})"
            cells.append(CellCheck(algo, snr, quantity, obs, refv, ok, detail))

    offsets = {algo: sum(d) / len(d) for algo, d in sorted(nwd_diffs.items())}
    return ComparisonReport(
        cells=cells,
        passed=all(c.passed for c in cells) and bool(cells),
        nwd_offset_db=offsets,
    )
