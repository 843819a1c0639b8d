"""End-to-end tests for the experiment runner, file formats, plots and CLI."""

import dataclasses
import errno
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
from concurrent import futures
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

from fraclms import cli, experiment, simulate
from fraclms.configfile import bundled_path, loads
from fraclms.experiment import (
    CURVE_FIELDS,
    FormatError,
    LABELS,
    REFERENCE_FIELDS,
    SUMMARY_FIELDS,
    _curves_text,
    _write_summary,
    compare_to_reference,
    read_curve,
    read_reference,
    read_summary,
    run_experiment,
)
from fraclms.metrics import EnsembleReport
from fraclms.plotting import emit_plot, plot_curves
from fraclms.simulate import ROLE_DISTURBANCE, ROLE_INPUT, batches, signal_bank

SMALL = """\
[experiment]
snr_db = 10, 30
samples_per_run = 64
monte_carlo_runs = 3
rng_seed = 7
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

LMS_DIVERGES = "\n[filter.lms]\nnu_init = 1e4\nnu_min = 1e4\nnu_max = 2e4\n"


def pool_modules_loaded(config_text, out, **kwargs):
    """The process-pool modules that a run_experiment at R=1 loads, printed by a fresh interpreter.

    Fresh: this one may have run a pool for another test.
    """
    script = (
        "import sys\n"
        "from fraclms.configfile import loads\n"
        "from fraclms.experiment import run_experiment\n"
        f"run_experiment(loads({config_text!r}), {str(out)!r}, runs=1, **{kwargs!r})\n"
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(experiment.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_run")
    manifest = run_experiment(loads(SMALL), out)
    return out, manifest


class TestRunExperiment:
    def test_artifacts_exist(self, small_run):
        out, manifest = small_run
        assert (out / "summary.csv").exists()
        assert (out / "manifest.json").exists()
        for algo in ("lms", "flms", "rvss-flms"):
            for snr in ("10dB", "30dB"):
                assert (out / f"{algo}_{snr}.csv").exists()
        for kind in ("mse", "nwd"):
            for snr in ("10dB", "30dB"):
                assert (out / f"{kind}_{snr}.svg").exists()

    def test_manifest_references_written_files(self, small_run):
        out, _ = small_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["software_version"]
        assert manifest["timestamp"]
        assert (out / manifest["artifact_paths"]["summary"]).exists()
        assert sorted(manifest["artifact_paths"]) == ["plots", "summary"]
        for cell in manifest["cells"].values():
            assert (out / cell["curves"]).exists()
        for fname in manifest["artifact_paths"]["plots"].values():
            assert (out / fname).exists()

    def test_manifest_config_round_trips(self, small_run):
        out, _ = small_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert loads(manifest["config_text"]) == loads(SMALL)

    def test_manifest_config_of_numpy_floats_loads(self, tmp_path):
        cfg = loads(SMALL.replace("monte_carlo_runs = 3", "monte_carlo_runs = 1"))
        as_numpy = {key: np.float64(value) for key, value in dataclasses.asdict(cfg.algorithms[0].filter).items()
                    if isinstance(value, float)}
        cfg = dataclasses.replace(cfg, algorithms=tuple(
            dataclasses.replace(spec, filter=dataclasses.replace(spec.filter, **as_numpy)) for spec in cfg.algorithms
        ))
        manifest = run_experiment(cfg, tmp_path / "o")
        assert loads(manifest.config_text) == cfg

    def test_curve_schema(self, small_run):
        out, _ = small_run
        lines = (out / "lms_10dB.csv").read_text().splitlines()
        assert lines[0] == "iteration,mse_db,nwd_db"
        assert len(lines) == 1 + 64
        first = lines[1].split(",")
        assert first[0] == "0"
        float(first[1]), float(first[2])

    def test_summary_schema_and_order(self, small_run):
        out, _ = small_run
        rows = read_summary(out / "summary.csv")
        assert len(rows) == 6
        keys = [(r["algorithm"], r["snr_db"]) for r in rows]
        assert keys == [
            ("FLMS", 10.0),
            ("FLMS", 30.0),
            ("LMS", 10.0),
            ("LMS", 30.0),
            ("RVSS-FLMS", 10.0),
            ("RVSS-FLMS", 30.0),
        ]
        for r in rows:
            assert r["runs_used"] + r["runs_diverged"] == 3

    def test_byte_determinism(self, small_run, tmp_path):
        out, _ = small_run
        again = tmp_path / "again"
        run_experiment(loads(SMALL), again)
        for name in ("summary.csv", "rvss-flms_10dB.csv", "mse_10dB.svg"):
            assert (again / name).read_bytes() == (out / name).read_bytes(), name

    def test_parallel_matches_serial(self, small_run, tmp_path):
        out, _ = small_run
        par = tmp_path / "par"
        run_experiment(loads(SMALL), par, parallel=3)
        assert (par / "summary.csv").read_bytes() == (out / "summary.csv").read_bytes()

    def test_pool_starts_at_most_one_worker_per_cell(self, tmp_path, monkeypatch):
        requested = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor and starts no process."""

            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
        run_experiment(loads(SMALL), tmp_path / "many", runs=1, parallel=64)
        run_experiment(loads(SMALL), tmp_path / "two", runs=1, parallel=2)
        assert requested == [2, 2]

    def test_serial_run_never_loads_the_process_pool(self, tmp_path):
        out = tmp_path / "out"
        assert pool_modules_loaded(SMALL, out) == "[]\n"
        assert (out / "manifest.json").is_file()

    def test_one_batch_parallel_run_never_loads_the_process_pool(self, tmp_path):
        # rvss-flms alone is one batch: a pool would run it in one worker for nothing
        one_batch = SMALL.replace("algorithms = lms, flms, rvss-flms", "algorithms = rvss-flms")
        out = tmp_path / "out"
        assert pool_modules_loaded(one_batch, out, parallel=2) == "[]\n"
        run_experiment(loads(one_batch), tmp_path / "serial", runs=1)
        written = sorted(path.name for path in out.iterdir())
        assert written == sorted(path.name for path in (tmp_path / "serial").iterdir())
        for name in written:
            if name != "manifest.json":
                assert (out / name).read_bytes() == (tmp_path / "serial" / name).read_bytes(), name

    def test_negative_zero_snr_takes_the_tag_of_zero(self, tmp_path):
        # -0 and 0 share the tag 0 (test_configfile: listing both is an error), and everything spells it 0
        manifest = run_experiment(loads(SMALL.replace("snr_db = 10, 30", "snr_db = -0, 30")), tmp_path, runs=1)
        names = sorted(path.name for path in tmp_path.iterdir())
        assert "lms_0dB.csv" in names and "mse_0dB.svg" in names
        assert not [name for name in names if "-0" in name]
        assert "lms@0dB" in manifest.cells and "mse@0dB" in manifest.artifact_paths["plots"]
        assert [row.split(",")[1] for row in (tmp_path / "summary.csv").read_text().splitlines()[1:]] == ["0", "30"] * 3

    def test_rerun_unlinks_only_plain_names_inside_out(self, tmp_path):
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        kept = [tmp_path / "outside.csv", out / "sub" / "x.csv", out / "unlisted.csv"]
        for path in kept:
            path.write_text("keep")
        listed = ["../outside.csv", str(kept[0]), "sub/x.csv", "sub", ".."]
        cells = {f"lms@{i}dB": {"curves": name, "diverged_at": []} for i, name in enumerate(listed)}
        manifest = {"artifact_paths": {"summary": "summary.csv", "plots": {}}, "cells": cells}
        (out / "manifest.json").write_text(json.dumps(manifest))
        run_experiment(loads(SMALL), out, runs=1)
        assert all(path.read_text() == "keep" for path in kept)
        (out / "manifest.json").write_text("not json")
        run_experiment(loads(SMALL), out, runs=1)
        assert json.loads((out / "manifest.json").read_text())["artifact_paths"]["summary"] == "summary.csv"

    def test_manifest_times_every_cell_serial_and_pooled(self, small_run, tmp_path):
        out, _ = small_run
        run_experiment(loads(SMALL), tmp_path / "pool", parallel=2)
        cells = {
            f"{a}@{snr}": {"curves": f"{a}_{snr}.csv", "diverged_at": []}
            for a in ("lms", "flms", "rvss-flms") for snr in ("10dB", "30dB")
        }
        for path in (out, tmp_path / "pool"):
            manifest = json.loads((path / "manifest.json").read_text())
            seconds = manifest["batch_seconds"]
            assert sorted(seconds) == ["lms+flms", "rvss-flms"]
            assert all(np.isfinite(s) and s > 0 for s in seconds.values())
            assert np.isfinite(manifest["artifact_seconds"]) and manifest["artifact_seconds"] > 0
            assert manifest["cells"] == cells

    def test_seed_override_changes_results(self, small_run, tmp_path):
        out, _ = small_run
        other = tmp_path / "other_seed"
        run_experiment(loads(SMALL), other, seed=8)
        assert (other / "summary.csv").read_bytes() != (out / "summary.csv").read_bytes()

    def test_invalid_config_lists_violations(self, tmp_path):
        from fraclms.configfile import ConfigError

        bad = dataclasses.replace(loads(SMALL), monte_carlo_runs=0)
        with pytest.raises(ConfigError, match="monte_carlo_runs"):
            run_experiment(bad, tmp_path / "nope")

    def test_runs_override(self, tmp_path):
        out = tmp_path / "short"
        run_experiment(loads(SMALL), out, runs=1)
        rows = read_summary(out / "summary.csv")
        assert all(r["runs_used"] == 1 for r in rows)

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_grid_draws_one_signal_bank(self, tmp_path, monkeypatch, parallel):
        # 2R streams per grid, all in this process, however many batches and workers
        parent, drawn = os.getpid(), []
        draw = simulate.stream

        def counting_stream(*args):
            # a pool worker inherits this wrapper, but would count in its own copy of drawn
            assert os.getpid() == parent, "a pool worker drew its own signals"
            drawn.append(args)
            return draw(*args)

        monkeypatch.setattr(simulate, "stream", counting_stream)
        config = loads(SMALL)
        run_experiment(config, tmp_path / "o", parallel=parallel)
        runs = range(config.monte_carlo_runs)
        assert sorted(drawn) == [(config.rng_seed, r, role) for r in runs for role in (ROLE_INPUT, ROLE_DISTURBANCE)]

    @pytest.mark.parametrize("texts", [False, True], ids=["serial", "pooled"])
    def test_batch_result_holds_no_per_run_array(self, texts):
        # what a pool worker pickles back: reports and curves texts, not (runs, N) rows
        config = loads(SMALL)
        plants = [config.plant_at(snr) for snr in config.snr_db_list]
        sizes = []
        for runs in (2, 40):
            x, z = signal_bank(config.samples_per_run, runs, config.rng_seed)
            sizes.append(len(pickle.dumps([experiment._run_batch((group, plants, x, z, texts))
                                           for group in batches(config.algorithms)])))
        assert sizes[1] < 1.02 * sizes[0], sizes


def summary_to_reference(rows, path):
    """Rewrite summary rows in the reference-table schema."""
    lines = ["algorithm,snr_db,mse_conv_iter,steady_mse_db,nwd_conv_iter,steady_nwd_db,time_s"]
    for r in rows:
        mi = "none" if r["mse_conv_iter"] is None else r["mse_conv_iter"]
        ni = "none" if r["nwd_conv_iter"] is None else r["nwd_conv_iter"]
        lines.append(
            f"{r['algorithm']},{r['snr_db']:g},{mi},{r['steady_mse_db']!r},"
            f"{ni},{r['steady_nwd_db']!r},1.0"
        )
    path.write_text("\n".join(lines) + "\n")


def damage_first_row(path, how):
    """Rewrite line 2 of a file: last field dropped, one field added, a non-UTF-8 byte or an inf."""
    lines = path.read_bytes().splitlines(keepends=True)
    row = lines[1]
    lines[1] = {
        "short_row": row.rsplit(b",", 1)[0] + b"\n",
        "extra_field": row.rstrip(b"\n") + b",x\n",
        "not_utf8": b"\xff" + row,
        "not_finite": row.rsplit(b",", 1)[0] + b",inf\n",
    }[how]
    path.write_bytes(b"".join(lines))


class TestCompareToReference:
    def test_self_comparison_passes(self, small_run, tmp_path):
        out, _ = small_run
        rows = read_summary(out / "summary.csv")
        ref = tmp_path / "self.reference"
        summary_to_reference(rows, ref)
        report = compare_to_reference(out / "summary.csv", ref)
        assert report.passed
        assert all(c.passed for c in report.cells)
        assert len(report.cells) == 6 * 4
        assert report.nwd_offset_db[rows[0]["algorithm"]] == pytest.approx(0.0, abs=1e-12)

    def test_single_bad_cell_fails_overall(self, small_run, tmp_path):
        out, _ = small_run
        rows = read_summary(out / "summary.csv")
        rows[0] = dict(rows[0], steady_mse_db=rows[0]["steady_mse_db"] + 1.0)  # 2x the 0.5 dB tol
        ref = tmp_path / "perturbed.reference"
        summary_to_reference(rows, ref)
        report = compare_to_reference(out / "summary.csv", ref)
        assert not report.passed
        failing = [c for c in report.cells if not c.passed]
        assert len(failing) == 1
        assert failing[0].quantity == "steady_mse_db"
        assert failing[0].algorithm == rows[0]["algorithm"]

    def test_reference_only_algorithms_are_skipped(self, small_run, tmp_path):
        out, _ = small_run
        rows = read_summary(out / "summary.csv")
        ref = tmp_path / "extra.reference"
        summary_to_reference(rows, ref)
        with ref.open("a") as fh:
            fh.write("AMFLMS,10,80,-10.22,120,-15.67,11.06\n")
        report = compare_to_reference(out / "summary.csv", ref)
        assert report.passed
        assert not any(c.algorithm == "AMFLMS" for c in report.cells)

    def test_iteration_factor_window(self, small_run, tmp_path):
        out, _ = small_run
        rows = read_summary(out / "summary.csv")
        target = dict(rows[0])
        target["mse_conv_iter"] = max(1, (target["mse_conv_iter"] or 1) * 3)  # outside factor 2
        ref = tmp_path / "iter.reference"
        summary_to_reference([target] + rows[1:], ref)
        report = compare_to_reference(out / "summary.csv", ref)
        bad = [c for c in report.cells if not c.passed]
        assert bad and all(c.quantity == "mse_conv_iter" for c in bad)

    def test_bundled_reference_parses(self):
        rows = read_reference(bundled_path("table1.reference"))
        assert len(rows) == 12
        by_key = {(r["algorithm"], r["snr_db"]): r for r in rows}
        assert by_key[("RVSS-FLMS", 10.0)]["steady_mse_db"] == -10.22
        assert by_key[("RVSS-FLMS", 40.0)]["mse_conv_iter"] == 65
        assert by_key[("FLMS", 30.0)]["steady_nwd_db"] == -25.06

    def test_duplicate_rows_raise(self, small_run, tmp_path):
        out, _ = small_run
        rows = read_summary(out / "summary.csv")
        lines = (out / "summary.csv").read_text().splitlines()
        summary = tmp_path / "summary.csv"
        summary.write_text("\n".join(lines + [lines[1]]) + "\n")
        with pytest.raises(FormatError, match="duplicate row"):
            read_summary(summary)
        ref = tmp_path / "dup.reference"
        summary_to_reference(rows + rows[:1], ref)
        with pytest.raises(FormatError, match="duplicate row"):
            compare_to_reference(out / "summary.csv", ref)

    @pytest.mark.parametrize("how", ["short_row", "extra_field", "not_utf8"])
    @pytest.mark.parametrize("which", ["summary.csv", "self.reference"])
    def test_malformed_row_raises(self, small_run, tmp_path, which, how):
        out, _ = small_run
        (tmp_path / "summary.csv").write_bytes((out / "summary.csv").read_bytes())
        summary_to_reference(read_summary(out / "summary.csv"), tmp_path / "self.reference")
        damage_first_row(tmp_path / which, how)
        with pytest.raises(FormatError, match=f"{which}:2: "):
            compare_to_reference(tmp_path / "summary.csv", tmp_path / "self.reference")

    def test_summary_round_trips_every_report_field(self, tmp_path):
        finite = EnsembleReport(
            np.empty(0), np.empty(0), -12.345678901234567, None, -0.1 - 0.2, 599, runs_used=7, diverged_at=[4, 4, 90]
        )
        diverged = EnsembleReport(np.empty(0), np.empty(0), math.nan, None, math.nan, None, 0, [0, 1, 1, 2, 3])
        _write_summary(tmp_path / "summary.csv", {("flms", 2.5): finite, ("lms", -10.0): diverged})
        rows = {(r["algorithm"], r["snr_db"]): r for r in read_summary(tmp_path / "summary.csv")}
        assert sorted(rows) == [("FLMS", 2.5), ("LMS", -10.0)]
        for key, report in ((("FLMS", 2.5), finite), (("LMS", -10.0), diverged)):
            for name in SUMMARY_FIELDS[2:]:
                got, want = rows[key][name], getattr(report, name)
                if isinstance(want, float):  # bit-equal, nan included
                    assert np.float64(got).tobytes() == np.float64(want).tobytes(), name
                else:
                    assert got == want and type(got) is type(want), name

    def test_schema_mismatch_raises(self, small_run, tmp_path):
        out, _ = small_run
        with pytest.raises(FormatError):
            compare_to_reference(out / "summary.csv", out / "summary.csv")
        with pytest.raises(FormatError):
            read_summary(bundled_path("table1.reference"))


def constant_report(level, n=20):
    curve = np.full(n, float(level))
    return EnsembleReport(
        mse_db=curve,
        nwd_db=curve,
        steady_mse_db=float(level),
        mse_conv_iter=0,
        steady_nwd_db=float(level),
        nwd_conv_iter=0,
        runs_used=1,
        diverged_at=[],
    )


def frozen_curves_text(report):
    """A curves CSV formatted one row at a time: the writer the cached template replaced."""
    buf = io.StringIO()
    buf.write(",".join(CURVE_FIELDS) + "\n")
    for i, (mse, nwd) in enumerate(zip(report.mse_db.tolist(), report.nwd_db.tolist())):
        buf.write(f"{i},{mse!r},{nwd!r}\n")
    return buf.getvalue()


EDGE_VALUES = np.array([-320.0, -0.0, 0.0, 1e-05, 1e16, 5e-324, -1.7976931348623157e308])
CURVE_CASES = {
    "N=1": (np.array([-3.25]), np.array([-41.0])),
    "N=600": (np.random.default_rng(3).normal(-20.0, 15.0, 600), np.linspace(-60.0, 0.0, 600)),
    "edge values": (EDGE_VALUES, EDGE_VALUES[::-1].copy()),
}


@pytest.mark.parametrize("mse_db, nwd_db", CURVE_CASES.values(), ids=CURVE_CASES.keys())
def test_curves_csv_equals_frozen_formatter(mse_db, nwd_db):
    report = dataclasses.replace(constant_report(0.0), mse_db=mse_db, nwd_db=nwd_db)
    assert _curves_text(report) == frozen_curves_text(report)


def test_readme_quotes_the_summary_and_reference_headers():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Command line$(.*?)^## ", readme, flags=re.M | re.S).group(1)
    headers = re.findall(r"`(algorithm,snr_db,[a-z_,]+)`", section)
    assert headers == [",".join(SUMMARY_FIELDS), ",".join(REFERENCE_FIELDS)]


class TestPlots:
    def test_single_curve_single_polyline(self, tmp_path):
        path = tmp_path / "one.svg"
        emit_plot({"LMS": constant_report(-3.0)}, path, "mse")
        text = path.read_text()
        assert text.count("<polyline") == 1
        assert "LMS" in text
        assert "iteration" in text and "MSE (dB)" in text

    def test_two_curves_two_polylines_with_legend(self, tmp_path):
        path = tmp_path / "two.svg"
        emit_plot({"FLMS": constant_report(-3.0), "RVSS-FLMS": constant_report(-6.0)}, path, "nwd")
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert "FLMS" in text and "RVSS-FLMS" in text

    def test_deterministic_bytes(self, tmp_path):
        reports = {"A": constant_report(-2.0), "B": constant_report(-9.0)}
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_plot(reports, p1, "mse")
        emit_plot(reports, p2, "mse")
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_kind(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot({"A": constant_report(0.0)}, tmp_path / "x.svg", "psd")

    def test_empty_mapping(self, tmp_path):
        with pytest.raises(ValueError):
            plot_curves({}, tmp_path / "x.svg", "MSE (dB)")


class TestCli:
    @pytest.fixture(autouse=True)
    def plain_output(self, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")

    def test_run_and_verify_roundtrip(self, tmp_path, capsys):
        config = tmp_path / "tiny.config"
        config.write_text(SMALL)
        out = tmp_path / "out"
        assert cli.main(["run", str(config), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "RVSS-FLMS" in printed

        ref = tmp_path / "self.reference"
        summary_to_reference(read_summary(out / "summary.csv"), ref)
        assert cli.main(["verify", str(out / "summary.csv"), "--reference", str(ref)]) == 0
        printed = capsys.readouterr().out
        assert "overall: PASS" in printed

    def test_verify_failure_exit_code(self, tmp_path, capsys):
        config = tmp_path / "tiny.config"
        config.write_text(SMALL)
        out = tmp_path / "out"
        cli.main(["run", str(config), "--out", str(out)])
        capsys.readouterr()
        rows = read_summary(out / "summary.csv")
        rows[0] = dict(rows[0], steady_mse_db=rows[0]["steady_mse_db"] + 5.0)
        ref = tmp_path / "bad.reference"
        summary_to_reference(rows, ref)
        assert cli.main(["verify", str(out / "summary.csv"), "--reference", str(ref)]) == 1
        printed = capsys.readouterr().out
        assert "FAIL" in printed
        assert "mean NWD offset" in printed

    def test_verify_with_no_shared_cell_says_so(self, tmp_path, capsys, monkeypatch):
        # the bundled reference has no LMS rows
        summary = tmp_path / "summary.csv"
        summary.write_text(",".join(SUMMARY_FIELDS) + "\nLMS,10,-10.0,50,-15.0,60,3,0\n")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["verify", str(summary), "--reference", "table1.reference"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "note: using bundled table1.reference",
            "no (algorithm, snr_db) cell is in both the summary and the reference",
            "overall: FAIL",
        ]

    def test_verify_missing_file_exit_code(self, tmp_path):
        assert cli.main(["verify", str(tmp_path / "nope.csv"), "--reference", "table1.reference"]) == 2

    @pytest.mark.parametrize(
        "argv, damaged, how",
        [
            (["verify", "summary.csv", "--reference", "self.reference"], "summary.csv", "short_row"),
            (["verify", "summary.csv", "--reference", "self.reference"], "self.reference", "short_row"),
            (["verify", "summary.csv", "--reference", "self.reference"], "summary.csv", "not_utf8"),
            (["plot", "lms_10dB.csv", "--kind", "nwd", "--out", "x.svg"], "lms_10dB.csv", "short_row"),
            (["plot", "lms_10dB.csv", "--kind", "nwd", "--out", "x.svg"], "lms_10dB.csv", "not_utf8"),
            (["plot", "lms_10dB.csv", "--kind", "nwd", "--out", "x.svg"], "lms_10dB.csv", "not_finite"),
            (["run", "tiny.config", "--out", "o"], "tiny.config", "not_utf8"),
        ],
        ids=["short_summary", "short_reference", "summary_not_utf8", "short_curve", "curve_not_utf8", "curve_inf",
             "config_not_utf8"],
    )
    def test_malformed_input_exits_2(self, small_run, tmp_path, capsys, monkeypatch, argv, damaged, how):
        out, _ = small_run
        for name in ("summary.csv", "lms_10dB.csv"):
            (tmp_path / name).write_bytes((out / name).read_bytes())
        summary_to_reference(read_summary(out / "summary.csv"), tmp_path / "self.reference")
        (tmp_path / "tiny.config").write_text(SMALL)
        damage_first_row(tmp_path / damaged, how)
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        # a ConfigError prints its "invalid config:" header above the problem line
        assert len(err) == (2 if argv[0] == "run" else 1)
        assert err[-1].lstrip().startswith(f"{damaged}:")

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        config = tmp_path / "bad.config"
        config.write_text(SMALL.replace("nu_max = 0.018", "nu_max = 0.001"))
        assert cli.main(["run", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "nu_max" in capsys.readouterr().err

    def test_frac_power_policy_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "policy.config"
        config.write_text(SMALL + "frac_power_policy = signed_magnitude\n")
        out = tmp_path / "o"
        assert cli.main(["run", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[1:] == ["  [filter]: unknown key 'frac_power_policy'"]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-3"])
    def test_bad_nu_f_init_exits_2(self, tmp_path, capsys, value):
        config = tmp_path / "bad.config"
        config.write_text(SMALL.replace("nu_f_init = 0.006", f"nu_f_init = {value}"))
        assert cli.main(["run", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "nu_f_init" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, edits",
        [
            ("nu_max", {"nu_max = 0.018": "nu_max = inf"}),
            ("nu_max", {"nu_max = 0.018": "nu_max = inf", "nu_init = 0.006\n": "nu_init = inf\n"}),
            ("gamma", {"gamma = 0.5": "gamma = inf"}),
        ],
    )
    def test_infinite_step_size_constant_exits_2(self, tmp_path, capsys, key, edits):
        text = SMALL
        for old, new in edits.items():
            text = text.replace(old, new)
        config = tmp_path / "bad.config"
        config.write_text(text)
        out = tmp_path / "o"
        assert cli.main(["run", str(config), "--out", str(out)]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_plot_command(self, tmp_path, capsys):
        config = tmp_path / "tiny.config"
        config.write_text(SMALL)
        out = tmp_path / "out"
        cli.main(["run", str(config), "--out", str(out)])
        capsys.readouterr()
        svg = tmp_path / "combined.svg"
        curves = [str(out / "lms_10dB.csv"), str(out / "flms_10dB.csv")]
        assert cli.main(["plot", *curves, "--kind", "mse", "--out", str(svg)]) == 0
        assert svg.read_text().count("<polyline") == 2

    def test_plot_labels_repeated_stems_by_path(self, small_run, tmp_path, capsys):
        out, _ = small_run
        other = tmp_path / "r&d"  # a label is SVG text: its & must be escaped
        other.mkdir()
        (other / "lms_10dB.csv").write_bytes((out / "flms_10dB.csv").read_bytes())
        svg = tmp_path / "combined.svg"
        unique = [str(out / "lms_10dB.csv"), str(out / "flms_10dB.csv")]
        assert cli.main(["plot", *unique, "--kind", "mse", "--out", str(svg)]) == 0
        assert ">lms_10dB</text>" in svg.read_text() and ">flms_10dB</text>" in svg.read_text()
        repeated = [str(out / "lms_10dB.csv"), str(other / "lms_10dB.csv")]
        assert cli.main(["plot", *repeated, "--kind", "mse", "--out", str(svg)]) == 0
        text = svg.read_text()
        assert text.count("<polyline") == 2
        labels = [node.firstChild.data for node in minidom.parseString(text).getElementsByTagName("text")]
        assert set(repeated) <= set(labels)

    def test_plot_repeated_path_exits_2(self, small_run, tmp_path, capsys):
        out, _ = small_run
        curve, svg = str(out / "lms_10dB.csv"), tmp_path / "twice.svg"
        assert cli.main(["plot", curve, str(out / "flms_10dB.csv"), curve, "--kind", "mse", "--out", str(svg)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"curves file given more than once: {curve}"]
        assert not svg.exists()

    def test_all_runs_diverged_cell_reported(self, tmp_path, capsys):
        text = SMALL.replace("samples_per_run = 64", "samples_per_run = 50")
        text = text.replace("monte_carlo_runs = 3", "monte_carlo_runs = 2")
        text += LMS_DIVERGES
        config = tmp_path / "lms-diverges.config"
        config.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["run", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "LMS at 10 dB" in err and "LMS at 30 dB" in err
        for row in read_summary(out / "summary.csv"):
            if row["algorithm"] == "LMS":
                assert np.isnan(row["steady_mse_db"]) and np.isnan(row["steady_nwd_db"])
                assert row["mse_conv_iter"] is None and row["nwd_conv_iter"] is None
                assert (row["runs_used"], row["runs_diverged"]) == (0, 2)
            else:
                assert row["runs_used"] == 2
        assert not list(out.glob("lms_*.csv"))
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(cell["curves"] for cell in manifest["cells"].values() if cell["curves"]) == sorted(
            p.name for p in out.glob("*.csv") if p.name != "summary.csv"
        )
        for snr in ("10dB", "30dB"):
            record = manifest["cells"][f"lms@{snr}"]
            assert record == {"curves": None, "diverged_at": sorted(record["diverged_at"])}
            assert len(record["diverged_at"]) == 2 and all(0 <= n < 50 for n in record["diverged_at"])
        for fname in manifest["artifact_paths"]["plots"].values():
            assert (out / fname).read_text().count("<polyline") == 2

    def test_bench_flag_prints_timings(self, tmp_path, capsys):
        config = tmp_path / "tiny.config"
        config.write_text(SMALL)
        assert cli.main(["run", str(config), "--out", str(tmp_path / "o"), "--bench"]) == 0
        bench = [line.split() for line in capsys.readouterr().out.splitlines() if line.startswith("bench:")]
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert [words[1] for words in bench] == ["lms+flms", "rvss-flms", "artifacts"]
        assert all(words[3] == "s" and float(words[2]) > 0 for words in bench)
        assert bench[-1][2] == f"{manifest['artifact_seconds']:.4f}"

    def test_bench_survives_diverging_first_run(self, tmp_path, capsys):
        text = SMALL.replace("algorithms = lms, flms, rvss-flms", "algorithms = lms, flms")
        config = tmp_path / "lms-diverges.config"
        config.write_text(text + LMS_DIVERGES)
        out = tmp_path / "out"
        assert cli.main(["run", str(config), "--out", str(out), "--bench"]) == 1
        printed = capsys.readouterr().out.splitlines()
        bench = [line.split()[1] for line in printed if line.startswith("bench:")]
        assert bench == ["lms+flms", "artifacts"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["batch_seconds"]) == ["lms+flms"]
        diverged_at = {cell: record["diverged_at"] for cell, record in manifest["cells"].items()}
        assert sorted(diverged_at) == ["flms@10dB", "flms@30dB", "lms@10dB", "lms@30dB"]
        assert diverged_at["flms@10dB"] == diverged_at["flms@30dB"] == []
        for cell in ("lms@10dB", "lms@30dB"):
            assert len(diverged_at[cell]) == 3
            assert diverged_at[cell] == sorted(diverged_at[cell])
            assert all(0 <= n < 64 for n in diverged_at[cell])
        assert (out / "summary.csv").read_text().splitlines()[0] == ",".join(SUMMARY_FIELDS)

    def test_run_too_large_to_allocate_exits_2(self, tmp_path, capsys):
        # 1e15 runs x 64 samples of float64 is 455 PiB, more than the
        # 128 PiB of the largest (57-bit) virtual address spaces, so the
        # first allocation fails at once
        config = tmp_path / "tiny.config"
        config.write_text(SMALL)
        out = tmp_path / "o"
        assert cli.main(["run", str(config), "--out", str(out), "--runs", str(10**15)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("aborted, output may be partial (no manifest written): ")
        assert not out.exists()

    def test_run_with_more_runs_than_numpy_can_address_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "paper-x60.config", "--out", "o", "--runs", str(2 * 10**18)]) == 2
        # 3 algorithms x 4 SNRs x 2e18 runs of 600 + 3 - 1 samples: numpy cannot address the kernel's input
        err = capsys.readouterr().err.splitlines()
        assert err == ["invalid config:", "  grid too large to address: 24000000000000000000 runs of 602 float64s each"]
        assert not (tmp_path / "o").exists()

    def test_config_with_more_samples_than_numpy_can_address_exits_2(self, tmp_path, capsys):
        config = tmp_path / "long.config"
        config.write_text(SMALL.replace("samples_per_run = 64", f"samples_per_run = {2**63 - 1}"))
        out = tmp_path / "o"
        assert cli.main(["run", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["invalid config:", f"  grid too large to address: 18 runs of {2**63 + 1} float64s each"]
        assert not out.exists()

    @pytest.mark.parametrize("out_name", ["taken", "taken/sub"])
    def test_out_blocked_by_a_file_exits_2_before_simulating(self, tmp_path, capsys, monkeypatch, out_name):
        def refuse(*args):
            raise AssertionError("simulated although --out cannot be made")

        monkeypatch.setattr(experiment, "run_ensemble", refuse)
        config = tmp_path / "tiny.config"
        config.write_text(SMALL)
        (tmp_path / "taken").write_text("not a directory")
        out = tmp_path / out_name
        assert cli.main(["run", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"output directory {out}: {tmp_path / 'taken'} is not a directory"]
        assert (tmp_path / "taken").read_text() == "not a directory"

    def test_snrs_sharing_a_tag_exit_2_before_simulating(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("simulated a grid whose artifacts would collide")

        monkeypatch.setattr(experiment, "run_ensemble", refuse)
        config = tmp_path / "tiny.config"
        config.write_text(SMALL.replace("snr_db = 10, 30", "snr_db = 10, 10.0000001"))
        out = tmp_path / "o"
        assert cli.main(["run", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["invalid config:", "  snr_db value 10 listed twice"]
        assert not out.exists()

    @pytest.mark.parametrize("name, code", [("nonexistent.config", errno.ENOENT), (".", errno.EISDIR)])
    def test_unreadable_config_exits_2_and_names_it(self, tmp_path, capsys, monkeypatch, name, code):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", name, "--out", "o"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["invalid config:", f"  {name}: {os.strerror(code)}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("parallel", ["0", "-2"])
    def test_parallel_below_one_exits_2(self, tmp_path, capsys, parallel):
        config = tmp_path / "tiny.config"
        config.write_text(SMALL)
        out = tmp_path / "o"
        assert cli.main(["run", str(config), "--out", str(out), "--parallel", parallel]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"--parallel must be >= 1, got {parallel}"]
        assert not out.exists()

    def test_rerun_leaves_only_the_new_manifest_files(self, tmp_path, capsys):
        text = SMALL.replace("samples_per_run = 64", "samples_per_run = 50")
        text = text.replace("monte_carlo_runs = 3", "monte_carlo_runs = 2")
        config = tmp_path / "tiny.config"
        config.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["run", str(config), "--out", str(out)]) == 0
        assert (out / "lms_10dB.csv").exists()
        config.write_text(text + LMS_DIVERGES)
        assert cli.main(["run", str(config), "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        paths, cells = manifest["artifact_paths"], manifest["cells"].values()
        listed = {paths["summary"], *paths["plots"].values(), *(cell["curves"] for cell in cells if cell["curves"])}
        assert {p.name for p in out.iterdir()} == listed | {"manifest.json"}
        assert not (out / "lms_10dB.csv").exists()

    def test_rerun_deletes_the_files_of_a_manifest_without_cells(self, tmp_path, capsys):
        # a manifest written before the cells map listed the curves CSVs under artifact_paths
        out = tmp_path / "out"
        out.mkdir()
        old = {"lms@5dB": "lms_5dB.csv", "flms@5dB": "flms_5dB.csv"}
        for name in (*old.values(), "mse_5dB.svg", "unlisted.csv"):
            (out / name).write_text("old")
        manifest = {
            "artifact_paths": {"curves": old, "plots": {"mse@5dB": "mse_5dB.svg"}, "summary": "summary.csv"},
            "diverged_at": {"lms@5dB": [3], "flms@5dB": []},
        }
        (out / "manifest.json").write_text(json.dumps(manifest))
        config = tmp_path / "tiny.config"
        config.write_text(SMALL)
        assert cli.main(["run", str(config), "--out", str(out), "--runs", "1"]) == 0
        assert not any((out / name).exists() for name in (*old.values(), "mse_5dB.svg"))
        assert (out / "unlisted.csv").read_text() == "old"

    def test_overflowing_ensemble_mse_exits_0_with_finite_curves(self, tmp_path, capsys):
        # LMS at nu = 1.35, past its stability edge: 82 of 200 runs diverge,
        # and the squared errors of the 118 kept ones reach 4.4e307 at the
        # last sample, where their run-order sum overflows
        text = SMALL.replace("snr_db = 10, 30", "snr_db = 8").replace("samples_per_run = 64", "samples_per_run = 600")
        text = text.replace("monte_carlo_runs = 3", "monte_carlo_runs = 200").replace("rng_seed = 7", "rng_seed = 2")
        text = text.replace("algorithms = lms, flms, rvss-flms", "algorithms = lms")
        config = tmp_path / "overflow.config"
        config.write_text(text + "\n[filter.lms]\nnu_init = 1.35\nnu_f_init = 1.35\nnu_min = 1.35\nnu_max = 1.55\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(config), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["cells"]["lms@8dB"]["curves"] == "lms_8dB.csv"
        assert len(manifest["cells"]["lms@8dB"]["diverged_at"]) == 82
        for column in ("mse_db", "nwd_db"):
            assert np.isfinite(read_curve(out / "lms_8dB.csv", column)).all()

    def test_bundled_config_fallback(self, tmp_path, capsys):
        out = tmp_path / "from_bundled"
        assert cli.main(["run", "paper-x60.config", "--out", str(out), "--runs", "1"]) == 0
        assert (out / "summary.csv").exists()
        assert "bundled" in capsys.readouterr().out
