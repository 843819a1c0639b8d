"""Command-line experiment runner and result checker."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .configfile import ConfigError, bundled_path
from .experiment import FormatError, compare_to_reference
from .experiment import read_curve, read_summary, run_experiment
from .plotting import KINDS, plot_curves


def _verdict(passed: bool) -> str:
    word = "PASS" if passed else "FAIL"
    if os.environ.get("NO_COLOR") is None and sys.stdout.isatty():
        code = "32" if passed else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _resolve_input(path_str: str) -> Path:
    """Use the named file, falling back to a bundled data file of that name."""
    path = Path(path_str)
    if path.exists():
        return path
    bundled = bundled_path(path_str)
    if bundled.exists():
        print(f"note: using bundled {path_str}")
        return bundled
    return path


def _cmd_run(args) -> int:
    if args.parallel < 1:
        print(f"--parallel must be >= 1, got {args.parallel}", file=sys.stderr)
        return 2
    try:
        manifest = run_experiment(
            _resolve_input(args.config),
            args.out,
            seed=args.seed,
            runs=args.runs,
            parallel=args.parallel,
        )
    except (ConfigError, NotADirectoryError) as exc:  # raised before anything ran
        print(str(exc), file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:
        print(f"aborted, output may be partial (no manifest written): {exc}", file=sys.stderr)
        return 2
    rows = read_summary(Path(args.out) / "summary.csv")
    for row in rows:
        print(
            f"{row['algorithm']:>9}  {row['snr_db']:>5g} dB  "
            f"mse {row['steady_mse_db']:8.2f} dB @ {str(row['mse_conv_iter']):>4}  "
            f"nwd {row['steady_nwd_db']:8.2f} dB @ {str(row['nwd_conv_iter']):>4}  "
            f"runs {row['runs_used']} (+{row['runs_diverged']} diverged)"
        )
    if args.bench:
        for name, seconds in manifest.batch_seconds.items():
            print(f"bench: {name} {seconds:.4f} s")
        print(f"bench: artifacts {manifest.artifact_seconds:.4f} s")
    print(f"artifacts written to {args.out}")
    empty = [row for row in rows if row["runs_used"] == 0]
    for row in empty:
        print(f"error: every run of {row['algorithm']} at {row['snr_db']:g} dB diverged", file=sys.stderr)
    return 1 if empty else 0


def _cmd_verify(args) -> int:
    try:
        report = compare_to_reference(args.summary, _resolve_input(args.reference))
    except (FormatError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for c in report.cells:
        print(
            f"{_verdict(c.passed)}  {c.algorithm:>9} @ {c.snr_db:g} dB  "
            f"{c.quantity:<14} {c.detail}"
        )
    for algo, off in report.nwd_offset_db.items():
        print(f"note: mean NWD offset for {algo}: {off:+.2f} dB (observed - reference)")
    if not report.cells:
        print("no (algorithm, snr_db) cell is in both the summary and the reference")
    print(f"overall: {_verdict(report.passed)}")
    return 0 if report.passed else 1


def _cmd_plot(args) -> int:
    column, ylabel = KINDS[args.kind]
    try:
        repeated = sorted({p for p in args.curves if args.curves.count(p) > 1})
        if repeated:
            raise ValueError(f"curves file given more than once: {', '.join(repeated)}")
        stems = [Path(p).stem for p in args.curves]
        # a repeated stem would drop a curve: then each is labeled by its path as given
        labels = stems if len(set(stems)) == len(stems) else args.curves
        curves = {label: read_curve(p, column) for label, p in zip(labels, args.curves)}
        plot_curves(curves, args.out, ylabel=ylabel)
    except (FormatError, OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclms",
        description="Adaptive-filter system-identification benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the SNR x algorithm experiment grid")
    p_run.add_argument("config", help="config file (or bundled name, e.g. paper.config)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override rng_seed")
    p_run.add_argument("--runs", type=int, default=None, help="override monte_carlo_runs")
    p_run.add_argument("--parallel", type=int, default=1, help="worker processes, at most one per batch")
    p_run.add_argument("--bench", action="store_true", help="print the seconds of each batch and of the artifacts")
    p_run.set_defaults(fn=_cmd_run)

    p_ver = sub.add_parser("verify", help="check a summary.csv against a reference table")
    p_ver.add_argument("summary")
    p_ver.add_argument("--reference", required=True, help="reference table (or bundled name)")
    p_ver.set_defaults(fn=_cmd_verify)

    p_plot = sub.add_parser("plot", help="plot curves CSV files as one SVG chart")
    p_plot.add_argument("curves", nargs="+", help="curves CSV files from a run")
    p_plot.add_argument("--kind", choices=tuple(KINDS), required=True)
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.set_defaults(fn=_cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
