"""Fresh-interpreter side of the fraclms benchmark; started by run.py.

    child.py setup CONFIG
        time `import fraclms` + configfile.load + violations() once, pinned
        to one CPU
    child.py ref-imports
        time the import of REF_MODULES once, pinned to one CPU
    child.py record WORKLOAD CONFIG WORK
        one call at the default seed; print its artifact hashes
    child.py run WORKLOAD CONFIG WORK --seed S --seconds T --trace 0|1
        one checked warm-up call at the default seed, then timed calls at
        seed S for about T seconds; with --trace 1 untraced and traced
        calls alternate

Each mode prints one JSON object as its last line of standard output.
Only the standard library is imported before fraclms, so `setup` times
numpy's import too.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# fewest timed calls of each kind, however long they take
MIN_CALLS = 3

# Call times are scaled to a nominal host, one on which reference_loop()
# takes REF_NOMINAL_S.
REF_NOMINAL_S = 0.0012
SAMPLE_INTERVAL_S = 0.05

# Stdlib modules that neither fraclms nor numpy import: importing them in a
# fresh interpreter is the reference for set-up times (see run.py).
REF_MODULES = (
    "asyncio",
    "sqlite3",
    "xml.dom.minidom",
    "email.mime.multipart",
    "http.server",
    "unittest.mock",
    "tarfile",
    "difflib",
    "pydoc",
    "mailbox",
)


def _import_fraclms():
    import fraclms

    if Path(fraclms.__file__).resolve().parent != SRC / "fraclms":
        sys.exit(f"error: imported fraclms from {fraclms.__file__}, not from {SRC}")


def reference_loop(x) -> float:
    """Seconds taken by a 3-tap LMS loop over x on 3-element numpy arrays.

    It is the same kind of work as the fraclms step loop, interpreted
    float arithmetic and tiny numpy operations, but it never calls fraclms,
    so it tracks the speed of the host and not that of the code under test.
    """
    t0 = time.perf_counter()
    w = x[:3] * 0.0
    acc = 0.0
    for n in range(2, x.size):
        taps = x[n - 2 : n + 1][::-1]
        e = float(x[n]) - (
            float(w[0]) * float(taps[0]) + float(w[1]) * float(taps[1]) + float(w[2]) * float(taps[2])
        )
        w = w + (0.01 * e) * taps
        acc += math.log10(e * e + 1e-12)
    if not math.isfinite(acc):
        raise RuntimeError("reference loop diverged")
    return time.perf_counter() - t0


class HostSpeed:
    """Scales measured seconds to the nominal host.

    The speed of a shared virtual machine swings by 25 % within seconds.
    While a measurement runs, SIGALRM fires every SAMPLE_INTERVAL_S and its
    handler times reference_loop() in the same process; a measurement with
    fewer than three samples gets the rest right after it.  The nominal time
    is the measured time without the samples, times REF_NOMINAL_S over the
    mean sample.
    """

    def __init__(self):
        import numpy as np

        self.x = np.random.default_rng(0).standard_normal(300)
        self.samples: list[float] = []
        self.in_measurement_s = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        self.samples.append(reference_loop(self.x))

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.in_measurement_s = sum(self.samples)
        while len(self.samples) < 3:
            self._sample()

    def nominal(self, measured_s: float) -> float:
        """Nominal seconds of the last measurement, which took measured_s."""
        own_s = measured_s - self.in_measurement_s
        return own_s * REF_NOMINAL_S / statistics.fmean(self.samples)


def _pin_to_one_cpu() -> None:
    # Unpinned, a fresh process is often placed on, or moved to, the other
    # vCPU of a KVM guest, and its set-up then takes 1.5 times as long.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure_ref_imports() -> dict:
    _pin_to_one_cpu()
    loaded = [m for m in REF_MODULES if m in sys.modules]
    if loaded:
        sys.exit(f"error: reference modules imported before timing: {loaded}")
    t0 = time.perf_counter()
    for module in REF_MODULES:
        importlib.import_module(module)
    return {"ref_s": time.perf_counter() - t0}


def measure_setup(config: str) -> dict:
    _pin_to_one_cpu()
    t0 = time.perf_counter()
    _import_fraclms()
    from fraclms import configfile

    bad = configfile.load(config).violations()
    setup_s = time.perf_counter() - t0
    if bad:
        sys.exit(f"error: invalid config {config}: {bad}")
    return {"setup_s": setup_s}


def cell_files(name: str, snr: float) -> tuple[str, ...]:
    tag = f"{snr:g}dB"
    return (f"{name}_{tag}.csv", f"mse_{tag}.svg", f"nwd_{tag}.svg")


def read_artifacts(out: Path) -> dict:
    """SHA-256 of every file but the time-stamped manifest, and the summary rows."""
    files, rows, size = {}, {}, 0
    if out.is_dir():
        for path in sorted(out.iterdir()):
            if path.name == "manifest.json":
                continue
            data = path.read_bytes()
            files[path.name] = hashlib.sha256(data).hexdigest()
            size += len(data)
            if path.name == "summary.csv":
                lines = data.decode("utf-8").splitlines()
                rows["header"] = lines[0] if lines else ""
                for line in lines[1:]:
                    rows[",".join(line.split(",")[:2])] = line
    return {"files": files, "rows": rows, "bytes": size}


class Checker:
    """Failed cells of one call.

    Given expected artifacts (the golden table, or the first call at the
    same seed) a cell passes when its summary row, its curves CSV and
    both SVGs of its SNR are byte-identical to them.  Without them it
    passes when its files exist and its summary row is finite with
    runs_used + runs_diverged == R.
    """

    def __init__(self, cells, runs: int, labels):
        self.cells = cells
        self.runs = runs
        self.labels = labels

    def row_key(self, name: str, snr: float) -> str:
        return f"{self.labels[name]},{snr:g}"

    def failures(self, art: dict, error, expected) -> dict:
        if error is not None:
            return {cell: error for cell in self.cells}
        failed = {}
        for name, snr in self.cells:
            reason = self._cell(art, name, snr, expected)
            if reason:
                failed[(name, snr)] = reason
        if not failed and expected is not None and art["files"] != expected["files"]:
            return {cell: "artifact names or summary.csv differ" for cell in self.cells}
        return failed

    def _cell(self, art, name, snr, expected):
        key = self.row_key(name, snr)
        line = art["rows"].get(key)
        if expected is not None:
            if line != expected["rows"].get(key):
                return f"summary row {key} differs"
            for fname in cell_files(name, snr):
                if art["files"].get(fname) != expected["files"].get(fname):
                    return f"{fname} differs"
            return None
        for fname in cell_files(name, snr):
            if fname not in art["files"]:
                return f"{fname} missing"
        if line is None:
            return f"summary row {key} missing"
        row = dict(zip(art["rows"]["header"].split(","), line.split(",")))
        try:
            levels = (float(row["steady_mse_db"]), float(row["steady_nwd_db"]))
            used, diverged = int(row["runs_used"]), int(row["runs_diverged"])
        except (KeyError, ValueError) as exc:
            return f"summary row {key} unreadable: {exc!r}"
        if not all(math.isfinite(v) for v in levels):
            return f"summary row {key} not finite"
        if used < 1 or used + diverged != self.runs:
            return f"summary row {key}: runs_used + runs_diverged != {self.runs}"
        return None


def run_workload(args) -> dict:
    _import_fraclms()
    import numpy
    from fraclms import configfile, experiment

    from tracer import Tracer

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    config = configfile.load(args.config)
    cells = [(a.name, snr) for a in config.algorithms for snr in config.snr_db_list]
    runs, samples = config.monte_carlo_runs, config.samples_per_run
    checker = Checker(cells, runs, experiment.LABELS)
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))["tables"][workload.golden]

    tracer = None
    if args.trace:
        tracer = Tracer(work / "trace")
        tracer.dump_dir.mkdir()
    counter = itertools.count()
    tally = {"attempted": 0, "failed": 0, "problems": []}
    host = HostSpeed()

    def call(seed: int, expected, traced: bool = False):
        out = work / f"out-{next(counter)}"
        if traced:
            tracer.install()
        error = None
        try:
            with host:
                t0 = time.perf_counter()
                try:
                    experiment.run_experiment(args.config, out, seed=seed, parallel=workload.parallel)
                except Exception as exc:  # a failed call fails its cells; the run goes on
                    error = f"{type(exc).__name__}: {exc}"
                wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
                tracer.collect()
        art = read_artifacts(out)
        shutil.rmtree(out, ignore_errors=True)
        failed = checker.failures(art, error, expected)
        tally["attempted"] += len(cells)
        tally["failed"] += len(failed)
        for (name, snr), reason in list(failed.items())[: 5 - len(tally["problems"])]:
            tally["problems"].append(f"seed {seed} {name}@{snr:g}dB: {reason}")
        return wall - host.in_measurement_s, host.nominal(wall), art, len(failed)

    # warm-up, and the golden check whatever --seed is
    call(DEFAULT_SEED, golden)

    expected = golden if args.seed == DEFAULT_SEED else None
    timings = {False: ([], []), True: ([], [])}  # traced -> (walls, nominal walls)
    sizes = []
    start = time.perf_counter()
    for i in itertools.count():
        traced = bool(args.trace) and i % 2 == 1
        wall, nominal, art, failed = call(args.seed, expected, traced)
        timings[traced][0].append(wall)
        timings[traced][1].append(nominal)
        sizes.append(art["bytes"])
        if expected is None and not failed:
            expected = art
        kinds = (False, True) if args.trace else (False,)
        if any(len(timings[k][0]) < MIN_CALLS for k in kinds):
            continue
        typical = max(statistics.median(timings[k][0]) for k in kinds)
        if time.perf_counter() - start + typical > args.seconds:
            break

    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = dict(
        tally,
        walls=timings[False][0],
        nominal=timings[False][1],
        traced_walls=timings[True][0],
        traced_nominal=timings[True][1],
        steps=len(cells) * runs * samples,
        cells=len(cells),
        runs=runs,
        samples=samples,
        artifact_bytes=statistics.mean(sizes),
        rss_kib=rss_kib,
        numpy=numpy.__version__,
    )
    if tracer is not None:
        result["stats"] = tracer.stats
        result["cell_s"] = tracer.cell_s
    return result


def record(args) -> dict:
    _import_fraclms()
    from fraclms import experiment

    out = Path(args.work) / "record"
    experiment.run_experiment(
        args.config, out, seed=DEFAULT_SEED, parallel=WORKLOADS[args.workload].parallel
    )
    art = read_artifacts(out)
    shutil.rmtree(out)
    return {"files": art["files"], "rows": art["rows"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("config")
    sub.add_parser("ref-imports")
    for mode in ("record", "run"):
        p = sub.add_parser(mode)
        p.add_argument("workload", choices=sorted(WORKLOADS))
        p.add_argument("config")
        p.add_argument("work")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.mode == "setup":
        result = measure_setup(args.config)
    elif args.mode == "ref-imports":
        result = measure_ref_imports()
    elif args.mode == "record":
        result = record(args)
    else:
        result = run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
