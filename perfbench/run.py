"""The fraclms benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grid --seed 12345 --seconds 22 --trace 0

Each workload (see workloads.py) calls ``fraclms.experiment.run_experiment``
in a fresh interpreter for about --seconds seconds and checks every cell's
artifacts.  --trace 0 prints the end-to-end metrics: wall_s, steps_per_s,
setup_s and peak_rss_mb.  Times are scaled to a nominal host speed: call
times by a reference loop timed during each call (child.HostSpeed), set-up
times by the import of fixed stdlib modules timed in a fresh interpreter
before each set-up (child.REF_MODULES).  The measured medians are printed
too.  --trace 1 alternates untraced and
traced calls and prints per-layer counts and self times (see tracer.py).
The last line of standard output is one JSON object with the keys
correct, attempted, failed (both counted in grid cells) and metrics.

    python3 perfbench/run.py --write-golden

records golden.json: the artifact hashes of each golden table at the
default seed, from the code in this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BASE_CONFIG, DEFAULT_SEED, WORKLOADS, config_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"

# fresh interpreters timed for setup_s; one more runs first, untimed, so
# that byte-compiled files exist
SETUP_REPEATS = 15
# setup_s is scaled to a nominal host, one on which importing
# child.REF_MODULES in a fresh interpreter takes this long
REF_IMPORT_NOMINAL_S = 0.085
CHILD_TIMEOUT_S = 150

STEP_LAYERS = (
    "filters.flms_step",
    "filters.rvss_flms_step",
    "filters.predict",
    "stepsize.update_correlation",
    "stepsize.update_step_size",
    "simulate.plant_output",
    "simulate.bpsk_sequence",
    "simulate.stream",
    "metrics.nwd_db",
)


def run_child(args: list[str], work: Path, timeout: float) -> dict:
    """Run child.py in a fresh interpreter on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work))
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    # a new process group, so that a timeout also ends pool workers it started
    with subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            sys.exit(f"error: child.py {args[0]} did not finish in {timeout:g} s")
    if proc.returncode != 0:
        sys.exit(f"error: child.py {args[0]} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )


def _per_call(total: int, n: int):
    return total // n if total % n == 0 else total / n


def end_to_end(res: dict, setups: list[tuple[float, float]]) -> dict:
    wall_s = statistics.median(res["nominal"])
    setup_s = statistics.median(s * REF_IMPORT_NOMINAL_S / ref for s, ref in setups)
    return {
        "wall_s": (wall_s, "s"),
        "steps_per_s": (res["steps"] / wall_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (res["rss_kib"] / 1024, "MiB"),
    }


def per_layer(res: dict) -> dict:
    """Layer metrics of the traced calls; a layer that was never called is left out."""
    n = len(res["traced_walls"])
    stats = {name: s for name, s in res["stats"].items() if s[0]}
    out = {}

    def calls(name):
        out[f"{name}.calls"] = (_per_call(stats[name][0], n), "count")

    def seconds(name, metric):
        out[metric] = (stats[name][2] / n, "s")

    for name in STEP_LAYERS:
        if name in stats:
            calls(name)
            out[f"{name}.us"] = (stats[name][2] / stats[name][0] * 1e6, "us")
    ident = stats.get("simulate.run_identification")
    if ident:
        calls("simulate.run_identification")
        seconds("simulate.run_identification", "simulate.run_identification.self_s")
    if "simulate.run_ensemble" in stats:
        calls("simulate.run_ensemble")
        cell_s = res["cell_s"]
        out["simulate.run_ensemble.cell_s.p50"] = (statistics.median(cell_s), "s")
        p90 = statistics.quantiles(cell_s, n=10)[-1] if len(cell_s) > 1 else cell_s[0]
        out["simulate.run_ensemble.cell_s.p90"] = (p90, "s")
    steps = sum(stats[k][0] for k in ("filters.flms_step", "filters.rvss_flms_step") if k in stats)
    if ident:
        out["simulate.runs_diverged_frac"] = (ident[1] / ident[0], "ratio")
        if steps:
            useful = (ident[0] - ident[1]) * res["samples"]
            out["simulate.useful_step_frac"] = (useful / steps, "ratio")
    for name in ("metrics.build_report", "plotting.emit_plot"):
        if name in stats:
            calls(name)
            seconds(name, f"{name}.s")
    if "experiment.run_experiment" in stats:
        seconds("experiment.run_experiment", "experiment.self_s")
    out["experiment.artifact_bytes"] = (res["artifact_bytes"], "bytes")
    if "configfile.load" in stats:
        seconds("configfile.load", "configfile.load.s")
    overhead = statistics.median(res["traced_nominal"]) / statistics.median(res["nominal"]) - 1
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def write_golden(work: Path) -> None:
    tables = {}
    for workload in WORKLOADS.values():
        if workload.golden not in tables:
            config = work / f"{workload.name}.config"
            config.write_text(config_text(workload, (ROOT / BASE_CONFIG).read_text(encoding="utf-8")))
            tables[workload.golden] = run_child(
                ["record", workload.name, str(config), str(work)], work, CHILD_TIMEOUT_S
            )
    golden = {"seed": DEFAULT_SEED, "tables": tables}
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'golden.json'}: {', '.join(sorted(tables))}")


def main() -> int:
    parser = argparse.ArgumentParser(description="fraclms benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / BASE_CONFIG).is_file():
        sys.exit(f"error: {ROOT / BASE_CONFIG} not found; run from a fraclms source checkout")

    loadavg = os.getloadavg()[0]
    work = WORK_ROOT / f"{args.workload or 'golden'}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.write_golden:
            write_golden(work)
            return 0
        workload = WORKLOADS[args.workload]
        config = work / "workload.config"
        config.write_text(config_text(workload, (ROOT / BASE_CONFIG).read_text(encoding="utf-8")))

        setups = []
        if not args.trace:
            for i in range(SETUP_REPEATS + 1):
                ref = run_child(["ref-imports"], work, CHILD_TIMEOUT_S)["ref_s"]
                got = run_child(["setup", str(config)], work, CHILD_TIMEOUT_S)["setup_s"]
                if i:
                    setups.append((got, ref))
        t0 = time.perf_counter()
        res = run_child(
            ["run", workload.name, str(config), str(work), "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            work,
            CHILD_TIMEOUT_S,
        )
        run_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "loadavg_1m": loadavg,
        "commit": git_commit(),
        "src_lines": src_lines(),
    }
    print("env " + json.dumps(env))
    walls = res["walls"]
    wall_s = statistics.median(walls)
    print(
        f"workload {workload.name}: seed {args.seed}, {res['cells']} cells x {res['runs']} runs"
        f" x {res['samples']} samples = {res['steps']} steps per call; {len(walls)} untraced"
        f" calls in {run_s:.1f} s"
    )
    print(
        f"measured, not scaled to the nominal host: wall_s median {wall_s:.4f} s"
        f" (min {min(walls):.4f}, max {max(walls):.4f}), steps_per_s {res['steps'] / wall_s:.0f} 1/s"
        + (f", setup_s median {statistics.median(s for s, _ in setups):.4f} s" if setups else "")
    )
    metrics = per_layer(res) if args.trace else end_to_end(res, setups)
    failed_frac = res["failed"] / res["attempted"]
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed_frac:g} ratio ({res['failed']} of {res['attempted']} cells)")
    for problem in res["problems"]:
        print(f"failed: {problem}")
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
