"""Pin the artifact bytes of one small grid.

The table below holds the SHA-256 of every file `run_experiment` writes
except the time-stamped manifest.  It was recorded once and must never be
regenerated from the code under test: a refactor that changes any result,
a curve digit or an SVG coordinate fails here.  A run on a process pool of
two workers, whose batches format their own curves CSVs, must write the
same bytes.

The config is paper-x60 at R=5 and 8/10 dB with large step sizes, so
FLMS and RVSS-FLMS lose some runs to divergence and every LMS run
diverges.  That keeps the partly-diverged and the all-diverged paths
under the pin too.

The MSE curves go through numpy's dispatched float64 `log10`, whose last
bits depend on the CPU target numpy picks for it, so the table holds only
where that target is the one it was recorded on.  A mismatch names both.
The NWD curves go through libm's `log10` by numpy's strided fallback
(`metrics.nwd_db`); a mismatch also says whether the probe of
test_metrics' guard finds that route equal to `math.log10`.
"""

import hashlib
import re

import pytest

from fraclms.configfile import bundled_path, loads
from fraclms.experiment import read_summary, run_experiment
from test_experiment import LMS_DIVERGES
from test_metrics import nwd_db_matches_math_log10

EDITS = {
    "monte_carlo_runs": "5",
    "snr_db": "8, 10",
    "nu_init": "0.33",
    "nu_f_init": "0.33",
    "nu_min": "0.33",
    "nu_max": "0.43",
}

# numpy's float64 log10 dispatch target on the host that recorded GOLDEN
GOLDEN_LOG10_TARGET = "X86_V4"

GOLDEN = {
    "flms_10dB.csv": "d7b1e0271da0981897153192df68cd58a124407357db541934a9afa0bb0d85bd",
    "flms_8dB.csv": "725fae82a2b9e1fb50a7e452d876b4dd2cfcad8344b787bc5a6e29324f3c0076",
    "mse_10dB.svg": "90f1c0585656c20713cf2d33af3da22f9c26a146a0119b691a4ba2ba44edcd42",
    "mse_8dB.svg": "780744eec9b0446d418078b742a0b746dc1fefcd6c3a652d36b68d53921fdb09",
    "nwd_10dB.svg": "ed883bd3101fedfe72af28c3543bf041216a77deed55bb30f9bc5b1d9f9e3e1b",
    "nwd_8dB.svg": "78d4bef8ef36d86b512b98a54cabecef5074f704565fb8351ba243c4ed142b80",
    "rvss-flms_10dB.csv": "0dc327f0b583a48274b7185998e623abbcba80122658173fc139c948a9b477f1",
    "rvss-flms_8dB.csv": "ceeeeb0d10d4fa3eb1bc27dd36ab09d59f33621fcf9d66bbd02faf02bc35ce48",
    "summary.csv": "4b2437c8d61cafd72d07ff61977937134a952b8b772157d20a04fbdc1a5192a9",
}


def log10_dispatch_target():
    """The CPU target of numpy's float64 log10 loop in this process, or "unknown"."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2
        return "unknown"
    for loops in opt_func_info(func_name="log10", signature="float64").values():
        for loop in loops.values():
            return loop["current"]
    return "unknown"


def golden_config():
    text = bundled_path("paper-x60.config").read_text(encoding="utf-8")
    for key, value in EDITS.items():
        text, n = re.subn(rf"^{key}\s*=.*$", f"{key} = {value}", text, flags=re.M)
        assert n == 1, key
    return loads(text + LMS_DIVERGES)


def artifact_hashes(out):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The output directory of the golden config's run with a given parallel, run once each."""
    outs = {}

    def run(parallel=1):
        if parallel not in outs:
            outs[parallel] = tmp_path_factory.mktemp(f"golden-p{parallel}")
            run_experiment(golden_config(), outs[parallel], parallel=parallel)
        return outs[parallel]

    return run


@pytest.mark.parametrize("parallel", [1, 2])
def test_artifact_bytes_match_recorded_table(golden_run, parallel):
    assert artifact_hashes(golden_run(parallel)) == GOLDEN, (
        f"recorded with float64 log10 dispatched to {GOLDEN_LOG10_TARGET}, "
        f"running with it dispatched to {log10_dispatch_target()}; nwd_db "
        f"{'equals' if nwd_db_matches_math_log10() else 'differs from'} math.log10 on the guard's probe"
    )


def test_config_covers_partial_and_total_divergence(golden_run):
    counts = [(r["runs_used"], r["runs_diverged"]) for r in read_summary(golden_run() / "summary.csv")]
    assert any(used > 0 and 0 < diverged < 5 for used, diverged in counts)
    assert (0, 5) in counts
