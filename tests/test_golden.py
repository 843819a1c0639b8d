"""Pin the artifact bytes of one small grid and of the paper-scale grid.

The tables below hold the SHA-256 of every file `run_experiment` writes
except the time-stamped manifest.  They were recorded once and must never
be regenerated from the code under test: a refactor that changes any
result, a curve digit or an SVG coordinate fails here.  A run on a process
pool of two workers, whose batches format their own curves CSVs, must
write the same bytes.

The config is paper-x60 at R=5 and 8/10 dB with large step sizes, so
FLMS and RVSS-FLMS lose some runs to divergence and every LMS run
diverges.  That keeps the partly-diverged and the all-diverged paths
under the pin too.  The second table is paper-x60.config verbatim, 200
runs of 600 samples at seed 12345: the grid the paper's figures come from.

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

# paper-x60.config verbatim, recorded on the same log10 target
GOLDEN_X60 = {
    "flms_10dB.csv": "2d18e9b72f3072ed43ce413d4e580fe4f64cadd77fb3387b128983660f017c9e",
    "flms_20dB.csv": "9a988fc48f0564144fc71adbda41b66660a9c5789d1e0787e53d52db7beb79d1",
    "flms_30dB.csv": "e5168b1ee63f043fe89041585e494d9a4dadb5e318802183a954353ccaee8a9e",
    "flms_40dB.csv": "edb225a6e55f9ee12a4e504d8a3ecce48fd9dd0b4273021f19e85fd466aecc05",
    "lms_10dB.csv": "8f1e4dc7090b2bbf27dfb321fc1faca1af213fd6ca51a6f5071f92ba662a5850",
    "lms_20dB.csv": "cccd265df03bb96752f84e578e76e44c8ba2be0d073372257a0cb2f9d12c4733",
    "lms_30dB.csv": "9bdc04c631d70865bf073466405218e8d5a4855cf88a0fcfb9a180bfa12add1c",
    "lms_40dB.csv": "f51ce8ea8b74fafee71e45ef6cd45a22a4fd0192925a50b925cef2f60652f694",
    "mse_10dB.svg": "ed332abff43afd876d192de77701ceae6f78ad78555f5db91cbaa2161bf27b3f",
    "mse_20dB.svg": "c22a692106459f9478c4cb6ff28d107c51a34f63b3fb33bfa6fea5c76884a079",
    "mse_30dB.svg": "31597e37c39af690f8abad23759bf5e9b1858314960f25cbd6947d9b588ef7f0",
    "mse_40dB.svg": "5890532a1fb3860cef59ed9bd2f3d5f190b944efc255c7b5e75fbc21a2188f1e",
    "nwd_10dB.svg": "548ad0ab6448a3e8e6bf656aad539301f27a254737f89524b548bc41724546e0",
    "nwd_20dB.svg": "c42e066b1c70dce595692004ea6930f10b40df0479894515a00a2fd523f15d3c",
    "nwd_30dB.svg": "08dfb72a9789b3ea06d03f602ff3a74308f33df70ed21ac89f4459ee3878376f",
    "nwd_40dB.svg": "938d08d117750c2408c4841e15259aaa9c26194c6f565c06d9358aba52eacfe5",
    "rvss-flms_10dB.csv": "afc1f4265ce5f0c0f75a4fdae96e5035938a6b55e872a27b14840ad9a881ca6e",
    "rvss-flms_20dB.csv": "36cce19052e1c9d761463ebf5db5e028248431a476cffc3c825c4b83e76f6fc1",
    "rvss-flms_30dB.csv": "3fd9d6eebbe47250c5fcd0ae1b2160815e0b1f575a553b9ba66312f3c2c4a43b",
    "rvss-flms_40dB.csv": "7ea0f733614947e14e270e3cfc668f5cd1725f78bf1a52f48fd7073d6a39fca8",
    "summary.csv": "a04d77841898deafe7311bd54e3189755cd962f3ebbdfd6e0fb1797b78c53780",
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


def x60_config():
    return loads(bundled_path("paper-x60.config").read_text(encoding="utf-8"))


def artifact_hashes(out):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The output directory of a config's run with a given parallel, run once each."""
    outs = {}

    def run(parallel=1, config=golden_config):
        key = (config.__name__, parallel)
        if key not in outs:
            outs[key] = tmp_path_factory.mktemp(f"{config.__name__}-p{parallel}")
            run_experiment(config(), outs[key], parallel=parallel)
        return outs[key]

    return run


def mismatch_note():
    return (
        f"recorded with float64 log10 dispatched to {GOLDEN_LOG10_TARGET}, "
        f"running with it dispatched to {log10_dispatch_target()}; nwd_db "
        f"{'equals' if nwd_db_matches_math_log10() else 'differs from'} math.log10 on the guard's probe"
    )


@pytest.mark.parametrize("parallel", [1, 2])
def test_artifact_bytes_match_recorded_table(golden_run, parallel):
    assert artifact_hashes(golden_run(parallel)) == GOLDEN, mismatch_note()


@pytest.mark.parametrize("parallel", [1, 2])
def test_paper_scale_artifact_bytes_match_recorded_table(golden_run, parallel):
    assert artifact_hashes(golden_run(parallel, x60_config)) == GOLDEN_X60, mismatch_note()


def test_config_covers_partial_and_total_divergence(golden_run):
    counts = [(r["runs_used"], r["runs_diverged"]) for r in read_summary(golden_run() / "summary.csv")]
    assert any(used > 0 and 0 < diverged < 5 for used, diverged in counts)
    assert (0, 5) in counts
