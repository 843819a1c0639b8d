"""Workloads of the fraclms benchmark.

Every workload is the bundled paper-x60.config (plant 0.9, 0.3, -0.1,
600 samples) with a few keys replaced.  The Monte-Carlo run count R is
sized so that one ``run_experiment`` call takes about one to three
seconds on two cores, which leaves several timed calls in one run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

BASE_CONFIG = "src/fraclms/data/paper-x60.config"

# Golden hashes are recorded at this seed; it is also the default --seed.
DEFAULT_SEED = 12345


@dataclass(frozen=True)
class Workload:
    name: str
    parallel: int
    # golden table this workload's artifacts must match at DEFAULT_SEED
    golden: str
    # (key, value) pairs replaced in BASE_CONFIG, each key present once
    edits: tuple[tuple[str, str], ...]
    # sections appended to the edited text
    extra: str = ""


_DIVERGE_EDITS = (
    ("monte_carlo_runs", "40"),
    ("snr_db", "8, 10"),
    ("nu_init", "0.33"),
    ("nu_f_init", "0.33"),
    ("nu_min", "0.33"),
    ("nu_max", "0.43"),
)
_DIVERGE_LMS = "\n[filter.lms]\nnu_init = 1.35\nnu_f_init = 1.35\nnu_min = 1.35\nnu_max = 1.55\n"

WORKLOADS = {
    w.name: w
    for w in (
        # 12 wide cells, simulation-bound: a kernel batched over runs shows here
        Workload("grid", 1, "grid", (("monte_carlo_runs", "5"),)),
        # the same grid through the process pool; bytes must equal grid's
        Workload("grid-p2", 2, "grid", (("monte_carlo_runs", "5"),)),
        # 123 one-run cells: per-cell overhead and artifact writing dominate,
        # batching over runs is bypassed
        Workload(
            "sweep",
            1,
            "sweep",
            (("monte_carlo_runs", "1"), ("snr_db", ", ".join(str(s) for s in range(41)))),
        ),
        # 13-71 % of the runs of each cell diverge and exit early.  At the
        # worst cell (about 0.71) all 40 runs diverge with probability
        # near 1e-6, which would crash run_experiment today.
        Workload("diverge", 1, "diverge", _DIVERGE_EDITS, _DIVERGE_LMS),
    )
}


def config_text(workload: Workload, base_text: str) -> str:
    """The workload's config file, derived from the text of BASE_CONFIG."""
    text = base_text
    for key, value in workload.edits:
        text, n = re.subn(rf"^{re.escape(key)}\s*=.*$", f"{key} = {value}", text, flags=re.M)
        if n != 1:
            raise ValueError(f"{BASE_CONFIG}: expected one {key!r} line, found {n}")
    return text + workload.extra
