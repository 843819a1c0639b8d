"""Replay the frozen single-tap recurrence transcript through the
implementation (see transcript_oracle for how the rows were produced)."""

import numpy as np

import transcript_oracle
from fraclms.filters import FilterConfig, rvss_flms_step
from states import fresh_state


def test_transcript_matches_to_twelve_digits():
    compared = transcript_oracle.check_transcript(
        rvss_flms_step,
        lambda cfg: fresh_state(cfg, 1),
        lambda x: np.array([x]),
        FilterConfig,
    )
    assert compared == 4 * len(transcript_oracle.ROWS)


def test_transcript_exercises_both_clamps():
    cfg = FilterConfig(**transcript_oracle.CONFIG)
    nus = [row[3] for row in transcript_oracle.ROWS]
    assert cfg.nu_min in nus
    assert cfg.nu_max in nus
    assert any(cfg.nu_min < nu < cfg.nu_max for nu in nus)
