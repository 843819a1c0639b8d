"""Tests for the experiment config format: parsing, validation, round-trip."""

import dataclasses
import re
from pathlib import Path

import pytest

from fraclms.configfile import ConfigError, bundled_path, dumps, load, loads
from fraclms.filters import FilterConfig, FracPowerPolicy

README = Path(__file__).resolve().parents[1] / "README.md"

GOOD = """\
[experiment]
snr_db = 10, 20
samples_per_run = 100
monte_carlo_runs = 4
rng_seed = 7
algorithms = lms, flms, rvss-flms

[plant]
coeffs = 0.9, 0.3, -0.1

[filter]
tap_count = 3
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


def test_parses_good_config():
    cfg = loads(GOOD)
    assert cfg.snr_db_list == (10.0, 20.0)
    assert cfg.samples_per_run == 100
    assert cfg.monte_carlo_runs == 4
    assert cfg.rng_seed == 7
    assert tuple(a.name for a in cfg.algorithms) == ("lms", "flms", "rvss-flms")
    assert cfg.plant.coeffs == (0.9, 0.3, -0.1)
    fc = cfg.algorithms[0].filter
    assert fc.tap_count == 3
    assert fc.nu_init == 0.006
    assert fc.weight_init == 1e-20
    assert fc.frac_power_policy is FracPowerPolicy.SIGNED_MAGNITUDE


def test_bundled_paper_config_is_verbatim():
    cfg = load(bundled_path("paper.config"))
    assert cfg.snr_db_list == (10.0, 20.0, 30.0, 40.0)
    assert cfg.samples_per_run == 600
    assert cfg.monte_carlo_runs == 200
    assert cfg.plant.coeffs == (0.9, 0.3, -0.1)
    for spec in cfg.algorithms:
        fc = spec.filter
        assert fc.tap_count == 3
        assert fc.frac_order == 0.5
        assert fc.nu_init == 1e-4
        assert fc.nu_f_init == 1e-4
        assert fc.nu_min == 1e-4
        assert fc.nu_max == 3e-4
        assert fc.alpha == 0.5 and fc.beta == 0.5 and fc.gamma == 0.5
        assert fc.weight_init == 1e-20


def test_bundled_scaled_config_is_60x():
    verbatim = load(bundled_path("paper.config"))
    scaled = load(bundled_path("paper-x60.config"))
    for a, b in zip(verbatim.algorithms, scaled.algorithms):
        assert b.filter.nu_init == pytest.approx(60 * a.filter.nu_init, rel=1e-12)
        assert b.filter.nu_min == pytest.approx(60 * a.filter.nu_min, rel=1e-12)
        assert b.filter.nu_max == pytest.approx(60 * a.filter.nu_max, rel=1e-12)


def test_round_trip():
    cfg = loads(GOOD)
    assert loads(dumps(cfg)) == cfg


def test_round_trip_with_overrides():
    text = GOOD + "\n[filter.rvss-flms]\nnu_max = 0.02\nfrac_power_policy = magnitude_only\n"
    cfg = loads(text)
    by_name = {a.name: a.filter for a in cfg.algorithms}
    assert by_name["rvss-flms"].nu_max == 0.02
    assert by_name["rvss-flms"].frac_power_policy is FracPowerPolicy.MAGNITUDE_ONLY
    assert by_name["flms"].nu_max == 0.018
    assert loads(dumps(cfg)) == cfg


def test_unknown_key_is_hard_error():
    with pytest.raises(ConfigError, match="stepsize"):
        loads(GOOD.replace("nu_init = 0.006", "nu_init = 0.006\nstepsize = 0.1"))


def test_unknown_section_is_hard_error():
    with pytest.raises(ConfigError, match="channel"):
        loads(GOOD + "\n[channel]\ntaps = 1\n")


def test_override_for_unlisted_algorithm_is_error():
    bad = GOOD.replace("algorithms = lms, flms, rvss-flms", "algorithms = lms")
    with pytest.raises(ConfigError, match="filter.flms"):
        loads(bad + "\n[filter.flms]\nnu_init = 0.1\n")


def test_missing_key_reported():
    broken = GOOD.replace("alpha = 0.5\n", "")
    with pytest.raises(ConfigError, match="alpha"):
        loads(broken)


def test_swapped_bounds_reported_by_name():
    broken = GOOD.replace("nu_max = 0.018", "nu_max = 0.001")
    with pytest.raises(ConfigError, match="nu_max"):
        loads(broken)


def test_all_violations_listed_together():
    broken = GOOD.replace("monte_carlo_runs = 4", "monte_carlo_runs = 0")
    broken = broken.replace("alpha = 0.5", "alpha = 2.0")
    broken = broken.replace("frac_order = 0.5", "frac_order = 1.5")
    with pytest.raises(ConfigError) as exc:
        loads(broken)
    text = str(exc.value)
    assert "monte_carlo_runs" in text
    assert "alpha" in text
    assert "frac_order" in text
    assert len(exc.value.problems) >= 3


def test_repeated_snr_is_error():
    with pytest.raises(ConfigError, match="snr_db value 20 listed twice"):
        loads(GOOD.replace("snr_db = 10, 20", "snr_db = 20, 20"))


@pytest.mark.parametrize("snrs, tag", [("10, 10.0000001", "10"), ("-0, 0", "0")])
def test_snrs_sharing_an_artifact_tag_are_an_error(snrs, tag):
    # both would write every *_<tag>dB file and the same summary.csv row
    with pytest.raises(ConfigError, match=f"snr_db value {tag} listed twice"):
        loads(GOOD.replace("snr_db = 10, 20", f"snr_db = {snrs}"))


def test_all_zero_plant_is_error():
    with pytest.raises(ConfigError, match="must not all be zero"):
        loads(GOOD.replace("coeffs = 0.9, 0.3, -0.1", "coeffs = 0, 0, 0"))


@pytest.mark.parametrize("snr", ["4000", "-4000", "-3090"])
def test_snr_without_finite_nonzero_variance_is_error(snr):
    with pytest.raises(ConfigError, match=f"snr_db value {snr} gives no finite nonzero"):
        loads(GOOD.replace("snr_db = 10, 20", f"snr_db = 10, {snr}"))


def test_non_numeric_value_reported():
    with pytest.raises(ConfigError, match="not a number"):
        loads(GOOD.replace("beta = 0.5", "beta = fast"))


def test_unknown_algorithm_name():
    with pytest.raises(ConfigError, match="amflms"):
        loads(GOOD.replace("algorithms = lms, flms, rvss-flms", "algorithms = amflms"))


def test_tap_count_must_match_plant():
    with pytest.raises(ConfigError, match="plant order"):
        loads(GOOD.replace("tap_count = 3", "tap_count = 2"))


def test_effective_config_survives_replace():
    cfg = loads(GOOD)
    bumped = dataclasses.replace(cfg, rng_seed=99)
    assert loads(dumps(bumped)).rng_seed == 99


def _filter_keys(text):
    """The keys of the [filter] section of config text, in file order."""
    section = re.search(r"^\[filter\][^\n]*\n(.*?)(?=^\[|\Z)", text, flags=re.M | re.S).group(1)
    return re.findall(r"^(\w+)\s*=", section, flags=re.M)


def test_dumps_keeps_the_bundled_key_order():
    path = bundled_path("paper.config")
    expected = _filter_keys(path.read_text(encoding="utf-8"))
    assert expected[-2:] == ["weight_init", "frac_power_policy"]  # not FilterConfig's declaration order
    assert _filter_keys(dumps(load(path))) == expected


def test_readme_config_example_is_the_derived_format():
    readme = README.read_text(encoding="utf-8")
    example = re.search(r"^## Config format$.*?^```ini\n(.*?)^```$", readme, flags=re.M | re.S).group(1)
    loads(example)
    assert sorted(_filter_keys(example)) == sorted(field.name for field in dataclasses.fields(FilterConfig))
