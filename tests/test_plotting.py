"""SVG polylines against a frozen copy of the per-point formatter.

plot_curves scales every curve in bulk and formats it with one % over a
template of its x coordinates, cached per axis length and curve length;
frozen_points below is the formatter it replaced, one f-string per point.
The polyline points must be the same bytes, and every other line of the
file comes from code the bulk path does not touch.
"""

import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fraclms import experiment, plotting
from fraclms.plotting import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH, plot_curves


def frozen_points(curves):
    """The points attribute of each polyline, formatted one point at a time."""
    x_max = max(max(len(c) - 1 for c in curves.values()), 1)
    y_lo = min(float(np.min(c)) for c in curves.values())
    y_hi = max(float(np.max(c)) for c in curves.values())
    if y_hi - y_lo < 1e-9:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + pw * x / x_max

    def sy(y):
        return MARGIN_T + ph * (y_hi - y) / (y_hi - y_lo)

    return [
        " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(curve.tolist())) for curve in curves.values()
    ]


rng = np.random.default_rng(4)

CASES = {
    "unequal lengths": {
        "a": -10.0 * rng.random(600).cumsum() / 60.0,
        "b": rng.normal(-5.0, 3.0, 17),
        "c": np.linspace(-1.0, 2.0, 333),
    },
    "length one": {"only": np.array([-3.25])},
    "length one beside a curve": {"one": np.array([1.5]), "long": rng.normal(0.0, 1.0, 41)},
    "flat": {"flat": np.full(50, -12.345)},
    "negative and large dB": {
        "floor": np.concatenate([np.full(30, -320.0), rng.uniform(-320.0, 0.0, 30)]),
        "large": np.array([1e6, -1e6, 123456.789, -0.0, 0.0, 5e-3, -5e-3, 987654.321]),
    },
}


def polylines(curves, path):
    text = plot_curves(curves, path, "MSE (dB)").read_text(encoding="utf-8")
    return re.findall(r'<polyline [^>]*points="([^"]*)"/>', text)


@pytest.mark.parametrize("curves", CASES.values(), ids=CASES.keys())
def test_polylines_equal_frozen_formatter(curves, tmp_path):
    assert polylines(curves, tmp_path / "c.svg") == frozen_points(curves)


def test_template_cache_is_keyed_by_axis_and_length(tmp_path):
    draw = np.random.default_rng(5)
    curve, longer = draw.normal(-20.0, 5.0, 600), draw.normal(-30.0, 5.0, 700)
    # the same curve length on an axis to 599, then to 699, then to 599 again
    for curves in ({"a": curve}, {"a": curve, "b": longer}, {"a": curve}):
        assert polylines(curves, tmp_path / "c.svg") == frozen_points(curves)
    for cache in (plotting._points_format, experiment._curve_format):
        assert cache.cache_parameters()["maxsize"] is not None


FRAMED = {
    **CASES,
    # flat near a large value: a stop tolerance scaled by the axis end, not
    # by the step, drew 20 of 25 y ticks of the first beyond the frame
    "flat at 1e10": {"a": np.full(5, 1e10)},
    "flat at -3e12": {"a": np.full(5, -3e12)},
    "near 1e15": {"a": 1e15 + np.arange(9.0)},
}


@pytest.mark.parametrize("curves", FRAMED.values(), ids=FRAMED.keys())
def test_every_tick_is_inside_the_frame(curves, tmp_path):
    text = plot_curves(curves, tmp_path / "c.svg", "MSE (dB)").read_text(encoding="utf-8")
    bottom = HEIGHT - MARGIN_B
    y_ticks = [float(y) for y in re.findall(rf'<line x1="{MARGIN_L - 5}" y1="([^"]*)"', text)]
    x_ticks = [float(x) for x in re.findall(rf'<line x1="([^"]*)" y1="{bottom}"', text)]
    assert y_ticks and x_ticks
    assert all(MARGIN_T <= y <= bottom for y in y_ticks), y_ticks
    assert all(MARGIN_L <= x <= WIDTH - MARGIN_R for x in x_ticks), x_ticks


@pytest.mark.parametrize(
    "curve, labels",
    [
        (np.full(5, 1e10), ["9999999999", "9999999999.5", "10000000000", "10000000000.5", "10000000001"]),
        (1e6 + np.arange(4.0), ["1000000", "1000001", "1000002", "1000003"]),
    ],
    ids=["flat at 1e10", "1e6 to 1e6+3"],
)
def test_y_labels_get_the_digits_that_tell_them_apart(curve, labels, tmp_path):
    # six significant digits label every one of these ticks 1e+10 or 1e+06
    text = plot_curves({"a": curve}, tmp_path / "c.svg", "MSE (dB)").read_text(encoding="utf-8")
    assert re.findall(r'text-anchor="end">([^<]*)</text>', text) == labels


def _cap_address_space():
    cap = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize(
    "values",
    [("1e+30", "1.0000000000000002e+30"), ("1e20", "1e20", "1e20"), ("1e308", "-1e308")],
    ids=["one ulp apart", "flat at 1e20", "infinite span"],
)
def test_plot_of_an_undrawable_axis_exits_2(values, tmp_path):
    # before the axis check these hung while their tick list grew, or overflowed
    # in the step; a child with a timeout and a capped address space fails
    # instead of hanging this process or eating the host's memory
    curve, svg = tmp_path / "c.csv", tmp_path / "c.svg"
    curve.write_text("iteration,mse_db,nwd_db\n" + "".join(f"{i},{v},0.0\n" for i, v in enumerate(values)))
    env = dict(os.environ, PYTHONPATH=str(Path(plotting.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "fraclms.cli", "plot", str(curve), "--kind", "mse", "--out", str(svg)],
        env=env, capture_output=True, text=True, timeout=20, preexec_fn=_cap_address_space,
    )
    lo, hi = min(map(float, values)), max(map(float, values))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.splitlines() == [f"cannot draw a y axis for values from {lo!r} to {hi!r}"]
    assert not svg.exists()
