"""SVG polylines against a frozen copy of the per-point formatter.

plot_curves scales every curve in bulk and formats it with one % over a
template of its x coordinates, cached per axis length and curve length;
frozen_points below is the formatter it replaced, one f-string per point.
The polyline points must be the same bytes, and every other line of the
file comes from code the bulk path does not touch.
"""

import re

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
