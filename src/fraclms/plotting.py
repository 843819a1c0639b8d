"""Standalone SVG line charts for learning curves.

Hand-rolled on purpose: the output must be byte-deterministic for a fixed
input, which rules out plotting libraries that embed ids or timestamps.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path
from typing import Mapping

import numpy as np

__all__ = ["KINDS", "emit_plot", "plot_curves"]

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62, 16, 18, 46

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# plot kind -> (curve name, in EnsembleReport and in the curves CSV; y-axis label)
KINDS = {"mse": ("mse_db", "MSE (dB)"), "nwd": ("nwd_db", "NWD (dB)")}


def _nice_step(span: float) -> float:
    if span <= 0.0:
        return 1.0
    raw = span / 6  # about six tick intervals per axis
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mult * mag >= raw:
            return mult * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float) -> list[float] | None:
    """Every multiple of a nice step from lo to hi, or None where there would be over 100:
    only a step tiny beside the ends does that, and adding it may then leave a tick unmoved."""
    step = _nice_step(hi - lo)
    last = hi + 1e-9 * step  # a tick at hi up to rounding, and none past it
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= last:
        ticks.append(t)
        if len(ticks) > 100:
            return None
        t += step
    return ticks


def _sx(x, x_max: int):
    """The pixel x of iteration x (a float, or elementwise an array) on an axis to x_max."""
    return MARGIN_L + (WIDTH - MARGIN_L - MARGIN_R) * x / x_max


@functools.lru_cache(maxsize=8)
def _points_format(x_max: int, n: int) -> str:
    """A polyline's points for an n-point curve, with %.2f in place of each y."""
    return " ".join(["%.2f,%%.2f" % px for px in _sx(np.arange(n, dtype=float), x_max).tolist()])


def plot_curves(curves: Mapping[str, np.ndarray], path, ylabel: str) -> Path:
    """Write one polyline per named curve; x axis is the iteration index."""
    if not curves:
        raise ValueError("nothing to plot: curves mapping is empty")
    for name, c in curves.items():
        if len(c) == 0:
            raise ValueError(f"curve {name!r} is empty")

    x_max = max(len(c) - 1 for c in curves.values())
    x_max = max(x_max, 1)
    lo = min(float(np.min(c)) for c in curves.values())
    hi = max(float(np.max(c)) for c in curves.values())
    y_lo, y_hi = (lo - 1.0, hi + 1.0) if hi - lo < 1e-9 else (lo, hi)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B
    # sy's scale ph*(y_hi - y) must be finite too
    y_ticks = _ticks(y_lo, y_hi) if math.isfinite(ph * (y_hi - y_lo)) else None
    if y_ticks is None:
        raise ValueError(f"cannot draw a y axis for values from {lo!r} to {hi!r}")

    def sy(y: float) -> float:
        return MARGIN_T + ph * (y_hi - y) / (y_hi - y_lo)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
    ]

    for t in _ticks(0.0, float(x_max)):
        px = _sx(t, x_max)
        lines.append(
            f'<line x1="{px:.2f}" y1="{MARGIN_T + ph}" x2="{px:.2f}" '
            f'y2="{MARGIN_T + ph + 5}" stroke="#333333" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{px:.2f}" y="{MARGIN_T + ph + 18}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{t:g}</text>'
        )
    for t in y_ticks:
        py = sy(t)
        lines.append(
            f'<line x1="{MARGIN_L - 5}" y1="{py:.2f}" x2="{MARGIN_L}" '
            f'y2="{py:.2f}" stroke="#333333" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{MARGIN_L - 8}" y="{py + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{t:g}</text>'
        )

    lines.append(
        f'<text x="{MARGIN_L + pw / 2:.2f}" y="{HEIGHT - 10}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">iteration</text>'
    )
    lines.append(
        f'<text x="16" y="{MARGIN_T + ph / 2:.2f}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {MARGIN_T + ph / 2:.2f})">{ylabel}</text>'
    )

    for idx, (name, curve) in enumerate(curves.items()):
        color = PALETTE[idx % len(PALETTE)]
        # sy applies elementwise to an array: the same operations, per point, as on a float
        pts = _points_format(x_max, len(curve)) % tuple(sy(curve).tolist())
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        ly = MARGIN_T + 14 + 16 * idx
        lx = WIDTH - MARGIN_R - 130
        lines.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        label = name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")  # names may be paths
        lines.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="11">{label}</text>'
        )

    lines.append("</svg>")
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def emit_plot(reports: Mapping[str, object], path, kind: str) -> Path:
    """Plot one curve per algorithm from EnsembleReport objects.

    kind selects which curve is drawn: 'mse' or 'nwd'.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {sorted(KINDS)}, got {kind!r}")
    attr, ylabel = KINDS[kind]
    curves = {name: getattr(rep, attr) for name, rep in reports.items()}
    return plot_curves(curves, path, ylabel)
