"""Minimal dependency-free SVG rendering of sweep curves and report bars."""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

from . import atomic
from .experiments import COLUMNS

_COLORS = ("#c0392b", "#2980b9", "#111111", "#27ae60", "#8e44ad", "#d35400")
_PLOT_SIZE = (640, 440)  # width, height of render_plot's SVG
_BARS_SIZE = (520, 360)  # width, height of render_bars' SVG


def _axis_ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _write_svg(path, size, box, ylabel: str, axis_text: list[str], marks: list[str]) -> None:
    """Write one chart: the SVG tag, a white background, the axes along the
    left and bottom of the plot box (left, top, width, height), `axis_text`,
    the rotated y label, `marks`, and the closing tag."""
    width, height = size
    ml, mt, pw, ph = box
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        *axis_text,
        f'<text x="16" y="{mt + ph / 2:.1f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{escape(ylabel)}</text>',
        *marks,
        "</svg>",
    ]
    atomic.write_text_atomic(path, "\n".join(parts) + "\n")


def render_plot(results, path) -> None:
    """Render SNR-vs-mIoU line curves, one polyline per pipeline column.

    Legend labels match the CSV column names. Y axis is mIoU in percent.
    """
    results = list(results)
    if not results:
        raise ValueError("no results to plot")

    series = []
    for idx, r in enumerate(results):
        for col in COLUMNS:
            values = r.column(col)
            pts = [(s, v) for s, v in zip(r.snr_db, values) if not math.isnan(v)]
            if not pts:
                continue
            label = col
            if len(results) > 1:
                label += f" ({r.modulation or idx})"
            series.append((label, pts))
    if not series:
        raise ValueError("results contain no plottable values")

    all_x = [x for _, pts in series for x, _ in pts]
    x_lo, x_hi = min(all_x), max(all_x)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = 0.0, 100.0

    width, height = _PLOT_SIZE
    ml, mr, mt, mb = 64, 160, 24, 48
    pw, ph = width - ml - mr, height - mt - mb

    def sx(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y: float) -> float:
        return mt + (1.0 - (y - y_lo) / (y_hi - y_lo)) * ph

    axis_text = []
    for t in _axis_ticks(x_lo, x_hi):
        axis_text.append(
            f'<text x="{sx(t):.1f}" y="{mt + ph + 18}" font-size="11" '
            f'text-anchor="middle">{t:g}</text>'
        )
    for t in _axis_ticks(y_lo, y_hi):
        axis_text.append(
            f'<text x="{ml - 8}" y="{sy(t) + 4:.1f}" font-size="11" '
            f'text-anchor="end">{t:g}</text>'
        )
    axis_text.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 10}" font-size="13" '
        f'text-anchor="middle">SNR dB</text>'
    )

    marks = []
    for i, (label, pts) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{sx(x):.2f},{sy(100.0 * y):.2f}" for x, y in pts)
        marks.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        ly = mt + 16 + 18 * i
        marks.append(
            f'<line x1="{ml + pw + 12}" y1="{ly - 4}" x2="{ml + pw + 36}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        marks.append(
            f'<text x="{ml + pw + 42}" y="{ly}" font-size="12">{escape(label)}</text>'
        )
    _write_svg(path, _PLOT_SIZE, (ml, mt, pw, ph), "mIoU %", axis_text, marks)


def render_bars(groups, path, ylabel: str) -> None:
    """Render labeled bars, e.g. bits per image or MACs per pipeline.

    `groups` is a list of (label, value) pairs.
    """
    groups = list(groups)
    if not groups:
        raise ValueError("no bars to plot")
    vmax = max(v for _, v in groups)
    if vmax <= 0:
        vmax = 1.0
    width, height = _BARS_SIZE
    ml, mr, mt, mb = 72, 20, 24, 56
    pw, ph = width - ml - mr, height - mt - mb
    slot = pw / len(groups)
    bar_w = slot * 0.55

    marks = []
    for i, (label, value) in enumerate(groups):
        x = ml + slot * i + (slot - bar_w) / 2
        bh = ph * (value / vmax)
        y = mt + ph - bh
        color = _COLORS[i % len(_COLORS)]
        marks.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" height="{bh:.2f}" fill="{color}"/>'
        )
        marks.append(
            f'<text x="{x + bar_w / 2:.2f}" y="{y - 6:.2f}" font-size="11" '
            f'text-anchor="middle">{value:g}</text>'
        )
        marks.append(
            f'<text x="{x + bar_w / 2:.2f}" y="{mt + ph + 18}" font-size="12" '
            f'text-anchor="middle">{escape(str(label))}</text>'
        )
    _write_svg(path, _BARS_SIZE, (ml, mt, pw, ph), ylabel, [], marks)
