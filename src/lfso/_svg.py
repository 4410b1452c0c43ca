"""Minimal self-contained SVG line plots with a log10 y-axis.

Hand-rolled so repeated runs produce byte-identical files; no external
assets, fonts, or scripts are referenced.
"""

from __future__ import annotations

import math

WIDTH, HEIGHT = 760.0, 560.0
MARGIN_LEFT, MARGIN_RIGHT = 80.0, 30.0
MARGIN_TOP, MARGIN_BOTTOM = 50.0, 60.0

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf"]


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def write_log_plot(path, curves, title: str, x_label: str, y_label: str) -> None:
    """Write an SVG overlaying ``curves`` = [(label, xs, ys), ...] with a
    log10 y-axis.  A polyline ends before its first y that is not positive
    or is NaN (no logarithm); a curve that dies at once stays in the legend.
    """
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    points = []
    for _, xs, ys in curves:
        pairs = []
        for x, y in zip(xs, ys):
            if not y > 0.0:
                break
            pairs.append((float(x), float(y)))
        if len(pairs) > 1600:
            stride = math.ceil(len(pairs) / 1500)
            pairs = pairs[::stride] + [pairs[-1]]
        points.append(pairs)

    all_x = [x for pairs in points for x, _ in pairs]
    all_logy = [math.log10(y) for pairs in points for _, y in pairs]
    x_min, x_max = (min(all_x), max(all_x)) if all_x else (0.0, 1.0)
    if x_max == x_min:
        x_max = x_min + 1.0
    y_lo = math.floor(min(all_logy)) if all_logy else -1.0
    y_hi = math.ceil(max(all_logy)) if all_logy else 0.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def py(logy: float) -> float:
        return MARGIN_TOP + (y_hi - logy) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
        f'height="{HEIGHT:.0f}" viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">',
        f'<rect width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="28" font-family="sans-serif" '
        f'font-size="16" text-anchor="middle">{title}</text>',
    ]

    # frame
    x0, x1 = MARGIN_LEFT, MARGIN_LEFT + plot_w
    y0, y1 = MARGIN_TOP, MARGIN_TOP + plot_h
    parts.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(plot_w)}" '
                 f'height="{_fmt(plot_h)}" fill="none" stroke="black"/>')

    # y-axis decade ticks
    n_decades = int(y_hi - y_lo)
    stride = max(1, n_decades // 8)
    decade = int(y_lo)
    while decade <= y_hi:
        yy = py(float(decade))
        parts.append(f'<line x1="{_fmt(x0 - 5)}" y1="{_fmt(yy)}" '
                     f'x2="{_fmt(x0)}" y2="{_fmt(yy)}" stroke="black"/>')
        parts.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(yy)}" x2="{_fmt(x1)}" '
                     f'y2="{_fmt(yy)}" stroke="#dddddd"/>')
        parts.append(f'<text x="{_fmt(x0 - 9)}" y="{_fmt(yy + 4)}" '
                     f'font-family="sans-serif" font-size="12" '
                     f'text-anchor="end">1e{decade}</text>')
        decade += stride

    # x-axis ticks
    for i in range(5):
        xv = x_min + (x_max - x_min) * i / 4.0
        xx = px(xv)
        parts.append(f'<line x1="{_fmt(xx)}" y1="{_fmt(y1)}" x2="{_fmt(xx)}" '
                     f'y2="{_fmt(y1 + 5)}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(xx)}" y="{_fmt(y1 + 20)}" '
                     f'font-family="sans-serif" font-size="12" '
                     f'text-anchor="middle">{xv:.0f}</text>')

    parts.append(f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 14:.0f}" '
                 f'font-family="sans-serif" font-size="14" '
                 f'text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="20" y="{HEIGHT / 2:.0f}" font-family="sans-serif" '
                 f'font-size="14" text-anchor="middle" '
                 f'transform="rotate(-90 20 {HEIGHT / 2:.0f})">{y_label}</text>')

    for idx, ((label, _, _), pairs) in enumerate(zip(curves, points)):
        color = PALETTE[idx % len(PALETTE)]
        if pairs:
            coords = " ".join(
                f"{_fmt(px(x))},{_fmt(py(math.log10(y)))}" for x, y in pairs)
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_TOP + 16 + 18 * idx
        lx = x1 - 150
        parts.append(f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" '
                     f'x2="{_fmt(lx + 28)}" y2="{_fmt(ly - 4)}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_fmt(lx + 34)}" y="{_fmt(ly)}" '
                     f'font-family="sans-serif" font-size="12">{label}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
