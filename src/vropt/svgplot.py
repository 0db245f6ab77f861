"""Self-contained SVG line plots: log-scale y with decade ticks, legend, axis
labels.  Written directly as text so plotting needs no external process or
display."""

from __future__ import annotations

import math
from html import escape

from .errors import ConfigError

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 34, 46
_WIDTH, _HEIGHT = 680, 460


def _nice_linear_ticks(lo: float, hi: float):
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mag * mult >= raw:
            step = mag * mult
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


def render_line_plot(series, *, xlabel: str, ylabel: str,
                     title: str = "") -> str:
    """series: iterable of (label, x array, y array).  Returns SVG text.

    The y axis is logarithmic with ticks at powers of ten; non-positive y
    values are dropped (cannot be drawn).  The text is escaped for XML.
    """
    xlabel, ylabel, title = escape(xlabel), escape(ylabel), escape(title)
    series = [(escape(str(lab)), list(map(float, xs)), list(map(float, ys)))
              for lab, xs, ys in series]
    if not series or all(len(xs) == 0 for _, xs, _ in series):
        raise ConfigError("nothing to plot")

    cleaned = [(lab, [(x, y) for x, y in zip(xs, ys) if y > 0.0])
               for lab, xs, ys in series]
    all_pts = [p for _, pts in cleaned for p in pts]
    if not all_pts:
        raise ConfigError("no drawable points (all y <= 0 on a log axis)")

    x_lo = min(p[0] for p in all_pts)
    x_hi = max(p[0] for p in all_pts)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo = math.floor(math.log10(min(p[1] for p in all_pts)))
    y_hi = math.ceil(math.log10(max(p[1] for p in all_pts)))
    if y_hi == y_lo:
        y_hi += 1

    px_w = _WIDTH - _MARGIN_L - _MARGIN_R
    px_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * px_w

    def sy(y):
        return _MARGIN_T + (y_hi - math.log10(y)) / (y_hi - y_lo) * px_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{px_w}" '
        f'height="{px_h}" fill="none" stroke="#222"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>')

    # y ticks
    decades = list(range(int(y_lo), int(y_hi) + 1))
    step = max(1, len(decades) // 12 + (1 if len(decades) > 12 else 0))
    tick_vals = [(10.0 ** d, f"1e{d:+03d}" if d else "1")
                 for d in decades[::step]]
    for v, lab in tick_vals:
        y = sy(v)
        parts.append(f'<line x1="{_MARGIN_L - 4}" y1="{y:.2f}" '
                     f'x2="{_MARGIN_L}" y2="{y:.2f}" stroke="#222"/>')
        parts.append(f'<line x1="{_MARGIN_L}" y1="{y:.2f}" '
                     f'x2="{_MARGIN_L + px_w}" y2="{y:.2f}" '
                     f'stroke="#ddd" stroke-width="0.5"/>')
        parts.append(f'<text x="{_MARGIN_L - 7}" y="{y + 4:.2f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="10">{lab}</text>')
    # x ticks
    for v in _nice_linear_ticks(x_lo, x_hi):
        x = sx(v)
        parts.append(f'<line x1="{x:.2f}" y1="{_MARGIN_T + px_h}" '
                     f'x2="{x:.2f}" y2="{_MARGIN_T + px_h + 4}" stroke="#222"/>')
        parts.append(f'<text x="{x:.2f}" y="{_MARGIN_T + px_h + 16}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="10">{_fmt(v)}</text>')

    # axis labels
    parts.append(f'<text x="{_MARGIN_L + px_w / 2}" y="{_HEIGHT - 8}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{_MARGIN_T + px_h / 2}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12" transform="rotate(-90 16 '
                 f'{_MARGIN_T + px_h / 2})">{ylabel}</text>')

    # series polylines + legend
    for k, (lab, pts) in enumerate(cleaned):
        color = _PALETTE[k % len(_PALETTE)]
        if pts:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="1.6"/>')
        ly = _MARGIN_T + 14 + 16 * k
        lx = _MARGIN_L + px_w - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{lab}</text>')

    parts.append("</svg>")
    return "\n".join(parts)
