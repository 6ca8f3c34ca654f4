"""Hand-rolled SVG charts: line plots and cluster-colored scatter plots.

No plotting library is involved; each function returns a self-contained SVG
document as a string. Output is deterministic: coordinates are formatted with
a fixed precision and nothing depends on locale or time.

Scatter markers for points whose two labelings disagree carry class="miss"
and an outline ring, so disagreements are findable both visually and by a
plain substring count.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

from .errors import TscnetError

WIDTH = 640
HEIGHT = 420
MARGIN_LEFT = 64
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 48

# color-blind-friendly 10-color palette, reused in order past 10 clusters
PALETTE = (
    "#4477aa",
    "#ee6677",
    "#228833",
    "#ccbb44",
    "#66ccee",
    "#aa3377",
    "#bbbbbb",
    "#222255",
    "#225555",
    "#663333",
)


def _nice_step(span: float, target_ticks: int = 5) -> float:
    raw = span / max(target_ticks, 1)
    power = math.floor(math.log10(raw)) if raw > 0 else 0
    base = raw / (10.0**power)
    for mult in (1.0, 2.0, 5.0):
        if base <= mult:
            return mult * (10.0**power)
    return 10.0 ** (power + 1)


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _pad_range(lo: float, hi: float) -> tuple[float, float]:
    if hi > lo:
        pad = (hi - lo) * 0.05
        return lo - pad, hi + pad
    # degenerate span: synthesize one
    pad = abs(lo) * 0.1 if lo != 0 else 1.0
    return lo - pad, lo + pad


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _fmt_tick(v: float) -> str:
    return f"{v:.6g}"


class _Frame:
    """Maps data coordinates onto the fixed plot viewport."""

    def __init__(self, xs, ys):
        self.x_lo, self.x_hi = _pad_range(min(xs), max(xs))
        self.y_lo, self.y_hi = _pad_range(min(ys), max(ys))
        if not math.isfinite(self.x_hi - self.x_lo) or not math.isfinite(self.y_hi - self.y_lo):
            raise TscnetError("chart values span more than a float can hold")
        self.px_lo = MARGIN_LEFT
        self.px_hi = WIDTH - MARGIN_RIGHT
        self.py_lo = HEIGHT - MARGIN_BOTTOM
        self.py_hi = MARGIN_TOP

    def x(self, v: float) -> float:
        frac = (v - self.x_lo) / (self.x_hi - self.x_lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo)

    def y(self, v: float) -> float:
        frac = (v - self.y_lo) / (self.y_hi - self.y_lo)
        return self.py_lo + frac * (self.py_hi - self.py_lo)


def _axes(frame: _Frame, title: str, x_label: str, y_label: str) -> list[str]:
    parts = [
        f'<text x="{WIDTH / 2:.0f}" y="22" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{escape(title)}</text>',
        f'<rect x="{frame.px_lo}" y="{frame.py_hi}" width="{frame.px_hi - frame.px_lo}" '
        f'height="{frame.py_lo - frame.py_hi}" fill="none" stroke="#444444"/>',
    ]
    for t in _ticks(frame.x_lo, frame.x_hi):
        px = frame.x(t)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{frame.py_lo}" x2="{_fmt(px)}" y2="{frame.py_lo + 5}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{frame.py_lo + 18}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{escape(_fmt_tick(t))}</text>'
        )
    for t in _ticks(frame.y_lo, frame.y_hi):
        py = frame.y(t)
        parts.append(
            f'<line x1="{frame.px_lo - 5}" y1="{_fmt(py)}" x2="{frame.px_lo}" y2="{_fmt(py)}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{frame.px_lo - 8}" y="{_fmt(py + 4)}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{escape(_fmt_tick(t))}</text>'
        )
    parts.append(
        f'<text x="{(frame.px_lo + frame.px_hi) / 2:.0f}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="16" y="{(frame.py_lo + frame.py_hi) / 2:.0f}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {(frame.py_lo + frame.py_hi) / 2:.0f})">'
        f"{escape(y_label)}</text>"
    )
    return parts


def _document(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    background = f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>'
    return "\n".join([head, background, *body, "</svg>"]) + "\n"


def line_chart(xs, ys, title: str, x_label: str, y_label: str) -> str:
    """Polyline chart of y against x, one point per sample."""
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    if not xs or len(xs) != len(ys):
        raise ValueError(f"need matching non-empty series, got {len(xs)} x {len(ys)}")
    frame = _Frame(xs, ys)
    body = _axes(frame, title, x_label, y_label)
    coords = " ".join(f"{_fmt(frame.x(x))},{_fmt(frame.y(y))}" for x, y in zip(xs, ys))
    body.append(f'<polyline points="{coords}" fill="none" stroke="#4477aa" stroke-width="1.5"/>')
    if len(xs) <= 30:
        for x, y in zip(xs, ys):
            body.append(
                f'<circle cx="{_fmt(frame.x(x))}" cy="{_fmt(frame.y(y))}" r="3" fill="#4477aa"/>'
            )
    return _document(body)


def scatter_chart(points, title: str, x_label: str, y_label: str, num_clusters: int) -> str:
    """Cluster-colored scatter plot.

    ``points`` is an iterable of (x, y, label, miss). Markers with miss=True
    get class="miss" and a dark outline ring. A legend lists every cluster id
    in [0, num_clusters). Colors cycle through PALETTE past its 10 entries.
    """
    pts = [(float(x), float(y), int(lab), bool(miss)) for x, y, lab, miss in points]
    if not pts:
        raise ValueError("no points to plot")
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
    frame = _Frame([p[0] for p in pts], [p[1] for p in pts])
    body = _axes(frame, title, x_label, y_label)
    for x, y, lab, miss in pts:
        color = PALETTE[lab % len(PALETTE)]
        cx, cy = _fmt(frame.x(x)), _fmt(frame.y(y))
        if miss:
            body.append(f'<circle cx="{cx}" cy="{cy}" r="7" fill="none" stroke="#000000" stroke-width="1.5"/>')
            body.append(f'<circle class="miss" cx="{cx}" cy="{cy}" r="4" fill="{color}"/>')
        else:
            body.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="{color}"/>')
    # legend in the top-right corner of the plot area
    lx = WIDTH - MARGIN_RIGHT - 110
    ly = MARGIN_TOP + 12
    for c in range(num_clusters):
        body.append(f'<circle cx="{lx}" cy="{ly + 16 * c}" r="4" fill="{PALETTE[c % len(PALETTE)]}"/>')
        body.append(
            f'<text x="{lx + 10}" y="{ly + 16 * c + 4}" font-size="11" font-family="sans-serif">'
            f"cluster {c}</text>"
        )
    return _document(body)
