"""Static SVG rendering of a plan: both potentials, the tangent lines, and
the swept intervals.  Output is deterministic byte-for-byte for fixed inputs.
"""

from __future__ import annotations

from fractions import Fraction

from .construct import EmbeddingPlan
from .measure import pair

_W, _H = 800, 480
_MARGIN = 56


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


def render_plan_svg(plan: EmbeddingPlan) -> str:
    p = pair(plan.mu0, plan.target)
    u0, c = p.u0, p.ut.shift(-plan.C)

    knots = sorted(set(u0.xs) | set(c.xs) | {Fraction(0)})
    for st in plan.steps:
        for end in (st.interval.lower, st.interval.upper):
            if end is not None:
                knots.append(end)
    lo_x, hi_x = min(knots), max(knots)
    pad = max((hi_x - lo_x) / 4, Fraction(1))
    lo_x, hi_x = lo_x - pad, hi_x + pad

    sample_xs = sorted(set(knots) | {lo_x, hi_x})
    ys = [u0.evaluate(x) for x in sample_xs] + [c.evaluate(x) for x in sample_xs] + [Fraction(0)]
    lo_y, hi_y = min(ys), max(ys)
    pad_y = max((hi_y - lo_y) / 8, Fraction(1, 2))
    lo_y, hi_y = lo_y - pad_y, hi_y + pad_y

    def px(x):
        return _MARGIN + float((x - lo_x) / (hi_x - lo_x)) * (_W - 2 * _MARGIN)

    def py(y):
        return _H - _MARGIN - float((y - lo_y) / (hi_y - lo_y)) * (_H - 2 * _MARGIN)

    def polyline(fn, color):
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(fn.evaluate(x)))}" for x in sample_xs)
        return (
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )

    def bar_y(i):  # step i's interval bar, below the plot area
        return _H - _MARGIN + 14 + 9 * i

    # the canvas ends at least 6 px below the last bar, as a five-step plan's does
    height = max(_H, bar_y(len(plan.steps) - 1) + 6)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{height}" '
        f'viewBox="0 0 {_W} {height}">',
        f'<rect x="0" y="0" width="{_W}" height="{height}" fill="white"/>',
    ]

    # axes
    y0 = py(0)
    parts.append(
        f'<line x1="{_fmt(px(lo_x))}" y1="{_fmt(y0)}" x2="{_fmt(px(hi_x))}" y2="{_fmt(y0)}" '
        'stroke="#999" stroke-width="1"/>'
    )
    if lo_x <= 0 <= hi_x:
        parts.append(
            f'<line x1="{_fmt(px(0))}" y1="{_fmt(py(lo_y))}" x2="{_fmt(px(0))}" '
            f'y2="{_fmt(py(hi_y))}" stroke="#999" stroke-width="1"/>'
        )
    for x in sorted(set(u0.xs) | set(c.xs)):
        parts.append(
            f'<line x1="{_fmt(px(x))}" y1="{_fmt(y0 - 4)}" x2="{_fmt(px(x))}" '
            f'y2="{_fmt(y0 + 4)}" stroke="#999" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px(x))}" y="{_fmt(y0 + 16)}" font-size="11" '
            f'text-anchor="middle" fill="#555">{_fmt(x)}</text>'
        )

    # tangents, dashed, clipped to the plotting range
    for i, st in enumerate(plan.steps):
        f = st.tangent
        parts.append(
            f'<line x1="{_fmt(px(lo_x))}" y1="{_fmt(py(f(lo_x)))}" '
            f'x2="{_fmt(px(hi_x))}" y2="{_fmt(py(f(hi_x)))}" '
            'stroke="#888" stroke-width="1" stroke-dasharray="6,4"/>'
        )
        a = st.interval.lower if st.interval.lower is not None else lo_x
        b = st.interval.upper if st.interval.upper is not None else hi_x
        ybar = bar_y(i)
        parts.append(
            f'<line x1="{_fmt(px(a))}" y1="{_fmt(ybar)}" x2="{_fmt(px(b))}" '
            f'y2="{_fmt(ybar)}" stroke="#2ca02c" stroke-width="3"/>'
        )

    parts.append(polyline(u0, "#1f77b4"))
    parts.append(polyline(c, "#d62728"))
    parts.append(
        f'<text x="{_MARGIN}" y="20" font-size="13" fill="#1f77b4">starting potential</text>'
    )
    parts.append(
        f'<text x="{_MARGIN + 150}" y="20" font-size="13" fill="#d62728">'
        "shifted target potential</text>"
    )
    parts.append(
        f'<text x="{_MARGIN + 340}" y="20" font-size="13" fill="#555">'
        f"C = {_fmt(plan.C)}, steps = {len(plan.steps)}</text>"
    )
    parts.append(f'<text x="{_W - 24}" y="{_fmt(y0 - 8)}" font-size="12" fill="#555">x</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
