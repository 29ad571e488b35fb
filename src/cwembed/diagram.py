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


def _line(x1, y1, x2, y2, style: str) -> str:
    return f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" {style}/>'


def _text(x, y, attrs: str, body) -> str:
    return f'<text x="{_fmt(x)}" y="{_fmt(y)}" {attrs}>{body}</text>'


def _share(num: int, den: int, lo: Fraction, span: Fraction) -> float:
    """float((num/den - lo) / span) for den, span > 0, with no gcd taken:
    int / int rounds correctly, as float(Fraction) does, to the same double."""
    return ((num * lo.denominator - lo.numerator * den) * span.denominator
            / (den * lo.denominator * span.numerator))


def render_plan_svg(plan: EmbeddingPlan) -> str:
    """The plan's diagram.  Each potential is sampled in one walk over the
    sorted sample points; the samples set the vertical range and the curve.
    Each coordinate is rounded once from exact integers: stable bytes."""
    p = pair(plan.mu0, plan.target)
    u0, c = p.u0, p.ut.shift(-plan.C)

    kinks = sorted(set(u0.xs) | set(c.xs))
    ends = [e for st in plan.steps for e in (st.interval.lower, st.interval.upper) if e is not None]
    knots = kinks + ends + [Fraction(0)]
    lo_x, hi_x = min(knots), max(knots)
    pad = max((hi_x - lo_x) / 4, Fraction(1))
    lo_x, hi_x = lo_x - pad, hi_x + pad

    sample_xs = sorted(set(knots) | {lo_x, hi_x})
    u0_ys, c_ys = u0.values_at(sample_xs), c.values_at(sample_xs)
    ys = u0_ys + c_ys + [Fraction(0)]
    lo_y, hi_y = min(ys), max(ys)
    pad_y = max((hi_y - lo_y) / 8, Fraction(1, 2))
    lo_y, hi_y = lo_y - pad_y, hi_y + pad_y
    span_x, span_y = hi_x - lo_x, hi_y - lo_y

    def px(x):
        return _MARGIN + _share(x.numerator, x.denominator, lo_x, span_x) * (_W - 2 * _MARGIN)

    def py(y, den=1):  # the height y/den, for an int or Fraction y
        return _H - _MARGIN - (_share(y.numerator, y.denominator * den, lo_y, span_y)
                               * (_H - 2 * _MARGIN))

    def tangent_py(f, x):  # py(f(x)), with f(x) left unnormalised
        (s, sd), (b, bd) = f.slope.as_integer_ratio(), f.intercept.as_integer_ratio()
        return py(s * x.numerator * bd + b * sd * x.denominator, sd * x.denominator * bd)

    def polyline(values, color):
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(sample_xs, values))
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
    axis = 'stroke="#999" stroke-width="1"'
    parts.append(_line(px(lo_x), y0, px(hi_x), y0, axis))
    if lo_x <= 0 <= hi_x:
        parts.append(_line(px(0), py(lo_y), px(0), py(hi_y), axis))
    for x in kinks:
        parts.append(_line(px(x), y0 - 4, px(x), y0 + 4, axis))
        parts.append(_text(px(x), y0 + 16, 'font-size="11" text-anchor="middle" fill="#555"',
                           _fmt(x)))

    # tangents, dashed, clipped to the plotting range
    for i, st in enumerate(plan.steps):
        f = st.tangent
        parts.append(_line(px(lo_x), tangent_py(f, lo_x), px(hi_x), tangent_py(f, hi_x),
                           'stroke="#888" stroke-width="1" stroke-dasharray="6,4"'))
        a = st.interval.lower if st.interval.lower is not None else lo_x
        b = st.interval.upper if st.interval.upper is not None else hi_x
        parts.append(_line(px(a), bar_y(i), px(b), bar_y(i),
                           'stroke="#2ca02c" stroke-width="3"'))

    parts.append(polyline(u0_ys, "#1f77b4"))
    parts.append(polyline(c_ys, "#d62728"))
    parts.append(_text(_MARGIN, 20, 'font-size="13" fill="#1f77b4"', "starting potential"))
    parts.append(_text(_MARGIN + 150, 20, 'font-size="13" fill="#d62728"',
                       "shifted target potential"))
    parts.append(_text(_MARGIN + 340, 20, 'font-size="13" fill="#555"',
                       f"C = {_fmt(plan.C)}, steps = {len(plan.steps)}"))
    parts.append(_text(_W - 24, y0 - 8, 'font-size="12" fill="#555"', "x"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
