"""Tangent-cutting construction of embeddings.

A construction's state is its running potential.  Each balayage step cuts it
with a line of slope in [-1, 1]: the strict sublevel set of the line is the
interval swept, and the new potential is the pointwise minimum of the old one
and the line, so only the piece over that interval changes.  The measure
after a step is read off the potential's slope drops (an atom of weight w is
a drop of 2w) when asked for.  Generators are provided for the Azema-Yor
sweep, its mirror, the Jacka construction and the eps-approximation of the
Vallois construction; an arbitrary tangent list can be run directly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from operator import neg
from typing import Optional, Sequence, Union

from .balayage import Interval
from .errors import (
    InadmissibleConstantError,
    IncompletePlanError,
    InvalidParameterError,
    InvalidTangentError,
    ProblemSpecError,
    UndefinedBarycentreError,
    field_errors,
)
from .measure import (
    VALUE_TOL,
    AtomicMeasure,
    PLConcave,
    Real,
    frac,
    pair,
    sup_difference,
)


@dataclass(frozen=True)
class Tangent:
    """Line x -> slope*x + intercept with |slope| <= 1."""

    slope: Fraction
    intercept: Fraction

    def __post_init__(self):
        if abs(self.slope) > 1:
            raise InvalidParameterError(f"tangent slope must lie in [-1, 1], got {self.slope}")

    @classmethod
    def make(cls, slope: Real, intercept: Real) -> "Tangent":
        return cls(frac(slope), frac(intercept))

    def __call__(self, x: Real) -> Fraction:
        return self.slope * frac(x) + self.intercept


@dataclass(frozen=True)
class Step:
    """One balayage step of a plan.

    ``interval`` endpoints are exactly where the tangent crosses the previous
    potential; ``potential_after``, the pointwise minimum of the previous
    potential and the tangent, is the whole state, and ``measure_after`` is
    read off its slope drops on first use.  A no-op step (tangent nowhere
    strictly below the potential), which only ``cw_step`` returns, carries
    interval None and the potential unchanged.
    """

    tangent: Tangent
    interval: Optional[Interval]
    potential_after: PLConcave

    @property
    def noop(self) -> bool:
        return self.interval is None

    @cached_property
    def measure_after(self) -> AtomicMeasure:
        return self.potential_after.measure()


@dataclass(frozen=True)
class EmbeddingPlan:
    """Ordered balayage steps carrying the target shift constant C.

    The pair (mu0, target), C and the ordered tangents define a plan:
    ``cw_run`` cuts the running potential with each tangent in turn, which
    fixes every interval and potential, and each measure is read off its
    potential.  The wire form holds exactly those, and ``from_wire`` replays
    them.  The residual sup|final potential - (ut - C)| is read off on first
    use; the plan is complete when it is at most VALUE_TOL, which is there
    for one reason: only a Vallois plan stops short and ends off the target
    atoms (every other construction ends at 0).  Only complete plans may be
    simulated.
    """

    mu0: AtomicMeasure
    target: AtomicMeasure
    C: Fraction
    steps: tuple[Step, ...]

    @cached_property
    def residual(self) -> Fraction:
        return sup_difference(self.final_potential, pair(self.mu0, self.target).ut.shift(-self.C))

    @property
    def complete(self) -> bool:
        return self.residual <= VALUE_TOL

    @property
    def final_measure(self) -> AtomicMeasure:
        return self.steps[-1].measure_after if self.steps else self.mu0

    @property
    def final_potential(self) -> PLConcave:
        return self.steps[-1].potential_after if self.steps else pair(self.mu0, self.target).u0

    def to_wire(self) -> dict:
        """JSON form: mu0, target, C and each step's slope and intercept as
        exact "p/q" strings.  The residual is written as a float for people
        to read; from_wire never reads it."""
        return {
            "mu0": self.mu0.to_wire(),
            "target": self.target.to_wire(),
            "C": str(self.C),
            "residual": float(self.residual),
            "steps": [
                {"slope": str(st.tangent.slope), "intercept": str(st.tangent.intercept)}
                for st in self.steps
            ],
        }

    @classmethod
    def from_wire(cls, data) -> "EmbeddingPlan":
        """``cw_run(mu0, tangents, target, C)`` of a wire form; numbers may
        also be JSON numbers, and other keys are ignored.  A malformed value,
        a measure whose mass is not exactly 1, an inadmissible C or a tangent
        that does not cut raises ProblemSpecError naming the field."""

        def read(obj, key, parse=frac, at=""):
            with field_errors(at + key):
                return parse(obj[key])

        mu0, target = read(data, "mu0", _probability), read(data, "target", _probability)
        tangents = []
        for k, sd in enumerate(read(data, "steps", _wire_list)):
            b = read(sd, "intercept", at=f"steps[{k}].")
            tangents.append(read(sd, "slope", lambda s: Tangent(frac(s), b), f"steps[{k}]."))
        try:
            plan = cw_run(mu0, tangents, target, read(data, "C"))
        except InadmissibleConstantError as exc:
            raise ProblemSpecError(str(exc), field="C") from None
        k = next((k for k, st in enumerate(plan.steps) if st.tangent != tangents[k]),
                 len(plan.steps))
        if k < len(tangents):
            raise ProblemSpecError("tangent does not cut the running potential",
                                   field=f"steps[{k}]")
        return plan


def _probability(data) -> AtomicMeasure:
    m = AtomicMeasure.from_wire(data)
    if not m.is_probability():
        raise ValueError(f"total mass {m.total_mass} is not 1")
    return m


def _wire_list(data) -> list:
    if not isinstance(data, list):
        raise TypeError(f"expected a list, got {type(data).__name__}")
    return data


# ---------------------------------------------------------------------------
# the single cutting step


def _cut_interval(g: PLConcave, f: Tangent):
    """Open interval {x : f(x) < g(x)} of the concave difference d = g - f.

    Returns (lo, hi) with None for an infinite endpoint, or None when the set
    is empty; raises InvalidTangentError when the set is all of R.  Over the
    breakpoints d rises until g's slope drops to f's and then falls, so
    bisection finds the first and last breakpoints where d > 0.  Each finite
    endpoint is the zero of d on the piece where it changes sign.
    """
    if g.xs:
        xs, slopes, values = g.xs, g.slopes, g.values
    else:  # affine: two rays of one slope meeting at 0
        xs, slopes, values = (Fraction(0),), g.slopes * 2, (g.evaluate(0),)
    n = len(xs)

    @cache  # the bisections and zero() revisit breakpoints
    def d(i):
        return values[i] - f(xs[i])

    def zero(i, k):  # zero of d on piece k (k-th slope), through breakpoint i
        return xs[i] - d(i) / (slopes[k] - f.slope)

    sl_left, sl_right = slopes[0] - f.slope, slopes[-1] - f.slope
    pos_left = sl_left < 0 or (sl_left == 0 and d(0) > 0)
    pos_right = sl_right > 0 or (sl_right == 0 and d(n - 1) > 0)
    if pos_left and pos_right:
        raise InvalidTangentError("tangent strictly below the potential everywhere")
    peak = min(max(bisect_left(slopes, -f.slope, key=neg) - 1, 0), n - 1)
    pos = d(peak) > 0
    if not (pos or pos_left or pos_right):
        return None
    if pos:
        first = bisect_left(range(peak), True, key=lambda i: d(i) > 0)
        last = peak - 1 + bisect_left(range(peak, n), True, key=lambda i: d(i) <= 0)
    lo = None if pos_left else zero(first, first) if pos else zero(n - 1, n)
    hi = None if pos_right else zero(last, last + 1) if pos else zero(0, 0)
    return lo, hi


def _step(g: PLConcave, f: Tangent) -> Optional[Step]:
    """The step cutting g with f, or None when f cuts nothing."""
    cut = _cut_interval(g, f)
    if cut is None:
        return None
    lo, hi = cut
    return Step(f, Interval(lo, hi), g._cut(lo, hi, f.slope, f.intercept))


def cw_step(potential: PLConcave, measure: AtomicMeasure, f: Tangent) -> Step:
    """Cut the running potential with one tangent.

    A tangent that only touches the potential gives a no-op step with the
    potential unchanged.  ``measure`` is not read: the measure after the
    step is read off its potential.
    """
    return _step(potential, f) or Step(f, None, potential)


def cw_run(
    mu0: AtomicMeasure,
    tangents: Sequence[Tangent],
    target: AtomicMeasure,
    C: Real,
) -> EmbeddingPlan:
    """Fold the cut over a tangent sequence.

    C must be admissible (at least the potential gap of the pair).  This
    fold alone judges whether a tangent cuts: one with no point strictly
    below the running potential is dropped from the resulting plan, so
    generators pass their lines unfiltered.  It computes no residual: the
    plan reads that off its final potential when asked.
    """
    Cf = frac(C)
    p = pair(mu0, target)
    if Cf < p.C:
        raise InadmissibleConstantError(f"C={Cf} below the admissible bound {p.C}")
    g = p.u0
    steps: list[Step] = []
    for f in tangents:
        st = _step(g, f)
        if st is not None:
            steps.append(st)
            g = st.potential_after
    return EmbeddingPlan(mu0, target, Cf, tuple(steps))


# ---------------------------------------------------------------------------
# tangent generators


def ay_sweep(mu0: AtomicMeasure, target: AtomicMeasure) -> list[Tangent]:
    """Azema-Yor tangent sequence: one line per affine segment of the shifted
    target potential c = u_target - C, touch points sweeping left to right
    (slopes strictly decreasing from +1 to -1).  Segments already lying on
    the starting potential are kept; ``cw_run`` drops the lines that cut
    nothing.

    This order makes each path race upward against a rising floor, the
    barycentre stopping rule, so the resulting plan maximizes the law of the
    running maximum among minimal embeddings; any order embeds the target,
    but only this one attains the maximum-law bound.
    """
    c = pair(mu0, target).c
    # a breakpoint on each segment: xs[k-1] on segment k, xs[0] on segment 0
    xs, values = c.xs[:1] + c.xs, c.values[:1] + c.values
    return [Tangent(s, v - s * x) for s, x, v in zip(c.slopes, xs, values)]


def reversed_ay_sweep(mu0: AtomicMeasure, target: AtomicMeasure) -> list[Tangent]:
    """The lines of ay_sweep right to left (slopes increasing from -1 to +1),
    its mirror image under x -> -x; maximizes the law of the running
    minimum."""
    return ay_sweep(mu0, target)[::-1]


def jacka_plan(mu0: AtomicMeasure, target: AtomicMeasure) -> EmbeddingPlan:
    """First cut with the horizontal tangent at the peak of c; then run the
    max-favouring sweep on the upper half (negative slopes, touch points left
    to right) and its mirror on the lower half (positive slopes, right to
    left).  ``cw_run`` drops the lines that cut nothing."""
    p = pair(mu0, target)
    segs = ay_sweep(mu0, target)
    flat = Tangent(Fraction(0), max(p.c.values))
    falling = [f for f in segs if f.slope < 0]
    rising = [f for f in reversed(segs) if f.slope > 0]
    return cw_run(mu0, [flat] + falling + rising, target, p.C)


def _support_line_through(c: PLConcave, x0: Fraction, y0: Fraction, touch: str) -> Tangent:
    """Line through (x0, y0), a point on or above c, supporting c from above;
    touch="left" takes the steepest such line (touching c left of x0),
    touch="right" the shallowest (touching right of x0)."""
    if touch == "left":
        s = min([(y0 - v) / (x0 - x) for x, v in zip(c.xs, c.values) if x < x0] + [c.slopes[0]])
    else:
        s = max([(v - y0) / (x - x0) for x, v in zip(c.xs, c.values) if x > x0] + [c.slopes[-1]])
    return Tangent(s, y0 - s * x0)


def vallois_eps_plan(
    mu0: AtomicMeasure,
    target: AtomicMeasure,
    eps: Real,
    max_steps: int,
) -> EmbeddingPlan:
    """Alternating tangent construction: lines supporting c from above whose
    crossing with the running potential is pinned at x = eps (positive slope,
    touching c to the left) and at x = 0 (negative slope, touching to the
    right).  Tests sup|g - c| before each line, its own stop rule, and stops
    below tolerance or at max_steps; a truncated plan is returned (the exact
    construction is the eps -> 0 limit and is not built here).
    """
    epsf = frac(eps)
    if epsf <= 0:
        raise InvalidParameterError(f"eps must be positive, got {eps}")
    if max_steps < 0:
        raise InvalidParameterError("max_steps must be nonnegative")
    p = pair(mu0, target)
    g = p.u0
    steps: list[Step] = []
    stalled = 0
    for k in range(max_steps):
        if sup_difference(g, p.c) <= VALUE_TOL:  # the one stop short of the atoms
            break
        x0 = epsf if k % 2 == 0 else Fraction(0)
        f = _support_line_through(p.c, x0, g.evaluate(x0), "left" if k % 2 == 0 else "right")
        st = _step(g, f)
        stalled = stalled + 1 if st is None else 0
        if stalled == 2:  # two lines in a row cut nothing
            break
        if st is not None:
            steps.append(st)
            g = st.potential_after
    return EmbeddingPlan(mu0, target, p.C, tuple(steps))


# ---------------------------------------------------------------------------
# derived quantities


def tangent_ratio_min(u0: PLConcave, c: PLConcave, x: Real):
    """Exact min over lambda < x of (u0(x) - c(lambda)) / (x - lambda);
    c(x) must not exceed u0(x) (InvalidParameterError).

    The ratio r is the slope of the chord from (lambda, c(lambda)) to
    (x, u0(x)).  It is monotone between kinks of c, and since c is concave
    its sublevel sets are intervals.  It is equal at two consecutive kinks
    only when c's segment between them lies on a line through (x, u0(x)),
    and then that value is its minimum.  So over c's kinks below x, r falls
    (strictly, but for that one segment) and then rises strictly: the first
    kink i with r(i) < r(i+1), found by bisection, or else the last kink
    below x, is the largest kink minimizer.  The kinks of u0 never change
    the result.  The other candidates are the two limiting directions:
    lambda -> -inf (value = left slope of c) and lambda -> x- (defined when
    u0(x) = c(x); value = left derivative of c at x).  Returns
    (min_value, largest_minimizer) where the minimizer is a Fraction, x
    itself for the lambda -> x- direction, or float('-inf').
    """
    xf = frac(x)
    A, cx = u0.evaluate(xf), c.evaluate(xf)
    if cx > A:  # the ratio would fall to -inf as lambda -> x-
        raise InvalidParameterError(f"c({xf}) = {cx} lies above u0({xf}) = {A}")
    xs, values = c.xs, c.values
    m = bisect_left(xs, xf)  # c's kinks below x

    @cache  # the bisection and the candidates revisit kinks
    def r(i):
        return (A - values[i]) / (xf - xs[i])

    items: list[tuple[Fraction, Union[Fraction, float]]] = []
    if m:
        i = bisect_left(range(m - 1), True, key=lambda k: r(k) < r(k + 1))
        items.append((r(i), xs[i]))
    items.append((c.slopes[0], float("-inf")))
    if cx == A:
        items.append((c.derivatives(xf)[0], xf))
    best = min(v for v, _ in items)
    arg = max(k for v, k in items if v == best)
    return best, arg


def barycentre_phi(mu0: AtomicMeasure, target: AtomicMeasure, x: Real):
    """Largest minimizer of the tangent ratio at x: the level to which the
    process may fall, given running maximum x, before the Azema-Yor rule
    stops it.  At a contact point of the two potentials the minimizing
    direction is lambda -> x- and x itself is returned (stop on arrival);
    where the maximum-law bound vanishes the value is undefined.
    """
    p = pair(mu0, target)
    best, arg = tangent_ratio_min(p.u0, p.c, x)
    bound = (1 + best) / 2
    if bound <= 0:
        raise UndefinedBarycentreError(f"maximum-law bound vanishes at x={x}")
    return arg


def expected_local_time_zero(plan: EmbeddingPlan) -> Fraction:
    """u_mu0(0) minus the final potential at 0: the expected local time at
    level zero accumulated by the embedding."""
    if not plan.complete:
        raise IncompletePlanError("expected local time requires a complete plan")
    return pair(plan.mu0, plan.target).u0.evaluate(0) - plan.final_potential.evaluate(0)
