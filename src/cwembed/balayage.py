"""Balayage of atomic measures onto the complement of an open interval.

Sweeping the mass of the closed interval to its endpoints realizes the law of
Brownian motion, started from the measure, at the first exit of the open
interval.  Finite intervals preserve mass and mean; semi-infinite intervals
preserve mass and shift the mean by -+ delta_m.  One in-place sweep,
``_sweep``, holds this exit law for ``balayage`` and the exact max law.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional

from .errors import InvalidIntervalError
from .measure import AtomicMeasure, Real, frac

Side = Literal["above", "below"]


@dataclass(frozen=True)
class Interval:
    """Open interval with optionally infinite endpoints (None = infinite)."""

    lower: Optional[Fraction]
    upper: Optional[Fraction]

    def __post_init__(self):
        if self.lower is None and self.upper is None:
            raise InvalidIntervalError("interval must have at least one finite endpoint")
        if self.lower is not None and self.upper is not None and self.lower >= self.upper:
            raise InvalidIntervalError(f"empty interval ({self.lower}, {self.upper})")

    @property
    def is_finite(self) -> bool:
        return self.lower is not None and self.upper is not None


def _sweep(xs: list, mass: dict, a: Optional[Fraction], b: Optional[Fraction]) -> bool:
    """Sweep, in place, the mass strictly inside (a, b) onto its finite ends,
    and say whether any moved.  ``xs`` holds the ascending positions and
    ``mass`` their weights.  An atom at x goes to a with weight
    (b - x)/(b - a) and to b with the rest; with one end infinite (None) all
    of it goes to the finite end.  Two bisections find the positions it
    moves, so the work follows the mass that moves."""
    i = 0 if a is None else bisect_right(xs, a)
    j = len(xs) if b is None else bisect_left(xs, b)
    if i >= j:
        return False
    inside = [(x, mass.pop(x)) for x in xs[i:j]]
    del xs[i:j]
    total = sum(w for _, w in inside)
    if a is not None and b is not None:
        to_a = sum(w * (b - x) for x, w in inside) / (b - a)
    else:
        to_a = total if b is None else 0
    for end, w in ((b, total - to_a), (a, to_a)):  # both land at index i, a before b
        if w and end in mass:
            mass[end] += w
        elif w:  # an infinite end gets nothing
            xs.insert(i, end)
            mass[end] = w
    return True


def balayage(m: AtomicMeasure, interval: Interval) -> AtomicMeasure:
    """The law at the first exit of the interval, started from m; mass
    outside the open interval is untouched."""
    lo, hi = interval.lower, interval.upper
    xs, mass = list(m.positions), dict(m.atoms)
    _sweep(xs, mass, lo if lo is None else frac(lo), hi if hi is None else frac(hi))
    return AtomicMeasure(tuple((x, mass[x]) for x in xs))


def balayage_finite(m: AtomicMeasure, a: Real, b: Real) -> AtomicMeasure:
    """Sweep the mass of [a, b] onto {a, b} with the exit-probability weights
    (b-x)/(b-a) and (x-a)/(b-a); mass outside is untouched.
    """
    return balayage(m, Interval(frac(a), frac(b)))


def balayage_semi(m: AtomicMeasure, a: Real, side: Side) -> AtomicMeasure:
    """Collapse the mass of the closed half line at a onto the atom at a.

    side="above" sweeps [a, inf), side="below" sweeps (-inf, a].
    """
    af = frac(a)
    if side not in ("above", "below"):
        raise ValueError(f"side must be 'above' or 'below', got {side!r}")
    return balayage(m, Interval(af, None) if side == "above" else Interval(None, af))


def delta_m(m: AtomicMeasure, a: Real, side: Side) -> Fraction:
    """int |x - a| m(dx) over the swept half line; the constant by which the
    potential drops off the interval under the semi-infinite balayage.
    """
    af = frac(a)
    if side == "above":
        return sum((w * (x - af) for x, w in m.atoms if x >= af), Fraction(0))
    if side == "below":
        return sum((w * (af - x) for x, w in m.atoms if x <= af), Fraction(0))
    raise ValueError(f"side must be 'above' or 'below', got {side!r}")
