"""Balayage of atomic measures onto the complement of an open interval.

Sweeping the mass of the closed interval to its endpoints realizes the law of
Brownian motion, started from the measure, at the first exit of the open
interval.  Finite intervals preserve mass and mean; semi-infinite intervals
preserve mass and shift the mean by -+ delta_m.
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


def balayage_finite(m: AtomicMeasure, a: Real, b: Real) -> AtomicMeasure:
    """Sweep the mass of [a, b] onto {a, b} with the exit-probability weights
    (b-x)/(b-a) and (x-a)/(b-a); mass outside is untouched.
    """
    af, bf = frac(a), frac(b)
    if af >= bf:
        raise InvalidIntervalError(f"need a < b, got a={af}, b={bf}")
    i, j = bisect_left(m.positions, af), bisect_right(m.positions, bf)
    swept = m.atoms[i:j]
    mass = sum((w for _, w in swept), Fraction(0))
    # the weights (b-x)/(b-a) summed over the swept atoms, in one division
    at_a = (bf * mass - sum((w * x for x, w in swept), Fraction(0))) / (bf - af)
    ends = tuple((x, w) for x, w in ((af, at_a), (bf, mass - at_a)) if w > 0)
    return AtomicMeasure(m.atoms[:i] + ends + m.atoms[j:])


def balayage_semi(m: AtomicMeasure, a: Real, side: Side) -> AtomicMeasure:
    """Collapse the mass of the closed half line at a onto the atom at a.

    side="above" sweeps [a, inf), side="below" sweeps (-inf, a].
    """
    af = frac(a)
    if side == "above":
        moved = [(x, w) for x, w in m.atoms if x >= af]
        kept = [(x, w) for x, w in m.atoms if x < af]
    elif side == "below":
        moved = [(x, w) for x, w in m.atoms if x <= af]
        kept = [(x, w) for x, w in m.atoms if x > af]
    else:
        raise ValueError(f"side must be 'above' or 'below', got {side!r}")
    total = sum((w for _, w in moved), Fraction(0))
    pairs = kept + ([(af, total)] if total > 0 else [])
    return AtomicMeasure.from_pairs(pairs)


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


def balayage(m: AtomicMeasure, interval: Interval) -> AtomicMeasure:
    """Dispatch on the interval kind."""
    if interval.is_finite:
        return balayage_finite(m, interval.lower, interval.upper)
    if interval.upper is None:
        return balayage_semi(m, interval.lower, "above")
    return balayage_semi(m, interval.upper, "below")
