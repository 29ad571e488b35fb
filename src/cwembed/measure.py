"""Atomic measures on the line and their piecewise-linear concave potentials.

All arithmetic is exact: positions, weights and function values are stored as
``fractions.Fraction``.  Floats passed in are converted exactly (every float
is a rational), so identities such as mass conservation, potential round-trips
and crossing computations hold with zero error.

A pair (mu0, target) fixes the potentials u0, ut, the gap constant C,
c = ut - C and the contact set where u0 = c; ``pair`` computes them once,
in one pass over the kinks, keeping the last pair asked for.
It raises InvalidParameterError unless both masses are exactly 1, so float
thirds (mass 1 - 2**-54) are rejected, never rounded.  ``frac`` also reads
numbers from outside: it refuses a bool and any magnitude beyond a double,
and a decimal must not underflow.  MASS_TOL bounds the CLI's rescale of spec
weights; VALUE_TOL is where the Vallois iteration, the only construction that
ends off the target atoms, may stop: a plan's ``complete`` and ``close_to``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import InvalidParameterError, MalformedPotentialError

Real = Union[int, float, Fraction]
Endpoint = Union[Fraction, float]  # float only for +-inf

#: how far above or below 1 a measure's mass may be; the CLI rescales a
#: spec measure whose decimals miss 1 by at most this to mass exactly 1
MASS_TOL = Fraction(1, 10**12)
#: residual at which a Vallois plan, the only one off the target atoms, is done
VALUE_TOL = Fraction(1, 10**9)


def frac(x: Union[Real, str]) -> Fraction:
    """Exact conversion to Fraction (floats convert without rounding).  A
    bool is refused, and so is a magnitude beyond a double's range; a string
    is "p/q" or a decimal that is 0 or within that range, checked before any
    power of ten is built.  A "p/q" may underflow a double."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError(f"expected a number, got {x}")
    if isinstance(x, str) and "/" not in x:
        approx, exact = float(x), Decimal(x)
        if not math.isfinite(approx) or (approx == 0) != exact.is_zero():
            raise _out_of_range(x)
        return Fraction(exact)
    q = Fraction(x)
    try:
        float(q)
    except OverflowError:
        raise _out_of_range(x) from None
    return q


def _out_of_range(x) -> ValueError:
    """The refusal of ``x``; a long number is shown by its head and length.
    A long int is cut by arithmetic: ``str`` refuses one of over 4300 digits."""
    if isinstance(x, int) and abs(x) >= 10**40:
        n = abs(x)
        d = int((n.bit_length() - 1) * math.log10(2)) + 1  # n's digits, or one fewer
        d += n >= 10**d
        s = f"{'-' * (x < 0)}{n // 10 ** (d - 20 + (x < 0))}... ({d} digits)"
    else:
        s = str(x)
        s = s if len(s) <= 40 else f"{s[:20]}... ({sum(map(str.isdigit, s))} digits)"
    return ValueError(f"number {s} is out of range")


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported sub-probability measure.

    ``atoms`` is a tuple of (position, weight) pairs with strictly increasing
    positions and strictly positive weights; total mass must lie in [0, 1].
    Instances are immutable and safe to share between threads.
    """

    atoms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        prev = None
        total = Fraction(0)
        for x, w in self.atoms:
            if w <= 0:
                raise ValueError(f"atom weight must be positive, got {w} at {x}")
            if prev is not None and x <= prev:
                raise ValueError("atom positions must be strictly increasing")
            prev = x
            total += w
        if total > 1 + MASS_TOL:
            raise ValueError(f"total mass {total} exceeds 1")

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[Real]]) -> "AtomicMeasure":
        """Build a canonical measure: sort, merge coincident positions, drop zeros."""
        merged: dict[Fraction, Fraction] = {}
        for x, w in pairs:
            xf, wf = frac(x), frac(w)
            if wf < 0:
                raise ValueError(f"negative weight {w} at {x}")
            if wf == 0:
                continue
            merged[xf] = merged.get(xf, Fraction(0)) + wf
        atoms = tuple(sorted(merged.items()))
        return cls(atoms)

    @classmethod
    def point(cls, x: Real, w: Real = 1) -> "AtomicMeasure":
        return cls.from_pairs([(x, w)])

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def positions(self) -> tuple[Fraction, ...]:
        return tuple(x for x, _ in self.atoms)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for _, w in self.atoms)

    @cached_property
    def total_mass(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def __hash__(self) -> int:  # every ``pair`` lookup hashes both measures
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self.atoms)

    def is_probability(self) -> bool:
        """Total mass exactly 1."""
        return self.total_mass == 1

    def mean(self) -> Fraction:
        """Barycentre sum(w*x)/sum(w); undefined for the zero measure."""
        if not self.atoms:
            raise ValueError("mean of the zero measure is undefined")
        return sum((w * x for x, w in self.atoms), Fraction(0)) / self.total_mass

    # -- operations -------------------------------------------------------

    def potential(self) -> "PLConcave":
        """The compensated potential x -> -sum_i w_i |x - x_i|."""
        if not self.atoms:
            return PLConcave(Fraction(0), (), (Fraction(0), Fraction(0)))
        x0 = self.atoms[0][0]
        v0 = -sum((w * abs(x0 - x) for x, w in self.atoms), Fraction(0))
        bps = tuple((x, 2 * w) for x, w in self.atoms)
        return PLConcave(self.total_mass, bps, (x0, v0))

    def close_to(self, other: "AtomicMeasure", tol: Fraction = VALUE_TOL) -> bool:
        """Atom-by-atom agreement of positions and weights within tol, by
        default VALUE_TOL: only a Vallois plan ends off the target atoms."""
        if len(self.atoms) != len(other.atoms):
            return False
        return all(
            abs(x - y) <= tol and abs(v - w) <= tol
            for (x, v), (y, w) in zip(self.atoms, other.atoms)
        )

    # -- wire format -------------------------------------------------------

    def to_wire(self) -> list[list[str]]:
        """Canonical JSON form: ascending [position, weight] pairs, each an
        exact "p/q" string, so reading it back gives this measure."""
        return [[str(x), str(w)] for x, w in self.atoms]

    @classmethod
    def from_wire(cls, data) -> "AtomicMeasure":
        """Inverse of to_wire; numbers are accepted too and convert exactly."""
        return cls.from_pairs(data)


@dataclass(frozen=True)
class PLConcave:
    """Piecewise-linear concave function.

    Stored as the slope at -inf, breakpoints (x, slope_drop) with strictly
    increasing x and strictly positive drops, and one (x, value) anchor fixing
    the additive level.  The potential of a measure of mass m has left slope
    +m, right slope -m and a drop of 2w at each atom.
    """

    left_slope: Fraction
    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    anchor: tuple[Fraction, Fraction]

    def __post_init__(self):
        prev = None
        for x, d in self.breakpoints:
            if d <= 0:
                raise ValueError(f"slope drop must be positive, got {d} at {x}")
            if prev is not None and x <= prev:
                raise ValueError("breakpoints must be strictly increasing")
            prev = x

    # -- geometry ----------------------------------------------------------

    @cached_property
    def xs(self) -> tuple[Fraction, ...]:
        return tuple(x for x, _ in self.breakpoints)

    @cached_property
    def slopes(self) -> tuple[Fraction, ...]:
        """Segment slopes; slopes[i] applies left of breakpoint i,
        slopes[-1] right of the last breakpoint."""
        out = [self.left_slope]
        for _, d in self.breakpoints:
            out.append(out[-1] - d)
        return tuple(out)

    @property
    def right_slope(self) -> Fraction:
        return self.slopes[-1]

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """Function values at the breakpoints."""
        if not self.breakpoints:
            return ()
        (x0, y0), xs, slopes = self.anchor, self.xs, self.slopes
        rise = list(accumulate((s * (b - a) for s, a, b in zip(slopes[1:], xs, xs[1:])),
                               initial=Fraction(0)))  # the values less values[0]
        k = bisect_right(xs, x0)  # the anchor lies on segment k
        r = max(k - 1, 0)
        level = y0 - rise[r] - slopes[k] * (x0 - xs[r])
        return tuple(v + level for v in rise)

    def __call__(self, x: Real) -> Fraction:
        return self.evaluate(x)

    def evaluate(self, x: Real) -> Fraction:
        xf = frac(x)
        if not self.breakpoints:
            x0, y0 = self.anchor
            return y0 + self.left_slope * (xf - x0)
        j = bisect_right(self.xs, xf)  # x lies on segment j
        r = max(j - 1, 0)
        return self.values[r] + self.slopes[j] * (xf - self.xs[r])

    def values_at(self, pts: Sequence[Fraction]) -> list[Fraction]:
        """``[self.evaluate(x) for x in pts]`` for ascending Fractions ``pts``
        (repeats allowed), in one walk over the kinks: a kink's value is
        read from ``values``, any other point costs one multiply-add.  An
        affine function walks from its anchor, as from a kink of drop 0."""
        xs, slopes, values = ((self.xs, self.slopes, self.values) if self.breakpoints else
                              ((self.anchor[0],), self.slopes * 2, (self.anchor[1],)))
        out, j, n = [], 0, len(xs)
        for x in pts:
            while j < n and xs[j] <= x:
                j += 1
            r = max(j - 1, 0)  # x lies on segment j, measured from kink r
            out.append(values[r] if x == xs[r] else values[r] + slopes[j] * (x - xs[r]))
        return out

    def derivatives(self, x: Real) -> tuple[Fraction, Fraction]:
        """(left, right) derivatives at x."""
        xf = frac(x)
        j = bisect_left(self.xs, xf)
        if j < len(self.xs) and self.xs[j] == xf:
            return self.slopes[j], self.slopes[j + 1]
        return self.slopes[j], self.slopes[j]

    def shift(self, c: Real) -> "PLConcave":
        """Add the constant c (O(1): anchor update only)."""
        x0, y0 = self.anchor
        return PLConcave(self.left_slope, self.breakpoints, (x0, y0 + frac(c)))

    def _cut(self, lo: Optional[Fraction], hi: Optional[Fraction], slope: Fraction,
             intercept: Fraction) -> "PLConcave":
        """min(self, line) for the line x -> slope*x + intercept that lies
        strictly below self exactly on (lo, hi), None for an infinite end.
        The result shares self's pieces outside [lo, hi]; the kinks at lo and
        hi are the only new ones, and the only ones checked."""
        xs, slopes, values, bps = self.xs, self.slopes, self.values, self.breakpoints
        i = 0 if lo is None else bisect_left(xs, lo)  # xs[:i] lie left of lo
        j = len(xs) if hi is None else bisect_right(xs, hi)  # xs[j:] right of hi
        kinks = (() if lo is None else ((lo, slopes[i] - slope),)) + (
            () if hi is None else ((hi, slope - slopes[j]),))
        if any(d <= 0 for _, d in kinks):
            raise ValueError(f"a cut must add kinks of positive drop, got {kinks}")
        kx = tuple(x for x, _ in kinks)
        kv = tuple(slope * x + intercept for x in kx)
        g = object.__new__(PLConcave)  # the kept pieces are valid already
        g.__dict__.update(left_slope=self.left_slope if lo is not None else slope,
                          breakpoints=bps[:i] + kinks + bps[j:], anchor=(kx[-1], kv[-1]),
                          xs=xs[:i] + kx + xs[j:], values=values[:i] + kv + values[j:],
                          slopes=(slopes[:i + 1] if lo is not None else ()) + (slope,)
                          + (slopes[j:] if hi is not None else ()))
        return g

    # -- inverse -----------------------------------------------------------

    def measure(self) -> AtomicMeasure:
        """The measure whose potential this is, up to the additive anchor.

        Requires a measure-type slope profile: left slope +m, right slope -m.
        """
        if self.left_slope + self.right_slope != 0 or self.left_slope < 0:
            raise MalformedPotentialError(
                f"slope profile ({self.left_slope}, {self.right_slope}) is not of measure type"
            )
        return AtomicMeasure(tuple((x, d / 2) for x, d in self.breakpoints))


def kink_probes(*fns: PLConcave) -> list[Fraction]:
    """The union of the breakpoints of ``fns`` plus one point beyond each
    end, where all of them are affine; [0] when none has a breakpoint."""
    xs = sorted(set().union(*(f.xs for f in fns)))
    return [xs[0] - 1, *xs, xs[-1] + 1] if xs else [Fraction(0)]


def sup_difference(f: PLConcave, g: PLConcave) -> Fraction:
    """Exact sup |f - g| over the line.

    Finite only when the extreme slopes agree (e.g. both functions are
    potentials of probability measures, possibly shifted); raises ValueError
    when they differ.  The supremum is attained on the union of breakpoints,
    walked once per function, or at the asymptotic difference.  With equal
    breakpoints (an exact plan's final potential and c) f - g is constant.
    """
    if f.left_slope != g.left_slope or f.right_slope != g.right_slope:
        raise ValueError("sup difference is unbounded: extreme slopes differ")
    if f.breakpoints == g.breakpoints:
        x0, y0 = g.anchor
        return abs(f.evaluate(x0) - y0)
    probes = kink_probes(f, g)
    return max(abs(a - b) for a, b in zip(f.values_at(probes), g.values_at(probes)))


class Pair(NamedTuple):
    """The invariants of a pair (mu0, target): both potentials, the gap
    constant C (the least admissible downward shift of ut), c = ut - C and
    the contact set where u0 = c as ascending closed components, with an
    infinite end where a whole ray is in contact."""

    u0: PLConcave
    ut: PLConcave
    C: Fraction
    c: PLConcave
    contact: tuple[tuple[Endpoint, Endpoint], ...]


@lru_cache(maxsize=1)
def pair(mu0: AtomicMeasure, target: AtomicMeasure) -> Pair:
    """The pair's invariants, kept for the last pair asked for.  One walk per
    potential evaluates the gap ut - u0 at the kinks and on the two rays: C
    is its largest value (>= 0), and as the gap is affine between kinks, the
    contact set is the runs of probes where it equals C.  Raises
    InvalidParameterError unless both measures have mass exactly 1."""
    if not (mu0.is_probability() and target.is_probability()):
        raise InvalidParameterError(
            f"a pair needs mass exactly 1, got {mu0.total_mass} and {target.total_mass}"
        )
    u0, ut = mu0.potential(), target.potential()
    probes = kink_probes(u0, ut)
    gaps = [b - a for a, b in zip(u0.values_at(probes), ut.values_at(probes))]
    C = max(gaps)
    contact: list[tuple[Endpoint, Endpoint]] = []
    for k, x in enumerate([-math.inf, *probes[1:-1], math.inf]):  # ends: the rays
        if gaps[k] == C:  # consecutive contact probes make one component
            contact.append((contact.pop()[0] if k and gaps[k - 1] == C else x, x))
    return Pair(u0, ut, C, ut.shift(-C), tuple(contact))


def gap_constant(mu0: AtomicMeasure, target: AtomicMeasure) -> Fraction:
    """sup_x { u_target(x) - u_mu0(x) }, the gap constant C of ``pair``."""
    return pair(mu0, target).C
