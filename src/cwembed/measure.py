"""Atomic measures on the line and their piecewise-linear concave potentials.

All arithmetic is exact: positions, weights and function values are stored as
``fractions.Fraction``.  Floats passed in are converted exactly (every float
is a rational), so identities such as mass conservation, potential round-trips
and crossing computations hold with zero error.

A potential is a ``PLConcave``, one table of its kinks, the n + 1 slopes
around them and its values there (an affine function is the one kink at 0,
of drop 0), so ``==`` is equality of functions.  The constructor checks a
table; the potentials and shifts built here, and the cuts that
``construct`` builds, skip that (``_table``).

A pair (mu0, target) fixes the potentials u0, ut, the gap constant C,
c = ut - C and the contact set where u0 = c; ``pair`` computes them in one
pass over the kinks and keeps the last pair (an equal pair hits, re-keying
it).  It raises InvalidParameterError unless both masses are exactly 1, so
float thirds (mass 1 - 2**-54) are rejected, never rounded.  ``frac`` reads
numbers from outside: it refuses a bool and any magnitude beyond a double,
and a decimal must not underflow, nor need over 4300 digits as p/q.
MASS_TOL bounds the CLI's rescale of spec weights; VALUE_TOL is where the
Vallois iteration, the only construction that ends off the target atoms, may
stop: a plan's ``complete`` and ``close_to``.  MAX_PATHS bounds one Monte
Carlo pass; it is kept here so that the CLI checks a spec's path count
without importing ``simulate``, and numpy with it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import update_wrapper
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import InvalidParameterError, MalformedPotentialError

Real = Union[int, float, Fraction]
Endpoint = Union[Fraction, float]  # float only for +-inf

#: how far above or below 1 a measure's mass may be; the CLI rescales a
#: spec measure whose decimals miss 1 by at most this to mass exactly 1
MASS_TOL = Fraction(1, 10**12)
#: residual at which a Vallois plan, the only one off the target atoms, is done
VALUE_TOL = Fraction(1, 10**9)
#: most paths one Monte Carlo pass simulates: at 48 bytes a path, a pass at
#: the ceiling holds about 0.5 GB, the old pass let go first
MAX_PATHS = 10**7
_TOO_LONG = 10**4300  # the least int of 4301 digits, past str's int-string limit


def _too_long(q: Fraction) -> bool:
    """q's p/q needs over 4300 digits, so ``str`` cannot write it."""
    return max(abs(q.numerator), q.denominator) >= _TOO_LONG


def frac(x: Union[Real, str]) -> Fraction:
    """Exact conversion to Fraction (floats convert without rounding).  A
    bool is refused, and so is a magnitude beyond a double's range; a string
    is "p/q" or a decimal that is 0 or within that range, checked before any
    power of ten is built, and whose p/q has at most 4300 digits each, so
    ``str`` can write it.  A "p/q" may underflow a double."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError(f"expected a number, got {x}")
    if isinstance(x, str) and "/" not in x:
        approx, exact = float(x), Decimal(x)
        if not math.isfinite(approx) or (approx == 0) != exact.is_zero():
            raise ValueError(f"number {_brief(x)} is out of range")
        q = Fraction(exact)
        if _too_long(q):
            raise ValueError(f"number {_brief(x)} has a p/q of over 4300 digits")
        return q
    q = Fraction(x)
    try:
        float(q)
    except OverflowError:
        raise ValueError(f"number {_brief(x)} is out of range") from None
    return q


def _brief(x) -> str:
    """``x`` for a message: a number of over 40 characters is shown by its
    first 20 and its digit count.  A long int is cut by arithmetic: ``str``
    refuses one of over 4300 digits."""
    if isinstance(x, int) and abs(x) >= 10**40:
        n = abs(x)
        d = int((n.bit_length() - 1) * math.log10(2)) + 1  # n's digits, or one fewer
        d += n >= 10**d
        return f"{'-' * (x < 0)}{n // 10 ** (d - 20 + (x < 0))}... ({d} digits)"
    s = str(x)
    return s if len(s) <= 40 else f"{s[:20]}... ({sum(map(str.isdigit, s))} digits)"


def _less(a: Fraction, b: Fraction) -> bool:
    """a < b for Fractions or ints, cross-multiplied on integers."""
    return a.numerator * b.denominator < b.numerator * a.denominator


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported sub-probability measure.

    ``atoms`` is a tuple of (position, weight) pairs with strictly increasing
    positions and strictly positive weights; total mass must lie in
    [0, 1 + MASS_TOL]: the CLI builds a spec measure, then rescales it to 1.
    Instances are immutable and safe to share between threads.
    """

    atoms: tuple[tuple[Fraction, Fraction], ...]
    total_mass: Fraction = field(init=False, repr=False, compare=False)  # the weights' sum

    def __post_init__(self):
        prev = None
        for x, w in self.atoms:
            if w.numerator <= 0:
                raise ValueError(f"atom weight must be positive, got {w} at {x}")
            if prev is not None and not _less(prev, x):
                raise ValueError("atom positions must be strictly increasing")
            prev = x
        den = math.lcm(*(w.denominator for _, w in self.atoms))  # the weights' sum, on integers
        total = Fraction(sum(w.numerator * (den // w.denominator) for _, w in self.atoms), den)
        if total > 1 + MASS_TOL:
            raise ValueError(f"total mass {total} exceeds 1")
        self.__dict__["total_mass"] = total  # the one sum of the weights, kept

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[Real]]) -> "AtomicMeasure":
        """Build a canonical measure: sort, merge coincident positions, drop
        zeros.  Strictly ascending input, as specs and wire forms are, is
        taken in one pass; only input out of order is merged and sorted."""
        atoms, ascending = [], True
        for x, w in pairs:
            xf, wf = frac(x), frac(w)
            if wf.numerator < 0:
                raise ValueError(f"negative weight {w} at {x}")
            if wf.numerator:
                ascending = ascending and (not atoms or _less(atoms[-1][0], xf))
                atoms.append((xf, wf))
        if not ascending:
            merged: dict[Fraction, Fraction] = {}
            for xf, wf in atoms:
                merged[xf] = merged[xf] + wf if xf in merged else wf
            atoms = sorted(merged.items())
        return cls(tuple(atoms))

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
            return _table((Fraction(0),), (Fraction(0),) * 2, (Fraction(0),))
        xs = self.positions
        slopes = tuple(accumulate((-2 * w for _, w in self.atoms), initial=self.total_mass))
        v0 = -sum((w * (x - xs[0]) for x, w in self.atoms), Fraction(0))
        return _table(xs, slopes, tuple(accumulate(
            (s * (b - a) for s, a, b in zip(slopes[1:], xs, xs[1:])), initial=v0)))

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
    """Piecewise-linear concave function, stored as one kink table.

    ``xs`` holds the kinks, strictly increasing; ``slopes`` the n + 1 segment
    slopes, slopes[i] left of kink i and slopes[-1] right of the last; and
    ``values`` the function at each kink.  Each drop slopes[i] - slopes[i + 1]
    is positive, except in an affine function: the one kink at 0, of drop 0.
    So a function has one table.  The potential of a measure of mass m has
    slopes from +m down to -m and a drop of 2w at each atom.
    """

    xs: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        xs, slopes, values = self.xs, self.slopes, self.values
        if not len(xs) == len(values) == len(slopes) - 1 > 0:
            raise ValueError("need n >= 1 kinks, n values and n + 1 slopes")
        for k, x in enumerate(xs):
            if slopes[k] < slopes[k + 1] or slopes[k] == slopes[k + 1] and xs != (0,):
                raise ValueError(f"slope drop at {x} must be positive")
            if k and x <= xs[k - 1]:
                raise ValueError("kinks must be strictly increasing")
            if k and values[k] != values[k - 1] + slopes[k] * (x - xs[k - 1]):
                raise ValueError(f"value {values[k]} at {x} does not follow the slopes")

    # -- geometry ----------------------------------------------------------

    @property
    def left_slope(self) -> Fraction:
        return self.slopes[0]

    @property
    def right_slope(self) -> Fraction:
        return self.slopes[-1]

    @property
    def breakpoints(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(x, slope drop) at each kink of positive drop: none when affine."""
        slopes = self.slopes
        return tuple((x, a - b) for x, a, b in zip(self.xs, slopes, slopes[1:]) if a != b)

    def __call__(self, x: Real) -> Fraction:
        return self.evaluate(x)

    def evaluate(self, x: Real) -> Fraction:
        xf = frac(x)
        j = bisect_right(self.xs, xf)  # x lies on segment j
        r = max(j - 1, 0)
        return self.values[r] + self.slopes[j] * (xf - self.xs[r])

    def values_at(self, pts: Sequence[Fraction]) -> list[Fraction]:
        """``[self.evaluate(x) for x in pts]`` for ascending Fractions ``pts``
        (repeats allowed), in one walk over the kinks: a kink's value is
        read from ``values``, any other point costs one multiply-add."""
        xs, slopes, values = self.xs, self.slopes, self.values
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
        return self.slopes[bisect_left(self.xs, xf)], self.slopes[bisect_right(self.xs, xf)]

    def shift(self, c: Real) -> "PLConcave":
        """Add the constant c: one addition per kink value."""
        cf = frac(c)
        return _table(self.xs, self.slopes, tuple(v + cf for v in self.values))

    # -- inverse -----------------------------------------------------------

    def measure(self) -> AtomicMeasure:
        """The measure whose potential this is, up to an additive constant.

        Requires a measure-type slope profile: left slope +m, right slope -m.
        """
        if self.left_slope + self.right_slope != 0 or self.left_slope < 0:
            raise MalformedPotentialError(
                f"slope profile ({self.left_slope}, {self.right_slope}) is not of measure type"
            )
        return AtomicMeasure(tuple((x, d / 2) for x, d in self.breakpoints))


def _table(xs: tuple, slopes: tuple, values: tuple) -> PLConcave:
    """A table valid by construction, the one way past the checks: a
    measure's potential, a shift, and a cut of ``construct._step``."""
    f = object.__new__(PLConcave)
    f.__dict__.update(xs=xs, slopes=slopes, values=values)
    return f


def _gaps(f: PLConcave, g: PLConcave) -> tuple[list[Fraction], list[Fraction]]:
    """The union of the kinks of f and g plus one point beyond each end,
    where both are affine, and g - f at each of them, in one walk per
    function."""
    xs = sorted(set(f.xs).union(g.xs))
    probes = [xs[0] - 1, *xs, xs[-1] + 1]
    return probes, [b - a for a, b in zip(f.values_at(probes), g.values_at(probes))]


def sup_difference(f: PLConcave, g: PLConcave) -> Fraction:
    """Exact sup |f - g| over the line.

    Finite only when the extreme slopes agree (e.g. both functions are
    potentials of probability measures, possibly shifted); raises ValueError
    when they differ.  The supremum is attained on the union of kinks,
    walked once per function, or at the asymptotic difference.  With equal
    kinks and slopes (an exact plan's final potential and c) f - g is
    constant.
    """
    if f.left_slope != g.left_slope or f.right_slope != g.right_slope:
        raise ValueError("sup difference is unbounded: extreme slopes differ")
    if f.xs == g.xs and f.slopes == g.slopes:
        return abs(f.values[0] - g.values[0])
    return max(map(abs, _gaps(f, g)[1]))


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


class _last_pair:
    """One-entry memo of ``f(mu0, target)``: a lookup checks identity, then
    equality, and an equal hit re-keys the entry to the caller's measures.
    Replaced whole, never mutated: concurrent callers at worst compute twice."""

    def __init__(self, f):
        update_wrapper(self, f)  # f is ``__wrapped__``; an error it raises is never kept
        self._last = None

    def __call__(self, mu0: AtomicMeasure, target: AtomicMeasure):
        last = self._last
        if last is None or last[0] is not mu0 or last[1] is not target:
            hit = last is not None and last[0] == mu0 and last[1] == target
            last = self._last = (mu0, target, last[2] if hit else self.__wrapped__(mu0, target))
        return last[2]

    def cache_clear(self) -> None:
        self._last = None


@_last_pair
def pair(mu0: AtomicMeasure, target: AtomicMeasure) -> Pair:
    """The pair's invariants, kept for the last pair asked for (an equal pair
    hits).  One walk per potential evaluates the gap ut - u0 at the kinks and
    on the two rays: C is its largest value (>= 0), and as the gap is affine
    between kinks, the contact set is the runs of probes where it equals C.
    Raises InvalidParameterError unless both measures have mass exactly 1."""
    if not (mu0.is_probability() and target.is_probability()):
        raise InvalidParameterError(
            f"a pair needs mass exactly 1, got {mu0.total_mass} and {target.total_mass}"
        )
    u0, ut = mu0.potential(), target.potential()
    probes, gaps = _gaps(u0, ut)
    C = max(gaps)
    contact: list[tuple[Endpoint, Endpoint]] = []
    for k, x in enumerate([-math.inf, *probes[1:-1], math.inf]):  # ends: the rays
        if gaps[k] == C:  # consecutive contact probes make one component
            contact.append((contact.pop()[0] if k and gaps[k - 1] == C else x, x))
    return Pair(u0, ut, C, ut.shift(-C), tuple(contact))


def gap_constant(mu0: AtomicMeasure, target: AtomicMeasure) -> Fraction:
    """sup_x { u_target(x) - u_mu0(x) }, the gap constant C of ``pair``."""
    return pair(mu0, target).C
