"""Minimality invariants of an embedding: the contact set of the two
potentials, the gap constant, the maximum-law bound and its attainment by the
Azema-Yor construction, and structural plus empirical (Monte Carlo) checks
that a plan never crosses the contact set.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Sequence

from .balayage import Interval, _sweep
from .construct import EmbeddingPlan, ay_sweep, cw_run, tangent_ratio_min
from .errors import IncompletePlanError
from .measure import AtomicMeasure, Endpoint, Real, _last_pair, frac, gap_constant, pair

__all__ = [
    "ContactRegion",
    "MinimalityReport",
    "TailEstimate",
    "gap_constant",
    "contact_region",
    "max_law_bound",
    "ay_max_law",
    "minimality_report",
]


@dataclass(frozen=True)
class ContactRegion:
    """Exact equality set of u_mu0 and u_target - C over the extended line.

    ``components`` are closed intervals (points appear as degenerate
    intervals); an endpoint of float('inf') magnitude records that the
    asymptotic gap vanishes on that side.
    """

    components: tuple[tuple[Endpoint, Endpoint], ...]

    @property
    def a_minus(self) -> Endpoint:
        return self.components[0][0] if self.components else math.inf

    @property
    def a_plus(self) -> Endpoint:
        return self.components[-1][1] if self.components else -math.inf

    def meets_open_interval(self, lo, hi) -> bool:
        """True iff some real point of the region lies strictly inside
        (lo, hi); None endpoints are infinite."""
        lo_eff = -math.inf if lo is None else lo
        hi_eff = math.inf if hi is None else hi
        return any(clo < hi_eff and chi > lo_eff for clo, chi in self.components)

    def to_wire(self) -> list:
        def enc(v):
            return None if isinstance(v, float) and math.isinf(v) else float(v)

        return [[enc(lo), enc(hi)] for lo, hi in self.components]


def contact_wire(C: Fraction, region: ContactRegion) -> dict:
    """The C, region, a_minus and a_plus fields of analyze and verify output."""
    wire = region.to_wire()
    return {
        "C": float(C),
        "region": wire,
        "a_minus": wire[0][0] if wire else None,
        "a_plus": wire[-1][1] if wire else None,
    }


@dataclass(frozen=True)
class TailEstimate:
    """gamma-scaled exit-tail estimate for one level: gamma * P(the path
    crosses the level strictly before stopping, from the conditioned starts),
    with the matching scaled standard error."""

    gamma: float
    below: float
    below_se: float
    above: float
    above_se: float

    def to_wire(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MinimalityReport:
    C: Fraction
    region: ContactRegion
    structural_ok: bool
    tail_estimates: tuple[TailEstimate, ...]
    ui_embedding: bool

    def to_wire(self) -> dict:
        return {
            **contact_wire(self.C, self.region),
            "structural_ok": self.structural_ok,
            "tail_estimates": [t.to_wire() for t in self.tail_estimates],
            "ui_embedding": self.ui_embedding,
        }


def contact_region(mu0: AtomicMeasure, target: AtomicMeasure) -> ContactRegion:
    """Zero set of d = u_target - C - u_mu0 over [-inf, +inf], exactly: a
    finite union of kinks and flat segments, with an infinite end iff the
    asymptotic gap there is zero.  ``pair`` finds it in its pass for C."""
    return ContactRegion(pair(mu0, target).contact)


def max_law_bound(mu0: AtomicMeasure, target: AtomicMeasure, x: Real) -> Fraction:
    """Upper bound on P(running max >= x) over all minimal embeddings of the
    pair: inf over lambda < x of (1 + ratio)/2, clamped to [0, 1].  The
    tangent ratio's exact minimum is found by bisection over the kinks of
    c = u_target - C below x (see tangent_ratio_min)."""
    p = pair(mu0, target)
    best, _ = tangent_ratio_min(p.u0, p.c, x)
    bound = (1 + best) / 2
    return min(Fraction(1), max(Fraction(0), bound))


def _max_exceedance_exact(mu0: AtomicMeasure, intervals: Sequence[Interval], x: Real) -> Fraction:
    """P(running max >= x) from mu0 through these step intervals, exactly.

    Only the mass that has not reached x is kept: one mass per sorted
    position below x.  A step (a, b) is the balayage sweep of (a, min(b, x)),
    an infinite b counting as x; the mass that lands on x has reached x and
    leaves, and the answer is what has left.  The sweep moves only the mass
    strictly inside, so a step at or above x touches nothing."""
    xf = frac(x)
    xs = [pos for pos in mu0.positions if pos < xf]  # ascending
    mass = {pos: w for pos, w in mu0.atoms if pos < xf}
    for iv in intervals:
        b = xf if iv.upper is None else min(iv.upper, xf)
        if _sweep(xs, mass, iv.lower, b) and xs[-1] == xf:  # x is the last position
            del mass[xs.pop()]  # the mass that reached x leaves
    return mu0.total_mass - sum(mass.values(), Fraction(0))


@_last_pair
def _ay_intervals(mu0: AtomicMeasure, target: AtomicMeasure) -> tuple[Interval, ...]:
    """The step intervals of the pair's Azema-Yor plan, all the exact max law
    reads of it, kept for the last pair as ``pair`` keeps its; potentials go."""
    plan = cw_run(mu0, ay_sweep(mu0, target), target, gap_constant(mu0, target))
    return tuple(st.interval for st in plan.steps)


def ay_max_law(mu0: AtomicMeasure, target: AtomicMeasure, x: Real) -> Fraction:
    """Exact P(running max >= x) under the Azema-Yor plan for the pair,
    integrated over the starting law; attains max_law_bound wherever the
    bound is positive.  The pair's plan is built once (see ``_ay_intervals``),
    and each threshold sweeps only the mass that has not reached it."""
    return _max_exceedance_exact(mu0, _ay_intervals(mu0, target), x)


def _structural_ok(plan: EmbeddingPlan, region: ContactRegion) -> bool:
    """No step interval strictly contains a point of the contact set; touching
    at an endpoint is allowed (absorption is permitted, crossing is not)."""
    return not any(region.meets_open_interval(st.interval.lower, st.interval.upper)
                   for st in plan.steps)


def minimality_report(
    plan: EmbeddingPlan,
    n_paths: int,
    gammas: Sequence[float],
    seed: int,
) -> MinimalityReport:
    """Assemble the analytic and empirical minimality evidence for a plan.

    Structural check: no balayage interval strictly contains a contact point.
    Empirical check: for each gamma, gamma-scaled Monte Carlo estimates of the
    probability of crossing -/+gamma strictly before stopping, restricted to
    starts at or above a_minus / at or below a_plus, with binomial standard
    errors.  Deterministic given the seed.
    """
    from . import simulate  # numpy loads only when a report is made
    if not plan.complete:
        raise IncompletePlanError("minimality report requires a complete plan")
    C = gap_constant(plan.mu0, plan.target)
    region = contact_region(plan.mu0, plan.target)
    structural = _structural_ok(plan, region)
    tails = []
    for gamma in gammas:
        below, below_se = simulate.tail_probability(plan, gamma, "below", region, n_paths, seed)
        above, above_se = simulate.tail_probability(plan, gamma, "above", region, n_paths, seed)
        g = float(gamma)
        tails.append(TailEstimate(g, g * below, g * below_se, g * above, g * above_se))
    ui = C == 0 and plan.mu0.mean() == plan.target.mean()
    return MinimalityReport(C, region, structural, tuple(tails), ui)
