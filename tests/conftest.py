import math
import random
from fractions import Fraction

from cwembed import (
    AtomicMeasure,
    EmbeddingPlan,
    EmbedError,
    Interval,
    Tangent,
    ay_sweep,
    cw_run,
    gap_constant,
    jacka_plan,
    reversed_ay_sweep,
    vallois_eps_plan,
)
from cwembed.measure import frac


def mass_below(m: AtomicMeasure, a) -> Fraction:
    """Mass of the open half line (-inf, a)."""
    af = frac(a)
    return sum((w for x, w in m.atoms if x < af), Fraction(0))


def mass_upto(m: AtomicMeasure, a) -> Fraction:
    """Mass of the closed half line (-inf, a]."""
    af = frac(a)
    return sum((w for x, w in m.atoms if x <= af), Fraction(0))


def reflect(m: AtomicMeasure) -> AtomicMeasure:
    """Image under x -> -x."""
    return AtomicMeasure(tuple((-x, w) for x, w in reversed(m.atoms)))


def make_interval(lower, upper) -> Interval:
    """The open interval (lower, upper), None for an infinite end."""
    return Interval(None if lower is None else frac(lower), None if upper is None else frac(upper))


def contains_strict(iv: Interval, x) -> bool:
    """x lies in the open interval iv."""
    xf = frac(x)
    return (iv.lower is None or xf > iv.lower) and (iv.upper is None or xf < iv.upper)


def plan_shift_constants(plan: EmbeddingPlan) -> list[Fraction]:
    """Cumulative potential shift after each step: the step's potential is
    the potential of its measure shifted down by it.  It holds across
    finite-interval steps and grows by delta_m at each semi-infinite one."""
    return [st.measure_after.potential().evaluate(0) - st.potential_after.evaluate(0)
            for st in plan.steps]


def sup_difference_by_probes(f, g) -> Fraction:
    """Reference sup |f - g|: each function evaluated at every probe of
    their kinks by its own bisection; ValueError when the extreme slopes
    differ."""
    if f.left_slope != g.left_slope or f.right_slope != g.right_slope:
        raise ValueError("sup difference is unbounded: extreme slopes differ")
    return max(abs(f.evaluate(x) - g.evaluate(x)) for x in probe_points(f, g))


class InvalidSplitError(EmbedError):
    """Split mass outside the admissible bracket at the split point."""


def split_at(m: AtomicMeasure, a, theta) -> tuple[AtomicMeasure, AtomicMeasure]:
    """Split m into (lower, upper): lower agrees with m on (-inf, a), is
    supported on (-inf, a] and has total mass theta; upper is the rest.  An
    atom at a is divided between the parts as needed."""
    af, th = Fraction(a), Fraction(theta)
    lo_mass, hi_mass = mass_below(m, af), mass_upto(m, af)
    if not lo_mass <= th <= hi_mass:
        raise InvalidSplitError(
            f"theta={th} outside admissible bracket [{lo_mass}, {hi_mass}] at {af}"
        )
    lower = [(x, w) for x, w in m.atoms if x < af]
    upper = [(x, w) for x, w in m.atoms if x > af]
    take = th - lo_mass
    if take > 0:
        lower.append((af, take))
    if hi_mass - th > 0:  # the rest of the atom at a
        upper.insert(0, (af, hi_mass - th))
    return AtomicMeasure(tuple(lower)), AtomicMeasure(tuple(upper))


def closure_contains(iv: Interval, x) -> bool:
    """x lies in the closed interval of iv."""
    return (iv.lower is None or x >= iv.lower) and (iv.upper is None or x <= iv.upper)


def random_prob_measure(rng: random.Random, max_atoms=8, span=10, denom=16) -> AtomicMeasure:
    """Random probability measure with rational atoms on a grid in [-span, span];
    weights normalize to exactly 1."""
    k = rng.randint(1, max_atoms)
    xs = rng.sample(range(-span * denom, span * denom + 1), k)
    ws = [rng.randint(1, 20) for _ in range(k)]
    tot = sum(ws)
    return AtomicMeasure.from_pairs(
        [(Fraction(x, denom), Fraction(w, tot)) for x, w in zip(xs, ws)]
    )


def grid_point(rng: random.Random, span=10, denom=16) -> Fraction:
    return Fraction(rng.randint(-span * denom, span * denom), denom)


def probe_points(*fns):
    """Union of the kinks of the given piecewise-linear functions plus one
    probe beyond each end (where all of them are affine)."""
    xs = sorted(set().union(*[set(f.xs) for f in fns]))
    return [xs[0] - 1] + xs + [xs[-1] + 1]


def contact_scan(mu0: AtomicMeasure, mu: AtomicMeasure) -> tuple:
    """Reference contact set of a pair: fresh potentials, the gap constant
    by a scan over their kinks, and the zero set of c - u0 assembled kink by
    kink, with +-inf ends for rays of zero gap."""
    u0, ut = mu0.potential(), mu.potential()
    probes = probe_points(u0, ut)
    C = max(ut.evaluate(x) - u0.evaluate(x) for x in probes)
    c = ut.shift(-C)
    # the end probes stand for the rays, constant for probability pairs
    d_left, *vals, d_right = [c.evaluate(x) - u0.evaluate(x) for x in probes]
    xs = probes[1:-1]

    components = []
    if d_left == 0:
        components.append([-math.inf, xs[0]])

    def extend(lo, hi):
        if components and components[-1][1] == lo:
            components[-1][1] = hi
        else:
            components.append([lo, hi])

    for i, x in enumerate(xs):
        if vals[i] == 0:
            extend(x, x)
            if i + 1 < len(xs) and vals[i + 1] == 0:
                extend(x, xs[i + 1])
    if d_right == 0:
        extend(xs[-1], math.inf)
    return tuple((lo, hi) for lo, hi in components)


def random_cuts(rng: random.Random, mu0: AtomicMeasure) -> list[Tangent]:
    """Lines through points below u_mu0, a third of them of slope +-1, so
    that some cut a half line."""
    u0, out = mu0.potential(), []
    for _ in range(rng.randint(1, 8)):
        s = rng.choice([Fraction(-1), Fraction(1), Fraction(rng.randint(-4, 4), 4)])
        x = grid_point(rng, span=6, denom=4)
        out.append(Tangent(s, u0.evaluate(x) - s * x - Fraction(rng.randint(0, 8), 4)))
    return out


def lifted_ay_plan(mu0: AtomicMeasure, mu: AtomicMeasure, C) -> EmbeddingPlan:
    """The Azema-Yor lines of u_mu - C, run at C: an exact plan for any C at
    least the gap constant, and for C above it one that is not minimal."""
    drop = frac(C) - gap_constant(mu0, mu)
    return cw_run(mu0, [Tangent(f.slope, f.intercept - drop) for f in ay_sweep(mu0, mu)], mu, C)


#: a plan of each of the five constructions, from (rng, mu0, mu)
PLAN_BUILDERS = {
    "azema-yor": lambda rng, mu0, mu: cw_run(mu0, ay_sweep(mu0, mu), mu, gap_constant(mu0, mu)),
    "reversed-azema-yor": lambda rng, mu0, mu: cw_run(
        mu0, reversed_ay_sweep(mu0, mu), mu, gap_constant(mu0, mu)
    ),
    "jacka": lambda rng, mu0, mu: jacka_plan(mu0, mu),
    "vallois": lambda rng, mu0, mu: vallois_eps_plan(
        mu0, mu, Fraction(1, rng.choice([2, 4, 8])), 8
    ),
    "custom": lambda rng, mu0, mu: cw_run(mu0, random_cuts(rng, mu0), mu, gap_constant(mu0, mu)),
}
