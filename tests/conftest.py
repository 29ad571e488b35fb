import math
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cwembed import (  # noqa: E402
    AtomicMeasure,
    Tangent,
    ay_sweep,
    cw_run,
    gap_constant,
    jacka_plan,
    reversed_ay_sweep,
    vallois_eps_plan,
)


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
    """Union of breakpoints of the given piecewise-linear functions plus one
    probe beyond each end (where all of them are affine)."""
    xs = sorted(set().union(*[set(f.xs) for f in fns]))
    if not xs:
        return [Fraction(0)]
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
