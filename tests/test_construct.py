import hashlib
import json
import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    PLAN_BUILDERS,
    contains_strict,
    plan_shift_constants,
    probe_points,
    random_prob_measure,
    reflect,
)
from cwembed import (
    AtomicMeasure,
    EmbeddingPlan,
    InadmissibleConstantError,
    IncompletePlanError,
    Interval,
    InvalidParameterError,
    InvalidTangentError,
    PLConcave,
    ProblemSpecError,
    Tangent,
    UndefinedBarycentreError,
    ay_sweep,
    balayage,
    barycentre_phi,
    cw_run,
    cw_step,
    delta_m,
    expected_local_time_zero,
    gap_constant,
    jacka_plan,
    pair,
    reversed_ay_sweep,
    sup_difference,
    vallois_eps_plan,
)
from cwembed import construct
from cwembed.construct import _step
from cwembed.diagram import render_plan_svg
from cwembed.measure import VALUE_TOL
from cwembed.minimality import ay_max_law

D0 = AtomicMeasure.point(0)
PM1 = AtomicMeasure.from_pairs([(-1, F(1, 2)), (1, F(1, 2))])
FOUR = AtomicMeasure.from_pairs([(-2, F(1, 4)), (-1, F(1, 4)), (1, F(1, 4)), (2, F(1, 4))])


def tload(pairs):
    return [Tangent.make(s, b) for s, b in pairs]


class TestCwStep:
    def test_flat_cut(self):
        st = cw_step(D0.potential(), D0, Tangent.make(0, -1))
        assert (st.interval.lower, st.interval.upper) == (-1, 1)
        assert st.measure_after == PM1

    def test_semi_infinite_cut(self):
        st = cw_step(PM1.potential(), PM1, Tangent.make(-1, -1))
        assert st.interval.lower == 0 and st.interval.upper is None
        assert st.measure_after == AtomicMeasure.from_pairs([(-1, F(1, 2)), (0, F(1, 2))])

    def test_tangent_above_is_noop(self):
        st = cw_step(D0.potential(), D0, Tangent.make(0, 1))
        assert st.noop and st.interval is None
        assert st.measure_after == D0

    def test_touching_is_noop(self):
        st = cw_step(D0.potential(), D0, Tangent.make(0, 0))
        assert st.noop

    def test_everywhere_below_rejected(self):
        zero = AtomicMeasure(())
        with pytest.raises(InvalidTangentError):
            cw_step(zero.potential(), zero, Tangent.make(0, -1))

    def test_min_potential_pointwise(self):
        rng = random.Random(4)
        for _ in range(40):
            m = random_prob_measure(rng, max_atoms=6)
            g = m.potential()
            f = Tangent.make(F(rng.randint(-9, 9), 10), F(rng.randint(-60, 10), 8))
            st = cw_step(g, m, f)
            if st.noop:
                continue
            gn = st.potential_after
            for x in probe_points(g, gn):
                assert gn.evaluate(x) == min(g.evaluate(x), f(x))


def _scan_cut_interval(g, f):
    """Reference for the cut of construct._step by a Fraction scan: d = g - f at
    every kink, the zero of d on the piece beyond the first and last
    positive one, and the kinks left of lo and right of hi, but for an
    affine g none: its kink at 0 goes; "everywhere" where f lies below all
    of g."""
    xs, slopes, n = g.xs, g.slopes, len(g.xs)
    ds = [v - f(x) for x, v in zip(xs, g.values)]
    zero = lambda i, k: xs[i] - ds[i] / (slopes[k] - f.slope)  # noqa: E731
    sl_left, sl_right = slopes[0] - f.slope, slopes[-1] - f.slope
    pos_left = sl_left < 0 or (sl_left == 0 and ds[0] > 0)
    pos_right = sl_right > 0 or (sl_right == 0 and ds[-1] > 0)
    pos = [i for i, d in enumerate(ds) if d > 0]
    if pos_left and pos_right:
        return "everywhere"
    if not (pos or pos_left or pos_right):
        return None
    lo = None if pos_left else zero(pos[0], pos[0]) if pos else zero(n - 1, n)
    hi = None if pos_right else zero(pos[-1], pos[-1] + 1) if pos else zero(0, 0)
    if slopes[0] == slopes[-1]:
        return lo, hi, 0, 1
    return (lo, hi, 0 if lo is None else bisect_left(xs, lo),
            n if hi is None else bisect_right(xs, hi))


def _big(rng, bits=200):
    """A Fraction in [-1, 1] whose denominator is about 2**bits, as a
    Vallois line's slope and intercept have."""
    den = (1 << bits) + rng.randrange(1, 1 << 20)
    return F(rng.randint(-den, den), den)


@given(seed=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_cut_interval_matches_scan(seed):
    # running potentials after a few cuts, some by lines with ~2**200
    # denominators, and an affine potential (one kink at 0, of drop 0);
    # lines of every slope in [-1, 1], half of them with large, unequal
    # denominators: through a kink (d = 0 there), just above or below one,
    # or anywhere
    rng = random.Random(seed)
    m = random_prob_measure(rng, 8, span=4, denom=4)
    g = m.potential()
    for _ in range(rng.randint(0, 3)):
        big = rng.random() < 0.5
        s = _big(rng) if big else F(rng.randint(-4, 4), 4)
        g = cw_step(g, m, Tangent(s, F(rng.randint(-40, 0), 4) + big * _big(rng))).potential_after
    a = F(rng.randint(-4, 4), 4)
    affine = PLConcave((F(0),), (a, a), (_big(rng),))
    for _ in range(30):
        big = rng.random() < 0.5
        s = _big(rng) if big else F(rng.randint(-4, 4), 4)
        k = rng.randrange(len(g.xs))
        nudge = F(rng.randint(-2, 1), 8) * (_big(rng) if big else 1) * rng.randint(0, 1)
        b = g.values[k] - s * g.xs[k] + nudge
        f = Tangent(s, b if rng.random() < 0.5 else F(rng.randint(-60, 20), 8) + big * _big(rng))
        for h in (g, affine):
            expected = _scan_cut_interval(h, f)
            if expected == "everywhere":
                with pytest.raises(InvalidTangentError):
                    _step(h, f)
            elif expected is None:
                assert _step(h, f) is None
            else:
                lo, hi, i, j = expected
                step = _step(h, f)
                assert (step.interval.lower, step.interval.upper) == (lo, hi)
                ends = tuple(x for x in (lo, hi) if x is not None)
                assert step.potential_after.xs == h.xs[:i] + ends + h.xs[j:]


class TestCwRun:
    def test_single_flat(self):
        plan = cw_run(D0, tload([(0, -1)]), PM1, 0)
        assert len(plan.steps) == 1 and plan.residual == 0 and plan.complete

    def test_two_semi_infinite(self):
        plan = cw_run(PM1, tload([(-1, -1), (1, -1)]), D0, 1)
        assert len(plan.steps) == 2
        assert all(not s.interval.is_finite for s in plan.steps)
        assert plan.final_measure == D0 and plan.residual == 0

    def test_empty(self):
        plan = cw_run(D0, [], D0, 0)
        assert plan.steps == () and plan.residual == 0

    def test_inadmissible_constant(self):
        with pytest.raises(InadmissibleConstantError):
            cw_run(PM1, [], D0, F(1, 2))

    def test_forged_plan_not_complete(self):
        # the residual is read off the final potential, not taken on trust
        plan = EmbeddingPlan(D0, PM1, F(0), ())
        assert plan.residual == 1 and not plan.complete

    def test_residual_read_only_when_asked(self, monkeypatch):
        wire = cw_run(D0, ay_sweep(D0, FOUR), FOUR, 0).to_wire()
        calls, real = [], construct.sup_difference
        monkeypatch.setattr(construct, "sup_difference", lambda f, g: calls.append(1) or real(f, g))
        ay_max_law(D0, FOUR, F(1, 2))
        plan = EmbeddingPlan.from_wire(wire)
        render_plan_svg(plan)
        assert calls == []
        assert plan.complete and plan.complete and plan.residual == 0
        assert len(calls) == 1

    def test_running_shift_constants(self):
        # unchanged across finite steps, up by delta_m across semi-infinite
        # ones, consistent with the potentials
        plan = cw_run(PM1, tload([(-1, -1), (1, -1)]), D0, 1)
        assert plan_shift_constants(plan) == [F(1, 2), F(1)]
        rng = random.Random(21)
        for _ in range(20):
            mu0, mu = random_prob_measure(rng, 5), random_prob_measure(rng, 5)
            plan = cw_run(mu0, ay_sweep(mu0, mu), mu, gap_constant(mu0, mu))
            cs = plan_shift_constants(plan)
            assert all(c1 <= c2 for c1, c2 in zip(cs, cs[1:]))
            m, prev = mu0, F(0)
            for st, c in zip(plan.steps, cs):
                iv = st.interval
                if iv.is_finite:
                    assert c == prev
                elif iv.upper is None:
                    assert c == prev + delta_m(m, iv.lower, "above")
                else:
                    assert c == prev + delta_m(m, iv.upper, "below")
                # potential_after == measure_after.potential() - c, everywhere
                u = st.measure_after.potential().shift(-c)
                assert sup_difference(u, st.potential_after) == 0
                m, prev = st.measure_after, c


def _scan_splice(g, f):
    """Reference breakpoints of min(g, f) by a scan: the candidates are g's
    kinks and the zero of g - f on each of g's pieces, and each keeps the
    drop of min(g, f) read off the one-sided derivatives there."""
    xs, s = g.xs, f.slope
    bounds = [-math.inf, *xs, math.inf]  # piece k spans [bounds[k], bounds[k + 1]]
    candidates = set(xs)
    for k, sl in enumerate(g.slopes):
        if sl != s:
            x0 = xs[max(k - 1, 0)]  # a point of piece k
            z = x0 - (g.evaluate(x0) - f(x0)) / (sl - s)
            if bounds[k] <= z <= bounds[k + 1]:
                candidates.add(z)
    out = []
    for x in sorted(candidates):
        (gl, gr), gx, fx = g.derivatives(x), g.evaluate(x), f(x)
        left, right = ((gl, gr) if gx < fx else (s, s) if fx < gx
                       else (max(gl, s), min(gr, s)))
        if left > right:
            out.append((x, left - right))
    return tuple(out)


def _splice_case(seed, kind):
    """A running potential g and a line f: through a kink with g - f rising
    right of it (the cut starts there, "lo-kink") or falling left of it
    ("hi-kink"), of slope +-1 under one ray ("ray"), any line ("line"), or
    any line of another slope against an affine g ("affine")."""
    rng = random.Random(seed)
    eighths = F(rng.randint(1, 8), 8)
    if kind == "affine":
        a = F(rng.randint(-4, 4), 4)
        g = PLConcave((F(0),), (a, a), (F(rng.randint(-8, 8), 4),))
        s = rng.choice([F(k, 4) for k in range(-4, 5) if F(k, 4) != a])
        return g, Tangent(s, F(rng.randint(-16, 16), 4))
    m = random_prob_measure(rng, 8, span=4, denom=4)
    g = m.potential()
    for _ in range(rng.randint(0, 3)):
        g = cw_step(g, m, Tangent(F(rng.randint(-4, 4), 4),
                                  F(rng.randint(-40, 0), 4))).potential_after
    xs, slopes, values = g.xs, g.slopes, g.values
    k = rng.randrange(len(xs))
    if kind == "lo-kink":
        s = slopes[k + 1] - (slopes[k + 1] + 1) * eighths
    elif kind == "hi-kink":
        s = slopes[k] + (1 - slopes[k]) * eighths
    elif kind == "ray":
        k = rng.choice([0, -1])
        s = slopes[k]
        return g, Tangent(s, values[k] - s * xs[k] - eighths)
    else:
        s = F(rng.randint(-4, 4), 4)
        return g, Tangent(s, F(rng.randint(-60, 20), 8))
    return g, Tangent(s, values[k] - s * xs[k])


@given(seed=st.integers(0, 2**32),
       kind=st.sampled_from(["affine", "hi-kink", "line", "lo-kink", "ray"]))
@example(seed=6, kind="lo-kink")
@settings(max_examples=200, deadline=None)
def test_splice_matches_scan(seed, kind):
    # the cut's splice keeps exactly the kinks of min(g, f), with ends on a
    # kink where g - f is 0 there, on one ray, and on an affine g
    g, f = _splice_case(seed, kind)
    new = cw_step(g, None, f).potential_after
    assert new.breakpoints == _scan_splice(g, f)
    for x in probe_points(g, new):
        assert new.evaluate(x) == min(g.evaluate(x), f(x))


@given(seed=st.integers(0, 2**32), kind=st.sampled_from(sorted(PLAN_BUILDERS)))
@settings(max_examples=60, deadline=None)
def test_spliced_potential_matches_rebuild(seed, kind):
    # each cut splices the running potential: its table passes the checking
    # constructor, it is the previous potential off [lo, hi], and its slope
    # drops give the balayage of the previous measure
    rng = random.Random(seed)
    mu0, mu = random_prob_measure(rng, 6), random_prob_measure(rng, 6)
    plan = PLAN_BUILDERS[kind](rng, mu0, mu)
    g, m = mu0.potential(), mu0
    for st_ in plan.steps:
        new, iv = st_.potential_after, st_.interval
        assert PLConcave(new.xs, new.slopes, new.values) == new
        for x in probe_points(g, new) + [e for e in (iv.lower, iv.upper) if e is not None]:
            if contains_strict(iv, x):
                assert new.evaluate(x) == st_.tangent(x) < g.evaluate(x)
            else:
                assert new.evaluate(x) == g.evaluate(x)
        assert st_.measure_after == balayage(m, iv)
        g, m = new, st_.measure_after


@given(seed=st.integers(0, 2**32), worked=st.booleans(),
       kind=st.sampled_from(["azema-yor", "jacka", "reversed-azema-yor"]))
@example(seed=0, worked=True, kind="azema-yor")
@settings(max_examples=60, deadline=None)
def test_exact_plan_ends_at_c(seed, worked, kind):
    # a function has one kink table, so an exact plan's final potential is
    # c itself, whatever order its cuts came in
    rng = random.Random(seed)
    mu0, mu = (D0, FOUR) if worked else (random_prob_measure(rng, 6), random_prob_measure(rng, 6))
    plan = PLAN_BUILDERS[kind](rng, mu0, mu)
    assert plan.residual == 0 and plan.final_potential == pair(mu0, mu).c


def _dyadic_measure(rng, n, span, wbits):
    """n atoms on the grid (1/16)Z within [-span, span], weights k/2**wbits
    summing to exactly 1."""
    xs = sorted(rng.sample(range(-span * 16, span * 16 + 1), n))
    cuts = sorted(rng.sample(range(1, 1 << wbits), n - 1))
    ws = [b - a for a, b in zip([0] + cuts, cuts + [1 << wbits])]
    return AtomicMeasure.from_pairs([(F(x, 16), F(w, 1 << wbits)) for x, w in zip(xs, ws)])


#: SHA-256 of the exact steps of the three plans in test_exact_plans_are_pinned
PLANS_SHA256 = "2410adfc824e25a0e70a470df16e6e36580479597020eaffd2eab16813a085b5"


def test_exact_plans_are_pinned():
    # every step's interval and potential (left slope, breakpoints and the
    # value at 0) of the Azema-Yor, reversed and Jacka plans of a 64 -> 128
    # atom pair: a faster cut must leave each plan exact
    rng = random.Random(64128)
    mu0, mu = _dyadic_measure(rng, 64, 8, 12), _dyadic_measure(rng, 128, 16, 13)
    C = gap_constant(mu0, mu)
    plans = (cw_run(mu0, ay_sweep(mu0, mu), mu, C),
             cw_run(mu0, reversed_ay_sweep(mu0, mu), mu, C), jacka_plan(mu0, mu))
    digest = hashlib.sha256()
    for plan in plans:
        assert plan.residual == 0 and len(plan.steps) > 64
        for st_ in plan.steps:
            g = st_.potential_after
            digest.update(repr((st_.interval.lower, st_.interval.upper, g.left_slope,
                                g.breakpoints, g.evaluate(0))).encode())
    assert digest.hexdigest() == PLANS_SHA256


#: SHA-256 of the exact steps of the two plans in test_vallois_plans_are_pinned
VALLOIS_SHA256 = "b7438ab479286f4ec158aac55510d453c9b1d2eadac87c973c834afa2d98b1e1"


def test_vallois_plans_are_pinned():
    # the same digest over the Vallois plans of D0 -> PM1 at eps = 1/4 and
    # 1/16 (82 and 332 steps, 205-digit denominators): the stop test must
    # end each plan where sup|g - c| first falls to VALUE_TOL
    digest = hashlib.sha256()
    for eps, max_steps, n in ((F(1, 4), 200, 82), (F(1, 16), 400, 332)):
        plan = vallois_eps_plan(D0, PM1, eps, max_steps)
        assert len(plan.steps) == n and plan.complete
        for st_ in plan.steps:
            g = st_.potential_after
            digest.update(repr((st_.interval.lower, st_.interval.upper, g.left_slope,
                                g.breakpoints, g.evaluate(0))).encode())
    assert digest.hexdigest() == VALLOIS_SHA256


def _vallois_by_sup(mu0, mu, eps, max_steps, stall_stop=True):
    """The steps of vallois_eps_plan, stopped by sup_difference over every
    kink of both functions instead of the plan's own test, and by the same
    stall rule: two steps in a row after the first leave the residual as it
    was.  ``stall_stop=False`` runs without that rule."""
    p = pair(mu0, mu)
    g, steps, residuals = p.u0, [], []
    for k in range(max_steps):
        r = sup_difference(g, p.c)
        if r <= VALUE_TOL or (stall_stop and k >= 3 and residuals[-2] == residuals[-1] == r):
            break
        residuals.append(r)
        x0, touch = (eps, "left") if k % 2 == 0 else (F(0), "right")
        st_ = construct._step(g, construct._support_line_through(p.c, x0, g.evaluate(x0), touch))
        if st_ is not None:
            steps.append(st_)
            g = st_.potential_after
    return tuple(steps)


@given(seed=st.integers(0, 2**32), worked=st.booleans(),
       den=st.sampled_from([1, 2, 4, 8, 16]), max_steps=st.integers(0, 40))
@example(seed=0, worked=True, den=4, max_steps=40)
@settings(max_examples=60, deadline=None)
def test_vallois_stop_test_reads_kinks(seed, worked, den, max_steps):
    # g >= c, g - c is convex between g's kinks and falls off past the end
    # ones, so its largest gap at g's kinks is sup|g - c| for every running
    # potential, and the plan stops exactly where the sup test stops
    rng = random.Random(seed)
    mu0, mu = (D0, PM1) if worked else (random_prob_measure(rng, 6), random_prob_measure(rng, 6))
    eps = F(rng.randint(1, 8), den)
    plan = vallois_eps_plan(mu0, mu, eps, max_steps)
    p = pair(mu0, mu)
    for g in [p.u0] + [st_.potential_after for st_ in plan.steps]:
        assert max(v - w for v, w in zip(g.values, p.c.values_at(g.xs))) == sup_difference(g, p.c)
    assert plan.steps == _vallois_by_sup(mu0, mu, eps, max_steps)


@given(seed=st.integers(0, 2**32), den=st.sampled_from([1, 2, 4, 8, 16]),
       atoms=st.sampled_from([3, 6]), max_steps=st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_vallois_stall_stop_keeps_the_residual(seed, den, atoms, max_steps):
    # the stall rule only saves work: a plan it stops has the residual of a
    # run to max_steps without it
    rng = random.Random(seed)
    mu0, mu = random_prob_measure(rng, atoms), random_prob_measure(rng, atoms)
    eps = F(rng.randint(1, 8), den)
    plan = vallois_eps_plan(mu0, mu, eps, max_steps)
    steps = _vallois_by_sup(mu0, mu, eps, max_steps, stall_stop=False)
    g = steps[-1].potential_after if steps else pair(mu0, mu).u0
    assert plan.residual == sup_difference(g, pair(mu0, mu).c)
    assert plan.steps == steps[:len(plan.steps)]


def test_vallois_stall_stops_four_atom_run():
    # eps = 1/2 on FOUR: the residual is 7/100 from step 7 on, each later
    # step moving mass between the same two intervals; two flat steps stop it
    plan = vallois_eps_plan(D0, FOUR, F(1, 2), 10**5)
    assert len(plan.steps) == 9 and plan.residual == F(7, 100)
    steps = _vallois_by_sup(D0, FOUR, F(1, 2), 100, stall_stop=False)
    assert len(steps) == 100 and plan.steps == steps[:9]
    assert sup_difference(steps[-1].potential_after, pair(D0, FOUR).c) == F(7, 100)


def test_vallois_stall_skips_first_step():
    # delta_3/8 -> delta_15/8 at eps = 3/16: the first line cuts nothing and
    # the second leaves the residual at 3, yet the third lowers it
    mu0, mu, eps = AtomicMeasure.point(F(3, 8)), AtomicMeasure.point(F(15, 8)), F(3, 16)
    plan = vallois_eps_plan(mu0, mu, eps, 12)
    assert plan.steps == _vallois_by_sup(mu0, mu, eps, 12, stall_stop=False)
    assert len(plan.steps) == 11 and plan.residual < 3


def test_vallois_stops_before_a_line_too_long_to_write():
    # an atom at 10**50: at eps = 1/2 the residual falls slowly while the
    # lines' denominators grow some 25 digits a step, and the run stops
    # before the first line whose p/q needs over 4300 digits; the lines it
    # keeps reach that bound, and the plan writes and replays
    q = F(1, 4)
    mu = AtomicMeasure.from_pairs([(10**50, q), (-1, q), (1, q), (2, q)])
    plan = vallois_eps_plan(D0, mu, F(1, 2), 200)
    assert len(plan.steps) == 171 and not plan.complete
    sizes = [max(abs(r.numerator), r.denominator)
             for st_ in plan.steps for r in (st_.tangent.slope, st_.tangent.intercept)]
    assert 10**4200 <= max(sizes) < 10**4300
    assert EmbeddingPlan.from_wire(json.loads(json.dumps(plan.to_wire()))).steps == plan.steps


class TestAySweep:
    def test_lifted_pair(self):
        # touch points left to right: the rising collapse first, then the fall
        swept = ay_sweep(PM1, D0)
        assert [(f.slope, f.intercept) for f in swept] == [(1, -1), (-1, -1)]

    def test_identity_pair_empty(self):
        # u_D0's two rays, both on the starting potential: cw_run keeps neither
        swept = ay_sweep(D0, D0)
        assert [(f.slope, f.intercept) for f in swept] == [(1, 0), (-1, 0)]
        assert cw_run(D0, swept, D0, 0).steps == ()

    def test_trough_pair(self):
        # the outer rays of u_PM1 lie on u_D0; only the flat line cuts
        swept = ay_sweep(D0, PM1)
        assert [(f.slope, f.intercept) for f in swept] == [(1, 0), (0, -1), (-1, 0)]
        plan = cw_run(D0, swept, PM1, 0)
        assert [(st.tangent.slope, st.tangent.intercept) for st in plan.steps] == [(0, -1)]

    def test_slope_order(self):
        rng = random.Random(3)
        for _ in range(30):
            mu0, mu = random_prob_measure(rng, 6), random_prob_measure(rng, 6)
            slopes = [f.slope for f in ay_sweep(mu0, mu)]
            assert slopes == sorted(slopes, reverse=True)

    def test_step_count_from_point_start(self):
        # centred k-atom target from a point start: exactly k-1 finite steps
        rng = random.Random(6)
        for _ in range(25):
            m = random_prob_measure(rng, max_atoms=9)
            centred = AtomicMeasure.from_pairs([(x - m.mean(), w) for x, w in m.atoms])
            plan = cw_run(D0, ay_sweep(D0, centred), centred, 0)
            assert plan.complete and plan.final_measure == centred
            if len(centred) == 1:
                continue
            assert len(plan.steps) == len(centred) - 1
            assert all(s.interval.is_finite for s in plan.steps)

    def test_embeds_random_pairs(self):
        rng = random.Random(8)
        for _ in range(30):
            mu0, mu = random_prob_measure(rng, 7), random_prob_measure(rng, 7)
            plan = cw_run(mu0, ay_sweep(mu0, mu), mu, gap_constant(mu0, mu))
            assert plan.residual == 0
            assert plan.final_measure == mu

    def test_tiny_spread_still_cut(self):
        # the one Azema-Yor line of +-1 -> +-(1 + eps) lies only 1e-13 below u_mu0
        eps = F(1, 10**13)
        mu = AtomicMeasure.from_pairs([(-1 - eps, F(1, 2)), (1 + eps, F(1, 2))])
        plan = cw_run(PM1, ay_sweep(PM1, mu), mu, gap_constant(PM1, mu))
        assert len(plan.steps) == 1
        assert plan.residual == 0 and plan.final_measure == mu


class TestReversedSweep:
    def test_mirror_pair(self):
        assert [(f.slope, f.intercept) for f in reversed_ay_sweep(PM1, D0)] == [
            (-1, -1),
            (1, -1),
        ]

    def test_symmetric_pair_mirror_equal(self):
        fwd = ay_sweep(D0, PM1)
        rev = reversed_ay_sweep(D0, PM1)
        assert [(f.slope, f.intercept) for f in rev] == [
            (-f.slope, f.intercept) for f in fwd
        ]

    def test_empty(self):
        swept = reversed_ay_sweep(D0, D0)
        assert [(f.slope, f.intercept) for f in swept] == [(-1, 0), (1, 0)]
        assert cw_run(D0, swept, D0, 0).steps == ()

    def test_embeds_random_pairs(self):
        rng = random.Random(14)
        for _ in range(30):
            mu0, mu = random_prob_measure(rng, 7), random_prob_measure(rng, 7)
            plan = cw_run(mu0, reversed_ay_sweep(mu0, mu), mu, gap_constant(mu0, mu))
            assert plan.residual == 0 and plan.final_measure == mu


class TestJacka:
    def test_single_step_suffices(self):
        plan = jacka_plan(D0, PM1)
        assert len(plan.steps) == 1
        assert plan.steps[0].tangent.slope == 0
        assert plan.final_measure == PM1

    def test_four_atom_target(self):
        plan = jacka_plan(D0, FOUR)
        assert plan.complete and plan.final_measure == FOUR
        assert len(plan.steps) == 3
        slopes = [s.tangent.slope for s in plan.steps]
        assert slopes[0] == 0 and slopes[1] < 0 < slopes[2]

    def test_identity_empty(self):
        plan = jacka_plan(D0, D0)
        assert plan.steps == () and plan.residual == 0

    def test_halves_stay_separated(self):
        rng = random.Random(17)
        checked = 0
        for _ in range(40):
            mu0, mu = random_prob_measure(rng, 7), random_prob_measure(rng, 7)
            plan = jacka_plan(mu0, mu)
            assert plan.complete and plan.final_measure == mu
            if not plan.steps or plan.steps[0].tangent.slope != 0:
                continue
            first = plan.steps[0].interval
            checked += 1
            for st in plan.steps[1:]:
                iv = st.interval
                if st.tangent.slope < 0:
                    assert iv.lower is not None and iv.lower >= first.lower
                elif st.tangent.slope > 0:
                    assert iv.upper is not None and iv.upper <= first.upper
        assert checked > 10


def _pre_filtered(u0, lines):
    """The filter the sweeps once ran: keep a line only if it cuts u0."""
    return [f for f in lines if _step(u0, f) is not None]


def _jacka_lines(mu0, mu):
    """jacka_plan's tangents: the flat line at c's peak, then c's falling
    segment lines left to right and its rising ones right to left."""
    segs = ay_sweep(mu0, mu)
    flat = Tangent(F(0), max(pair(mu0, mu).c.values))
    return ([flat] + [f for f in segs if f.slope < 0]
            + [f for f in reversed(segs) if f.slope > 0])


@given(seed=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_unfiltered_sweeps_match_pre_filtered(seed):
    # cw_run drops exactly the lines the old pre-filter dropped: a line with
    # no point below u0 has none below any later potential min(u0, ...)
    rng = random.Random(seed)
    mu0, mu = random_prob_measure(rng, 7), random_prob_measure(rng, 7)
    C = gap_constant(mu0, mu)
    u0 = mu0.potential()
    fwd, rev = ay_sweep(mu0, mu), reversed_ay_sweep(mu0, mu)
    mirrored = ay_sweep(reflect(mu0), reflect(mu))
    assert rev == [Tangent(-f.slope, f.intercept) for f in mirrored]
    for lines, plan in [
        (fwd, cw_run(mu0, fwd, mu, C)),
        (rev, cw_run(mu0, rev, mu, C)),
        (_jacka_lines(mu0, mu), jacka_plan(mu0, mu)),
    ]:
        kept = _pre_filtered(u0, lines)
        oracle = cw_run(mu0, kept, mu, C)
        assert plan.to_wire() == oracle.to_wire()
        assert len(plan.steps) == len(oracle.steps)
        for a, b in zip(plan.steps, oracle.steps):
            assert (a.tangent, a.interval) == (b.tangent, b.interval)
            g, h = a.potential_after, b.potential_after
            assert (g.xs, g.slopes, g.values) == (h.xs, h.slopes, h.values)
        assert plan.residual == oracle.residual == 0
        for f in (f for f in lines if f not in kept):
            assert all(f(x) >= u0.evaluate(x) for x in probe_points(u0))


@pytest.mark.parametrize("kind", ["azema-yor", "reversed-azema-yor", "jacka"])
def test_build_computes_one_pair(kind, monkeypatch):
    # every call of a build reads one pair: no reflected or other second pair
    computed, real = [], pair.__wrapped__
    monkeypatch.setattr(pair, "__wrapped__", lambda *a: computed.append(a) or real(*a))
    mu0 = AtomicMeasure.from_pairs([(-1, F(1, 4)), (F(1, 2), F(3, 4))])
    pair.cache_clear()
    PLANS[kind](mu0, FOUR)
    assert computed == [(mu0, FOUR)]


class TestVallois:
    def test_residual_decreases_with_steps(self):
        prev = None
        for k in [0, 1, 2, 5, 10, 25, 50]:
            plan = vallois_eps_plan(D0, PM1, F(1, 2), k)
            if prev is not None:
                assert plan.residual <= prev
            prev = plan.residual

    def test_zero_steps(self):
        plan = vallois_eps_plan(D0, PM1, F(1, 2), 0)
        assert plan.steps == () and plan.residual == 1 and not plan.complete

    def test_identity_pair(self):
        plan = vallois_eps_plan(D0, D0, F(1, 10), 10)
        assert plan.steps == () and plan.residual == 0

    def test_alternating_shape(self):
        plan = vallois_eps_plan(D0, PM1, F(1, 4), 8)
        slopes = [s.tangent.slope for s in plan.steps]
        assert all(s > 0 for s in slopes[0::2])
        assert all(s < 0 for s in slopes[1::2])

    def test_eps_validation(self):
        with pytest.raises(InvalidParameterError):
            vallois_eps_plan(D0, PM1, 0, 5)


class TestLocalTime:
    def test_single_flat_step(self):
        plan = cw_run(D0, tload([(0, -1)]), PM1, 0)
        assert expected_local_time_zero(plan) == 1

    def test_empty_plan(self):
        assert expected_local_time_zero(cw_run(D0, [], D0, 0)) == 0

    def test_paths_stop_on_first_visit(self):
        # both tangents pass through (0, -1) = the starting potential at zero,
        # so no local time accrues before the stop
        plan = cw_run(PM1, tload([(-1, -1), (1, -1)]), D0, 1)
        assert expected_local_time_zero(plan) == 0

    def test_incomplete_rejected(self):
        plan = vallois_eps_plan(D0, PM1, F(1, 2), 1)
        with pytest.raises(IncompletePlanError):
            expected_local_time_zero(plan)


class TestBarycentre:
    def test_floor_of_trough_target(self):
        assert barycentre_phi(D0, PM1, F(1, 2)) == -1

    def test_largest_minimizer(self):
        assert barycentre_phi(PM1, D0, F(1, 2)) == 0

    def test_undefined_beyond_support(self):
        with pytest.raises(UndefinedBarycentreError):
            barycentre_phi(D0, PM1, F(3, 2))

    def test_contact_point_returns_x(self):
        assert barycentre_phi(D0, PM1, 1) == 1

    def test_nondecreasing(self):
        xs = [F(i, 10) for i in range(1, 11)]
        vals = [barycentre_phi(D0, FOUR, x) for x in xs]
        assert vals == sorted(vals)


PLANS = {
    "azema-yor": lambda mu0, mu: cw_run(mu0, ay_sweep(mu0, mu), mu, gap_constant(mu0, mu)),
    "reversed-azema-yor": lambda mu0, mu: cw_run(
        mu0, reversed_ay_sweep(mu0, mu), mu, gap_constant(mu0, mu)
    ),
    "jacka": jacka_plan,
    "vallois": lambda mu0, mu: vallois_eps_plan(mu0, mu, F(1, 4), 6),
}


def json_round_trip(plan):
    return EmbeddingPlan.from_wire(json.loads(json.dumps(plan.to_wire())))


class TestPlanWire:
    def test_round_trip(self):
        plan = cw_run(PM1, ay_sweep(PM1, D0), D0, 1)
        again = type(plan).from_wire(plan.to_wire())
        assert again.C == plan.C
        assert len(again.steps) == len(plan.steps)
        assert again.complete
        assert again.to_wire() == plan.to_wire()

    @given(seed=st.integers(0, 2**32), kind=st.sampled_from(sorted(PLANS)))
    @settings(max_examples=40, deadline=None)
    def test_exact_round_trip(self, seed, kind):
        rng = random.Random(seed)
        mu0, mu = random_prob_measure(rng, 6), random_prob_measure(rng, 6)
        plan = PLANS[kind](mu0, mu)
        again = json_round_trip(plan)
        assert again.C == plan.C
        assert [s.tangent for s in again.steps] == [s.tangent for s in plan.steps]
        assert [s.interval for s in again.steps] == [s.interval for s in plan.steps]
        assert again.residual == plan.residual
        if plan.residual == 0:
            assert again.final_measure == mu

    def test_stored_interval_is_not_read(self):
        # the worked +-1 -> 0 plan; its first cut is (-inf, 0)
        plan = cw_run(PM1, ay_sweep(PM1, D0), D0, 1)
        assert plan.steps[0].interval == Interval(None, F(0))
        wire = json.loads(json.dumps(plan.to_wire()))
        wire["steps"][0]["interval"] = [-100, 0]
        assert EmbeddingPlan.from_wire(wire) == plan

    def test_stored_measure_is_not_read(self):
        plan = cw_run(D0, ay_sweep(D0, FOUR), FOUR, 0)
        wire = json.loads(json.dumps(plan.to_wire()))
        wire["steps"][-1]["measure_after"] = [["0", "1"]]
        again = EmbeddingPlan.from_wire(wire)
        assert again == plan and again.final_measure == FOUR

    def test_mass_must_be_exactly_one(self):
        wire = cw_run(D0, ay_sweep(D0, FOUR), FOUR, 0).to_wire()
        wire["target"] = [[-1, 2 / 3], [2, 1 / 3]]  # doubles: mass 1 - 2**-54
        with pytest.raises(ProblemSpecError, match="target"):
            EmbeddingPlan.from_wire(wire)

    def test_non_cutting_tangent_rejected(self):
        wire = cw_run(D0, ay_sweep(D0, FOUR), FOUR, 0).to_wire()
        wire["steps"].insert(2, dict(wire["steps"][1]))  # cuts nothing the second time
        with pytest.raises(ProblemSpecError, match=r"steps\[2\]"):
            EmbeddingPlan.from_wire(wire)
