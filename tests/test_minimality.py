import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    PLAN_BUILDERS,
    contact_scan,
    contains_strict,
    lifted_ay_plan,
    mass_below,
    mass_upto,
    probe_points,
    random_cuts,
    random_prob_measure,
    reflect,
    split_at,
)
from cwembed import (
    AtomicMeasure,
    EmbeddingPlan,
    IncompletePlanError,
    Interval,
    InvalidParameterError,
    PLConcave,
    Tangent,
    ay_max_law,
    ay_sweep,
    balayage,
    barycentre_phi,
    contact_region,
    cw_run,
    gap_constant,
    jacka_plan,
    max_law_bound,
    minimality_report,
    reversed_ay_sweep,
    tangent_ratio_min,
    vallois_eps_plan,
)
from cwembed import minimality
from cwembed.measure import pair
from cwembed.minimality import _max_exceedance_exact


def exceedance(plan, x):
    """The exact P(running max >= x) of a plan."""
    return _max_exceedance_exact(plan.mu0, [st_.interval for st_ in plan.steps], x)

D0 = AtomicMeasure.point(0)
PM1 = AtomicMeasure.from_pairs([(-1, F(1, 2)), (1, F(1, 2))])
ASYM = AtomicMeasure.from_pairs([(-1, F(2, 3)), (2, F(1, 3))])


def ay_plan(mu0, mu):
    return cw_run(mu0, ay_sweep(mu0, mu), mu, gap_constant(mu0, mu))


class TestGap:
    def test_values(self):
        assert gap_constant(PM1, D0) == 1
        assert gap_constant(D0, PM1) == 0
        assert gap_constant(D0, D0) == 0


class TestContactRegion:
    def test_single_point(self):
        r = contact_region(PM1, D0)
        assert r.components == ((F(0), F(0)),)
        assert r.a_minus == 0 and r.a_plus == 0

    def test_outer_rays(self):
        r = contact_region(D0, PM1)
        assert r.components == ((-math.inf, F(-1)), (F(1), math.inf))
        assert r.a_minus == -math.inf and r.a_plus == math.inf

    def test_everything(self):
        r = contact_region(D0, D0)
        assert r.components == ((-math.inf, math.inf),)

    def test_read_off_the_pair(self, monkeypatch):
        # the pair finds its contact set in the pass that finds C, so the
        # region evaluates no potential
        mu0 = AtomicMeasure.from_pairs([(-2, F(1, 4)), (0, F(1, 2)), (3, F(1, 4))])
        mu = AtomicMeasure.from_pairs([(-2, F(1, 4)), (-1, F(1, 4)), (1, F(1, 4)), (3, F(1, 4))])
        pair(mu0, mu)
        calls, real = [], PLConcave.evaluate
        monkeypatch.setattr(PLConcave, "evaluate", lambda f, x: calls.append(x) or real(f, x))
        region = contact_region(mu0, mu)
        assert calls == []
        monkeypatch.undo()
        assert region.components == contact_scan(mu0, mu) == (
            (-math.inf, F(-1)), (F(1), math.inf))

    def test_subset_of_cdf_bracket(self):
        # at a contact point the target CDF brackets the starting CDF
        rng = random.Random(41)
        for _ in range(40):
            mu0, mu = random_prob_measure(rng, 6), random_prob_measure(rng, 6)
            region = contact_region(mu0, mu)
            for lo, hi in region.components:
                for a in {lo, hi}:
                    if isinstance(a, float) and math.isinf(a):
                        continue
                    assert mass_below(mu, a) <= mass_below(mu0, a)
                    assert mass_below(mu0, a) <= mass_upto(mu0, a) <= mass_upto(mu, a)

    def test_mass_and_mean_partition(self):
        # between consecutive finite contact points the two measures carry
        # equal mass and equal mean once split at matching levels; pairs built
        # by balayage have large contact sets
        from cwembed import balayage_finite

        rng = random.Random(43)
        seen = 0
        for _ in range(80):
            mu0 = random_prob_measure(rng, 6)
            a = min(mu0.positions) + F(rng.randint(0, 32), 16)
            mu = balayage_finite(mu0, a, a + F(rng.randint(1, 64), 16))
            region = contact_region(mu0, mu)
            pts = []
            for lo, hi in region.components:
                for v in (lo, hi):
                    if not (isinstance(v, float) and math.isinf(v)):
                        pts.append(v)
            pts = sorted(set(pts))
            for a, z in zip(pts, pts[1:]):
                theta_a = mass_below(mu0, a)
                theta_z = mass_upto(mu0, z)
                mid0 = split_at(split_at(mu0, z, theta_z)[0], a, theta_a)[1]
                mid = split_at(split_at(mu, z, theta_z)[0], a, theta_a)[1]
                assert mid.total_mass == mid0.total_mass
                if mid.total_mass > 0:
                    assert mid.mean() == mid0.mean()
                seen += 1
        assert seen > 20


class TestMaxLawBound:
    def test_trough_closed_form(self):
        assert max_law_bound(D0, PM1, F(1, 2)) == F(2, 3)
        for i in range(1, 11):
            x = F(i, 10)
            assert max_law_bound(D0, PM1, x) == 1 / (1 + x)

    def test_lifted_pair(self):
        assert max_law_bound(PM1, D0, F(1, 2)) == F(1, 2)
        assert max_law_bound(PM1, D0, 2) == F(1, 4)

    def test_clamped_below_start(self):
        assert max_law_bound(PM1, D0, -5) == 1

    def test_value_at_contact_points(self):
        # at a finite contact point the bound equals the target tail mass
        assert max_law_bound(PM1, D0, 0) == 1
        assert max_law_bound(D0, PM1, 1) == F(1, 2)
        rng = random.Random(47)
        for _ in range(30):
            mu0, mu = random_prob_measure(rng, 6), random_prob_measure(rng, 6)
            for lo, hi in contact_region(mu0, mu).components:
                for a in {lo, hi}:
                    if isinstance(a, float) and math.isinf(a):
                        continue
                    assert max_law_bound(mu0, mu, a) == mu.total_mass - mass_below(mu, a)

    def test_raising_c_raises_bound(self):
        # the tight shift constant minimizes the bound
        mu0, mu = D0, ASYM
        C = gap_constant(mu0, mu)
        u0 = mu0.potential()
        for extra in [F(1, 2), 1, 2]:
            c_loose = mu.potential().shift(-(C + extra))
            raised = False
            for i in range(-20, 30):
                x = F(i, 8)
                tight, _ = tangent_ratio_min(u0, mu.potential().shift(-C), x)
                loose, _ = tangent_ratio_min(u0, c_loose, x)
                bt = min(F(1), max(F(0), (1 + tight) / 2))
                bl = min(F(1), max(F(0), (1 + loose) / 2))
                assert bl >= bt
                if bl > bt:
                    raised = True
            assert raised


def _scan_tangent_ratio_min(u0, c, x):
    """Reference for tangent_ratio_min: the ratio at every kink of c and u0
    below x, and the two limiting directions."""
    xf = F(x)
    A = u0.evaluate(xf)
    items = [((A - c.evaluate(lam)) / (xf - lam), lam)
             for lam in sorted(set(c.xs) | set(u0.xs)) if lam < xf]
    items.append((c.slopes[0], float("-inf")))
    if c.evaluate(xf) == A:
        items.append((c.derivatives(xf)[0], xf))
    best = min(v for v, _ in items)
    return best, max(k for v, k in items if v == best)


def _ratio_cases(rng, u0, c, x):
    """c shifted down by a random amount, c shifted so that one of its
    segment lines left of x passes through (x, u0(x)) (the ratio is flat
    there), and an affine c (one kink at 0, of drop 0) through a point on
    or below u0 at x."""
    yield c.shift(-F(rng.randint(0, 3), rng.choice([1, 4])) * rng.randint(0, 1))
    segments = [k for k in range(len(c.slopes)) if k == 0 or c.xs[k - 1] < x]
    k = rng.choice(segments)
    ref = max(k - 1, 0)
    line_at_x = c.values[ref] + c.slopes[k] * (x - c.xs[ref])
    yield c.shift(u0.evaluate(x) - line_at_x)
    s, y = F(rng.randint(-4, 4), 4), u0.evaluate(x) - F(rng.randint(0, 2), 2)
    yield PLConcave((F(0),), (s, s), (y - s * x,))


@given(seed=st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_tangent_ratio_min_matches_scan(seed):
    # the bisection against the ratio at every kink, on random pairs, on
    # point-mass targets and on swept targets (mu0 balayaged on an interval,
    # in contact with mu0 off it), at thresholds on, between and beyond the
    # kinks, and at and inside the contact set's components
    rng = random.Random(seed)
    mu0 = random_prob_measure(rng, 8, span=4, denom=4)
    kind = rng.random()
    if kind < 0.25:
        mu = AtomicMeasure.point(mu0.mean())
    elif kind < 0.5:
        a, b = sorted(rng.sample(range(-20, 21), 2))
        mu = balayage(mu0, Interval(F(a, 4), F(b, 4)))
    else:
        mu = random_prob_measure(rng, 8, span=4, denom=4)
    u0, c = mu0.potential(), mu.potential().shift(-gap_constant(mu0, mu))
    probes = probe_points(u0, c)
    contact = pair(mu0, mu).contact
    xs = (probes + [(a + b) / 2 for a, b in zip(probes, probes[1:])] + [probes[0] - 3]
          + [e for ends in contact for e in ends if math.isfinite(e)]
          + [(lo + hi) / 2 for lo, hi in contact if math.isfinite(lo) and math.isfinite(hi)])
    for x in xs:
        for cx in _ratio_cases(rng, u0, c, x):
            assert cx.evaluate(x) <= u0.evaluate(x)
            assert tangent_ratio_min(u0, cx, x) == _scan_tangent_ratio_min(u0, cx, x)


def test_tangent_ratio_min_refuses_c_above_u0():
    u0 = PM1.potential()
    with pytest.raises(InvalidParameterError, match="above u0"):
        tangent_ratio_min(u0, u0.shift(F(1, 8)), 2)


class TestAyMaxLaw:
    def test_trough_race(self):
        assert ay_max_law(D0, PM1, F(1, 2)) == F(2, 3)

    def test_lifted_pair(self):
        assert ay_max_law(PM1, D0, F(1, 2)) == F(1, 2)

    def test_below_all_starts(self):
        rng = random.Random(53)
        for _ in range(10):
            mu0, mu = random_prob_measure(rng, 5), random_prob_measure(rng, 5)
            floor = min(mu0.positions) - 1
            assert ay_max_law(mu0, mu, floor) == 1

    def test_attains_bound(self):
        rng = random.Random(59)
        for _ in range(25):
            mu0, mu = random_prob_measure(rng, 6), random_prob_measure(rng, 6)
            for i in range(-12, 13):
                x = F(i, 2)
                bound = max_law_bound(mu0, mu, x)
                if bound > 0:
                    assert ay_max_law(mu0, mu, x) == bound

    def test_monotone_and_dominates_target_tail(self):
        rng = random.Random(61)
        for _ in range(15):
            mu0, mu = random_prob_measure(rng, 6), random_prob_measure(rng, 6)
            xs = [F(i, 4) for i in range(-48, 49)]
            vals = [ay_max_law(mu0, mu, x) for x in xs]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            for x, v in zip(xs, vals):
                assert v >= mu.total_mass - mass_below(mu, x)

    def test_one_plan_per_pair(self, monkeypatch):
        # the thresholds of one pair share its plan; the cache holds one pair
        builds, real = [], minimality.cw_run
        monkeypatch.setattr(minimality, "cw_run", lambda *a: builds.append(a) or real(*a))
        minimality._ay_intervals.cache_clear()
        rng = random.Random(67)
        (mu0, mu), other = [(random_prob_measure(rng, 6), random_prob_measure(rng, 6))
                            for _ in range(2)]
        assert other != (mu0, mu)
        xs = [F(i, 2) for i in (-3, -1, 1, 3)]
        got = [ay_max_law(mu0, mu, x) for x in xs]
        assert len(builds) == 1
        assert got == [exceedance(ay_plan(mu0, mu), x) for x in xs]
        assert ay_max_law(*other, 0) == exceedance(ay_plan(*other), 0)
        assert len(builds) == 2
        assert ay_max_law(mu0, mu, xs[0]) == got[0]
        assert len(builds) == 3

    def test_mass_defect_raises_every_call(self):
        minimality._ay_intervals.cache_clear()
        for x in (0, 1, 0):
            with pytest.raises(InvalidParameterError, match="mass exactly 1"):
                ay_max_law(D0, FLOAT_THIRDS, x)


def _full_state_max_exceedance(plan, x):
    """Reference for _max_exceedance_exact: every (position, exceeded)
    state visited at every step."""
    xf = F(x)
    states = {}
    for pos, w in plan.mu0.atoms:
        states[pos, pos >= xf] = states.get((pos, pos >= xf), F(0)) + w
    for st_ in plan.steps:
        iv, new = st_.interval, {}

        def add(pos, flag, w):
            if w > 0:
                new[pos, flag] = new.get((pos, flag), F(0)) + w

        for (pos, flag), w in states.items():
            if not contains_strict(iv, pos):
                add(pos, flag, w)
                continue
            a, b = iv.lower, iv.upper
            if a is not None and b is not None:
                p_lo = (b - pos) / (b - a)
                add(b, flag or xf <= b, (1 - p_lo) * w)
                if flag or xf <= pos:
                    add(a, flag or xf <= pos, p_lo * w)
                elif pos < xf <= b:
                    q = ((pos - a) * (b - xf)) / ((xf - a) * (b - pos))
                    add(a, True, p_lo * w * q)
                    add(a, False, p_lo * w * (1 - q))
                else:
                    add(a, False, p_lo * w)
            elif b is None:
                if flag or xf <= pos:
                    add(a, True, w)
                else:
                    q = (pos - a) / (xf - a)
                    add(a, True, w * q)
                    add(a, False, w * (1 - q))
            else:
                add(b, flag or xf <= b, w)
        states = new
    return sum((w for (_, flag), w in states.items() if flag), F(0))


@given(seed=st.integers(0, 2**32), kind=st.sampled_from(sorted(PLAN_BUILDERS)))
@settings(max_examples=80, deadline=None)
@example(seed=1, kind="custom")  # a plan with semi-infinite steps both ways
def test_sparse_max_exceedance_matches_full_state(seed, kind):
    # thresholds at the atoms, at every step's endpoints, between them and
    # beyond every atom
    rng = random.Random(seed)
    mu0, mu = random_prob_measure(rng, 6), random_prob_measure(rng, 6)
    plan = PLAN_BUILDERS[kind](rng, mu0, mu)
    points = {e for st_ in plan.steps for e in (st_.interval.lower, st_.interval.upper)}
    points = sorted((points - {None}) | set(mu0.positions) | set(plan.final_measure.positions))
    xs = points + [(a + b) / 2 for a, b in zip(points, points[1:])]
    xs += [points[0] - 1, points[-1] + F(1, 3)]
    for x in xs:
        assert exceedance(plan, x) == _full_state_max_exceedance(plan, x)


def _self_target_plan(rng, mu0):
    """A plan of random cuts whose target is its own final measure and whose
    C is its own shift u_target(0) - final_potential(0), so its residual is 0."""
    cuts = random_cuts(rng, mu0)
    first = cw_run(mu0, cuts, mu0, gap_constant(mu0, mu0))
    target = first.final_measure
    return cw_run(mu0, cuts, target, target.potential().evaluate(0) - first.final_potential.evaluate(0))


@given(seed=st.integers(0, 2**32),
       kind=st.sampled_from(["custom", "azema-yor", "reversed-azema-yor", "jacka"]),
       expect=st.none())
@settings(max_examples=80, deadline=None)
@example(seed=0, kind="custom", expect=True)
@example(seed=1, kind="custom", expect=False)
def test_structural_check_is_C_check(seed, kind, expect):
    """For a plan with residual 0, no step strictly contains a contact point
    exactly when plan.C equals the pair's gap constant.  Three facts:
    - a cut lowers the potential only strictly inside its interval, so the
      final potential equals u0 at every point no step strictly contains
      and lies below it at every other point;
    - u0 = c = u_target - pair.C at every contact point;
    - residual 0 means the final potential is u_target - plan.C.
    So at a contact point the final potential is u0 - (plan.C - pair.C),
    and it lies below u0 (some step strictly contains the point) exactly
    when plan.C > pair.C."""
    rng = random.Random(seed)
    mu0, mu = random_prob_measure(rng, 6), random_prob_measure(rng, 6)
    plan = _self_target_plan(rng, mu0) if kind == "custom" else PLAN_BUILDERS[kind](rng, mu0, mu)
    assert plan.residual == 0
    ok = minimality._structural_ok(plan, contact_region(plan.mu0, plan.target))
    assert ok == (plan.C == pair(plan.mu0, plan.target).C)
    if expect is not None:  # both outcomes occur
        assert ok == expect


def test_structural_check_is_not_C_check_off_residual_0():
    # a complete but inexact plan: the C comparison fails while no step
    # crosses a contact point, so the scan stays
    mu = AtomicMeasure.from_pairs([(-2, F(1, 4)), (0, F(1, 2)), (2, F(1, 4))])
    plan = cw_run(PM1, ay_sweep(PM1, mu), mu, pair(PM1, mu).C + F(1, 10**10))
    assert plan.residual == F(1, 10**10) and plan.complete
    assert minimality._structural_ok(plan, contact_region(PM1, mu))
    assert plan.C != pair(PM1, mu).C


def min_exceedance(plan, y):
    """The exact P(running min <= y) of a plan: the max law at -y of its
    mirror image under x -> -x."""
    neg = lambda e: None if e is None else -e  # noqa: E731
    mirrored = [Interval(neg(st_.interval.upper), neg(st_.interval.lower)) for st_ in plan.steps]
    return _max_exceedance_exact(reflect(plan.mu0), mirrored, -y)


#: delta_0 -> delta_0 cut by y = -1, y = x - 1 and y = -x - 1 at C = 1: exact,
#: but no minimal embedding (plan.C > pair.C), and P(max >= 1/2) = 2/3
NONMINIMAL = (D0, D0, [Tangent(F(0), F(-1)), Tangent(F(1), F(-1)), Tangent(F(-1), F(-1))], 1)


@given(seed=st.integers(0, 2**32), custom=st.none())
@example(seed=0, custom=NONMINIMAL)
@settings(max_examples=150, deadline=None)
def test_azema_yor_optimality(seed, custom):
    # the paper's optimality statement, exactly: every exact, structurally ok
    # plan keeps P(max >= x) within max_law_bound and P(min <= x) within the
    # mirrored bound, at each atom of mu0 and mu and half a unit either side;
    # Azema-Yor attains the max bound and its reverse the min bound wherever
    # the bound is positive.  ``custom`` is a pair, lines and C cut in place
    # of the azema-yor, reversed and jacka plans of a random pair
    rng = random.Random(seed)
    if custom is None:
        mu0, mu = random_prob_measure(rng, 6), random_prob_measure(rng, 6)
        kinds = ("azema-yor", "reversed-azema-yor", "jacka")
        plans = {kind: PLAN_BUILDERS[kind](rng, mu0, mu) for kind in kinds}
    else:
        mu0, mu, lines, C = custom
        plans = {"custom": cw_run(mu0, lines, mu, C)}
    region, mirror = contact_region(mu0, mu), (reflect(mu0), reflect(mu))
    points = sorted({a + d for a in mu0.positions + mu.positions for d in (F(-1, 2), 0, F(1, 2))})
    max_bounds = [max_law_bound(mu0, mu, x) for x in points]
    min_bounds = [max_law_bound(*mirror, -x) for x in points]
    for kind, plan in plans.items():
        assert plan.residual == 0
        max_law = [exceedance(plan, x) for x in points]
        min_law = [min_exceedance(plan, x) for x in points]
        within = all(v <= b for v, b in zip(max_law + min_law, max_bounds + min_bounds))
        assert minimality._structural_ok(plan, region) == within == (custom is None)
        for law, bounds, attains in ((max_law, max_bounds, "azema-yor"),
                                     (min_law, min_bounds, "reversed-azema-yor")):
            if kind == attains:
                assert all(v == b for v, b in zip(law, bounds) if b > 0)
    if custom is not None:
        assert exceedance(plans["custom"], F(1, 2)) == F(2, 3) and max_bounds[-1] == 0


@given(seed=st.integers(0, 2**32), k=st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_local_time_on_contact_set(seed, k):
    # ROADMAP item 2's exact statement: the expected local time at a is
    # u0(a) - g(a), g the final potential, so at every finite contact end of
    # a residual-0 plan it is plan.C - pair.C: 0 on the azema-yor, reversed
    # and jacka plans, and k/8 on the lifted plan at pair.C + k/8, which is
    # exact but crosses the contact set
    rng = random.Random(seed)
    mu0, mu = random_prob_measure(rng, 6), random_prob_measure(rng, 6)
    p = pair(mu0, mu)
    kinds = ("azema-yor", "reversed-azema-yor", "jacka")
    plans = [PLAN_BUILDERS[kind](rng, mu0, mu) for kind in kinds]
    lifted = lifted_ay_plan(mu0, mu, p.C + F(k, 8))
    assert lifted.residual == 0
    assert not minimality._structural_ok(lifted, contact_region(mu0, mu))
    ends = [a for comp in p.contact for a in comp if isinstance(a, F)]
    for plan in plans + [lifted]:
        if plan.residual == 0:
            g = plan.final_potential
            assert all(p.u0.evaluate(a) - g.evaluate(a) == plan.C - p.C for a in ends)


class TestReport:
    def test_lifted_pair_plan(self):
        plan = ay_plan(PM1, D0)
        rep = minimality_report(plan, 20_000, [2.0, 4.0], seed=3)
        assert rep.C == 1 and rep.structural_ok and not rep.ui_embedding
        for t in rep.tail_estimates:
            assert t.below == 0.0 and t.above == 0.0

    def test_bounded_ui_plan(self):
        plan = cw_run(D0, [Tangent.make(0, -1)], PM1, 0)
        rep = minimality_report(plan, 20_000, [2.0], seed=5)
        assert rep.ui_embedding and rep.structural_ok
        assert rep.tail_estimates[0].below == 0.0
        assert rep.tail_estimates[0].above == 0.0

    def test_bad_plan_detected(self):
        tangents = [Tangent.make(0, -2), Tangent.make(-1, -2), Tangent.make(1, -2)]
        bad = cw_run(PM1, tangents, D0, 2)
        assert bad.complete
        rep = minimality_report(bad, 5_000, [2.0], seed=7)
        assert not rep.structural_ok
        # the wasteful construction leaks past the contact point: scaled tails stay fat
        assert rep.tail_estimates[0].below > 3 * rep.tail_estimates[0].below_se > 0

    def test_incomplete_plan_rejected(self):
        plan = vallois_eps_plan(D0, PM1, F(1, 2), 1)
        with pytest.raises(IncompletePlanError):
            minimality_report(plan, 100, [2.0], seed=1)


# float thirds: the doubles 2/3 and 1/3 sum to 1 - 2**-54, not 1
FLOAT_THIRDS = AtomicMeasure.from_pairs([(-1, 2 / 3), (2, 1 / 3)])


@pytest.mark.parametrize(
    "entry",
    [
        lambda m: gap_constant(D0, m),
        lambda m: cw_run(D0, [], m, 0),
        lambda m: ay_sweep(D0, m),
        lambda m: reversed_ay_sweep(D0, m),
        lambda m: jacka_plan(D0, m),
        lambda m: vallois_eps_plan(D0, m, F(1, 2), 10),
        lambda m: contact_region(D0, m),
        lambda m: max_law_bound(D0, m, 1),
        lambda m: barycentre_phi(D0, m, 1),
        lambda m: ay_max_law(D0, m, 1),
        lambda m: minimality_report(EmbeddingPlan(D0, m, F(0), ()), 100, [1], 0),
        lambda m: cw_run(m, [], D0, 0),
    ],
    ids=["gap_constant", "cw_run", "ay_sweep", "reversed_ay_sweep", "jacka_plan",
         "vallois_eps_plan", "contact_region", "max_law_bound", "barycentre_phi",
         "ay_max_law", "minimality_report", "cw_run-mu0"],
)
def test_pair_mass_must_be_exactly_one(entry):
    with pytest.raises(InvalidParameterError, match="mass exactly 1"):
        entry(FLOAT_THIRDS)
