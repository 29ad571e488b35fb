import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    InvalidSplitError,
    contact_scan,
    grid_point,
    mass_below,
    mass_upto,
    probe_points,
    random_cuts,
    random_prob_measure,
    reflect,
    split_at,
    sup_difference_by_probes,
)
from cwembed import (
    AtomicMeasure,
    InvalidParameterError,
    MalformedPotentialError,
    PLConcave,
    Tangent,
    ay_sweep,
    balayage_finite,
    cw_run,
    cw_step,
    gap_constant,
    sup_difference,
    vallois_eps_plan,
)
from cwembed.measure import _out_of_range, frac, kink_probes, pair

D0 = AtomicMeasure.point(0)
PM1 = AtomicMeasure.from_pairs([(-1, F(1, 2)), (1, F(1, 2))])
ASYM = AtomicMeasure.from_pairs([(-1, F(2, 3)), (2, F(1, 3))])


def brute_potential(m, x):
    # direct evaluation of the defining integral
    return -sum(w * abs(F(x) - p) for p, w in m.atoms)


measures = st.builds(
    lambda pairs: AtomicMeasure.from_pairs(
        [(F(x, 8), F(w, sum(p[1] for p in pairs))) for (x, w) in pairs]
    ),
    st.lists(
        st.tuples(st.integers(-80, 80), st.integers(1, 30)),
        min_size=1,
        max_size=10,
        unique_by=lambda p: p[0],
    ),
)


class TestPotential:
    def test_point_mass(self):
        u = D0.potential()
        for x in [-3, -1, 0, F(1, 2), 2, 10]:
            assert u.evaluate(x) == -abs(F(x))

    def test_two_atoms(self):
        u = PM1.potential()
        assert u.evaluate(0) == -1
        assert u.evaluate(2) == -2
        assert u.evaluate(-2) == -2

    def test_asymmetric(self):
        assert ASYM.potential().evaluate(0) == F(-4, 3)

    def test_matches_defining_sum(self):
        rng = random.Random(101)
        for _ in range(100):
            m = random_prob_measure(rng, max_atoms=12)
            u = m.potential()
            for _ in range(10):
                x = F(rng.randint(-200, 200), 16)
                assert u.evaluate(x) == brute_potential(m, x)


class TestEvaluate:
    def test_flat_segment(self):
        assert PM1.potential().evaluate(F(1, 2)) == -1

    def test_left_asymptote(self):
        # u(x) + |x| -> 0 for a centred measure
        assert PM1.potential().evaluate(-3) == -3

    def test_far_field(self):
        assert D0.potential().evaluate(3) == -3

    def test_anchor_anywhere(self):
        # the values follow from the anchor wherever it sits: left of every
        # kink, on one, between two or right of them all
        rng = random.Random(12)
        for _ in range(50):
            m = random_prob_measure(rng, max_atoms=8)
            u = m.potential()
            for x in [u.xs[0] - 1, u.xs[-1] + 1, rng.choice(u.xs), F(rng.randint(-170, 170), 16)]:
                moved = PLConcave(u.left_slope, u.breakpoints, (x, brute_potential(m, x)))
                assert moved.values == tuple(brute_potential(m, y) for y in u.xs)
                assert moved.evaluate(x + F(1, 3)) == brute_potential(m, x + F(1, 3))


def _walk_case(seed, kind):
    """A potential of the given kind and ascending points: kinks, points
    between kinks and beyond both ends, some of them repeated."""
    rng = random.Random(seed)
    mu0, mu = random_prob_measure(rng), random_prob_measure(rng)
    if kind == "affine":
        f = PLConcave(F(rng.randint(-4, 4), 4), (), (grid_point(rng), grid_point(rng)))
    elif kind == "measure":
        f = mu0.potential()
    elif kind == "shifted":
        f = mu0.potential().shift(F(rng.randint(-40, 40), 7))
    else:  # a running potential of random cuts, some of them of half lines
        plan = cw_run(mu0, random_cuts(rng, mu0), mu, gap_constant(mu0, mu))
        f = rng.choice([st_.potential_after for st_ in plan.steps] or [plan.final_potential])
    xs = list(f.xs) or [f.anchor[0]]
    pts = [xs[0] - F(rng.randint(1, 40), 8), xs[-1] + F(rng.randint(1, 40), 8)]
    pts += rng.sample(xs, rng.randint(0, len(xs)))
    pts += [a + (b - a) * F(rng.randint(1, 7), 8) for a, b in zip(xs, xs[1:]) if rng.random() < 0.5]
    pts += [grid_point(rng) for _ in range(rng.randint(0, 4))]
    pts += rng.choices(pts, k=rng.randint(0, 4))  # repeated points
    return f, sorted(pts)


class TestValuesAt:
    @given(seed=st.integers(0, 2**32),
           kind=st.sampled_from(["measure", "shifted", "cuts", "affine"]))
    @settings(max_examples=120, deadline=None)
    def test_equals_evaluate(self, seed, kind):
        f, pts = _walk_case(seed, kind)
        assert f.values_at(pts) == [f.evaluate(x) for x in pts]

    def test_no_points(self):
        assert PM1.potential().values_at([]) == []

    def test_kink_values_are_read(self):
        u = ASYM.potential()
        assert all(a is b for a, b in zip(u.values_at(list(u.xs)), u.values, strict=True))


class TestDerivatives:
    def test_point_mass_kink(self):
        assert D0.potential().derivatives(0) == (1, -1)

    def test_at_atom(self):
        assert PM1.potential().derivatives(-1) == (1, 0)

    def test_between_atoms(self):
        assert PM1.potential().derivatives(0) == (0, 0)

    def test_cdf_formula_random(self):
        rng = random.Random(77)
        for _ in range(50):
            m = random_prob_measure(rng, max_atoms=20)
            u = m.potential()
            for _ in range(20):
                x = F(rng.randint(-200, 200), 16)
                left, right = u.derivatives(x)
                assert left == 1 - 2 * mass_below(m, x)
                assert right == 1 - 2 * mass_upto(m, x)


class TestMean:
    @pytest.mark.parametrize(
        "m,expect", [(D0, 0), (PM1, 0), (ASYM, 0)]
    )
    def test_examples(self, m, expect):
        assert m.mean() == expect

    def test_asymptote(self):
        rng = random.Random(5)
        for _ in range(20):
            m = random_prob_measure(rng)
            u = m.potential()
            span = max(abs(x) for x in m.positions) + 1
            X = 10**6 * span
            mean = m.mean()
            tol = F(1, 10**6) * max(1, abs(mean))
            assert abs((u.evaluate(X) + X) - mean) <= tol
            assert abs((u.evaluate(-X) + X) + mean) <= tol


class TestMeasureFromPotential:
    def test_point_mass(self):
        u = PLConcave(F(1), ((F(0), F(2)),), (F(0), F(0)))
        assert u.measure() == D0

    def test_flat_trough(self):
        u = PLConcave(F(1), ((F(-1), F(1)), (F(1), F(1))), (F(-1), F(-1)))
        assert u.measure() == PM1

    def test_round_trip(self):
        assert ASYM.potential().measure() == ASYM

    def test_malformed(self):
        lopsided = PLConcave(F(1), ((F(0), F(1)),), (F(0), F(0)))  # right slope 0
        with pytest.raises(MalformedPotentialError):
            lopsided.measure()

    @given(measures)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, m):
        assert m.potential().measure() == m


class TestSplit:
    def test_no_atom_at_cut(self):
        lo, hi = split_at(PM1, 0, F(1, 2))
        assert lo == AtomicMeasure.from_pairs([(-1, F(1, 2))])
        assert hi == AtomicMeasure.from_pairs([(1, F(1, 2))])

    def test_divides_atom(self):
        lo, hi = split_at(D0, 0, F(3, 10))
        assert lo == AtomicMeasure.from_pairs([(0, F(3, 10))])
        assert hi == AtomicMeasure.from_pairs([(0, F(7, 10))])

    def test_out_of_bracket(self):
        with pytest.raises(InvalidSplitError):
            split_at(D0, 0, F(3, 2))

    @given(measures, st.integers(-100, 100), st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_mass_partition(self, m, anum, tnum):
        a = F(anum, 8)
        lo_m, hi_m = mass_below(m, a), mass_upto(m, a)
        theta = lo_m + (hi_m - lo_m) * F(tnum, 100)
        lo, hi = split_at(m, a, theta)
        assert lo.total_mass == theta
        assert lo.total_mass + hi.total_mass == m.total_mass
        assert all(x <= a for x in lo.positions)
        assert all(x >= a for x in hi.positions)


class TestSupDifference:
    def test_identical(self):
        assert sup_difference(D0.potential(), D0.potential()) == 0

    def test_trough_gap(self):
        assert sup_difference(D0.potential(), PM1.potential()) == 1

    def test_shifted_point_masses(self):
        d2 = AtomicMeasure.point(2)
        assert sup_difference(D0.potential(), d2.potential()) == 2

    def test_zero_iff_equal(self):
        rng = random.Random(13)
        for _ in range(40):
            a = random_prob_measure(rng)
            b = random_prob_measure(rng)
            d = sup_difference(a.potential(), b.potential())
            assert (d == 0) == (a == b)

    @given(seed=st.integers(0, 2**32),
           kind=st.sampled_from(["random", "reweighted", "shifted", "exact", "vallois"]))
    @settings(max_examples=80, deadline=None)
    def test_matches_probe_oracle(self, seed, kind):
        # independent potentials, the same atoms with other weights (equal
        # kink positions, other drops), equal kinks (f - g constant, as for
        # an exact plan's final potential and c) and the running potentials
        # of a Vallois plan against its c
        rng = random.Random(seed)
        mu0, mu = random_prob_measure(rng), random_prob_measure(rng)
        if kind == "random":
            pairs = [(mu0.potential(), mu.potential())]
        elif kind == "reweighted":
            ws = [rng.randint(1, 20) for _ in mu0.atoms]
            other = AtomicMeasure.from_pairs(
                [(x, F(w, sum(ws))) for x, w in zip(mu0.positions, ws)])
            pairs = [(mu0.potential(), other.potential())]
        elif kind == "shifted":
            u, c = mu0.potential(), F(rng.randint(-40, 40), 7)
            pairs = [(u, u.shift(c)), (u.shift(c), u)]
            assert sup_difference(u, u.shift(c)) == abs(c)
        elif kind == "exact":
            plan = cw_run(mu0, ay_sweep(mu0, mu), mu, gap_constant(mu0, mu))
            pairs = [(plan.final_potential, pair(mu0, mu).c)]
            assert plan.final_potential.breakpoints == pairs[0][1].breakpoints
            assert plan.residual == 0
        else:
            plan = vallois_eps_plan(mu0, mu, F(1, rng.choice([2, 4, 8])), 8)
            c = pair(mu0, mu).c
            pairs = [(g, c) for g in [pair(mu0, mu).u0] + [s.potential_after for s in plan.steps]]
        for f, g in pairs:
            assert sup_difference(f, g) == sup_difference_by_probes(f, g)

    @pytest.mark.parametrize("other", [
        lambda u: PLConcave(F(1, 2), u.breakpoints, u.anchor),  # the same kinks
        lambda u: PLConcave(u.left_slope, u.breakpoints[:-1] + ((F(5), F(1, 2)),), u.anchor),
        lambda u: AtomicMeasure.point(0, F(1, 2)).potential(),
    ], ids=["left", "right", "both"])
    def test_unequal_extreme_slopes_raise(self, other):
        u = PM1.potential()
        for f, g in [(u, other(u)), (other(u), u)]:
            for sup in (sup_difference, sup_difference_by_probes):
                with pytest.raises(ValueError, match="extreme slopes differ"):
                    sup(f, g)


class TestConcavity:
    @given(measures)
    @settings(max_examples=60, deadline=None)
    def test_slopes_non_increasing(self, m):
        u = m.potential()
        slopes = u.slopes
        assert all(s1 > s2 for s1, s2 in zip(slopes, slopes[1:]))

    @given(measures, st.integers(-150, 150), st.integers(-150, 150), st.integers(1, 99))
    @settings(max_examples=80, deadline=None)
    def test_midpoint_above_chord(self, m, p, q, t):
        if p == q:
            return
        u = m.potential()
        a, b, lam = F(p, 8), F(q, 8), F(t, 100)
        x = lam * a + (1 - lam) * b
        assert u.evaluate(x) >= lam * u.evaluate(a) + (1 - lam) * u.evaluate(b)


class TestGapConstant:
    def test_needs_lift(self):
        assert gap_constant(PM1, D0) == 1

    def test_ordered_pair(self):
        assert gap_constant(D0, PM1) == 0

    def test_self(self):
        assert gap_constant(D0, D0) == 0

    def test_nonnegative_random(self):
        rng = random.Random(31)
        for _ in range(50):
            a, b = random_prob_measure(rng), random_prob_measure(rng)
            g = gap_constant(a, b)
            assert g >= 0
            # g is the exact sup: the shifted potential sits below u_a, touching
            ua, ub = a.potential(), b.potential().shift(-g)
            diffs = [ua.evaluate(x) - ub.evaluate(x) for x in probe_points(ua, ub)]
            assert min(diffs) == 0


def _balayage_target(rng, mu0):
    """mu0 swept out of one interval: the same mean, and the two potentials
    agree outside the interval."""
    a = min(mu0.positions) + F(rng.randint(0, 32), 16)
    return balayage_finite(mu0, a, a + F(rng.randint(1, 64), 16))


def _tails_target(rng, mu0):
    """The measure left by cutting each ray of u0 with a parallel line: u0
    then meets the shifted target potential on a finite flat run between
    the two cuts."""
    g = mu0.potential()
    for s, x in ((1, mu0.positions[0]), (-1, mu0.positions[-1])):
        d = F(rng.randint(1, 8), 16)
        g = cw_step(g, mu0, Tangent(F(s), g.evaluate(x) - s * x - d)).potential_after
    return g.measure()


class TestPair:
    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_matches_fresh_scan(self, seed):
        rng = random.Random(seed)
        mu0, mu = random_prob_measure(rng), random_prob_measure(rng)
        # the reference: fresh potentials and the gap scan over their kinks
        u0, ut = mu0.potential(), mu.potential()
        C = max(ut.evaluate(x) - u0.evaluate(x) for x in kink_probes(u0, ut))
        assert pair(mu0, mu)[:4] == (u0, ut, C, ut.shift(-C))
        assert pair(mu0, mu).contact == contact_scan(mu0, mu)
        assert gap_constant(mu0, mu) == C

    @given(seed=st.integers(0, 2**32), kind=st.sampled_from(["balayage", "tails"]))
    @settings(max_examples=60, deadline=None)
    def test_contact_matches_scan(self, seed, kind):
        # independent random pairs are checked in test_matches_fresh_scan
        rng = random.Random(seed)
        mu0 = random_prob_measure(rng, 6)
        mu = (_balayage_target if kind == "balayage" else _tails_target)(rng, mu0)
        contact = pair(mu0, mu).contact
        assert contact == contact_scan(mu0, mu)
        if kind == "balayage":  # equal means and u_mu <= u0: contact on both rays
            assert pair(mu0, mu).C == 0
            assert contact[0][0] == -math.inf and contact[-1][1] == math.inf

    def test_contact_kinds_occur(self):
        # the property's pairs hold contact on both rays and finite flat runs
        rng = random.Random(5)
        rays = runs = 0
        for _ in range(40):
            mu0 = random_prob_measure(rng, 6)
            for mu in (_balayage_target(rng, mu0), _tails_target(rng, mu0)):
                contact = pair(mu0, mu).contact
                rays += contact[0][0] == -math.inf and contact[-1][1] == math.inf
                runs += any(-math.inf < lo < hi < math.inf for lo, hi in contact)
        assert rays >= 20 and runs >= 10

    def test_alternating_pairs(self):
        for _ in range(3):
            assert pair(PM1, D0).C == 1
            assert gap_constant(ASYM, D0) == F(4, 3)

    def test_mass_defect_raises_every_call(self):
        thirds = AtomicMeasure.from_pairs([(-1, 2 / 3), (2, 1 / 3)])
        for _ in range(3):
            with pytest.raises(InvalidParameterError, match="mass exactly 1"):
                pair(D0, thirds)


class TestFrac:
    @pytest.mark.parametrize("text, value", [
        ("0.3", F(3, 10)), ("1e5", F(10**5)), ("-2.5E-3", F(-1, 400)), ("0e999999999", F(0)),
        ("7/3", F(7, 3)), ("1e308", F(10**308)), ("1/1%s" % ("0" * 400), F(1, 10**400)),
        ("-%s/%s" % (10**400, 10**100), -F(10**300)),
    ])
    def test_strings(self, text, value):
        assert frac(text) == value

    @pytest.mark.parametrize("text", ["1e400", "-1e2000000", "1e-400", "inf", "nan", "x"])
    def test_refused_strings(self, text):
        with pytest.raises(ValueError):
            frac(text)

    @pytest.mark.parametrize("number", [10**400, -(10**309), "1%s/1" % ("0" * 400),
                                        "-%s/3" % (10**309)], ids=["int", "-int", "p/q", "-p/q"])
    def test_refused_beyond_double(self, number):
        # a "p/q" or an integer may underflow a double, but not overflow it
        with pytest.raises(ValueError, match="out of range"):
            frac(number)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_int_past_str_limit_named_short(self, sign):
        # str refuses an int of over 4300 digits; the message needs no str
        with pytest.raises(ValueError) as info:
            frac(sign * 10**5000)
        head = "10000000000000000000" if sign > 0 else "-1000000000000000000"
        assert str(info.value) == f"number {head}... (5001 digits) is out of range"

    def test_int_message_as_spelled(self):
        # an int that str can spell is named as it always was: in full up
        # to 40 characters, else by its first 20 and its digit count
        ints = [10**k + d for k in range(36, 4300, 37) for d in (-1, 0, 7)]
        for x in ints + [-x for x in ints]:
            s = str(x)
            s = s if len(s) <= 40 else f"{s[:20]}... ({len(s.lstrip('-'))} digits)"
            assert str(_out_of_range(x)) == f"number {s} is out of range"

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_refused(self, flag):
        with pytest.raises(TypeError):
            frac(flag)


class TestValidation:
    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            AtomicMeasure(((F(1), F(1, 2)), (F(0), F(1, 2))))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            AtomicMeasure(((F(0), F(0)),))

    def test_overweight_rejected(self):
        with pytest.raises(ValueError):
            AtomicMeasure.from_pairs([(0, 2)])

    def test_merge_and_order(self):
        m = AtomicMeasure.from_pairs([(1, F(1, 4)), (-1, F(1, 2)), (1, F(1, 4))])
        assert m == reflect(reflect(PM1))
        assert m.positions == (F(-1), F(1))

    def test_wire_round_trip(self):
        m = AtomicMeasure.from_pairs([(-1.5, 0.25), (0.5, 0.75)])
        assert AtomicMeasure.from_wire(m.to_wire()) == m

    def test_hash_of_equal_measures(self):
        # built apart, equal measures hash equal: the hash is the atoms'
        a = AtomicMeasure.from_pairs([(1, F(1, 4)), (-1, F(3, 4))])
        b = AtomicMeasure.from_wire([["-1", "3/4"], [1, 0.25]])
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash(a.atoms)
        assert len({a, b, PM1}) == 2
