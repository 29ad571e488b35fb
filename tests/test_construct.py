import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
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
from cwembed.construct import _cut_interval
from cwembed.diagram import render_plan_svg
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
    """Reference for construct._cut_interval on a potential with breakpoints
    that f does not lie below everywhere: d = g - f at every breakpoint, then
    the zero of d on the piece beyond the first and last positive one."""
    xs, slopes, ds = g.xs, g.slopes, [v - f(x) for x, v in zip(g.xs, g.values)]
    zero = lambda i, k: xs[i] - ds[i] / (slopes[k] - f.slope)  # noqa: E731
    sl_left, sl_right = slopes[0] - f.slope, slopes[-1] - f.slope
    pos_left = sl_left < 0 or (sl_left == 0 and ds[0] > 0)
    pos_right = sl_right > 0 or (sl_right == 0 and ds[-1] > 0)
    pos, n = [i for i, d in enumerate(ds) if d > 0], len(xs)
    if not (pos or pos_left or pos_right):
        return None
    lo = None if pos_left else zero(pos[0], pos[0]) if pos else zero(n - 1, n)
    hi = None if pos_right else zero(pos[-1], pos[-1] + 1) if pos else zero(0, 0)
    return lo, hi


@given(seed=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_cut_interval_matches_scan(seed):
    # running potentials after a few cuts, and lines of every slope in
    # [-1, 1], some through a breakpoint (touching or just below it)
    rng = random.Random(seed)
    m = random_prob_measure(rng, 8, span=4, denom=4)
    g = m.potential()
    for _ in range(rng.randint(0, 3)):
        st_ = cw_step(g, m, Tangent(F(rng.randint(-4, 4), 4), F(rng.randint(-40, 0), 4)))
        g, m = st_.potential_after, st_.measure_after
    for _ in range(30):
        s = F(rng.randint(-4, 4), 4)
        k = rng.randrange(len(g.xs))
        b = g.values[k] - s * g.xs[k] + F(rng.randint(-2, 1), 8) * rng.randint(0, 1)
        f = Tangent(s, b if rng.random() < 0.5 else F(rng.randint(-60, 20), 8))
        assert _cut_interval(g, f) == _scan_cut_interval(g, f)


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


@given(seed=st.integers(0, 2**32), kind=st.sampled_from(sorted(PLAN_BUILDERS)))
@settings(max_examples=60, deadline=None)
def test_spliced_potential_matches_rebuild(seed, kind):
    # each cut splices the running potential: its pieces equal a validating
    # rebuild, it is the previous potential off [lo, hi], and its slope drops
    # give the balayage of the previous measure
    rng = random.Random(seed)
    mu0, mu = random_prob_measure(rng, 6), random_prob_measure(rng, 6)
    plan = PLAN_BUILDERS[kind](rng, mu0, mu)
    g, m = mu0.potential(), mu0
    for st_ in plan.steps:
        new, iv = st_.potential_after, st_.interval
        rebuilt = PLConcave(new.left_slope, new.breakpoints, new.anchor)
        assert (new.xs, new.slopes, new.values) == (rebuilt.xs, rebuilt.slopes, rebuilt.values)
        for x in probe_points(g, new) + [e for e in (iv.lower, iv.upper) if e is not None]:
            if contains_strict(iv, x):
                assert new.evaluate(x) == st_.tangent(x) < g.evaluate(x)
            else:
                assert new.evaluate(x) == g.evaluate(x)
        assert st_.measure_after == balayage(m, iv)
        g, m = new, st_.measure_after


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
    return [f for f in lines if _cut_interval(u0, f) is not None]


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
def test_build_computes_one_pair(kind):
    # every call of a build reads one pair: no reflected or other second pair
    mu0 = AtomicMeasure.from_pairs([(-1, F(1, 4)), (F(1, 2), F(3, 4))])
    pair.cache_clear()
    PLANS[kind](mu0, FOUR)
    assert pair.cache_info().misses == 1


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
