import gc
import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cwembed.simulate as sim
from cwembed import (
    AtomicMeasure,
    EmbeddingPlan,
    EmpiricalLaw,
    IncompletePlanError,
    InvalidParameterError,
    Tangent,
    ay_max_law,
    ay_sweep,
    contact_region,
    cw_run,
    empirical_law,
    gap_constant,
    sample_path,
    tail_probability,
    tv_distance,
    vallois_eps_plan,
)
from cwembed.cli import main
from conftest import PLAN_BUILDERS, random_prob_measure

# every float warning is a failure: the kernel only divides where it is safe
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

D0 = AtomicMeasure.point(0)
PM1 = AtomicMeasure.from_pairs([(-1, F(1, 2)), (1, F(1, 2))])
ASYM = AtomicMeasure.from_pairs([(-1, F(2, 3)), (2, F(1, 3))])

TROUGH_PLAN = cw_run(D0, [Tangent.make(0, -1)], PM1, 0)
LIFT_PLAN = cw_run(PM1, ay_sweep(PM1, D0), D0, 1)
EMPTY_PLAN = cw_run(D0, [], D0, 0)
WASTEFUL_PLAN = cw_run(
    PM1, [Tangent.make(0, -2), Tangent.make(-1, -2), Tangent.make(1, -2)], D0, 2
)
AY_PLAN = cw_run(D0, ay_sweep(D0, ASYM), ASYM, 0)
VALLOIS_PLAN = vallois_eps_plan(D0, PM1, F(1, 2), 200)

NAMED_PLANS = {
    "trough": TROUGH_PLAN,
    "lift": LIFT_PLAN,
    "wasteful": WASTEFUL_PLAN,
    "azema-yor": AY_PLAN,
    "vallois": VALLOIS_PLAN,
}


class TestSamplePath:
    def test_two_point_exit(self):
        finals = {sample_path(TROUGH_PLAN, 11, i).final for i in range(50)}
        assert finals == {-1.0, 1.0}

    def test_invariants(self):
        for i in range(200):
            p = sample_path(TROUGH_PLAN, 12, i)
            assert p.final == p.exits[-1][1]
            assert p.max >= max(p.start, p.final)
            assert p.min <= min(p.start, p.final)

    def test_empty_plan(self):
        p = sample_path(EMPTY_PLAN, 1, 0)
        assert p.final == p.start == p.max == p.min
        assert p.exits == ()

    def test_deterministic_per_index(self):
        a = sample_path(TROUGH_PLAN, 5, 7)
        b = sample_path(TROUGH_PLAN, 5, 7)
        assert a == b

    def test_incomplete_rejected(self):
        truncated = vallois_eps_plan(D0, PM1, F(1, 2), 1)
        with pytest.raises(IncompletePlanError):
            sample_path(truncated, 0, 0)

    @pytest.mark.parametrize("index", [-1, -(2**64), sim.MAX_PATHS, 2**256])
    def test_index_outside_batch_rejected(self, index):
        # a batch has no row below 0 or at MAX_PATHS and above for the path
        # to match; at 2**256 Philox's counter wraps onto row 0
        with pytest.raises(InvalidParameterError, match="index"):
            sample_path(TROUGH_PLAN, 5, index)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_key_rejected(self, seed):
        with pytest.raises(InvalidParameterError, match="seed"):
            sample_path(TROUGH_PLAN, seed, 0)
        with pytest.raises(InvalidParameterError, match="seed"):
            empirical_law(TROUGH_PLAN, 10, seed)


class TestEmpiricalLaw:
    def test_two_point_frequencies(self):
        law = empirical_law(TROUGH_PLAN, 100_000, seed=7)
        se = math.sqrt(0.25 / 100_000)
        assert abs(law.atom_frequencies[-1.0] - 0.5) <= 3 * se
        assert abs(law.atom_frequencies[1.0] - 0.5) <= 3 * se

    def test_empty_plan_point_mass(self):
        law = empirical_law(EMPTY_PLAN, 10, seed=0)
        assert law.atom_frequencies == {0.0: 1.0}

    def test_deterministic_steps_give_exact_law(self):
        law = empirical_law(LIFT_PLAN, 10_000, seed=3)
        assert law.atom_frequencies == {0.0: 1.0}

    def test_mean_drift_zero_shift(self):
        law = empirical_law(TROUGH_PLAN, 100_000, seed=19)
        mean = sum(p * f for p, f in law.atom_frequencies.items())
        assert abs(mean - 0.0) <= 3 / math.sqrt(100_000)

    def test_determinism_and_chunk_invariance(self, monkeypatch):
        a = empirical_law(TROUGH_PLAN, 30_000, seed=9, thresholds=[0.3])
        monkeypatch.setattr(sim, "_memo", None)  # simulate again, not reread
        b = empirical_law(TROUGH_PLAN, 30_000, seed=9, thresholds=[0.3])
        assert a == b
        monkeypatch.setattr(sim, "_memo", None)
        monkeypatch.setattr(sim, "_CHUNK", 777)
        c = empirical_law(TROUGH_PLAN, 30_000, seed=9, thresholds=[0.3])
        assert a == c

    def test_batch_matches_single_paths(self, monkeypatch):
        monkeypatch.setattr(sim, "_CHUNK", 64)  # rows 63/64 and 127/128 straddle chunks
        for plan in NAMED_PLANS.values():
            paths = sim._run_all(plan, 500, 42)
            for i in [0, 1, 63, 64, 99, 127, 128, 499]:
                p = sample_path(plan, 42, i)
                assert (p.start, p.final, p.max, p.min) == (
                    paths.start[i],
                    paths.final[i],
                    paths.gmax[i],
                    paths.gmin[i],
                )

    def test_n_validation_shared(self):
        region = contact_region(D0, PM1)
        with pytest.raises(InvalidParameterError):
            empirical_law(TROUGH_PLAN, 0, seed=0)
        with pytest.raises(InvalidParameterError):
            tail_probability(TROUGH_PLAN, 1.0, "below", region, 0, seed=0)

    def test_path_ceiling_checked_before_allocating(self, monkeypatch):
        def allocate(plan, n, seed):
            raise AssertionError(f"allocated {n} paths")

        monkeypatch.setattr(sim, "_run_all", allocate)
        monkeypatch.setattr(sim, "_memo", None)
        region = contact_region(D0, PM1)
        for n in (sim.MAX_PATHS + 1, 10**20):
            with pytest.raises(InvalidParameterError):
                empirical_law(TROUGH_PLAN, n, seed=0)
            with pytest.raises(InvalidParameterError):
                tail_probability(TROUGH_PLAN, 1.0, "below", region, n, seed=0)


class TestMaxLaw:
    def test_matches_analytic_race(self):
        ay = cw_run(D0, ay_sweep(D0, PM1), PM1, 0)
        thresholds = [0.1, 0.25, 0.5, 0.75, 0.95]
        n = 100_000
        law = empirical_law(ay, n, seed=23, thresholds=thresholds)
        for t in thresholds:
            p = float(ay_max_law(D0, PM1, F(t)))
            se = math.sqrt(p * (1 - p) / n)
            assert abs(law.max_exceedance[t] - p) <= 3 * se

    def test_asymmetric_plan(self):
        ay = cw_run(D0, ay_sweep(D0, ASYM), ASYM, 0)
        n = 100_000
        law = empirical_law(ay, n, seed=29, thresholds=[0.5, 1.0, 1.5])
        for t in [0.5, 1.0, 1.5]:
            p = float(ay_max_law(D0, ASYM, F(t)))
            se = math.sqrt(p * (1 - p) / n)
            assert abs(law.max_exceedance[t] - p) <= 3 * se


class TestTvDistance:
    def test_exact_match(self):
        law = EmpiricalLaw(4, {-1.0: 0.5, 1.0: 0.5}, {})
        assert tv_distance(law, PM1) == 0

    def test_disjoint(self):
        law = empirical_law(EMPTY_PLAN, 10, seed=0)
        assert tv_distance(law, PM1) == 1

    def test_large_sample_close(self):
        law = empirical_law(TROUGH_PLAN, 100_000, seed=31)
        assert tv_distance(law, PM1) < 0.01

    def test_position_matching_tolerance(self):
        law = EmpiricalLaw(2, {-1.0 + 1e-12: 0.5, 1.0: 0.5}, {})
        assert tv_distance(law, PM1) == 0

    def test_distinct_target_atoms_not_merged(self):
        # all the mass on the wrong one of two atoms closer than ATOM_TOL
        near = AtomicMeasure.from_pairs([(0, F(1, 2)), (F(1, 10**10), F(1, 2))])
        assert tv_distance(EmpiricalLaw(100, {0.0: 1.0}, {}), near) == 0.5


class TestTails:
    def test_bounded_plan_has_no_tails(self):
        region = contact_region(PM1, D0)
        est, se = tail_probability(LIFT_PLAN, 2.0, "below", region, 20_000, seed=37)
        assert est == 0.0 and se == 0.0
        est, se = tail_probability(LIFT_PLAN, 2.0, "above", region, 20_000, seed=37)
        assert est == 0.0 and se == 0.0

    def test_trough_plan_confined(self):
        region = contact_region(D0, PM1)
        est, _ = tail_probability(TROUGH_PLAN, 2.0, "above", region, 20_000, seed=41)
        assert est == 0.0

    def test_empty_plan(self):
        region = contact_region(D0, D0)
        est, se = tail_probability(EMPTY_PLAN, 1.0, "below", region, 1_000, seed=43)
        assert est == 0.0 and se == 0.0

    def test_wasteful_plan_leaks(self):
        tangents = [Tangent.make(0, -2), Tangent.make(-1, -2), Tangent.make(1, -2)]
        bad = cw_run(PM1, tangents, D0, 2)
        region = contact_region(PM1, D0)
        n = 40_000
        est, se = tail_probability(bad, 4.0, "below", region, n, seed=47)
        # exact crossing probability: start at +1 (mass 1/2), swept to -2 with
        # probability 1/4, then dips below -4 before reaching 0 w.p. 1/2
        expect = 0.5 * 0.25 * 0.5
        assert abs(est - expect) <= 4 * math.sqrt(expect * (1 - expect) / n)
        assert se > 0

    def test_gamma_validation(self):
        region = contact_region(D0, PM1)
        with pytest.raises(InvalidParameterError):
            tail_probability(TROUGH_PLAN, -1.0, "below", region, 10, seed=0)
        with pytest.raises(InvalidParameterError):
            tail_probability(TROUGH_PLAN, 1.0, "sideways", region, 10, seed=0)


class TestWithinStepExtremes:
    def test_max_law_single_interval(self):
        # P(max >= m) for first exit of (-1, 1) from 0: closed form (1+... the
        # race to m before -1 times the continuation is 1/(1+m) at threshold m
        n = 100_000
        paths = sim._run_all(TROUGH_PLAN, n, 53)
        for m in [0.2, 0.5, 0.8]:
            p = 1.0 / (1.0 + m)
            se = math.sqrt(p * (1 - p) / n)
            assert abs(np.mean(paths.gmax >= m) - p) <= 3 * se
            assert abs(np.mean(paths.gmin <= -m) - p) <= 3 * se

    def test_exit_and_far_extreme_joint_law(self):
        # P(exit -1, max >= m) = P(reach m before -1) P(then exit at -1)
        # = 1/(1+m) (1-m)/2, and its mirror for min <= -m: the far extreme
        # reuses the exit's uniform, so this checks that the two stay independent
        n = 100_000
        paths = sim._run_all(TROUGH_PLAN, n, 79)
        for m in [0.2, 0.5, 0.8]:
            p = 1.0 / (1.0 + m) * (1.0 - m) / 2.0
            se = math.sqrt(p * (1 - p) / n)
            assert abs(np.mean((paths.final == -1.0) & (paths.gmax >= m)) - p) <= 3 * se
            assert abs(np.mean((paths.final == 1.0) & (paths.gmin <= -m)) - p) <= 3 * se

    @pytest.mark.parametrize("a, b", [(-1.0, 1.0), (-0.3, 1.7), (1e-3, 1e3)])
    def test_split_draw_edges(self, a, b):
        # the uniform's extremes and the exit's edge at q, also from one ulp
        # inside either end; one ulp above a, q rounds to 1 and the high side
        # is empty, and a division by it would warn, which fails this module
        assert (b - np.nextafter(a, b)) / (b - a) == 1.0
        for pos in (np.nextafter(a, b), 0.25 * a + 0.75 * b, np.nextafter(b, a)):
            q = (b - pos) / (b - a)
            w = np.array([x for x in (0.0, np.nextafter(q, 0), q, np.nextafter(1, 0)) if x < 1])
            u = np.zeros((len(w), 4))
            u[:, 1] = w
            new, hi, lo = sim._exit_law(u, np.arange(len(w)), 0, a, b, np.full(len(w), pos))
            low = w < q
            assert np.array_equal(new, np.where(low, a, b))
            assert np.all(lo <= pos) and np.all(pos <= hi)
            assert np.all(np.where(low, (lo == a) & (hi <= b), (hi == b) & (a <= lo)))

    def test_semi_infinite_spike(self):
        # collapse from +1 to 0: P(max >= m) = 1/m for m >= 1
        n = 100_000
        paths = sim._run_all(LIFT_PLAN, n, 59)
        for m in [2.0, 4.0]:
            p = 0.5 * (1.0 / m)  # only the mass starting at +1 spikes
            se = math.sqrt(p * (1 - p) / n)
            assert abs(np.mean(paths.gmax >= m) - p) <= 3 * se


def _reference_exit_law(u, k, a, b, pos):
    """The exit law of the full-length kernel: both extremes for every row,
    meaningful only for rows with a < pos < b.  Column 1+k gives the exit
    and, recycled on the exit's side, the far extreme."""
    w = u[:, 1 + k]
    if math.isfinite(a) and math.isfinite(b):
        q = (b - pos) / (b - a)
        to_lo = w < q
        vmax, vmin = (q - w) / q, (1.0 - w) / (1.0 - q)
        smax = pos + (b - pos) * ((pos - a) * (1.0 - vmax) / ((pos - a) + vmax * (b - pos)))
        smin = pos + (a - pos) * ((pos - b) * (1.0 - vmin) / ((pos - b) + vmin * (a - pos)))
        return np.where(to_lo, a, b), np.where(to_lo, smax, b), np.where(to_lo, a, smin)
    if math.isinf(b):
        return np.full_like(pos, a), a + (pos - a) / (1.0 - w), np.full_like(pos, a)
    return np.full_like(pos, b), np.full_like(pos, b), b - (b - pos) / (1.0 - w)


def _reference_chunk(pd, u):
    """The full-length kernel that per-step gathering replaced: every step
    runs the exit law on all rows and merges only the rows inside its
    interval."""
    start = pd.positions[np.searchsorted(pd.cum, u[:, 0], side="right")]
    pos, gmax, gmin = start.copy(), start.copy(), start.copy()
    pmax = np.full_like(start, -math.inf)
    pmin = np.full_like(start, math.inf)
    with np.errstate(invalid="ignore", divide="ignore"):
        for k, (a, b) in enumerate(pd.steps):
            inside = (pos > a) & (pos < b)
            newpos, rng_hi, rng_lo = _reference_exit_law(u, k, a, b, pos)
            pmax = np.where(inside, gmax, pmax)
            pmin = np.where(inside, gmin, pmin)
            gmax = np.where(inside, np.maximum(gmax, rng_hi), gmax)
            gmin = np.where(inside, np.minimum(gmin, rng_lo), gmin)
            pos = np.where(inside, newpos, pos)
    return sim._Paths(start, pos, gmax, gmin, pmax, pmin)


def _assert_same_bits(paths, ref):
    for name, got, want in zip(sim._Paths._fields, paths, ref):
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


def _simulable(plan):
    """The plan's steps with the target set to where they end, so that a plan
    stopped early or cut at random is complete and may be simulated."""
    end = plan.final_measure
    C = end.potential().evaluate(0) - plan.final_potential.evaluate(0)
    return EmbeddingPlan(plan.mu0, end, C, plan.steps)


def _random_plan(seed, kind):
    rng = random.Random(seed)
    mu0, mu = random_prob_measure(rng, 6), random_prob_measure(rng, 6)
    return _simulable(PLAN_BUILDERS[kind](rng, mu0, mu))


def _reference_crossings(pd, u, levels):
    """The per-level kernel the range-based crossing replaced: tc flags a
    touch of the level in the last step the path moved in (at first, the
    start), tb a touch in any earlier one."""
    pos = pd.positions[np.searchsorted(pd.cum, u[:, 0], side="right")]
    moved_any = np.zeros(len(pos), dtype=bool)
    tb = [np.zeros(len(pos), dtype=bool) for _ in levels]
    tc = [pos == lv for lv in levels]
    with np.errstate(invalid="ignore", divide="ignore"):
        for k, (a, b) in enumerate(pd.steps):
            inside = (pos > a) & (pos < b)
            newpos, rng_hi, rng_lo = _reference_exit_law(u, k, a, b, pos)
            for j, lv in enumerate(levels):
                touched = inside & (rng_lo <= lv) & (lv <= rng_hi)
                tb[j] = np.where(inside, tb[j] | tc[j], tb[j])
                tc[j] = np.where(inside, touched, tc[j])
            pos = np.where(inside, newpos, pos)
            moved_any |= inside
    return [moved_any & (tb[j] | (tc[j] & (pos != lv))) for j, lv in enumerate(levels)]


class TestRangeCrossings:
    @pytest.mark.parametrize("plan", NAMED_PLANS.values(), ids=NAMED_PLANS.keys())
    def test_matches_per_level_reference(self, plan):
        pd = sim._PlanData(plan)
        u = sim._stream(61, 0, pd.row_len).random((20_000, pd.row_len))
        paths = sim._run_chunk(pd, u)
        span = max(abs(x) for x in pd.positions.tolist() + [1.0])
        levels = {x for st in pd.steps for x in st if math.isfinite(x)}
        levels |= {float(x) for st in plan.steps for x in st.measure_after.positions}
        levels |= {float(x) for m in (plan.mu0, plan.target) for x in m.positions}
        levels |= {s * g * span for s in (-1, 1) for g in (2, 4, 8)}
        levels = sorted(levels)
        expected = _reference_crossings(pd, u, levels)
        for lv, ref in zip(levels, expected):
            assert np.array_equal(paths.crossed(lv), ref), lv
        if plan is WASTEFUL_PLAN:
            assert paths.crossed(-4.0).any()  # the leak the tail test measures


class TestReferenceKernel:
    @pytest.mark.parametrize("plan", NAMED_PLANS.values(), ids=NAMED_PLANS.keys())
    def test_matches_full_length_kernel(self, plan):
        pd = sim._PlanData(plan)
        u = sim._stream(67, 0, pd.row_len).random((20_000, pd.row_len))
        _assert_same_bits(sim._run_chunk(pd, u), _reference_chunk(pd, u))

    @given(
        seed=st.integers(0, 2**32),
        kind=st.sampled_from(sorted(PLAN_BUILDERS)),
        rows=st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_plans_match_full_length_kernel(self, seed, kind, rows):
        # with few rows, some steps hold no path and move nobody
        pd = sim._PlanData(_random_plan(seed, kind))
        u = sim._stream(seed, 0, pd.row_len).random((rows, pd.row_len))
        _assert_same_bits(sim._run_chunk(pd, u), _reference_chunk(pd, u))

    def test_property_covers_idle_and_unbounded_steps(self):
        # the property's plans have steps on half lines and, with few rows,
        # steps that no row is inside
        unbounded = idle = 0
        for seed in range(40):
            plan = _random_plan(seed, sorted(PLAN_BUILDERS)[seed % 5])
            steps = {st_.interval for st_ in plan.steps}
            moved = {iv for i in range(4) for iv, _ in sample_path(plan, seed, i).exits}
            unbounded += any(None in (iv.lower, iv.upper) for iv in steps)
            idle += moved < steps
        assert unbounded >= 20 and idle >= 5

    @pytest.mark.parametrize("plan", NAMED_PLANS.values(), ids=NAMED_PLANS.keys())
    def test_exit_law_sees_only_moving_rows(self, plan, monkeypatch):
        # the rows the kernel hands the exit law add up to the paths' exits
        rows = []
        exit_law = sim._exit_law

        def recording(*args):
            rows.append(len(args[-1]))  # the rows of pos, the last argument
            return exit_law(*args)

        monkeypatch.setattr(sim, "_exit_law", recording)
        monkeypatch.setattr(sim, "_CHUNK", 128)
        sim._run_all(plan, 300, 71)
        moved = sum(rows)
        assert moved == sum(len(sample_path(plan, 71, i).exits) for i in range(300))


class TestSharedPass:
    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        run_all = sim._run_all

        def counting(plan, n, seed):
            calls.append((n, seed))  # not the plan: the memo must not be the only holder
            return run_all(plan, n, seed)

        monkeypatch.setattr(sim, "_run_all", counting)
        monkeypatch.setattr(sim, "_memo", None)
        return calls

    def test_verify_simulates_once(self, passes, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "mu0": [[0, 1.0]], "mu": [[-1, 0.5], [1, 0.5]],
            "simulation": {"n_paths": 5000, "seed": 3, "gammas": [2, 4, 8],
                           "thresholds": [0.5]},
        }))
        plan = tmp_path / "plan.json"
        assert main(["build", "--spec", str(spec), "--out", str(plan)]) == 0
        assert main(["verify", "--spec", str(spec), "--plan", str(plan)]) == 0
        assert len(passes) == 1

    def test_estimates_share_one_pass(self, passes):
        region = contact_region(D0, PM1)
        law = empirical_law(TROUGH_PLAN, 4_000, seed=5, thresholds=[0.5])
        for gamma in (1.0, 2.0):
            for side in ("below", "above"):
                tail_probability(TROUGH_PLAN, gamma, side, region, 4_000, seed=5)
        assert empirical_law(TROUGH_PLAN, 4_000, seed=5, thresholds=[0.5]) == law
        assert len(passes) == 1

    def test_new_key_new_pass(self, passes):
        empirical_law(TROUGH_PLAN, 4_000, seed=5)
        empirical_law(TROUGH_PLAN, 4_001, seed=5)
        empirical_law(TROUGH_PLAN, 4_001, seed=6)
        equal_plan = cw_run(D0, [Tangent.make(0, -1)], PM1, 0)
        assert equal_plan == TROUGH_PLAN and equal_plan is not TROUGH_PLAN
        empirical_law(equal_plan, 4_001, seed=6)
        assert passes == [(4_000, 5), (4_001, 5), (4_001, 6), (4_001, 6)]
        empirical_law(TROUGH_PLAN, 4_000, seed=5)  # only the last pass is kept
        assert len(passes) == 5

    def test_memo_does_not_keep_plan_alive(self, passes):
        plan = cw_run(D0, [Tangent.make(0, -1)], PM1, 0)
        empirical_law(plan, 1_000, seed=1)
        assert sim._memo[0]() is plan
        del plan
        gc.collect()
        assert sim._memo[0]() is None
