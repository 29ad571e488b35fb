import random
from fractions import Fraction as F

import pytest

from conftest import (
    closure_contains,
    contains_strict,
    grid_point,
    make_interval,
    probe_points,
    random_prob_measure,
)
from cwembed import (
    AtomicMeasure,
    Interval,
    InvalidIntervalError,
    balayage,
    balayage_finite,
    balayage_semi,
    delta_m,
)

D0 = AtomicMeasure.point(0)
PM1 = AtomicMeasure.from_pairs([(-1, F(1, 2)), (1, F(1, 2))])
ASYM = AtomicMeasure.from_pairs([(-1, F(2, 3)), (2, F(1, 3))])
ZERO = AtomicMeasure(())
SUB = AtomicMeasure.from_pairs([(-1, F(1, 4)), (1, F(1, 2))])  # mass 3/4


class TestFinite:
    def test_symmetric(self):
        assert balayage_finite(D0, -1, 1) == PM1

    def test_skewed(self):
        assert balayage_finite(D0, -1, 2) == ASYM

    def test_partial_overlap(self):
        out = balayage_finite(PM1, -2, 0)
        assert out == AtomicMeasure.from_pairs([(-2, F(1, 4)), (0, F(1, 4)), (1, F(1, 2))])

    def test_endpoint_atom_stays(self):
        # the closed-interval weight formula assigns full weight to its endpoint
        out = balayage_finite(PM1, 1, 3)
        assert out == PM1

    def test_merges_moved_atoms(self):
        m = AtomicMeasure.from_pairs([(-2, F(1, 2)), (0, F(1, 2))])
        out = balayage_finite(m, -1, 0)
        # the swept atom at 0 lands on the untouched... atom at 0 stays; nothing inside
        assert out == m
        out2 = balayage_finite(m, -3, 0)
        assert out2 == AtomicMeasure.from_pairs([(-3, F(1, 3)), (0, F(2, 3))])

    def test_invalid_interval(self):
        with pytest.raises(InvalidIntervalError):
            balayage_finite(D0, 1, 1)

    def test_zero_and_sub_probability(self):
        assert balayage_finite(ZERO, -1, 1) == ZERO
        assert balayage_finite(SUB, -1, 1) == SUB
        assert balayage_finite(SUB, -3, 1) == AtomicMeasure.from_pairs([(-3, F(1, 8)), (1, F(5, 8))])


class TestSemi:
    def test_collapse_above(self):
        assert balayage_semi(PM1, 0, "above") == AtomicMeasure.from_pairs(
            [(-1, F(1, 2)), (0, F(1, 2))]
        )

    def test_no_mass_to_move(self):
        assert balayage_semi(D0, 1, "above") == D0

    def test_collapse_below(self):
        assert balayage_semi(ASYM, 0, "below") == AtomicMeasure.from_pairs(
            [(0, F(2, 3)), (2, F(1, 3))]
        )

    def test_zero_and_sub_probability(self):
        assert balayage_semi(ZERO, 0, "above") == ZERO
        assert balayage_semi(ZERO, 0, "below") == ZERO
        assert balayage_semi(SUB, 0, "above") == AtomicMeasure.from_pairs(
            [(-1, F(1, 4)), (0, F(1, 2))]
        )
        assert balayage_semi(SUB, 0, "below") == AtomicMeasure.from_pairs(
            [(0, F(1, 4)), (1, F(1, 2))]
        )

    def test_side_rejected(self):
        with pytest.raises(ValueError, match="side must be 'above' or 'below', got 'up'"):
            balayage_semi(PM1, 0, "up")


class TestBalayage:
    """The exit law of each interval kind, through the one entry point."""

    @pytest.mark.parametrize("m", [ZERO, SUB, PM1, ASYM])
    @pytest.mark.parametrize("lo, hi", [(-1, 1), (-2, 0), (0, None), (None, 0), (5, None)])
    def test_exit_law_invariants(self, m, lo, hi):
        iv = make_interval(lo, hi)
        out = balayage(m, iv)
        assert out.total_mass == m.total_mass
        assert not any(contains_strict(iv, x) for x in out.positions)
        outside = [[a for a in mm.atoms if not closure_contains(iv, a[0])] for mm in (m, out)]
        assert outside[0] == outside[1]
        if iv.is_finite and m.atoms:
            assert out.mean() == m.mean()

    def test_hand_values(self):
        assert balayage(SUB, make_interval(-2, 0)) == AtomicMeasure.from_pairs(
            [(-2, F(1, 8)), (0, F(1, 8)), (1, F(1, 2))]
        )
        assert balayage(SUB, make_interval(None, 2)) == AtomicMeasure.point(2, F(3, 4))
        assert balayage(ZERO, make_interval(None, 2)) == ZERO


class TestDeltaM:
    def test_symmetric_above(self):
        assert delta_m(PM1, 0, "above") == F(1, 2)

    def test_empty(self):
        assert delta_m(D0, 1, "above") == 0

    def test_below(self):
        assert delta_m(ASYM, 0, "below") == F(2, 3)


class TestPotentialIdentities:
    """Exact potential bookkeeping of both balayage kinds on random input."""

    def test_finite_interval_clauses(self):
        rng = random.Random(2024)
        for _ in range(60):
            m = random_prob_measure(rng, max_atoms=20)
            a = grid_point(rng)
            b = a + F(rng.randint(1, 80), 16)
            mi = balayage_finite(m, a, b)
            u, ui = m.potential(), mi.potential()
            for x in probe_points(u, ui) + [a, b, (a + b) / 2]:
                assert ui.evaluate(x) <= u.evaluate(x)
                if x < a or x > b:
                    assert ui.evaluate(x) == u.evaluate(x)
            # affine on the closed interval
            assert not any(a < x < b for x in mi.positions)
            mid = (a + b) / 2
            assert ui.evaluate(mid) * 2 == ui.evaluate(a) + ui.evaluate(b)

    def test_semi_interval_clauses(self):
        rng = random.Random(2025)
        for _ in range(60):
            m = random_prob_measure(rng, max_atoms=20)
            a = grid_point(rng)
            side = rng.choice(["above", "below"])
            mi = balayage_semi(m, a, side)
            dm = delta_m(m, a, side)
            u, ui = m.potential(), mi.potential()
            for x in probe_points(u, ui) + [a]:
                inside = x > a if side == "above" else x < a
                if inside:
                    assert ui.evaluate(x) == u.evaluate(a) + dm - abs(a - x)
                else:
                    assert ui.evaluate(x) == u.evaluate(x) + dm

    def test_idempotent(self):
        rng = random.Random(9)
        for _ in range(30):
            m = random_prob_measure(rng)
            a = grid_point(rng)
            b = a + F(rng.randint(1, 40), 16)
            once = balayage_finite(m, a, b)
            assert balayage_finite(once, a, b) == once
            side = rng.choice(["above", "below"])
            ones = balayage_semi(m, a, side)
            assert balayage_semi(ones, a, side) == ones

    def test_mass_and_mean(self):
        rng = random.Random(10)
        for _ in range(30):
            m = random_prob_measure(rng)
            a = grid_point(rng)
            b = a + F(rng.randint(1, 40), 16)
            mi = balayage_finite(m, a, b)
            assert mi.total_mass == m.total_mass
            assert mi.mean() == m.mean()
            side = rng.choice(["above", "below"])
            ms = balayage_semi(m, a, side)
            assert ms.total_mass == m.total_mass
            shift = delta_m(m, a, side)
            expected = m.mean() - shift if side == "above" else m.mean() + shift
            assert ms.mean() == expected

    def test_semi_is_limit_of_finite(self):
        # sweeping (a, a + 10^6 * span) reproduces the half-line sweep up to 1e-6
        rng = random.Random(11)
        for _ in range(20):
            m = random_prob_measure(rng)
            a = grid_point(rng)
            span = max(abs(x - a) for x in m.positions) + 1
            k = 10**6 * span
            wide = balayage_finite(m, a, a + k)
            semi = balayage_semi(m, a, "above")
            low_wide = [(x, w) for x, w in wide.atoms if x <= a]
            low_semi = [(x, w) for x, w in semi.atoms if x <= a]
            assert [x for x, _ in low_wide] == [x for x, _ in low_semi]
            for (_, w1), (_, w2) in zip(low_wide, low_semi):
                assert abs(w1 - w2) <= F(1, 10**6)


class TestInterval:
    def test_both_infinite_rejected(self):
        with pytest.raises(InvalidIntervalError):
            Interval(None, None)

    def test_membership(self):
        iv = make_interval(0, None)
        assert contains_strict(iv, 1) and not contains_strict(iv, 0)
        assert closure_contains(iv, 0)
