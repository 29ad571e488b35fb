"""Golden bytes of the plan diagram: any change to how the potentials are
sampled must leave every byte of the SVG as it was."""

import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwembed import AtomicMeasure, ay_sweep, cw_run, gap_constant
from cwembed.diagram import _share, render_plan_svg
from test_simulate import NAMED_PLANS


def _measure(rng: random.Random, n: int, span: int, den: int) -> AtomicMeasure:
    """n atoms on the grid (1/den)Z within [-span, span], rational weights of mass 1."""
    xs = rng.sample(range(-span * den, span * den + 1), n)
    ws = [rng.randint(1, 20) for _ in range(n)]
    return AtomicMeasure.from_pairs([(F(x, den), F(w, sum(ws))) for x, w in zip(xs, ws)])


def _random_pair_plan():
    rng = random.Random(1632)
    mu0, mu = _measure(rng, 16, 4, 8), _measure(rng, 32, 6, 8)
    return cw_run(mu0, ay_sweep(mu0, mu), mu, gap_constant(mu0, mu))


PLANS = {**NAMED_PLANS, "random-16-32": _random_pair_plan()}

GOLDEN_SHA256 = {
    "azema-yor": "68cd84362302024b5c1e8b96bc1476bff40f6431ba5f2b61f8fbe9fadb735aa8",
    "lift": "1693437ad86492162d43b5d2dbdbdc69fe5d9d16ba59402beca20457b2932da6",
    "random-16-32": "f923c54f20cd31893fac2787a1f9336d75e3c62a1c9cd790c0b979804c809608",
    "trough": "d2ba2336d0b1467ad2b117ab97517feda66bc9fba81d07d1941d941b63a0e420",
    "vallois": "0cd2c8ae1292fcdb19c2fcf4f088aebc04e820a6cf9aecf57e9f2e3bee359cb6",
    "wasteful": "92a8b623e1985f3828a6513e4c0518be190df0e483c2ae8cd2ca628f0857bf6b",
}


@pytest.mark.parametrize("name", sorted(PLANS))
def test_svg_bytes_are_pinned(name):
    svg = render_plan_svg(PLANS[name]).encode()
    assert hashlib.sha256(svg).hexdigest() == GOLDEN_SHA256[name]


_INTS = st.integers(0, 1000).flatmap(lambda k: st.integers(-10**k, 10**k))  # of up to 1000 digits
_COUNTS = _INTS.map(lambda n: abs(n) + 1)
_RATIONALS = st.one_of(_INTS, st.builds(F, _INTS, _COUNTS))
_POSITIVE = st.one_of(_COUNTS, st.builds(F, _COUNTS, _COUNTS))


def _bits(value):
    """The double a thunk returns, as hex (so -0.0 and 0.0 differ), or why
    it has none."""
    try:
        return value().hex()
    except OverflowError:
        return "overflow"


@given(v=_RATIONALS, lo=_RATIONALS, span=_POSITIVE)
@example(v=3, lo=-1, span=7)
@example(v=F(1, 3), lo=F(0), span=F(1))
@example(v=F(-1, 10**400), lo=F(0), span=F(1))  # a negative zero
@example(v=F(10**400), lo=F(0), span=F(1, 10**400))  # beyond a double
@settings(max_examples=300, deadline=None)
def test_share_rounds_as_fraction(v, lo, span):
    # a coordinate from integers alone is the double float(Fraction) gives
    assert _bits(lambda: _share(v.numerator, v.denominator, lo, span)) == \
        _bits(lambda: float((v - lo) / span))
