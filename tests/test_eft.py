"""The error-free transformations of `_eft`: each pair sums exactly to the
value it splits, adds or multiplies, for Python floats and float64 arrays
alike, over the ranges the half-point route and the float text use. The
route itself is tested in test_signals.py."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from stencil_spectra import _eft
from stencil_spectra.signals import _HalfPointRule


def _significant_bits(v: float) -> int:
    """The count of v's significant bits, from its first to its last 1."""
    numerator = abs(v.as_integer_ratio()[0])
    if not numerator:
        return 0
    return (numerator >> ((numerator & -numerator).bit_length() - 1)).bit_length()


def _hex(values):
    """The bits of each value, a float or a float array of one element."""
    return [np.asarray(v, float).item().hex() for v in values]


_MANTISSAS = st.integers(2 ** 52, 2 ** 53 - 1)
# the weights' high parts w_hi of the certified route for n <= 40, from
# 2^-87.8 to 2^0.35 in magnitude, and the powers of ten 10^0..10^46 of the
# float text, whose splits the callers make beforehand
_WEIGHTS = sorted({w_hi for n in range(1, 41) for _, w_hi, *_ in _HalfPointRule(n).weights})
_POWERS = [float(10 ** k) for k in range(47)]


def _any(exponents):
    """Floats of 53 bits at 2^e for e in exponents, of either sign."""
    return st.builds(lambda m, e, neg: math.ldexp(-m if neg else m, e - 52), _MANTISSAS,
                     exponents, st.booleans())


# split's range 2^-1022..2^995: the route's sample differences d (up to
# 2^995), its quotient q0 (2^-900..2^995) and its divisor 2h (all of
# split's range), the float text's |v| (1e-29..1e16), and the constants
# above
_SPLIT_INPUTS = st.one_of(_any(st.integers(-1022, 995)),
                          st.sampled_from([0.0, -0.0, *_WEIGHTS, *_POWERS]))

# pairs (x, y) whose exponents sum to -970 or more and to 1,000 or less,
# so that no partial product underflows or overflows: any such pair, and
# the callers' products, each with its own ranges:
# - a difference d (up to 2^995) times a weight w_hi, their exponents
#   summing to -970 or more (the route's |p| >= 2^-968);
# - q0 (2^-900..2^995) times 2h (2^-1022..2^995), their exponents summing
#   to -970 or more and below 997 (|q0·2h| > 2^-969, and near |s| < 2^997);
# - the float text's |v| (1e-29..1e16) times 10^k, below 2^60
_PRODUCTS = st.one_of(
    st.tuples(st.integers(-969, 995), st.integers(-969, 995))
    .filter(lambda e: -970 <= sum(e) <= 1000)
    .flatmap(lambda e: st.tuples(_any(st.just(e[0])), _any(st.just(e[1])))),
    st.sampled_from(_WEIGHTS).flatmap(lambda w: st.tuples(
        _any(st.integers(-969 - math.frexp(w)[1], 994)), st.just(w))),
    st.tuples(st.integers(-900, 994), st.integers(-1022, 994))
    .filter(lambda e: -970 <= sum(e) <= 996)
    .flatmap(lambda e: st.tuples(_any(st.just(e[0])), _any(st.just(e[1])))),
    st.integers(-30, 15).flatmap(
        lambda E: st.tuples(st.floats(10.0 ** E, 10.0 ** (E + 1), exclude_max=True),
                            st.just(float(10 ** (16 - E))))),
)

# TwoSum's operands: any two floats whose sum stays below 2^1023, the
# route's normal samples (up to 2^994), and subnormal and tiny floats
_ADDENDS = st.one_of(
    st.tuples(st.floats(-(2.0 ** 1020), 2.0 ** 1020), st.floats(-(2.0 ** 1020), 2.0 ** 1020)),
    st.tuples(_any(st.integers(-1022, 994)), _any(st.integers(-1022, 994))),
    st.tuples(_any(st.integers(-1074, -1000)), _any(st.integers(-1074, -900))),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_SPLIT_INPUTS, min_size=1, max_size=20))
def test_split_is_exact_in_two_halves_of_26_bits(values):
    hi, lo = _eft.split(np.array(values))
    assert _hex(hi) == _hex(_eft.split(v)[0] for v in values)
    assert _hex(lo) == _hex(_eft.split(v)[1] for v in values)
    for v, high, low in zip(values, hi.tolist(), lo.tolist()):
        assert Fraction(high) + Fraction(low) == Fraction(v)
        assert _significant_bits(high) <= 26 and _significant_bits(low) <= 26


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(_ADDENDS, min_size=1, max_size=20))
def test_two_sum_is_exact(pairs):
    a, b = (np.array(column) for column in zip(*pairs))
    s, e = _eft.two_sum(a, b)
    scalar = [_eft.two_sum(x, y) for x, y in pairs]
    assert _hex(s) == _hex(t for t, _ in scalar) and _hex(e) == _hex(t for _, t in scalar)
    for (x, y), total, error in zip(pairs, s.tolist(), e.tolist()):
        assert total == x + y
        assert Fraction(total) + Fraction(error) == Fraction(x) + Fraction(y)


@settings(max_examples=500, deadline=None)
@given(pairs=st.lists(_PRODUCTS, min_size=1, max_size=20))
def test_two_product_is_exact(pairs):
    # y is split once beforehand, as each caller splits its weights, its
    # divisor or its powers of ten: as an array, whose halves are arrays
    # too (the float text), as a scalar, and as a scalar times an array
    # (the half-point route)
    x, y = (np.array(column) for column in zip(*pairs))
    p, e = _eft.two_product(x, y, *_eft.split(y))
    for form in (lambda u, v: (u, v), lambda u, v: (np.array([u]), v)):
        scalar = [_eft.two_product(*form(u, v), *_eft.split(v)) for u, v in pairs]
        assert _hex(p) == _hex(t for t, _ in scalar) and _hex(e) == _hex(t for _, t in scalar)
    for (u, v), product, error in zip(pairs, p.tolist(), e.tolist()):
        assert product == u * v
        assert Fraction(product) + Fraction(error) == Fraction(u) * Fraction(v)

