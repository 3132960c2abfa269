"""Stencil application, boundary policy, envelope and convergence behavior."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stencil_spectra import signals, weights
from stencil_spectra.cli import run
from stencil_spectra.signals import (
    SKIPPED,
    BoundaryError,
    ModulatedAlternating,
    Polynomial,
    SampledSignal,
    Sinusoid,
    alternating_second_derivative_check,
    apply_stencil,
    apply_stencil_at,
    convergence_study,
    differentiate,
    differentiate_half_point,
    differentiate_half_point_signal,
    make_signal,
    parse_test_function,
)
from stencil_spectra.signals import _HalfPointRule, _low_part, _within_half_gap


def linear_signal(h=0.5, points=9, slope=1.0):
    origin = points // 2
    samples = tuple(slope * (i - origin) * h for i in range(points))
    return SampledSignal(h=h, samples=samples, origin=origin)


def alternating_signal(points=41, h=1.0):
    origin = points // 2
    samples = tuple((-1.0) ** abs(i - origin) for i in range(points))
    return SampledSignal(h=h, samples=samples, origin=origin)


# --- apply_stencil_at -------------------------------------------------------


def test_central_first_exact_on_linear():
    signal = linear_signal()
    value = apply_stencil_at(signal, weights.central_first(1), signal.origin)
    assert value == 1.0


def test_central_any_n_aliases_nyquist_to_zero():
    signal = alternating_signal()
    for n in range(1, 9):
        value = apply_stencil_at(signal, weights.central_first(n), signal.origin)
        assert value == 0.0


def test_one_sided_exact_on_quadratic():
    h = 0.1
    origin = 0
    samples = tuple((i * h) ** 2 for i in range(6))
    signal = SampledSignal(h=h, samples=samples, origin=origin)
    value = apply_stencil_at(signal, weights.one_sided_first(2), 0)
    assert abs(value) <= 1e-15


def test_apply_names_missing_index():
    signal = linear_signal(points=5)
    with pytest.raises(BoundaryError, match=r"^stencil needs sample index 5, outside 0\.\.4$"):
        apply_stencil_at(signal, weights.one_sided_first(2), 3)
    with pytest.raises(BoundaryError, match=r"^stencil needs sample index -1, outside 0\.\.4$"):
        apply_stencil_at(signal, weights.central_first(1), 0)
    # callers that catch an IndexError catch it too
    assert issubclass(BoundaryError, IndexError)


def test_apply_stencil_everywhere():
    signal = linear_signal(points=7)
    result = apply_stencil(signal, weights.central_first(2))
    assert result.policy[0] == SKIPPED and result.policy[1] == SKIPPED
    assert result.policy[2] == "central-first(n=2)"
    assert math.isnan(result.values[0])
    assert result.values[3] == pytest.approx(1.0, rel=1e-12)


# --- differentiate -----------------------------------------------------------


def test_differentiate_constant_signal():
    signal = SampledSignal(h=0.3, samples=(5.0,) * 12, origin=0)
    for n in (1, 2, 3):
        result = differentiate(signal, n, 1)
        # boundary rules have non-dyadic weights, so cancellation is only
        # to rounding there; interior pairs cancel exactly
        assert all(abs(v) <= 1e-12 for v in result.values)
        central = [i for i, p in enumerate(result.policy) if p.startswith("central")]
        assert all(result.values[i] == 0.0 for i in central)


def test_differentiate_policy_layout():
    signal = linear_signal(points=10)
    result = differentiate(signal, 2, 1)
    assert result.policy[:2] == ("forward(2)", "forward(2)")
    assert set(result.policy[2:8]) == {"central(2)"}
    assert result.policy[8:] == ("backward(2)", "backward(2)")
    assert np.allclose(result.values, 1.0, rtol=0, atol=1e-12)


def test_differentiate_second_order_skips_edges():
    h = 0.25
    samples = tuple(((i - 4) * h) ** 2 for i in range(9))
    signal = SampledSignal(h=h, samples=samples, origin=4)
    result = differentiate(signal, 1, 2)
    assert result.policy[0] == SKIPPED and result.policy[-1] == SKIPPED
    assert math.isnan(result.values[0])
    interior = result.values[1:-1]
    assert np.abs(interior - 2.0).max() <= 1e-12 * 2.0


def test_differentiate_sin_interior_accuracy():
    h, n = 0.01, 2
    signal = make_signal(Sinusoid(omega=1.0), h, 201)
    result = differentiate(signal, n, 1)
    xs = np.array([signal.x(i) for i in range(len(signal))])
    exact = np.cos(xs)
    central = [i for i, p in enumerate(result.policy) if p == f"central({n})"]
    err = np.abs(result.values[central] - exact[central]).max()
    assert err <= 10 * h ** 4


def test_differentiate_interior_error_slope_is_fourth_order():
    hs = [0.04, 0.02, 0.01]
    errs = []
    for h in hs:
        points = int(round(2.0 / h)) + 1
        signal = make_signal(Sinusoid(omega=1.0), h, points)
        result = differentiate(signal, 2, 1)
        xs = np.array([signal.x(i) for i in range(points)])
        central = [i for i, p in enumerate(result.policy) if p == "central(2)"]
        errs.append(np.abs(result.values[central] - np.cos(xs[central])).max())
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.1)


def test_differentiate_rejects_short_signal():
    signal = SampledSignal(h=1.0, samples=(0.0, 1.0), origin=0)
    with pytest.raises(ValueError):
        differentiate(signal, 2, 1)
    with pytest.raises(ValueError):
        differentiate(signal, 1, 3)


def test_differentiate_rejects_n_below_1():
    signal = SampledSignal(h=1.0, samples=(0.0, 1.0, 2.0), origin=0)
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        differentiate(signal, 0, 1)


def test_differentiate_short_signal_skips_unreachable_middle():
    # 4 samples with n=3: only the ends can host a one-sided rule
    signal = SampledSignal(h=1.0, samples=(0.0, 1.0, 2.0, 3.0), origin=0)
    result = differentiate(signal, 3, 1)
    assert result.policy == ("forward(3)", SKIPPED, SKIPPED, "backward(3)")


# --- invariants ---------------------------------------------------------------


def test_linearity():
    rng = np.random.default_rng(7)
    f = rng.standard_normal(25)
    g = rng.standard_normal(25)
    a, b = 2.5, -1.25
    h = 0.2
    combo = SampledSignal(h=h, samples=tuple(a * f + b * g), origin=12)
    rf = differentiate(SampledSignal(h=h, samples=tuple(f), origin=12), 2, 1)
    rg = differentiate(SampledSignal(h=h, samples=tuple(g), origin=12), 2, 1)
    rc = differentiate(combo, 2, 1)
    want = a * rf.values + b * rg.values
    scale = np.abs(want) + 1.0
    assert (np.abs(rc.values - want) / scale).max() <= 1e-12


def test_translation_equivariance():
    rng = np.random.default_rng(11)
    base = rng.standard_normal(30)
    shift = 4
    s1 = SampledSignal(h=0.1, samples=tuple(base), origin=0)
    s2 = SampledSignal(h=0.1, samples=tuple(base[shift:]), origin=0)
    r1 = differentiate(s1, 2, 1)
    r2 = differentiate(s2, 2, 1)
    for i in range(2, len(s2) - 2):
        if r1.policy[i + shift] == r2.policy[i] == "central(2)":
            assert r1.values[i + shift] == r2.values[i]


def test_h_scaling_is_exact():
    rng = np.random.default_rng(3)
    base = tuple(rng.standard_normal(20))
    r_coarse = differentiate(SampledSignal(h=0.4, samples=base, origin=0), 2, 1)
    r_fine = differentiate(SampledSignal(h=0.2, samples=base, origin=0), 2, 1)
    assert np.array_equal(r_fine.values, 2.0 * r_coarse.values)
    s_coarse = differentiate(SampledSignal(h=0.4, samples=base, origin=0), 2, 2)
    s_fine = differentiate(SampledSignal(h=0.2, samples=base, origin=0), 2, 2)
    defined = [i for i in range(20) if s_fine.policy[i] != SKIPPED]
    assert all(s_fine.values[i] == 4.0 * s_coarse.values[i] for i in defined)


def _loop_value(signal, nodes, prefactor, h_power, index):
    """One rule at one index in Python floats, smallest |offset| first."""
    total = 0.0
    for o, w in sorted(nodes, key=lambda ow: (abs(ow[0]), ow[0])):
        total += float(w) * signal.samples[index + o]
    return (float(prefactor) * total) / signal.h ** h_power


def _loop_differentiate(signal, n, order):
    """differentiate written as the plain per-index loop."""
    length = len(signal)
    central = weights.central_first(n) if order == 1 else weights.central_second(n)
    forward = weights.one_sided_first(n)
    rules = {
        "central": (central.nodes, central.prefactor, central.derivative_order),
        "forward": (forward.nodes, forward.prefactor, 1),
        "backward": ([(-o, -w) for o, w in forward.nodes], forward.prefactor, 1),
    }
    values, policy = [], []
    for i in range(length):
        if n <= i <= length - 1 - n:
            name = "central"
        elif order == 1 and i + n <= length - 1:
            name = "forward"
        elif order == 1 and i - n >= 0:
            name = "backward"
        else:
            values.append(math.nan)
            policy.append(SKIPPED)
            continue
        values.append(_loop_value(signal, *rules[name], i))
        policy.append(f"{name}({n})")
    return values, tuple(policy)


def _loop_apply_stencil(signal, stencil):
    """apply_stencil written as the plain per-index loop."""
    length = len(signal)
    values, policy = [], []
    for i in range(length):
        if all(0 <= i + o < length for o in stencil.offsets):
            values.append(_loop_value(
                signal, stencil.nodes, stencil.prefactor, stencil.derivative_order, i))
            policy.append(stencil.label())
        else:
            values.append(math.nan)
            policy.append(SKIPPED)
    return values, tuple(policy)


def _hex(values):
    return [float(v).hex() for v in values]


_SAMPLES = st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30)
_SPACING = st.one_of(st.sampled_from([1.0, 0.5, 0.1, 0.3]), st.floats(1e-3, 1e3))


@settings(max_examples=200, deadline=None)
@given(samples=_SAMPLES, h=_SPACING, n=st.integers(1, 8), order=st.sampled_from([1, 2]))
# the order of the offsets -2 and 2 changes the central value's last bit
@example(samples=[3.0, 2.5, 0.1, 3.0, -0.2], h=1.0, n=2, order=1)
def test_differentiate_matches_per_index_loop(samples, h, n, order):
    signal = SampledSignal(h=h, samples=tuple(samples), origin=0)
    if len(samples) < n + 1:
        with pytest.raises(ValueError):
            differentiate(signal, n, order)
        return
    result = differentiate(signal, n, order)
    values, policy = _loop_differentiate(signal, n, order)
    assert result.policy == policy
    assert _hex(result.values) == _hex(values)


@settings(max_examples=200, deadline=None)
@given(samples=_SAMPLES, h=_SPACING, n=st.integers(1, 6),
       kind=st.sampled_from(list(weights.StencilKind)), index=st.integers(-2, 32))
def test_apply_stencil_matches_per_index_loop(samples, h, n, kind, index):
    signal = SampledSignal(h=h, samples=tuple(samples), origin=0)
    stencil = weights.build(kind, n)
    result = apply_stencil(signal, stencil)
    values, policy = _loop_apply_stencil(signal, stencil)
    assert result.policy == policy
    assert _hex(result.values) == _hex(values)
    if all(0 <= index + o < len(signal) for o in stencil.offsets):
        assert _hex([apply_stencil_at(signal, stencil, index)]) == _hex(
            [_loop_value(signal, stencil.nodes, stencil.prefactor, stencil.derivative_order, index)])
    else:
        with pytest.raises(BoundaryError, match=r"outside 0\.\."):
            apply_stencil_at(signal, stencil, index)


@pytest.mark.parametrize("h", [1e200, 1e-200])
def test_rules_reject_h_whose_power_leaves_the_floats(h):
    signal = SampledSignal(h=h, samples=(0.0, 1.0, 4.0, 9.0, 16.0), origin=0)
    second = weights.central_second(1)
    calls = [lambda: differentiate(signal, 1, 2), lambda: apply_stencil(signal, second),
             lambda: apply_stencil_at(signal, second, 2)]
    for call in calls:
        with pytest.raises(ValueError, match=r"^h=.*h\*\*2 must be a finite nonzero float"):
            call()
    # the first power of the same h is still a float
    assert differentiate(signal, 1, 1).values[2] == 4.0 / h


def test_rules_reject_values_that_leave_the_floats():
    # the one-sided rules at h = 1e-320 divide a difference of 2 by h
    signal = make_signal(ModulatedAlternating((1.0,)), 1e-320, 5)
    with pytest.raises(ValueError, match=r"^h=1e-320: forward\(1\) values overflow the floats$"):
        differentiate(signal, 1, 1)
    # the sum itself overflows before the division
    huge = SampledSignal(h=1.0, samples=(1.5e308, -1.5e308, 1.5e308), origin=0)
    with pytest.raises(ValueError, match=r"^h=1\.0: central-second\(n=1\) values overflow"):
        apply_stencil(huge, weights.central_second(1))


def test_one_value_reads_only_its_own_window():
    # the value at index 2 is 0; at index 3, next to it, it overflows
    signal = SampledSignal(h=0.25, samples=(0.0, 0.0, 0.0, 0.0, 1e308, 0.0), origin=0)
    assert apply_stencil_at(signal, weights.central_first(1), 2) == 0.0
    with pytest.raises(ValueError, match=r"overflow the floats$"):
        apply_stencil_at(signal, weights.central_first(1), 3)
    far = SampledSignal(h=2.0 ** -10, samples=(0.0,) * 7 + (1e308,), origin=0)
    assert differentiate_half_point(far, 2, 3) == 0.0
    with pytest.raises(ValueError, match=r"overflow the floats$"):
        differentiate_half_point(far, 2, 4)


# --- half-point differentiation ------------------------------------------------


def test_half_point_on_linear():
    signal = linear_signal(h=0.5, points=9)
    assert differentiate_half_point(signal, 1, signal.origin) == 1.0


def test_half_point_on_cubic_at_origin():
    # d(x^3)/dx = 0 at x = 0; the n=2 rule is exact through degree 4
    origin = 7
    samples = tuple(float((i - origin) ** 3) for i in range(15))
    signal = SampledSignal(h=1.0, samples=samples, origin=origin)
    assert differentiate_half_point(signal, 2, origin) == 0.0


@pytest.mark.parametrize("n", range(1, 9))
def test_half_point_linear_envelope_is_exact(n):
    # f_m = (-1)**m (a + b m h) with dyadic a, b, h so samples are exact
    a, b, h = 1.0, 0.25, 0.5
    origin = 32
    points = 65
    samples = tuple(
        (1.0 if (i - origin) % 2 == 0 else -1.0) * (a + b * (i - origin) * h)
        for i in range(points)
    )
    signal = SampledSignal(h=h, samples=samples, origin=origin)
    assert differentiate_half_point(signal, n, origin) == -b


def test_half_point_rule_is_built_only_where_an_index_fits(monkeypatch):
    # below 4n - 1 points no index fits, and no rule is built: building
    # half-point(4000)'s rule alone took 11 s, and its cost grows about as n^2.8
    built = []
    rule = signals._half_point_rule
    monkeypatch.setattr(signals, "_half_point_rule", lambda n: built.append(n) or rule(n))
    n = 3
    short = make_signal(Sinusoid(omega=1.0), 0.5, 4 * n - 2)
    result = differentiate_half_point_signal(short, n)
    assert (result.spans, result.policy) == ((), (SKIPPED,) * (4 * n - 2))
    assert np.isnan(result.values).all()
    with pytest.raises(BoundaryError, match="^stencil needs sample index 10, outside 0..9$"):
        differentiate_half_point(short, n, short.origin)
    assert differentiate_half_point_signal(make_signal(Sinusoid(omega=1.0), 0.5, 5),
                                           4000).spans == ()
    with pytest.raises(BoundaryError, match="^stencil needs sample index -7997, outside 0..9$"):
        differentiate_half_point(short, 4000, 2)
    assert built == []
    # at 4n - 1 points one index, the middle one, is served
    fits = make_signal(Sinusoid(omega=1.0), 0.5, 4 * n - 1)
    result = differentiate_half_point_signal(fits, n)
    assert result.spans == ((f"half-point({n})", 2 * n - 1, 2 * n),) and built == [n]
    assert result.values[2 * n - 1] == differentiate_half_point(fits, n, 2 * n - 1)
    assert [math.isnan(v) for v in result.values] == [True] * (2 * n - 1) + [False] + [True] * (
        2 * n - 1)


def test_half_point_margin_error():
    signal = linear_signal(points=9)
    with pytest.raises(BoundaryError, match=r"index"):
        differentiate_half_point(signal, 3, 2)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_half_point_signal_matches_per_index(n):
    signal = make_signal(ModulatedAlternating((1.0, 0.25, -0.125)), 0.5, 21)
    result = differentiate_half_point_signal(signal, n)
    reach = 2 * n - 1
    assert result.order == 1
    for i in range(len(signal)):
        if reach <= i < len(signal) - reach:
            assert result.policy[i] == f"half-point({n})"
            assert result.values[i] == differentiate_half_point(signal, n, i)
        else:
            assert result.policy[i] == SKIPPED
            assert math.isnan(result.values[i])


def _fraction_half_point(signal, n, index):
    """One half-point value as a plain Fraction sum, rounded once."""
    total = Fraction(0)
    for k, w in weights.half_point(n).nodes:
        if k > 0:
            diff = Fraction(signal.samples[index + k]) - Fraction(signal.samples[index - k])
            total += w * diff
    return float(total / (2 * Fraction(signal.h)))


_EXACT_SAMPLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e-300]),
)
_WIDE_SPACING = st.one_of(
    st.sampled_from([5e-324, 1e-320, 0.001, 0.5, 1.0, 2.0 ** 1000]),
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1073, 1000)),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), h=_WIDE_SPACING, n=st.integers(1, 8))
def test_half_point_is_the_exact_fraction_sum(data, h, n):
    reach = 2 * n - 1
    length = data.draw(st.integers(2, 2 * reach + 4))
    samples = data.draw(st.lists(_EXACT_SAMPLES, min_size=length, max_size=length))
    signal = SampledSignal(h=h, samples=tuple(samples), origin=0)
    interior = range(reach, length - reach)
    expected = []
    for i in interior:
        try:
            expected.append(_fraction_half_point(signal, n, i))
        except OverflowError:
            expected.append(None)
    if None in expected:
        with pytest.raises(ValueError, match=r"^h=.*overflow the floats$"):
            differentiate_half_point_signal(signal, n)
    else:
        result = differentiate_half_point_signal(signal, n)
        assert _hex(result.values[reach:length - reach]) == _hex(expected)
        assert all(math.isnan(v) for i, v in enumerate(result.values) if i not in interior)
        assert result.policy == tuple(
            f"half-point({n})" if i in interior else SKIPPED for i in range(length))
    index = data.draw(st.integers(0, length - 1))
    if index not in interior:
        with pytest.raises(BoundaryError):
            differentiate_half_point(signal, n, index)
    elif expected[index - reach] is None:
        with pytest.raises(ValueError, match=r"^h=.*overflow the floats$"):
            differentiate_half_point(signal, n, index)
    else:
        assert _hex([differentiate_half_point(signal, n, index)]) == _hex(
            [expected[index - reach]])


def test_half_point_overflow_is_a_value_error():
    # d(1e308 x^2)/dx = 2e308 at x = 1, from samples that are all floats
    signal = make_signal(Polynomial((0.0, 0.0, 1e308)), 0.25, 11)
    with pytest.raises(OverflowError):
        _fraction_half_point(signal, 1, 9)
    for call in (lambda: differentiate_half_point_signal(signal, 1),
                 lambda: differentiate_half_point(signal, 1, 9)):
        with pytest.raises(ValueError, match=r"^h=0\.25: half-point-first\(n=1\) values "
                                             r"overflow the floats$"):
            call()


# --- the certified half-point route -------------------------------------------------


@pytest.fixture
def exact_calls(monkeypatch):
    """The index count of each call the half-point rule makes to its exact
    route."""
    calls = []
    exact = _HalfPointRule.exact

    def spy(self, signal, indices):
        calls.append(len(indices))
        return exact(self, signal, indices)

    monkeypatch.setattr(_HalfPointRule, "exact", spy)
    return calls


# floats of mixed exponents that the certified route takes; and these
# mixed with any float and the edges of the route's sample range:
# subnormals, ±0, 2^-968, 2^994 and its neighbour above, and values near
# 2^1023 whose split would overflow. Each case is (samples, n), with 4n − 1
# to 4n + 8 samples: one to ten interior indices
_MIXED_EXPONENTS = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-40, 40))
_ANY_SAMPLE = st.one_of(
    _MIXED_EXPONENTS,
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 2.0 ** -968, -(2.0 ** -969), 2.0 ** 994,
                     -math.nextafter(2.0 ** 994, math.inf), 2.0 ** 1023,
                     -1.7976931348623157e308]))
_ROUTE_CASES = st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.one_of(*(st.lists(element, min_size=4 * n - 1, max_size=4 * n + 8)
                for element in (_MIXED_EXPONENTS, _ANY_SAMPLE))),
    st.just(n)))
# dyadic h near 1 and across split's range of 2h (2^-1022..2^995), and
# non-dyadic h
_ROUTE_SPACING = st.one_of(
    st.builds(math.ldexp, st.just(1.0), st.integers(-110, 90)),
    st.builds(math.ldexp, st.just(1.0), st.integers(-1074, 1000)),
    st.floats(1e-3, 1e3),
    st.sampled_from([0.001, 0.1, 0.3, 5e-324, 2.0 ** 1000]),
)
_SPLIT_OVERFLOW = [0.0] * 14 + [-(2.0 ** 959), 0.0, 2.0 ** 959] + [0.0] * 14
# the first n whose least weight, 2^-969.2, lies below the route's 2^-968
_FIRST_UNCERTIFIED_N = 478


def _smooth_samples(points):
    return make_signal(Sinusoid(1.0, 0.5), 0.001, points).samples.tolist()


@settings(max_examples=400, deadline=None)
@given(case=_ROUTE_CASES, h=_ROUTE_SPACING)
@example(case=([1.0, 2.0, 1.0], 1), h=0.5)  # an exact zero: +0.0
@example(case=([5e-324, 0.0, 0.0], 1), h=2.0)  # -2^-1076 underflows to -0.0
@example(case=([-1.7e308, 0.0, 1.7e308], 1), h=0.25)  # overflow: the ValueError
@example(case=(_SPLIT_OVERFLOW, 8), h=2.0 ** -46)  # q0 near 2^1005, above split's range
@example(case=(_SPLIT_OVERFLOW, 8), h=2.0 ** -100)  # q0 overflows to inf
@example(case=(_smooth_samples(1203), 300), h=0.001)
@example(case=(_smooth_samples(4 * _FIRST_UNCERTIFIED_N + 1), _FIRST_UNCERTIFIED_N), h=0.001)
def test_certified_half_point_is_the_exact_route(case, h):
    samples, n = case
    signal = SampledSignal(h=h, samples=samples)
    rule = _HalfPointRule(n)
    interior = np.arange(rule.max_offset, len(samples) - rule.max_offset)
    try:
        expected = rule.exact(signal, interior)
    except ValueError as error:
        with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
            differentiate_half_point_signal(signal, n)
        return
    got = differentiate_half_point_signal(signal, n).values[interior]
    assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_certified_half_point_pinned_cases():
    # the values the @examples above pin, as the exact route gives them, from
    # the span (the certified route) and from one index (the exact route);
    # test_half_point_overflow_is_a_value_error pins the overflow's line
    cases = [([1.0, 2.0, 1.0], 0.5, 1, 0.0), ([5e-324, 0.0, 0.0], 2.0, 1, -0.0),
             (_SPLIT_OVERFLOW, 2.0 ** -46, 8, float(dict(weights.half_point(8).nodes)[1]
                                                    * 2 ** 960 / 2 ** -45))]
    for samples, h, n, want in cases:
        signal = SampledSignal(h=h, samples=samples)
        index = 2 * n - 1
        assert differentiate_half_point_signal(signal, n).values[index].hex() == want.hex()
        assert differentiate_half_point(signal, n, index).hex() == want.hex()


def test_within_half_gap_is_strict_and_takes_the_smaller_gap():
    q = np.array([1.5, 1.5, -1.5, 1.0, 1.0, -1.0, 3.0, 1.7976931348623157e308])
    deviation = np.array([2.0 ** -53, math.nextafter(2.0 ** -53, 0), 2.0 ** -53,
                          2.0 ** -54, math.nextafter(2.0 ** -54, 0), 2.0 ** -54,
                          math.nextafter(2.0 ** -52, 0), math.nextafter(2.0 ** 970, 0)])
    assert _within_half_gap(q, deviation).tolist() == [False, True, False,
                                                       False, True, False, True, True]


def test_certificate_bound_is_the_derived_sum():
    # _HalfPointRule's docstring: the sum's (3n − 2)(n + 2) + 7, the
    # residual's n + 4 and the correction's n + 3, plus 1 for the
    # 1 + O(n·u) factors, the bound's own roundings and η/2, times
    # u² = 2^-106. The true error is far below the bound on every input the
    # tests can build, so no value would show a smaller coefficient
    for n in [*range(1, 41), 300]:
        derived = (3 * n - 2) * (n + 2) + 7 + (n + 4) + (n + 3) + 1
        assert _HalfPointRule(n).bound_coefficient == derived * 2.0 ** -106


def _near_midpoints():
    """(target, kind) for values at and near the rounding midpoints on
    either side of a few floats q, 1.0's just below a power of two among
    them: each midpoint ("tie"), each midpoint moved a quarter of the gap it
    halves toward q's neighbour, none of which is a power of two
    ("quarter"), and each midpoint plus or minus 1 and 3 times gap·2^-s for
    s = 30, 50 and 53 ("near") and s = 56 and 60, far inside the
    certificate's bound ("within")."""
    for q in (1.0, 1.5, 0.1, -3.0, 1.25 * 2.0 ** -700, 1e250):
        for neighbour in (math.nextafter(q, math.inf), math.nextafter(q, -math.inf)):
            midpoint = (Fraction(q) + Fraction(neighbour)) / 2
            gap = abs(Fraction(neighbour) - Fraction(q))
            yield midpoint, "tie"
            yield midpoint + (Fraction(neighbour) - Fraction(q)) / 4, "quarter"
            for s in (30, 50, 53, 56, 60):
                for j in (-3, -1, 1, 3):
                    yield midpoint + j * gap / 2 ** s, "within" if s >= 56 else "near"


def _one_difference_signal(n, h, target):
    """2·reach + 1 samples whose one half-point value is `target` (a
    Fraction) to within 2^-106 relative: f[reach + 1] − f[reach − 1] is
    target·2h / w(1) as a float pair, and every other sample is 0."""
    reach = 2 * n - 1
    difference = target * 2 * Fraction(h) / weights.half_point(n).nodes[n][1]
    high = float(difference)
    samples = [0.0] * (2 * reach + 1)
    samples[reach + 1], samples[reach - 1] = high, -float(difference - Fraction(high))
    return SampledSignal(h=h, samples=samples, origin=reach)


@pytest.mark.parametrize("h", [0.5, 0.3, 0.001])
@pytest.mark.parametrize("n", [1, 2, 5, 8, 20])
def test_certified_half_point_near_midpoints(n, h, exact_calls):
    # a value within about 2^-106 of a midpoint, as every "tie" and
    # "within" value is (the float pair of its samples rounds the target
    # that finely), lies inside the certificate's bound, so it takes the
    # exact route even where the float route's own error is zero
    reach = 2 * n - 1
    for target, kind in _near_midpoints():
        signal = _one_difference_signal(n, h, target)
        exact_calls.clear()
        got = differentiate_half_point_signal(signal, n).values[reach]
        assert float(got).hex() == _fraction_half_point(signal, n, reach).hex()
        if kind in ("tie", "within"):
            assert exact_calls == [1]
        elif kind == "quarter":
            assert exact_calls == []


@pytest.mark.parametrize("fn", ["sin:omega=1", "sin:omega=2,phase=0.5",
                                "poly:1,-0.5,0.25,0.125", "poly:0,2,-1"])
def test_certified_half_point_keeps_every_smooth_value(fn, exact_calls):
    # the signals benchmark's smooth test functions: the certificate keeps
    # every value, so none takes the exact route, for every n up to 40 and
    # at n = 300
    signal = make_signal(parse_test_function(fn), 0.001, 2001)
    for n in [*range(1, 41), 300]:
        differentiate_half_point_signal(signal, n)
    assert exact_calls == []


def _factor(w, product):
    """The float d nearest product / w whose float product d·w is
    `product`."""
    d = product / w
    while d * w != product:
        d = math.nextafter(d, math.inf if (d * w < product) == (w > 0) else -math.inf)
    return d


def _two_term_samples(d1, d3):
    """Seven samples whose n = 2 differences at index 3 are d1 (offset 1)
    and d3 (offset 3), exactly."""
    return [0.0, 0.0, 0.0, 0.0, d1, 0.0, d3]


# n = 2: p1 = fl(9/8·d1) at 2^-968, the least nonzero |p| the route takes,
# and just below it, beside a large p3; and s = p1 + p3 = 2^-968 by
# cancellation at g = 2^-100, so that q0 = s / g is 2^-868 = 2^-968 / g,
# the least q0 there, and one step of p3 below it
_P1_AT = _factor(9 / 8, 2.0 ** -968)
_P1_BELOW = math.nextafter(_P1_AT, 0)
_P3_WEIGHT = float(dict(weights.half_point(2).nodes)[3])
_P3_AT = _factor(_P3_WEIGHT, 2.0 ** -968 - 9 * 2.0 ** -960)
_P3_BELOW = _factor(_P3_WEIGHT, math.nextafter(2.0 ** -968 - 9 * 2.0 ** -960, -math.inf))
_ORDINARY = [1.0, -3.0, 0.5, 7.0, 2.25, -1.0]


@pytest.mark.parametrize("n, h, samples, fallbacks", [
    # n = 1: q0 = s / 2h at 2^995 and 2^-900, the ends of its range, and
    # just outside them
    (1, 2.0 ** -10, [0.0, 1.0, 2.0 ** 986], 0),
    (1, 2.0 ** -10, [0.0, 1.0, math.nextafter(2.0 ** 986, math.inf)], 1),
    (1, 0.5, [0.0, 5.0, 2.0 ** -900], 0),
    (1, 0.5, [0.0, 5.0, math.nextafter(2.0 ** -900, 0)], 1),
    # samples at 2^994, the end of the route's sample range, and just
    # above: only the windows that hold such a sample fall back
    (1, 0.5, [2.0 ** 994, 1.0, -(2.0 ** 994)], 0),
    (1, 0.5, [math.nextafter(2.0 ** 994, math.inf), *_ORDINARY], 1),
    # a subnormal sample beside ordinary ones
    (1, 0.5, [1e-310, *_ORDINARY], 0),
    # n = 2: |p1| at 2^-968 and below; q0 at 2^-968 / g and below; and
    # d3 = 0, whose p3 = 0 the route takes
    (2, 0.5, _two_term_samples(_P1_AT, 1.0), 0),
    (2, 0.5, _two_term_samples(_P1_BELOW, 1.0), 1),
    (2, 2.0 ** -101, _two_term_samples(8 * 2.0 ** -960, _P3_AT), 0),
    (2, 2.0 ** -101, _two_term_samples(8 * 2.0 ** -960, _P3_BELOW), 1),
    (2, 0.5, _two_term_samples(1.0, 0.0), 0),
])
def test_certified_half_point_ranges_are_inclusive(n, h, samples, fallbacks, exact_calls):
    signal = SampledSignal(h=h, samples=samples)
    reach = 2 * n - 1
    interior = range(reach, len(samples) - reach)
    result = differentiate_half_point_signal(signal, n)
    assert exact_calls == ([fallbacks] if fallbacks else [])
    assert _hex(result.values[interior.start:interior.stop]) == _hex(
        [_fraction_half_point(signal, n, i) for i in interior])


def test_two_term_cases_sit_on_their_range_ends():
    # the n = 2 cases above are what they say
    assert 9 / 8 * _P1_AT == 2.0 ** -968 > 9 / 8 * _P1_BELOW > 0
    assert 9 / 8 * (8 * 2.0 ** -960) + _P3_WEIGHT * _P3_AT == 2.0 ** -968
    assert 0 < 9 / 8 * (8 * 2.0 ** -960) + _P3_WEIGHT * _P3_BELOW < 2.0 ** -968
    assert abs(_P3_WEIGHT * _P3_BELOW) >= 2.0 ** -968


def _route_spacings(D):
    """The least and the greatest h whose float 2·D·h lies in 2^-60..2^80,
    the certified route's range while it divided by 2·D·h."""
    low = math.ldexp(1.0, -60) / (2 * D)
    while 2.0 * D * math.nextafter(low, 0) >= 2.0 ** -60:
        low = math.nextafter(low, 0)
    while 2.0 * D * low < 2.0 ** -60:
        low = math.nextafter(low, math.inf)
    high = math.ldexp(1.0, 80) / (2 * D)
    while 2.0 * D * math.nextafter(high, math.inf) <= 2.0 ** 80:
        high = math.nextafter(high, math.inf)
    while 2.0 * D * high > 2.0 ** 80:
        high = math.nextafter(high, 0)
    return low, high


@pytest.mark.parametrize("n", range(1, 9))
def test_certified_route_keeps_its_old_two_d_h_range(n, exact_calls):
    # the least and the greatest h whose float 2·D·h lies in 2^-60..2^80,
    # every h the route took up to n = 8 while it divided by 2·D·h, and
    # their outer neighbours: the route takes all four. The samples, of a
    # smooth function at a fine step, keep every value off the midpoints
    D = _HalfPointRule(n).D
    signal = make_signal(Sinusoid(1.0, 0.5), 0.001, 40)
    interior = range(2 * n - 1, 41 - 2 * n)
    low, high = _route_spacings(D)
    for h in (low, high, math.nextafter(low, 0), math.nextafter(high, math.inf)):
        scaled = SampledSignal(h=h, samples=signal.samples)
        result = differentiate_half_point_signal(scaled, n)
        assert _hex(result.values[interior.start:interior.stop]) == _hex(
            [_fraction_half_point(scaled, n, i) for i in interior])
    assert exact_calls == []


@pytest.mark.parametrize("n", [1, 2, 8, 9, 20, 40])
def test_certified_route_takes_every_two_h_in_split_range(n, exact_calls):
    # 2h at 2^-1022 and 2^995, the ends of split's range, which the route
    # takes, and just outside them, which send the whole call to the exact
    # route; the samples are scaled by 2^-500 and 2^200, so that every q0
    # lies in its range
    points = 4 * n + 20
    interior = range(2 * n - 1, points - 2 * n + 1)
    smooth = np.array(_smooth_samples(points))
    for h, scale, calls in [(2.0 ** -1023, 2.0 ** -500, []),
                            (math.nextafter(2.0 ** -1023, 0), 2.0 ** -500, [len(interior)]),
                            (2.0 ** 994, 2.0 ** 200, []),
                            (math.nextafter(2.0 ** 994, math.inf), 2.0 ** 200, [len(interior)])]:
        exact_calls.clear()
        signal = SampledSignal(h=h, samples=smooth * scale)
        result = differentiate_half_point_signal(signal, n)
        assert exact_calls == calls
        assert _hex(result.values[interior.start:interior.stop]) == _hex(
            [_fraction_half_point(signal, n, i) for i in interior])


def test_half_point_past_the_weight_range_takes_the_exact_route(exact_calls):
    # n = 477's least weight is 2^-967.2, n = 478's 2^-969.2, below the
    # route's 2^-968: there the span and the one index go straight to the
    # exact route
    assert _HalfPointRule(_FIRST_UNCERTIFIED_N - 1).weights is not None
    assert _HalfPointRule(_FIRST_UNCERTIFIED_N).weights is None
    reach = 2 * _FIRST_UNCERTIFIED_N - 1
    signal = make_signal(Sinusoid(1.0, 0.5), 0.001, 2 * reach + 3)
    result = differentiate_half_point_signal(signal, _FIRST_UNCERTIFIED_N)
    assert exact_calls == [3]
    want = _fraction_half_point(signal, _FIRST_UNCERTIFIED_N, reach + 1)
    assert result.values[reach + 1].hex() == want.hex()
    assert differentiate_half_point(signal, _FIRST_UNCERTIFIED_N, reach + 1).hex() == want.hex()


def test_one_half_point_value_takes_the_exact_route(exact_calls):
    # one index gains nothing from the certified route's vector setup
    signal = make_signal(Sinusoid(1.0, 0.5), 0.001, 101)
    for n in (1, 8, 20):
        assert differentiate_half_point(signal, n, 50) == \
            differentiate_half_point_signal(signal, n).values[50]
    assert exact_calls == [1, 1, 1]


def test_half_point_rule_is_built_once_per_n(monkeypatch, capsys):
    # the rule of each recent n is kept: a second call, of either entry,
    # builds nothing and prints the same bytes
    signals._half_point_rule.cache_clear()
    builds = []
    monkeypatch.setattr(signals, "half_point", lambda n: builds.append(n) or weights.half_point(n))
    argv = ["diff", "--fn", "sin:omega=1,phase=0.3", "--h", "0.001", "--kind",
            "half-point-first", "--n", "40", "--points", "400"]
    outs = []
    for _ in range(2):
        assert run(argv) == 0
        outs.append(capsys.readouterr().out)
    assert builds == [40] and outs[0] == outs[1]
    signal = make_signal(Sinusoid(1.0, 0.3), 0.001, 400)
    row = outs[0].splitlines()[1 + 200].split(",")
    assert float(row[2]) == differentiate_half_point(signal, 40, 200)
    assert builds == [40]


def test_exact_route_at_scattered_indices():
    # windows apart, overlapping and at both edges, with a subnormal and a
    # huge sample in some of them
    samples = np.sin(np.arange(40.0))
    samples[[12, 30]] = 5e-324, 1e300
    signal = SampledSignal(h=0.3, samples=samples)
    indices = np.array([3, 10, 12, 16, 31, 36])
    want = [_fraction_half_point(signal, 2, i) for i in indices]
    assert _hex(_HalfPointRule(2).exact(signal, indices)) == _hex(want)


# --- alternating second derivative ------------------------------------------------


def test_alternating_check_single_term():
    assert alternating_second_derivative_check(1, 1.0) == -8.0


def test_alternating_check_h_scaling():
    v1 = alternating_second_derivative_check(500, 1.0)
    v2 = alternating_second_derivative_check(500, 2.0)
    assert v2 == v1 / 4.0


def test_alternating_check_converges():
    value = alternating_second_derivative_check(10 ** 5, 1.0)
    assert abs(value + math.pi ** 2) <= 8.0 / 10 ** 5
    with pytest.raises(ValueError):
        alternating_second_derivative_check(0, 1.0)
    for h in (0.0, -1.0):
        with pytest.raises(ValueError, match="^h must be positive$"):
            alternating_second_derivative_check(10, h)


# --- convergence studies ----------------------------------------------------------


def test_convergence_classical_second_order():
    study = convergence_study(Sinusoid(omega=1.0), 1, 1, [0.04, 0.02, 0.01])
    assert not study.exact
    assert study.slope == pytest.approx(2.0, abs=0.1)


def test_convergence_sixth_order():
    study = convergence_study(Sinusoid(omega=1.0), 3, 1, [0.04, 0.02, 0.01])
    assert study.slope == pytest.approx(6.0, abs=0.2)


def test_convergence_exact_polynomial():
    study = convergence_study(Polynomial(coeffs=(1.0, -2.0, 3.0)), 1, 1,
                              [0.04, 0.02, 0.01])
    assert study.exact
    assert study.slope is None
    assert all(err <= 1e-12 for _, err in study.points)


def test_convergence_validation():
    fn = Sinusoid(omega=1.0)
    with pytest.raises(ValueError):
        convergence_study(fn, 1, 1, [0.04, 0.02])
    with pytest.raises(ValueError):
        convergence_study(fn, 1, 1, [0.01, 0.02, 0.04])
    with pytest.raises(ValueError, match="strictly decreasing"):
        convergence_study(fn, 1, 1, [0.04, 0.04, 0.02])


def test_analytic_derivatives_away_from_the_origin():
    # omega·x + phase = 2 and the polynomial's values are exact in floats
    fn = Sinusoid(omega=2.0, phase=0.5)
    assert fn.derivative(0.75, 1) == 2.0 * math.cos(2.0)
    assert fn.derivative(0.75, 2) == -4.0 * math.sin(2.0)
    # p = 1 - 2x + x^2/2 + 3x^3, p' = -2 + x + 9x^2 and p'' = 1 + 18x at x = 1/2
    poly = Polynomial((1.0, -2.0, 0.5, 3.0))
    assert [poly.derivative(0.5, order) for order in (0, 1, 2)] == [0.5, 0.75, 10.0]


# --- test functions and plumbing -----------------------------------------------------


def test_parse_test_function():
    assert parse_test_function("sin:omega=2.5") == Sinusoid(omega=2.5)
    assert parse_test_function("sin:omega=1,phase=0.5") == Sinusoid(1.0, 0.5)
    assert parse_test_function("poly:1,0,2") == Polynomial((1.0, 0.0, 2.0))
    assert parse_test_function("altpoly:1,0.25") == ModulatedAlternating((1.0, 0.25))
    for bad in ("sin", "sin:2.5", "sin:freq=1", "noise:1", "poly:"):
        with pytest.raises(ValueError):
            parse_test_function(bad)
    for key, expr in [("omega", "sin:omega=1,omega=2"), ("phase", "sin:phase=1,omega=2,phase=1")]:
        with pytest.raises(ValueError, match=f"^sinusoid parameter {key} is given twice$"):
            parse_test_function(expr)


def test_modulated_alternating_sampling():
    fn = ModulatedAlternating(coeffs=(1.0, 0.5))
    assert fn.sample(np.arange(3), 1.0).tolist() == [1.0, -1.5, 2.0]
    assert fn.envelope(3.0) == 2.5


def _scalar_sample(fn, m, h):
    """fn sampled at one int m with Python floats, one point at a time:
    math.sin (NaN where it has a domain error, at an infinite argument),
    Horner on m*h, and a Python carrier."""
    if isinstance(fn, Sinusoid):
        t = fn.omega * m * h + fn.phase
        return math.nan if math.isinf(t) else math.sin(t)
    x = m * h
    acc = 0.0
    for c in reversed(fn.coeffs):
        acc = acc * x + c
    if isinstance(fn, ModulatedAlternating):
        return (-1.0 if m % 2 else 1.0) * acc
    return acc


def _same_float(a, b):
    """a and b are the same float bit for bit, or both NaN."""
    return (math.isnan(a) and math.isnan(b)) or float(a).hex() == float(b).hex()


_ANY_FLOAT = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1e308, -1e308, 5e-324]))
_COEFFS = st.lists(_ANY_FLOAT, min_size=1, max_size=6).map(tuple)
_FAMILIES = st.one_of(st.builds(Sinusoid, _ANY_FLOAT, _ANY_FLOAT),
                      st.builds(Polynomial, _COEFFS), st.builds(ModulatedAlternating, _COEFFS))


@settings(max_examples=500, deadline=None)
@given(fn=_FAMILIES, h=_ANY_FLOAT,
       ms=st.lists(st.one_of(st.just(0), st.integers(-2 ** 20, 2 ** 20)), min_size=1, max_size=20))
def test_sample_matches_the_scalar_per_point_loop(fn, h, ms):
    # signed zeros, and samples that overflow to inf or NaN, included
    with np.errstate(all="ignore"):
        got = fn.sample(np.array(ms), h)
    assert got.dtype == np.float64 and got.shape == (len(ms),)
    for m, value in zip(ms, got.tolist()):
        assert _same_float(value, _scalar_sample(fn, m, h)), (m, value)


@settings(max_examples=300, deadline=None)
@given(omega=_ANY_FLOAT, phase=_ANY_FLOAT, h=_ANY_FLOAT,
       ms=st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=1, max_size=20))
def test_sinusoid_sample_is_the_bits_of_the_whole_expression(omega, phase, h, ms):
    # the argument is built in one array, with the operations of the
    # expression sin(omega * m * h + phase) in its order
    m = np.array(ms)
    with np.errstate(all="ignore"):
        got = Sinusoid(omega, phase).sample(m, h)
        want = np.sin(omega * m * h + phase)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_sinusoid_sample_of_an_int_omega_is_float():
    assert Sinusoid(2, 1).sample(np.arange(-1, 2), 0.5).tolist() == [0.0, math.sin(1.0),
                                                                    math.sin(2.0)]


def test_make_signal_memory_is_the_indices_and_two_sample_arrays():
    # the int64 indices, the argument array that the sines overwrite and
    # the signal's read-only copy: 9.6 MB at 400,001 points with a
    # temporary per operation of the expression, 6.8 MB without
    points = 400001
    make_signal(Sinusoid(1.0, 0.5), 0.001, 11)  # numpy's first calls are not the samples
    tracemalloc.start()
    try:
        make_signal(Sinusoid(1.0, 0.5), 0.001, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * points


def test_samples_are_a_read_only_copy():
    given_samples = np.array([1.0, 2.0, 3.0])
    signal = SampledSignal(h=1.0, samples=given_samples, origin=0)
    with pytest.raises(ValueError, match="read-only"):
        signal.samples[0] = 5.0
    given_samples[0] = 5.0
    assert signal.samples.tolist() == [1.0, 2.0, 3.0]
    assert SampledSignal(h=1.0, samples=(1, 2), origin=0).samples.dtype == np.float64


def test_make_signal_rejects_overflowing_samples_without_a_warning():
    # omega*m overflows to inf at m = -2 and sin(inf) is NaN
    with pytest.raises(ValueError, match=r"^sample 0 is nan: samples must be finite$"):
        make_signal(Sinusoid(omega=1e308), 10.0, 5)


def test_make_signal_centers_origin():
    signal = make_signal(Sinusoid(omega=1.0), 0.1, 11)
    assert signal.origin == 5
    assert signal.x(5) == 0.0
    assert signal.samples[5] == 0.0
    shortest = make_signal(Sinusoid(omega=1.0), 0.5, 2)
    assert shortest.origin == 1 and shortest.samples.tolist() == [math.sin(-0.5), 0.0]
    with pytest.raises(ValueError, match="^need at least two points$"):
        make_signal(Sinusoid(omega=1.0), 0.5, 1)


def test_sampled_signal_validation():
    assert SampledSignal(h=0.5, samples=(1.0, 2.0)).x(1) == 0.5  # origin 0 by default
    with pytest.raises(ValueError):
        SampledSignal(h=0.0, samples=(1.0, 2.0), origin=0)
    with pytest.raises(ValueError):
        SampledSignal(h=1.0, samples=(1.0,), origin=0)
    for origin in (-1, 2, 5):  # the first index below and above 0..1
        with pytest.raises(ValueError, match="^origin must index into the samples$"):
            SampledSignal(h=1.0, samples=(1.0, 2.0), origin=origin)
    assert SampledSignal(h=1.0, samples=(1.0, 2.0), origin=1).x(0) == -1.0
    for h in (math.inf, math.nan):
        with pytest.raises(ValueError, match=r"must be a positive finite float"):
            SampledSignal(h=h, samples=(1.0, 2.0), origin=0)
    with pytest.raises(ValueError, match=r"^h=1e\+308: x = 2\*h at the far end overflows"):
        SampledSignal(h=1e308, samples=(1.0, 2.0, 3.0, 4.0), origin=1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"^sample 1 is .*: samples must be finite$"):
            SampledSignal(h=1.0, samples=(1.0, bad, 2.0), origin=0)


# --- the double-double weights from integer pairs ---------------------------


def _fraction_low_part(a, b):
    """w_lo = fl(w - fl(w)) for w = a / b, in Fraction arithmetic."""
    w = Fraction(a, b)
    return float(w - Fraction(float(w)))


def test_low_part_of_every_weight_is_the_fraction_route():
    for kind in weights.StencilKind:
        for n in range(1, 201):
            _, _, pairs, _ = weights.weight_pairs(kind, n)
            for a, b in dict.fromkeys(pairs):
                assert _low_part(a, b, a / b).hex() == _fraction_low_part(a, b).hex(), \
                    (kind, n, a, b)


@st.composite
def _stencil_file_rationals(draw):
    """Reduced pairs a / b inside the floats, as a stencil file's "p/q" or
    decimal text reads: up to 80 digits, and a quotient from subnormal to
    near the largest float."""
    a = draw(st.integers(-10 ** 80, 10 ** 80))
    b = draw(st.integers(1, 10 ** 80))
    shift = draw(st.integers(-1000, 700))
    a, b = (a << shift, b) if shift >= 0 else (a, b << -shift)
    g = math.gcd(a, b)
    return a // g, b // g


@settings(max_examples=2000, deadline=None)
@given(pair=_stencil_file_rationals())
@example(pair=(1, 3))
@example(pair=(1, 10))
@example(pair=(-7, 2 ** 1080))   # w itself below the least subnormal
@example(pair=(2 ** 60 + 1, 2 ** 1090))  # w_hi subnormal, w_lo rounds to 0
def test_low_part_of_a_stencil_file_rational_is_the_fraction_route(pair):
    a, b = pair
    assert _low_part(a, b, a / b).hex() == _fraction_low_part(a, b).hex()


@pytest.mark.parametrize("pairs, prefactor", [
    ([(-1, 1), (10 ** 400, 3)], (1, 2)),
    ([(-1, 1), (1, 1)], (10 ** 400, 1)),
])
def test_a_weight_or_prefactor_past_the_floats_is_one_value_error(pairs, prefactor):
    # a stencil file may hold any rational; its float a / b overflows
    stencil = weights.Stencil(weights.StencilKind.CENTRAL_FIRST, 1, 1, (-1, 1), pairs, prefactor)
    with pytest.raises(ValueError, match=r"^central-first\(n=1\): a weight or the prefactor "
                                         r"overflows the floats$"):
        apply_stencil(make_signal(Sinusoid(omega=1.0), 0.5, 9), stencil)


def test_differentiate_needs_n_plus_one_samples():
    with pytest.raises(ValueError, match=r"^need at least n\+1 = 4 samples$"):
        differentiate(make_signal(Sinusoid(omega=1.0), 0.5, 3), 3, 1)
    # n + 1 samples: no central index, the forward rule at the first and
    # the backward rule at the last
    result = differentiate(make_signal(Sinusoid(omega=1.0), 0.5, 4), 3, 1)
    assert result.spans == (("forward(3)", 0, 1), ("backward(3)", 3, 4))
