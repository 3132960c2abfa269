"""Stencil application, boundary policy, envelope and convergence behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stencil_spectra import weights
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
    with pytest.raises(BoundaryError, match=r"index 5"):
        apply_stencil_at(signal, weights.one_sided_first(2), 3)
    with pytest.raises(BoundaryError, match=r"index -1"):
        apply_stencil_at(signal, weights.central_first(1), 0)


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
        "central": (central.nodes, central.prefactor, central.h_power),
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
                signal, stencil.nodes, stencil.prefactor, stencil.h_power, i))
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
            [_loop_value(signal, stencil.nodes, stencil.prefactor, stencil.h_power, index)])
    else:
        with pytest.raises(BoundaryError, match=r"outside 0\.\."):
            apply_stencil_at(signal, stencil, index)


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


# --- test functions and plumbing -----------------------------------------------------


def test_parse_test_function():
    assert parse_test_function("sin:omega=2.5") == Sinusoid(omega=2.5)
    assert parse_test_function("sin:omega=1,phase=0.5") == Sinusoid(1.0, 0.5)
    assert parse_test_function("poly:1,0,2") == Polynomial((1.0, 0.0, 2.0))
    assert parse_test_function("altpoly:1,0.25") == ModulatedAlternating((1.0, 0.25))
    for bad in ("sin", "sin:2.5", "sin:freq=1", "noise:1", "poly:"):
        with pytest.raises(ValueError):
            parse_test_function(bad)


def test_modulated_alternating_sampling():
    fn = ModulatedAlternating(coeffs=(1.0, 0.5))
    assert fn.sample_node(0, 1.0) == 1.0
    assert fn.sample_node(1, 1.0) == -1.5
    assert fn.sample_node(2, 1.0) == 2.0
    assert fn.envelope(3.0) == 2.5
    assert fn.envelope_derivative(3.0) == 0.5
    assert fn.derivative(0.0, 1, h=1.0) == 0.5


def test_make_signal_centers_origin():
    signal = make_signal(Sinusoid(omega=1.0), 0.1, 11)
    assert signal.origin == 5
    assert signal.x(5) == 0.0
    assert signal.samples[5] == 0.0


def test_sampled_signal_validation():
    with pytest.raises(ValueError):
        SampledSignal(h=0.0, samples=(1.0, 2.0), origin=0)
    with pytest.raises(ValueError):
        SampledSignal(h=1.0, samples=(1.0,), origin=0)
    with pytest.raises(ValueError):
        SampledSignal(h=1.0, samples=(1.0, 2.0), origin=5)
