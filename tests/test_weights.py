"""Exact-value and identity tests for the weight generators."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import finite_diff_weights

from stencil_spectra import oracle, weights
from stencil_spectra.weights import (
    StencilKind,
    central_first,
    central_first_limit,
    central_second,
    central_second_limit,
    half_point,
    half_point_limit,
    harmonic_number,
    limit_coefficients,
    one_sided_first,
    one_sided_nth,
    product_form_one_sided,
    stencil_from_dict,
    stencil_to_dict,
)

F = Fraction


def moment_sum(stencil, k):
    """sum over stored nodes of w * offset**k, exactly (0**0 = 1)."""
    return sum((w * o ** k for o, w in stencil.nodes), F(0))


# --- central first -------------------------------------------------------


def test_central_first_two_point():
    s = central_first(1)
    assert s.nodes == ((-1, F(-1)), (1, F(1)))
    assert s.prefactor == F(1, 2) and s.h_power == 1 and s.derivative_order == 1


def test_central_first_five_point():
    # frozen from the exact 2x2 moment solve:
    # a + 2b = 1, a + 8b = 0  ->  a = 4/3, b = -1/6
    s = central_first(2)
    assert s.weight_at(1) == F(4, 3)
    assert s.weight_at(2) == F(-1, 6)
    # classical 5-point rule (-f2 + 8 f1 - 8 f-1 + f-2) / (12 h)
    assert s.prefactor * s.weight_at(1) == F(8, 12)
    assert s.prefactor * s.weight_at(2) == F(-1, 12)


def test_central_first_leading_weight_closed_form():
    # w(1) = 2n/(n+1), monotone increasing to the limit value 2
    previous = F(0)
    for n in range(1, 30):
        w1 = central_first(n).weight_at(1)
        assert w1 == F(2 * n, n + 1)
        assert w1 > previous
        previous = w1
    assert abs(central_first(50).weight_at(1) - 2) == F(2, 51)


@pytest.mark.parametrize("n", range(1, 13))
def test_central_first_factorial_closed_form(n):
    s = central_first(n)
    for m in range(1, n + 1):
        closed = F(
            (-1) ** (m + 1) * 2 * math.factorial(n) ** 2,
            m * math.factorial(n - m) * math.factorial(n + m),
        )
        assert s.weight_at(m) == closed


@pytest.mark.parametrize("n", range(1, 13))
def test_central_second_factorial_closed_form(n):
    s = central_second(n)
    for m in range(1, n + 1):
        closed = F(
            (-1) ** (m + 1) * 2 * math.factorial(n) ** 2,
            m * m * math.factorial(n - m) * math.factorial(n + m),
        )
        assert s.weight_at(m) == closed


@pytest.mark.parametrize("n", range(1, 13))
def test_central_first_moment_conditions(n):
    s = central_first(n)
    # odd moments of the positive side: delta(j, 0)
    for j in range(n):
        total = sum(s.weight_at(m) * m ** (2 * j + 1) for m in range(1, n + 1))
        assert total == (1 if j == 0 else 0)


def test_central_first_antisymmetric():
    for n in (1, 4, 9):
        s = central_first(n)
        assert all(s.weight_at(-m) == -s.weight_at(m) for m in range(1, n + 1))
        assert s.weight_at(0) == 0


def test_central_first_converges_to_limit():
    for m in (1, 2, 3):
        lim = central_first_limit(m).rational_part
        gaps = [abs(central_first(n).weight_at(m) - lim) for n in (8, 16, 32, 64)]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < F(1, 10)


# --- central second ------------------------------------------------------


def test_central_second_three_point():
    s = central_second(1)
    assert s.nodes == ((-1, F(1)), (0, F(-2)), (1, F(1)))
    assert s.derivative_order == 2 and s.h_power == 2 and s.prefactor == 1


def test_central_second_five_point():
    # frozen from the exact even-moment solve:
    # a + 4b = 1, a + 16b = 0  ->  a = 4/3, b = -1/12
    s = central_second(2)
    assert s.weight_at(1) == F(4, 3)
    assert s.weight_at(2) == F(-1, 12)
    # classical (-f2 + 16 f1 - 30 f0 + 16 f-1 - f-2) / (12 h^2)
    assert s.weight_at(0) == F(-30, 12)


@pytest.mark.parametrize("n", range(1, 13))
def test_central_second_structure(n):
    s = central_second(n)
    positive = [s.weight_at(m) for m in range(1, n + 1)]
    assert s.weight_at(0) == -2 * sum(positive)
    assert all(s.weight_at(-m) == s.weight_at(m) for m in range(1, n + 1))
    for j in range(1, n + 1):
        total = sum(w * m ** (2 * j) for m, w in zip(range(1, n + 1), positive))
        assert total == (1 if j == 1 else 0)


# --- independent routes to the central families ---------------------------


@pytest.mark.parametrize("n", range(1, 21))
def test_central_families_match_fornberg(n):
    # Fornberg's recursion (sympy) on the grid -n..n, derivative orders 1, 2
    grid = list(range(-n, n + 1))
    table = finite_diff_weights(2, grid, 0)
    for order, stencil in ((1, central_first(n)), (2, central_second(n))):
        fornberg = [F(int(w.p), int(w.q)) for w in table[order][-1]]
        assert fornberg == [stencil.prefactor * stencil.weight_at(o) for o in grid]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 24), kind=st.sampled_from(
    [StencilKind.CENTRAL_FIRST, StencilKind.CENTRAL_SECOND]))
def test_central_closed_forms_match_oracle(n, kind):
    stencil = weights.build(kind, n)
    system = oracle.MomentSystem(
        offsets=stencil.offsets,
        degree=len(stencil.offsets) - 1,
        target_order=stencil.derivative_order,
    )
    scale = stencil.prefactor / math.factorial(stencil.derivative_order)
    assert oracle.solve_moment_system(system) == [
        stencil.weight_at(o) * scale for o in system.offsets
    ]


# --- limits ---------------------------------------------------------------


def test_central_first_limit_values():
    assert central_first_limit(1).rational_part == 2
    assert central_first_limit(2).rational_part == -1
    assert central_first_limit(3).rational_part == F(2, 3)
    assert central_first_limit(5).pi_power == 0


def test_central_second_limit_values():
    assert central_second_limit(1).rational_part == 2
    assert central_second_limit(2).rational_part == F(-1, 2)
    assert central_second_limit(4).rational_part == F(-1, 8)


def test_half_point_limit_values():
    assert half_point_limit(0).rational_part == 4
    assert half_point_limit(1).rational_part == F(-4, 9)
    assert half_point_limit(2).rational_part == F(4, 25)
    lw = half_point_limit(0)
    assert lw.pi_power == -1
    assert lw.value() == pytest.approx(4 / math.pi, rel=1e-15)


def test_limit_invalid_arguments():
    for fn in (central_first_limit, central_second_limit):
        with pytest.raises(ValueError):
            fn(0)
    with pytest.raises(ValueError):
        half_point_limit(-1)
    # m = 0 is valid for the half-point family (offset 1)
    assert half_point_limit(0).index == 1
    with pytest.raises(ValueError):
        limit_coefficients(StencilKind.ONE_SIDED_FIRST, 3)


_LIMIT_FAMILIES = {
    StencilKind.CENTRAL_FIRST: lambda j: central_first_limit(j + 1),
    StencilKind.CENTRAL_SECOND: lambda j: central_second_limit(j + 1),
    StencilKind.HALF_POINT_FIRST: half_point_limit,
}


@settings(max_examples=200)
@given(kind=st.sampled_from(sorted(_LIMIT_FAMILIES, key=lambda k: k.value)),
       start=st.integers(0, 10 ** 6), count=st.integers(0, 300),
       scale=st.one_of(st.just(1.0), st.floats(1e-3, 1e3)))
def test_limit_coefficients_match_exact_limits(kind, start, count, scale):
    offsets, values = limit_coefficients(kind, start + count, start, scale)
    exact = [_LIMIT_FAMILIES[kind](j) for j in range(start, start + count)]
    assert offsets.tolist() == [lw.index for lw in exact]
    # bit for bit: one rounding of scale * rational (2 or 4 times scale is exact)
    rationals = [lw.rational_part for lw in exact]
    assert values.tolist() == [(scale * q.numerator) / q.denominator for q in rationals]
    if scale == 1.0:
        if kind is StencilKind.HALF_POINT_FIRST:
            values = values / math.pi
        assert values.tolist() == [lw.value() for lw in exact]


# --- half point -----------------------------------------------------------


def test_half_point_small_families():
    s1 = half_point(1)
    assert s1.nodes == ((-1, F(-1)), (1, F(1)))
    s2 = half_point(2)
    # pi_0 = 1 - 1/9 = 8/9 and pi_1 = 1 - 9 = -8
    assert s2.weight_at(1) == F(9, 8)
    assert s2.weight_at(3) == F(-1, 24)
    assert s2.weight_at(2) == 0  # even offsets are zero and unstored


def test_half_point_offsets_are_odd():
    s = half_point(4)
    assert s.offsets == (-7, -5, -3, -1, 1, 3, 5, 7)
    assert all(s.weight_at(-m) == -s.weight_at(m) for m in (1, 3, 5, 7))


@pytest.mark.parametrize("n", range(1, 13))
def test_half_point_first_moment_identity(n):
    s = half_point(n)
    total = sum(s.weight_at(2 * m + 1) * (2 * m + 1) for m in range(n))
    assert total == 1


def test_half_point_leading_weight_approaches_limit():
    target = 4 / math.pi
    gaps = [abs(float(half_point(n).weight_at(1)) - target) for n in (5, 10, 20, 40)]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.02


# --- one sided ------------------------------------------------------------


def test_one_sided_first_small_families():
    assert one_sided_first(1).weights == (F(-1), F(1))
    assert one_sided_first(2).weights == (F(-3, 2), F(2), F(-1, 2))


@pytest.mark.parametrize("n", range(1, 17))
def test_one_sided_first_structure(n):
    s = one_sided_first(n)
    assert s.weight_at(1) == n
    assert s.weight_at(0) == -harmonic_number(n)
    assert sum(s.weights, F(0)) == 0
    for m in range(1, n + 1):
        assert s.weight_at(m) == F((-1) ** (m + 1) * math.comb(n, m), m)


def test_one_sided_nth_small_families():
    assert one_sided_nth(1).weights == (F(-1), F(1))
    s2 = one_sided_nth(2)
    assert s2.weights == (F(1, 2), F(-1), F(1, 2))
    assert s2.prefactor == 2
    # with the prefactor this is the plain second forward difference
    assert tuple(s2.prefactor * w for w in s2.weights) == (1, -2, 1)
    assert one_sided_nth(3).weights == (F(-1, 6), F(1, 2), F(-1, 2), F(1, 6))


@pytest.mark.parametrize("n", range(1, 13))
def test_one_sided_nth_is_forward_difference(n):
    s = one_sided_nth(n)
    assert s.derivative_order == n and s.h_power == n
    assert sum(s.weights, F(0)) == 0
    for m in range(n + 1):
        assert s.prefactor * s.weight_at(m) == (-1) ** (m + n) * math.comb(n, m)


@pytest.mark.parametrize("n", range(1, 13))
def test_one_sided_moment_conditions(n):
    # sum_m w_m m**k = delta(l, k) for the Taylor-coefficient weights
    for stencil, l in ((one_sided_first(n), 1), (one_sided_nth(n), n)):
        scale = stencil.prefactor / math.factorial(l)
        for k in range(n + 1):
            total = sum(scale * w * o ** k for o, w in stencil.nodes)
            assert total == (1 if k == l else 0), (n, l, k)


def test_product_form_examples():
    assert product_form_one_sided(1, 2) == 2  # p1 = 1/2
    assert product_form_one_sided(2, 2) == F(-1, 2)  # p2 = -1
    assert product_form_one_sided(1, 1) == 1  # empty product


def test_product_form_matches_binomial_form():
    for n in range(1, 13):
        s = one_sided_first(n)
        for m in range(1, n + 1):
            assert product_form_one_sided(m, n) == s.weight_at(m)


def test_alternating_binomial_harmonic_identity():
    for n in range(1, 65):
        total = sum(
            F((-1) ** (m + 1) * math.comb(n, m), m) for m in range(1, n + 1)
        )
        assert total == harmonic_number(n)


# --- errors and plumbing ---------------------------------------------------


@pytest.mark.parametrize(
    "builder",
    [central_first, central_second, half_point, one_sided_first, one_sided_nth],
)
def test_invalid_family_parameter(builder):
    with pytest.raises(ValueError):
        builder(0)


def test_product_form_range_errors():
    with pytest.raises(ValueError):
        product_form_one_sided(0, 3)
    with pytest.raises(ValueError):
        product_form_one_sided(4, 3)


def test_build_dispatch():
    for kind in StencilKind:
        assert weights.build(kind, 3).kind is kind


def test_json_round_trip_is_exact():
    for kind in StencilKind:
        s = weights.build(kind, 5)
        d = stencil_to_dict(s)
        assert all("/" in node["weight"] or "." not in node["weight"]
                   for node in d["nodes"])
        assert stencil_from_dict(d) == s


def test_weights_are_reduced_fractions():
    s = one_sided_first(12)
    for _, w in s.nodes:
        assert math.gcd(abs(w.numerator), w.denominator) == 1
        assert w.denominator > 0
