"""Exact-value and identity tests for the weight generators."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import finite_diff_weights

from stencil_spectra import oracle, weights
from stencil_spectra.weights import (
    StencilKind,
    central_first,
    central_second,
    half_point,
    harmonic_number,
    limit_coefficients,
    one_sided_first,
    one_sided_nth,
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
    assert s.prefactor == F(1, 2) and stencil_to_dict(s)["h_power"] == 1
    assert s.derivative_order == 1


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
        _, lim, _ = _LIMIT_TERMS[StencilKind.CENTRAL_FIRST](m - 1)
        gaps = [abs(central_first(n).weight_at(m) - lim) for n in (8, 16, 32, 64)]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < F(1, 10)


# --- central second ------------------------------------------------------


def test_central_second_three_point():
    s = central_second(1)
    assert s.nodes == ((-1, F(1)), (0, F(-2)), (1, F(1)))
    assert s.derivative_order == 2 and stencil_to_dict(s)["h_power"] == 2
    assert s.prefactor == 1


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


def test_central_second_centre_is_the_term_by_term_sum():
    # the centre weight is one integer sum over lcm(1..n)**2 C(2n, n); here
    # each positive-side weight, from factorials, is added as a Fraction
    for n in range(1, 201):
        positive = sum((F((-1) ** (m + 1) * 2 * math.factorial(n) ** 2,
                          m * m * math.factorial(n - m) * math.factorial(n + m))
                        for m in range(1, n + 1)), F(0))
        assert central_second(n).weight_at(0) == -2 * positive


# --- independent routes to the central families ---------------------------


@pytest.mark.parametrize("n", range(1, 21))
def test_central_families_match_fornberg(n):
    # Fornberg's recursion (sympy) on the grid -n..n, derivative orders 1, 2,
    # and on the odd grid -(2n-1)..2n-1 for the half-point first derivative
    grid = list(range(-n, n + 1))
    odd_grid = list(range(1 - 2 * n, 2 * n, 2))
    table = finite_diff_weights(2, grid, 0)
    for stencil, points, weights_by_grid in (
        (central_first(n), grid, table[1][-1]),
        (central_second(n), grid, table[2][-1]),
        (half_point(n), odd_grid, finite_diff_weights(1, odd_grid, 0)[1][-1]),
    ):
        fornberg = [F(int(w.p), int(w.q)) for w in weights_by_grid]
        assert fornberg == [stencil.prefactor * stencil.weight_at(o) for o in points]


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


# Term j of each infinite-family weight sequence, written here from the
# paper's closed forms apart from the library's limit_coefficients: (offset,
# the exact rational weight, or its rational part when the weight is that
# over pi, and whether it is over pi).
_LIMIT_TERMS = {
    # 2 (-1)**(m+1) / m at offset m = j + 1
    StencilKind.CENTRAL_FIRST: lambda j: (j + 1, F(2 * (-1) ** (j + 2), j + 1), False),
    # 2 (-1)**(m+1) / m**2 at offset m = j + 1
    StencilKind.CENTRAL_SECOND: lambda j: (j + 1, F(2 * (-1) ** (j + 2), (j + 1) ** 2), False),
    # 4 (-1)**j / ((2j+1)**2 pi) at offset 2j + 1
    StencilKind.HALF_POINT_FIRST: lambda j: (2 * j + 1, F(4 * (-1) ** j, (2 * j + 1) ** 2), True),
}


def _library_term(kind, j):
    """The library's term j alone: (offset, coefficient)."""
    offsets, values = limit_coefficients(kind, j + 1, j)
    return offsets.item(), values.item()


def _rounded(term):
    """A _LIMIT_TERMS entry as the library's term: (offset, the weight
    rounded once, then over pi)."""
    offset, q, over_pi = term
    return offset, float(q) / math.pi if over_pi else float(q)


def test_central_first_limit_values():
    table = [_LIMIT_TERMS[StencilKind.CENTRAL_FIRST](j) for j in (0, 1, 2, 4)]
    assert table == [(1, F(2), False), (2, F(-1), False), (3, F(2, 3), False),
                     (5, F(2, 5), False)]
    assert [_library_term(StencilKind.CENTRAL_FIRST, j) for j in (0, 1, 2, 4)] == [
        _rounded(t) for t in table]


def test_central_second_limit_values():
    table = [_LIMIT_TERMS[StencilKind.CENTRAL_SECOND](j) for j in (0, 1, 3)]
    assert table == [(1, F(2), False), (2, F(-1, 2), False), (4, F(-1, 8), False)]
    assert [_library_term(StencilKind.CENTRAL_SECOND, j) for j in (0, 1, 3)] == [
        _rounded(t) for t in table]


def test_half_point_limit_values():
    table = [_LIMIT_TERMS[StencilKind.HALF_POINT_FIRST](j) for j in (0, 1, 2)]
    assert table == [(1, F(4), True), (3, F(-4, 9), True), (5, F(4, 25), True)]
    assert [_library_term(StencilKind.HALF_POINT_FIRST, j) for j in (0, 1, 2)] == [
        _rounded(t) for t in table]
    offsets, values = limit_coefficients(StencilKind.HALF_POINT_FIRST, 1)
    assert offsets.tolist() == [1]
    assert values[0] == pytest.approx(4 / math.pi, rel=1e-15)


def test_limit_invalid_arguments():
    # j = 0 is the first term of every family: offset 1
    for kind in _LIMIT_TERMS:
        assert limit_coefficients(kind, 1)[0].tolist() == [1]
    with pytest.raises(ValueError):
        limit_coefficients(StencilKind.ONE_SIDED_FIRST, 3)
    with pytest.raises(ValueError):  # even for no terms
        limit_coefficients(StencilKind.ONE_SIDED_NTH, 0)


def _exact_values(kind, start, stop):
    """Offsets and exact parts of the table terms j = start..stop-1."""
    terms = [_LIMIT_TERMS[kind](j) for j in range(start, stop)]
    return [o for o, _, _ in terms], [q for _, q, _ in terms]


@settings(max_examples=200)
@given(kind=st.sampled_from(sorted(_LIMIT_TERMS, key=lambda k: k.value)),
       start=st.integers(0, 10 ** 6), count=st.integers(0, 300),
       scale=st.one_of(st.just(1.0), st.floats(1e-3, 1e3)))
def test_limit_coefficients_match_exact_limits(kind, start, count, scale):
    offsets, values = limit_coefficients(kind, start + count, start, scale)
    exact_offsets, rationals = _exact_values(kind, start, start + count)
    assert offsets.tolist() == exact_offsets
    # bit for bit: one rounding of scale * rational (2 or 4 times scale is
    # exact), then the half-point family's division by pi
    expected = [(scale * q.numerator) / q.denominator for q in rationals]
    if kind is StencilKind.HALF_POINT_FIRST:
        expected = [v / math.pi for v in expected]
    assert values.tolist() == expected
    # a term made alone, at scale 1, is its weight rounded once
    assert [_library_term(kind, j) for j in range(start, start + min(count, 3))] == [
        _rounded(_LIMIT_TERMS[kind](j)) for j in range(start, start + min(count, 3))]


@pytest.mark.parametrize("kind", list(_LIMIT_TERMS))
def test_limit_coefficients_are_the_limit_weights(kind):
    # with scale 1, each coefficient is its exact weight rounded once, over
    # pi for the half-point family
    _, values = limit_coefficients(kind, 500)
    expected = [float(q) / math.pi if over_pi else float(q)
                for _, q, over_pi in map(_LIMIT_TERMS[kind], range(500))]
    assert values.tolist() == expected


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
    assert s.derivative_order == n and stencil_to_dict(s)["h_power"] == n
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


def test_harmonic_number_is_the_term_by_term_sum():
    total = F(0)
    for n in range(201):
        assert harmonic_number(n) == total
        total += F(1, n + 1)


def test_harmonic_number_rejects_negative_n():
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        harmonic_number(-1)


def test_stencil_rejects_offsets_and_weights_of_unequal_length():
    with pytest.raises(ValueError, match="^offsets and weights must have equal length$"):
        weights.Stencil(kind=StencilKind.CENTRAL_FIRST, n=1, derivative_order=1,
                        offsets=(-1, 1), weights=(F(1),), prefactor=F(1, 2))


# --- the Stencil record ------------------------------------------------------


# repr(central_first(2)) as the frozen dataclass that Stencil once was wrote it
_CENTRAL_FIRST_2_REPR = (
    "Stencil(kind=<StencilKind.CENTRAL_FIRST: 'central-first'>, n=2, derivative_order=1, "
    "offsets=(-2, -1, 1, 2), weights=(Fraction(1, 6), Fraction(-4, 3), Fraction(4, 3), "
    "Fraction(-1, 6)), prefactor=Fraction(1, 2))"
)


def test_stencil_repr_is_the_dataclass_form():
    assert repr(central_first(2)) == _CENTRAL_FIRST_2_REPR


@pytest.mark.parametrize("field, value", [
    ("kind", StencilKind.HALF_POINT_FIRST), ("n", 3), ("derivative_order", 2),
    ("offsets", (-3, -1, 1, 2)), ("weights", (F(1, 6), F(-4, 3), F(4, 3), F(-1, 7))),
    ("prefactor", F(1)),
])
def test_stencil_equality_and_hash_are_field_wise(field, value):
    s = central_first(2)
    same = weights.Stencil(StencilKind.CENTRAL_FIRST, 2, 1, (-2, -1, 1, 2),
                           (F(1, 6), F(-4, 3), F(4, 3), F(-1, 6)), F(1, 2))
    assert same is not s and same == s and not same != s
    assert hash(same) == hash(s)
    changed = s.replace(**{field: value})
    assert getattr(changed, field) == value
    assert changed != s and not changed == s
    assert {f: getattr(changed, f) for f in weights.Stencil._fields if f != field} == \
        {f: getattr(s, f) for f in weights.Stencil._fields if f != field}


def test_stencil_equals_no_other_class():
    s = central_first(1)
    fields = tuple(getattr(s, f) for f in weights.Stencil._fields)
    assert s != fields and s.__eq__(fields) is NotImplemented
    assert s != oracle.MomentSystem((-1, 0, 1), 2, 1)


@pytest.mark.parametrize("field", ["kind", "n", "offsets", "prefactor", "not_a_field"])
def test_stencil_is_frozen(field):
    s = central_first(2)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(s, field, 1)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(s, field)
    assert repr(s) == _CENTRAL_FIRST_2_REPR


def test_stencil_replace_validates_as_the_constructor_does():
    s = central_first(2)
    assert s.replace() == s
    with pytest.raises(ValueError, match="^offsets must be strictly increasing$"):
        s.replace(offsets=(-2, -1, 1, 1))
    with pytest.raises(ValueError, match="^offsets must be strictly increasing$"):
        s.replace(offsets=(2, 1, -1, -2))
    with pytest.raises(ValueError, match="^offsets and weights must have equal length$"):
        s.replace(offsets=(-1, 1))
    with pytest.raises(ValueError, match="^derivative_order must be >= 0$"):
        s.replace(derivative_order=-1)
    assert s.replace(derivative_order=0).derivative_order == 0
    with pytest.raises(TypeError):
        s.replace(order=1)


def test_build_dispatch():
    for kind in StencilKind:
        assert weights.build(kind, 3).kind is kind


@pytest.mark.parametrize("kind", list(StencilKind))
def test_reach_is_the_largest_built_offset(kind):
    for n in range(1, 61):
        assert weights.reach(kind, n) == weights.build(kind, n).offsets[-1]


def test_json_round_trip_is_exact():
    for kind in StencilKind:
        s = weights.build(kind, 5)
        d = stencil_to_dict(s)
        assert all("/" in node["weight"] or "." not in node["weight"]
                   for node in d["nodes"])
        assert stencil_from_dict(d) == s


_RATIONALS = st.builds(Fraction, st.integers(), st.integers(1, 10 ** 40))


@st.composite
def _hand_built_stencils(draw):
    offsets = sorted(draw(st.sets(st.integers(), min_size=1, max_size=12)))
    return weights.Stencil(
        kind=draw(st.sampled_from(list(StencilKind))),
        n=draw(st.integers()),
        derivative_order=draw(st.integers(0, 10)),
        offsets=tuple(offsets),
        weights=tuple(draw(st.lists(_RATIONALS, min_size=len(offsets),
                                    max_size=len(offsets)))),
        prefactor=draw(_RATIONALS),
    )


_STENCILS = st.one_of(
    st.builds(weights.build, st.sampled_from(list(StencilKind)), st.integers(1, 40)),
    _hand_built_stencils(),
)


@settings(max_examples=300, deadline=None)
@given(stencil=_STENCILS)
def test_json_round_trip_property(stencil):
    text = json.dumps(stencil_to_dict(stencil))
    assert stencil_from_dict(json.loads(text)) == stencil
    # the CLI reads stencil files with the ints left as text
    assert stencil_from_dict(json.loads(text, parse_int=str)) == stencil


@pytest.mark.parametrize("field, edit", [
    ("the weight at offset 1", lambda d: d["nodes"][1].update(weight="1/" + "7" * 5000)),
    ("the weight at offset -1", lambda d: d["nodes"][0].update(weight="0." + "7" * 5000)),
    ("the offset of node 1", lambda d: d["nodes"][1].update(offset="7" * 5000)),
    ("the prefactor", lambda d: d.update(prefactor="7" * 5000)),
    ("the h_power", lambda d: d.update(h_power="7" * 5000)),
])
def test_stencil_from_dict_names_a_field_too_long_to_read(field, edit):
    data = stencil_to_dict(central_first(1))
    edit(data)
    with pytest.raises(weights.StencilFormatError) as info:
        stencil_from_dict(data)
    assert str(info.value) == (f"malformed stencil: {field} has more digits than "
                               "Python reads exactly")


@pytest.mark.parametrize("message, edit", [
    ("the offset of node 0 is not an integer", lambda d: d["nodes"][0].update(offset=-1.5)),
    ("the offset of node 1 is not an integer", lambda d: d["nodes"][1].update(offset=True)),
    ("the offset of node 1 is not an integer", lambda d: d["nodes"][1].update(offset="1.9")),
    ("the n is not an integer", lambda d: d.update(n=1.7)),
    ("the n is not an integer", lambda d: d.update(n=1.0)),
    ("the derivative_order is not an integer", lambda d: d.update(derivative_order=" 1")),
    ("the h_power is not an integer", lambda d: d.update(h_power=True)),
    ("the h_power must equal the derivative_order", lambda d: d.update(h_power=2)),
    ("the weight at offset 1 is not a rational", lambda d: d["nodes"][1].update(weight=True)),
    ("the weight at offset -1 is not a rational", lambda d: d["nodes"][0].update(weight=None)),
    ("the weight at offset 1 is not a rational", lambda d: d["nodes"][1].update(weight="one")),
    ("the weight at offset 1 is not a rational", lambda d: d["nodes"][1].update(weight="1/0")),
    ("the prefactor is not a rational", lambda d: d.update(prefactor=False)),
    ("the prefactor is not a rational", lambda d: d.update(prefactor=float("inf"))),
])
def test_stencil_from_dict_names_a_field_of_the_wrong_type(message, edit):
    data = stencil_to_dict(central_first(1))
    edit(data)
    with pytest.raises(weights.StencilFormatError) as info:
        stencil_from_dict(data)
    assert str(info.value) == f"malformed stencil: {message}"


def test_weights_are_reduced_fractions():
    s = one_sided_first(12)
    for _, w in s.nodes:
        assert math.gcd(abs(w.numerator), w.denominator) == 1
        assert w.denominator > 0
