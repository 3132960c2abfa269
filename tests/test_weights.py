"""Exact-value and identity tests for the weight generators."""

import inspect
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
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
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        builder(0)
    for n in (0, -1):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            weights.weight_pairs(builder(1).kind, n)


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


# --- the numeric layer's records ---------------------------------------------


def _numeric_records():
    """name -> (a record, its repr as the frozen dataclass that it once was
    wrote it, its constructor's (parameter, default) pairs, how it
    compares, and a replace() change that its validation rejects with the
    given message, or None)."""
    from stencil_spectra import signals, spectra, tableblocks

    empty = inspect.Parameter.empty
    return {
        "FilterSpectrum": (
            spectra.FilterSpectrum(np.array([1 + 0j, 0.5 - 0.25j])),
            "FilterSpectrum(values=array([1. +0.j  , 0.5-0.25j]))",
            [("values", empty)], "unhashable",
            ({"values": np.array([1.0])}, "a half band needs at least 2 values (N >= 2)")),
        "DeviationReport": (
            spectra.DeviationReport(r_start=1, r_stop=4, max_abs=0.5, max_rel=0.25, argmax=2),
            "DeviationReport(r_start=1, r_stop=4, max_abs=0.5, max_rel=0.25, argmax=2)",
            [("r_start", empty), ("r_stop", empty), ("max_abs", empty), ("max_rel", empty),
             ("argmax", empty)], "fields", None),
        "SampledSignal": (
            signals.SampledSignal(0.5, [1, 2.5, -3]),
            "SampledSignal(h=0.5, samples=array([ 1. ,  2.5, -3. ]), origin=0)",
            [("h", empty), ("samples", empty), ("origin", 0)], "identity",
            ({"samples": (1.0, math.nan)}, "sample 1 is nan: samples must be finite")),
        "DerivativeResult": (
            signals.DerivativeResult(values=np.array([math.nan, 1.5]),
                                     spans=(("central-first(n=1)", 1, 2),), order=1),
            "DerivativeResult(values=array([nan, 1.5]), spans=(('central-first(n=1)', 1, 2),), "
            "order=1)",
            [("values", empty), ("spans", empty), ("order", empty)], "unhashable", None),
        "ConvergenceStudy": (
            signals.ConvergenceStudy(points=((0.1, 1e-3), (0.05, 2.5e-4)), slope=2.0, exact=False),
            "ConvergenceStudy(points=((0.1, 0.001), (0.05, 0.00025)), slope=2.0, exact=False)",
            [("points", empty), ("slope", empty), ("exact", empty)], "fields", None),
        "Labels": (
            tableblocks.Labels(names=("a", "b"), codes=np.array([0, 1, 1], np.uint8)),
            "Labels(names=('a', 'b'), codes=array([0, 1, 1], dtype=uint8))",
            [("names", empty), ("codes", empty)], "unhashable", None),
    }


@pytest.mark.parametrize("name", ["FilterSpectrum", "DeviationReport", "SampledSignal",
                                  "DerivativeResult", "ConvergenceStudy", "Labels"])
def test_numeric_records_keep_their_dataclass_semantics(name):
    record, text, parameters, compares, rejected = _numeric_records()[name]
    cls = type(record)
    assert isinstance(record, weights._Record) and cls.__name__ == name
    assert repr(record) == text
    assert [(p.name, p.default) for p in inspect.signature(cls).parameters.values()] == parameters
    for field in (*cls._fields, "not_a_field"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(record, field, 1)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(record, field)
    assert repr(record) == text
    # a copy with every field the same object, and one with the last field changed
    same = cls(*(getattr(record, field) for field in cls._fields))
    assert record == record and record.__eq__(tuple(record._values())) is NotImplemented
    if compares == "identity":
        assert same != record and not same == record and len({same, record}) == 2
        assert hash(record) == object.__hash__(record)
    elif compares == "fields":
        changed = record.replace(**{cls._fields[-1]: 7})
        assert same == record and not same != record and hash(same) == hash(record)
        assert changed != record and getattr(changed, cls._fields[-1]) == 7
    else:
        # equal when each field is the same object, as tuples compare; an
        # array field has no hash
        assert same == record
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    if rejected is not None:
        changes, message = rejected
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            record.replace(**changes)


def test_a_sampled_signal_holds_a_read_only_float_copy():
    from stencil_spectra.signals import SampledSignal

    given_samples = np.array([1, 2, 3])
    signal = SampledSignal(h=1.0, samples=given_samples, origin=2)
    assert signal.samples.dtype == np.float64 and not signal.samples.flags.writeable
    given_samples[0] = 9
    assert signal.samples.tolist() == [1.0, 2.0, 3.0] and len(signal) == 3
    assert signal.x(0) == -2.0
    # replace() makes a new signal of the same samples, which is not equal
    moved = signal.replace(origin=0)
    assert moved.origin == 0 and moved.samples.tolist() == [1.0, 2.0, 3.0] and moved != signal


def test_a_derivative_results_policy_is_computed_once():
    from stencil_spectra.signals import DerivativeResult

    result = DerivativeResult(np.zeros(4), (("rule", 1, 3),), 1)
    assert result.policy == ("skipped", "rule", "rule", "skipped")
    assert result.policy is result.policy


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


@pytest.mark.parametrize("data, message", [
    ([], "stencil must be an object, not list"),
    ({"kind": "central-first"}, "stencil is missing key 'nodes'"),
    ({**stencil_to_dict(central_first(1)), "nodes": []}, "stencil has no nodes"),
    ({**stencil_to_dict(central_first(1)), "nodes": [{"offset": 1}]},
     "stencil is missing key 'weight'"),
])
def test_stencil_from_dict_rejects_a_document_that_is_no_stencil(data, message):
    with pytest.raises(weights.StencilFormatError) as info:
        stencil_from_dict(data)
    assert str(info.value) == message


def test_stencil_from_dict_takes_the_nodes_in_any_order():
    data = stencil_to_dict(half_point(3))
    data["nodes"].reverse()
    assert stencil_from_dict(data) == half_point(3)
    assert weights.stencil_pairs(stencil_from_dict(data)) == \
        weights.weight_pairs(StencilKind.HALF_POINT_FIRST, 3)


def test_weights_are_reduced_fractions():
    s = one_sided_first(12)
    for _, w in s.nodes:
        assert math.gcd(abs(w.numerator), w.denominator) == 1
        assert w.denominator > 0


# --- the integer pairs behind every stencil -------------------------------


def _fraction_rule(kind, n):
    """(order, offsets, weights, prefactor) from each family's closed form
    in Fraction arithmetic: a second route to `weight_pairs`, which works on
    integers. The central-second center is -2 times the sum of the
    positive-side weights, summed term by term."""
    comb = math.comb
    if kind is StencilKind.ONE_SIDED_FIRST:
        return (1, tuple(range(n + 1)),
                [-sum((F(1, m) for m in range(1, n + 1)), F(0))]
                + [F((-1) ** (m + 1) * comb(n, m), m) for m in range(1, n + 1)], F(1))
    if kind is StencilKind.ONE_SIDED_NTH:
        fact = math.factorial(n)
        return (n, tuple(range(n + 1)),
                [F((-1) ** (m + n) * comb(n, m), fact) for m in range(n + 1)], F(fact))
    if kind is StencilKind.HALF_POINT_FIRST:
        right = list(range(1, 2 * n, 2))
        positive = [F((-1) ** m * 2 * n * comb(2 * n, n) * comb(2 * n - 1, n + m),
                      4 ** (2 * n - 1) * (2 * m + 1) ** 2) for m in range(n)]
    else:
        k = 1 if kind is StencilKind.CENTRAL_FIRST else 2
        right = list(range(1, n + 1))
        positive = [F((-1) ** (m + 1) * 2 * comb(2 * n, n + m), m ** k * comb(2 * n, n))
                    for m in right]
    order = 2 if kind is StencilKind.CENTRAL_SECOND else 1
    left = [-o for o in reversed(right)]
    mirror = [w if order == 2 else -w for w in reversed(positive)]
    if order == 2:
        left.append(0)
        mirror.append(-2 * sum(positive, F(0)))
    return order, (*left, *right), mirror + positive, F(1, 2) if order == 1 else F(1)


_CENTRAL_KINDS = (StencilKind.CENTRAL_FIRST, StencilKind.CENTRAL_SECOND,
                  StencilKind.HALF_POINT_FIRST)


@pytest.mark.parametrize("kind", list(StencilKind))
def test_weight_pairs_are_the_reduced_closed_forms_that_build_wraps(kind):
    ns = [*range(1, 61), *((100, 200) if kind in _CENTRAL_KINDS else ())]
    for n in ns:
        order, offsets, pairs, prefactor = weights.weight_pairs(kind, n)
        assert all(b > 0 and math.gcd(a, b) == 1 for a, b in [*pairs, prefactor]), n
        got = (order, offsets, [F(a, b) for a, b in pairs], F(*prefactor))
        assert got == _fraction_rule(kind, n), n
        stencil = weights.build(kind, n)
        assert (stencil.derivative_order, stencil.offsets, list(stencil.weights),
                stencil.prefactor) == got, n
        # the integers themselves, as the oracle's and the CLI's readers see them
        assert weights.stencil_pairs(stencil) == (order, offsets, pairs, prefactor), n


@pytest.mark.parametrize("kind", list(StencilKind))
def test_the_oracles_view_of_the_pairs_is_the_view_of_the_built_stencil(kind):
    ns = [*range(1, 61), *((100, 200) if kind in _CENTRAL_KINDS else ())]
    for n in ns:
        direct = oracle._IntegerView(*weights.weight_pairs(kind, n))
        built = oracle._IntegerView(*weights.stencil_pairs(weights.build(kind, n)))
        assert [getattr(direct, name) for name in oracle._IntegerView.__slots__] == \
            [getattr(built, name) for name in oracle._IntegerView.__slots__], n


def test_pair_fields_write_each_pair_as_its_fraction_does():
    assert weights._ratio_text(-3, 1) == str(F(-3)) == "-3"
    assert weights._ratio_text(0, 1) == str(F(0)) == "0"
    assert weights._ratio_text(-3, 7) == str(F(-3, 7)) == "-3/7"
    header, texts = weights.pair_fields(StencilKind.ONE_SIDED_NTH, 2, 2, (0, 1, 2),
                                        [(1, 2), (-1, 1), (1, 2)], (2, 1))
    assert texts == ["1/2", "-1", "1/2"]
    assert header == {"kind": "one-sided-nth", "n": 2, "derivative_order": 2,
                      "h_power": 2, "prefactor": "2"}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python prints integers of any length")
def test_pair_fields_name_the_offset_of_a_weight_too_long_to_print():
    with pytest.raises(ValueError, match=r"^one-sided-nth\(n=2\): the weight at offset 1 "
                                         "has more digits than Python prints exactly$"):
        weights.pair_fields(StencilKind.ONE_SIDED_NTH, 2, 2, (0, 1, 2),
                            [(1, 2), (10 ** 5000, 3), (1, 2)], (2, 1))


@pytest.fixture
def fractions_made(monkeypatch):
    """The argument tuples of every Fraction constructed while it is in use."""
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return made


def test_cross_checks_and_the_stencil_command_make_no_fraction(fractions_made, capsys):
    from stencil_spectra import cli

    checks = list(oracle.cross_checks(16))
    assert len(checks) == 13 * 16 and all(ok for _, ok, _ in checks)
    assert cli.run(["stencil", "--kind", "central-first", "--n", "28", "--format", "json"]) == 0
    assert capsys.readouterr().out.startswith('{\n  "kind": "central-first",\n')
    assert fractions_made == []
    F(2, 6)  # and the counter sees a Fraction that is made
    assert fractions_made == [(2, 6)]


@pytest.mark.parametrize("kind", list(StencilKind))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 28])
def test_build_makes_one_fraction_per_distinct_weight_and_one_prefactor(fractions_made,
                                                                       kind, n):
    # build holds the pairs and makes none; the first read of `weights`
    # and of `prefactor` makes them, and a second read makes none
    stencil = weights.build(kind, n)
    assert fractions_made == []
    ws, prefactor = stencil.weights, stencil.prefactor
    assert len(fractions_made) == len(set(ws)) + 1
    assert len(fractions_made) <= len(ws) + 1
    assert stencil.weights is ws and stencil.prefactor is prefactor
    assert len(fractions_made) == len(set(ws)) + 1
    if kind is StencilKind.CENTRAL_SECOND:  # the mirror holds the positive side's objects
        assert all(a is b for a, b in zip(ws, reversed(ws)))


def test_builds_and_numeric_commands_make_no_fraction(fractions_made, capsys):
    from stencil_spectra import cli, signals

    stencils = [weights.build(kind, n) for kind in StencilKind for n in range(1, 29)]
    assert [s.label() for s in stencils][:2] == ["central-first(n=1)", "central-first(n=2)"]
    assert fractions_made == []
    signals._half_point_rule.cache_clear()  # so that the diff builds its rule
    for argv in (*(["spectrum", "--kind", kind.value, "--n", "4", "--N", "64"]
                   for kind in StencilKind),
                 ["figure", "2a"],
                 ["diff", "--fn", "sin:omega=1", "--h", "0.001", "--kind", "half-point-first",
                  "--n", "300", "--points", "1201"]):
        assert cli.run(argv) == 0, argv
        assert capsys.readouterr().out.count("\n") > 30, argv
    assert fractions_made == []


def test_a_stencil_holds_pairs_from_fractions_or_as_given():
    s = weights.Stencil(StencilKind.CENTRAL_FIRST, 2, 1, (-2, -1, 1, 2),
                        (F(1, 6), F(-4, 3), F(4, 3), F(-1, 6)), F(1, 2))
    assert weights.stencil_pairs(s) == (1, (-2, -1, 1, 2),
                                        [(1, 6), (-4, 3), (4, 3), (-1, 6)], (1, 2))
    assert weights.Stencil(s.kind, s.n, *weights.stencil_pairs(s)) == s == central_first(2)
    assert hash(s) == hash(central_first(2)) and repr(s) == repr(central_first(2))
    assert s.replace(n=3).weights == s.weights and s.replace(n=3).n == 3
    # ints read as rationals; the pairs handed out are a new list each time
    ints = weights.Stencil(s.kind, 1, 1, (-1, 1), (-1, 1), 1)
    assert weights.stencil_pairs(ints) == (1, (-1, 1), [(-1, 1), (1, 1)], (1, 1))
    weights.stencil_pairs(ints)[2].clear()
    assert weights.stencil_pairs(ints)[2] == [(-1, 1), (1, 1)]
    absent = central_first(2).weight_at(0)  # a Fraction, as a stored weight is
    assert type(absent) is F and absent == 0
    with pytest.raises(ValueError, match="^offsets must be strictly increasing$"):
        weights.Stencil(s.kind, 2, 1, (1, 1), [(1, 2), (1, 2)], (1, 1))
    with pytest.raises(ValueError, match="^offsets and weights must have equal length$"):
        weights.Stencil(s.kind, 2, 1, (1, 2), [(1, 2)], (1, 1))
    with pytest.raises(ValueError, match="^derivative_order must be >= 0$"):
        weights.Stencil(s.kind, 2, -1, (1, 2), [(1, 2), (1, 2)], (1, 1))


# --- integer pairs in place of Fractions ------------------------------------


@st.composite
def _pairs_across_the_floats(draw):
    """(a, b), b > 0, whose quotient runs from past the largest float to
    below the least subnormal: 60-bit ints, one scaled by 2**shift."""
    a, b = draw(st.integers(-2 ** 60, 2 ** 60)), draw(st.integers(1, 2 ** 60))
    shift = draw(st.integers(-1200, 1200))
    return (a << shift, b) if shift >= 0 else (a, b << -shift)


@settings(max_examples=2000, deadline=None)
@given(pair=_pairs_across_the_floats())
@example(pair=(2 ** 1024, 1))                      # overflows
@example(pair=(2 ** 1024 - 2 ** 970, 1))           # the tie that rounds past the largest
@example(pair=(2 ** 1024 - 2 ** 970 - 1, 1))       # the largest float
@example(pair=(1, 2 ** 1074))                      # the least subnormal
@example(pair=(1, 2 ** 1075))                      # the tie that rounds to 0
@example(pair=(3, 2 ** 1076))                      # rounds up to the least subnormal
@example(pair=(-1, 3 * 2 ** 1070))                 # a negative subnormal
@example(pair=(0, 7))
def test_int_division_is_the_float_of_the_fraction(pair):
    # the weights' readers take a / b where they took float(Fraction(a, b))
    a, b = pair
    try:
        want = float(F(a, b))
    except OverflowError:
        with pytest.raises(OverflowError):
            a / b  # noqa: B018
        return
    assert (a / b).hex() == want.hex()


def test_rational_reads_json_numbers_and_text_as_fraction_does():
    for value in (0, -7, 10 ** 30, 0.1, -2.5e-300, 5e-324, 1.7e308,
                  "-3/6", " 7 ", "-.5e-3", "2.50", "1e-400"):
        assert weights._rational(value) == F(value).as_integer_ratio()
    for text in ("1/0", "0x10", "1/2/3", "", "one"):
        with pytest.raises((ValueError, ZeroDivisionError)):
            weights._rational(text)
    with pytest.raises(OverflowError):
        weights._rational(math.inf)
    with pytest.raises(ValueError):
        weights._rational(math.nan)
