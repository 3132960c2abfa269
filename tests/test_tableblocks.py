"""The JSON float slot: json.dumps(v) byte for byte, float.__repr__ for a
finite v, on random bit patterns and on the values where its shortest
digits, its round trip or its layout turn."""

import json
import math
import os
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stencil_spectra import tableblocks

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_g17 import edge_values, json_mismatch, near_half_gaps, shortest_ties  # noqa: E402


def _texts(values):
    slots, lengths = tableblocks.json_float_slots(np.asarray(values, dtype=float))
    return [bytes(slot[:length]).decode() for slot, length in zip(slots, lengths)]


def _json(values):
    return [json.dumps(v) for v in np.asarray(values, dtype=float).tolist()]


def _neighbours(v, steps):
    """v moved by `steps` ulp, up for a positive count."""
    for _ in range(abs(steps)):
        v = math.nextafter(v, math.inf if steps > 0 else -math.inf)
    return v


_BITS = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64)))
_POWERS = st.builds(lambda k, steps: _neighbours(float(f"1e{k}"), steps),
                    st.integers(-330, 308), st.integers(-3, 3))
# at 2^j the gap below is half the gap above
_TWOS = st.builds(lambda j, steps: _neighbours(math.ldexp(1.0, j), steps),
                  st.integers(-1074, 1023), st.integers(-3, 3))
_EDGES = st.sampled_from([
    612857683458612.75, 2.0 ** -24,  # ties of the two 16-digit neighbours
    9999999999999998.0, 1e16,  # E = 15, the last of the fixed form, and 16
    1e-05, 0.0001,  # the first of the fixed form, E = -4, and the last below
    5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-29,
    0.0, -0.0, math.nan, math.inf, -math.inf])
_VALUES = st.one_of(_BITS, _POWERS, _TWOS, _EDGES, st.floats())


@settings(max_examples=400, deadline=None)
@given(st.lists(_VALUES, min_size=1, max_size=64), st.sampled_from([1, -1]))
@example([612857683458612.75, 2.0 ** -24, 9999999999999998.0, 1e16, 1e-05, 0.0001], -1)
@example([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-320], 1)
def test_json_float_slot_is_json_text(values, sign):
    values = np.array(values) * sign
    assert _texts(values) == _json(values)


def test_json_edge_families():
    # near 10^k the gaps are widest in units of the 17th digit, so both
    # 16-digit neighbours of a value often read back, and repr takes the
    # nearer; few of the property test's values reach that case
    assert json_mismatch(edge_values()) is None


def _certain(values):
    a = np.abs(values)
    rounded = tableblocks._rounded(a)
    return tableblocks._shortest(a, *rounded)[2]


def test_shortest_ties_fall_back_where_both_neighbours_read_back():
    values = shortest_ties()
    assert 2.0 ** -24 in values.tolist()
    a = np.abs(values)
    D, _, _, f = tableblocks._rounded(a)
    assert (f == 0).all() and (D % 10 == 5).all()  # 17 exact digits, the last a 5
    certain = _certain(values)
    assert certain.any() and not certain.all()
    assert json_mismatch(np.concatenate([values, -values])) is None
    # both 16-digit neighbours of 612857683458612.75 read back, and repr
    # takes the even one; below 2^-24 the gap is too small for the lower one
    ties = np.array([612857683458612.75, 2.0 ** -24])
    assert _certain(ties).tolist() == [False, True]
    assert _texts(ties) == ["612857683458612.8", "5.960464477539063e-08"]


def _edge_distance(v, digits):
    """How near either half-gap edge of v lies to a decimal of `digits`
    digits, exactly, in units of the 17th digit."""
    exact = abs(Fraction(v))
    half = Fraction(2) ** (math.frexp(v)[1] - 54)  # ulp/2; v is no power of two
    unit = Fraction(10) ** (len(str(int(exact * 10 ** 30))) - 30 - digits)
    return min(abs(edge / unit - round(edge / unit)) * 10 ** (17 - digits)
               for edge in (exact + half, exact - half))


@pytest.mark.parametrize("digits", [16, 15])
def test_near_half_gaps_are_certain_only_outside_the_margin(digits):
    values = near_half_gaps(digits)
    a = np.abs(values)
    rounded = tableblocks._rounded(a)
    certain = tableblocks._shortest(a, *rounded)[2].tolist()
    expected = [_edge_distance(v, digits) > Fraction(1, 2 ** 40) for v in values.tolist()]
    # a 17-digit tie is not certain either
    pairs = [pair for pair, sure in zip(zip(certain, expected), rounded[2].tolist()) if sure]
    assert len(pairs) > len(values) * 0.9
    assert [c for c, _ in pairs] == [e for _, e in pairs]
    assert any(expected) and not all(expected)
    assert json_mismatch(np.concatenate([values, -values])) is None


def test_repr_layout_edges():
    values = [1e-05, 1.5e-05, 0.0001, 0.00012, 1.0, 10.0, 123.0, 1e15, 1234567890123456.7,
              9999999999999998.0, 1e-29, 2.5e-10, 0.1, 1 / 3]
    assert _texts(values) == [repr(v) for v in values]
    assert _texts([-v for v in values]) == [repr(-v) for v in values]


# one value per sign, E = -30..15 and digit count 1..17, so that every
# layout row a short decimal reaches is spelled once; random doubles
# almost always print 16 or 17 digits
_ROWS = np.array([float(sign + "1.2345678912345678"[:d + 1] + f"e{E}")
                  for sign in ("", "-") for E in range(-30, 16) for d in range(1, 18)])


def _cells(texts, certain):
    """The (sign, E, digit count) of each text the fast path writes."""
    return {(text[0] == "-", decimal.adjusted(), len(decimal.as_tuple().digits))
            for text, sure in zip(texts, certain.tolist()) if sure
            for decimal in [Decimal(text).normalize()]}


def test_every_layout_row_spells_python_text():
    csv_texts = [bytes(slot[:length]).decode()
                 for slot, length in zip(*tableblocks.float_slots(_ROWS))]
    assert csv_texts == [format(v + 0.0, ".17g") for v in _ROWS.tolist()]
    assert _texts(_ROWS) == _json(_ROWS)
    # the rows these values reach, of the 2 · 46 · 17 = 1,564 of each format
    assert len(_cells(csv_texts, tableblocks._rounded(np.abs(_ROWS))[2])) == 998
    assert len(_cells(_texts(_ROWS), _certain(_ROWS))) == 1552
