"""The JSON float slot: json.dumps(v) byte for byte, float.__repr__ for a
finite v, on random bit patterns and on the values where its shortest
digits, its round trip or its layout turn; and how a table renders its
float columns: once each, or from the text of the column it repeats."""

import csv
import io
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
from stencil_spectra.cli import run

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


def test_fallback_widens_the_slots_only_for_a_longer_text():
    # nan and ±inf take Python's text and fit the fast range's 23 bytes;
    # -2.2250738585072014e-308 takes 24
    for make in (tableblocks.float_slots, tableblocks.json_float_slots):
        slots, lengths = make(np.array([1.5, math.nan, -math.inf, 1e300]))
        assert slots.shape[1] == 23
        slots, lengths = make(np.array([1.5, math.nan, -2.2250738585072014e-308]))
        assert slots.shape[1] == 24 and lengths[2] == 24
        assert bytes(slots[2]) == b"-2.2250738585072014e-308"


def _per_row(names, columns, fmt):
    """The table by json.dumps(indent=2) or csv.writer, one row at a time."""
    rows = list(zip(*(column.tolist() for column in columns)))
    if fmt == "json":
        return json.dumps([dict(zip(names, row)) for row in rows], indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    writer.writerows([format(v + 0.0, ".17g") if isinstance(v, float) else v for v in row]
                     for row in rows)
    return buf.getvalue()


def _assert_same_table(got, want):
    """got == want, exactly as strict, but a failure names the first row
    (line) that differs and its two texts: pytest's diff of two tables of
    thousands of rows took over 200 s to report."""
    if got != want:
        got_rows, want_rows = got.split("\n"), want.split("\n")
        row = next((i for i, (a, b) in enumerate(zip(got_rows, want_rows)) if a != b),
                   min(len(got_rows), len(want_rows)))
        raise AssertionError(f"row {row} differs: got {got_rows[row:row + 1]} of"
                             f" {len(got_rows)} rows, want {want_rows[row:row + 1]} of"
                             f" {len(want_rows)}")


# the constants a column may hold: the signs of zero, nan and inf, subnormals,
# the least normal (whose negative takes 24 bytes), and values outside the
# fast range 1e-29..1e16
_CONSTANTS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -1e-320,
              2.2250738585072014e-308, -2.2250738585072014e-308, 1e-30, -9.999e-30, 1e16,
              -1.7976931348623157e308, 1.5, -0.1]


@st.composite
def _repeating_tables(draw):
    """Float columns that copy, take |·| of, negate or nearly repeat an
    earlier one, constant columns, and fresh ones, with an int column among
    them, in tables of 0, 1, BLOCK_ROWS and BLOCK_ROWS + 1 rows."""
    rows = draw(st.sampled_from([0, 1, tableblocks.BLOCK_ROWS, tableblocks.BLOCK_ROWS + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    palette = np.array(draw(st.lists(_VALUES, min_size=1, max_size=6)) + _CONSTANTS)

    def fresh():
        values = rng.choice(palette, rows)
        return np.where(rng.random(rows) < 0.5, np.negative(values), values)

    columns = [fresh()]
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["copy", "abs", "negative", "constant", "fresh",
                                     "near copy", "near abs", "near constant"]))
        earlier = columns[draw(st.integers(0, len(columns) - 1))]
        if kind == "fresh":
            column = fresh()
        elif kind.endswith("constant"):
            column = np.full(rows, draw(st.sampled_from(_CONSTANTS)))
        elif kind.endswith("abs"):
            column = np.abs(earlier)
        elif kind == "negative":
            column = np.negative(earlier)
        else:
            column = earlier.copy()
        if kind.startswith("near") and rows > 2:
            # the same first and last values, and one other bit in between
            column.view(np.uint64)[draw(st.integers(1, rows - 2))] ^= np.uint64(
                1 << draw(st.sampled_from([0, 51, 62, 63])))
        columns.append(column)
    columns.insert(draw(st.integers(0, len(columns))), np.arange(rows))
    return [f"c{i}" for i in range(len(columns))], columns


@settings(max_examples=120, deadline=None)
@given(_repeating_tables(), st.sampled_from(["csv", "json"]))
def test_repeated_float_columns_render_as_per_row_text(table, fmt):
    names, columns = table
    _assert_same_table("".join(tableblocks.table(names, columns, fmt)),
                       _per_row(names, columns, fmt))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_float_text_is_made_once_per_distinct_column(monkeypatch, fmt):
    # how many values each table sends to the float text, one call per
    # block of 2 rows: a copy, a |·| and a constant take none of their own
    made = []
    for name in ("float_slots", "json_float_slots"):
        make = getattr(tableblocks, name)
        monkeypatch.setattr(tableblocks, name,
                            lambda values, make=make: made.append(len(values)) or make(values))
    monkeypatch.setattr(tableblocks, "BLOCK_ROWS", 2)
    x = np.array([-1.5, 2.0, -0.0, math.nan, -3.0])
    near = x.copy()
    near[2] = 1.0
    cases = [([x, x.copy()], [2, 2, 1]), ([x, np.abs(x)], [2, 2, 1]),
             ([x, np.full(5, -0.0)], [3, 3, 2]), ([x, np.full(5, 7.0), np.full(5, 7.0)], [3, 3, 2]),
             ([x, np.negative(x)], [4, 4, 2]), ([x, near], [4, 4, 2]),
             ([x, np.abs(near)], [4, 4, 2]), ([np.abs(x), x], [4, 4, 2])]
    for columns, counts in cases:
        made.clear()
        names = [f"c{i}" for i in range(len(columns))]
        _assert_same_table("".join(tableblocks.table(names, columns, fmt)),
                           _per_row(names, columns, fmt))
        assert made == counts


def _texts_csv(values):
    slots, lengths = tableblocks.float_slots(values)
    return [bytes(slot[:length]).decode() for slot, length in zip(slots, lengths)]


def test_spectrum_formats_each_repeated_column_once(monkeypatch, capsys):
    # at h = 1 a central-second --part re table's ref_value is all zeros and
    # its abs_dev is |re_b_conj|: each block formats omega, re_b_conj and
    # im_b_conj, and one value of the zero column
    calls = []
    float_slots = tableblocks.float_slots
    monkeypatch.setattr(tableblocks, "float_slots",
                        lambda values: calls.append(values.copy()) or float_slots(values))
    assert run(["spectrum", "--kind", "central-second", "--n", "8", "--N", "6000",
                "--part", "re"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    step = tableblocks.BLOCK_ROWS
    blocks = [(0, step), (step, 3001)]
    assert [len(values) for values in calls] == [3 * (stop - start) + 1 for start, stop in blocks]
    for values, (start, stop) in zip(calls, blocks):
        n = stop - start
        assert values[-1] == 0.0
        fields = [[row[j] for row in rows[start:stop]] for j in (1, 2, 3)]
        assert _texts_csv(values[:3 * n]) == [*fields[0], *fields[1], *fields[2]]
    assert {row[4] for row in rows} == {"0"}
    assert [row[5] for row in rows] == [row[2].lstrip("-") for row in rows]
    assert any(row[2].startswith("-") for row in rows)


# --- the decade table without Fractions -------------------------------------


def _fraction_least_float_from(k):
    """The smallest float >= 10^k, by Fraction comparison."""
    v = float(Fraction(10) ** k)
    return v if v >= Fraction(10) ** k else math.nextafter(v, math.inf)


def test_decades_are_the_fraction_route():
    want = np.array([_fraction_least_float_from(k)
                     for k in range(tableblocks._E_MIN + 1, tableblocks._E_MAX + 1)])
    assert tableblocks._DECADES.tobytes() == want.tobytes()
    # and each is >= its decade, with the float below it under it
    for k, v in zip(range(tableblocks._E_MIN + 1, tableblocks._E_MAX + 1),
                    tableblocks._DECADES.tolist()):
        assert Fraction(v) >= Fraction(10) ** k > Fraction(math.nextafter(v, 0))


@settings(max_examples=300, deadline=None)
@given(k=st.integers(-323, 308))
def test_least_float_from_is_the_fraction_route(k):
    assert tableblocks._least_float_from(k) == _fraction_least_float_from(k)
