"""The CSV float slot of tableblocks: format(v + 0.0, ".17g") byte for
byte, on random bit patterns and on the values where its scaling, rounding
or layout turns."""

import math
import os
import struct
import sys
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from stencil_spectra import tableblocks

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_g17 import edge_values, mismatch, near_ties, ties  # noqa: E402


def _texts(values):
    slots, lengths = tableblocks.float_slots(np.asarray(values, dtype=float))
    return [bytes(slot[:length]).decode() for slot, length in zip(slots, lengths)]


def _python(values):
    return [format(v + 0.0, ".17g") for v in np.asarray(values, dtype=float).tolist()]


def _exponent(v):
    """floor(log10 |v|) of a float in the fast range, exactly."""
    return len(str(int(abs(Fraction(v)) * 10 ** 30))) - 31


def _fraction(v):
    """The fraction of |v| · 10^(16 - E), exactly."""
    return abs(Fraction(v)) * Fraction(10) ** (16 - _exponent(v)) % 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_random_bit_patterns(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert _texts(values) == _python(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-29, 1e16, exclude_max=True) | st.floats(-1e16, -1e-29,
                                                                     exclude_min=True),
                min_size=1, max_size=64))
def test_fast_range(values):
    assert _texts(values) == _python(values)


def test_edge_families():
    assert mismatch(edge_values()) is None


def _near_powers_of_ten():
    """The 18,045 floats within 200 ulp of each 10^k, k = -29..15."""
    centres = np.array([float(Fraction(10) ** k) for k in range(-29, 16)])
    return (centres.view(np.int64)[:, None] + np.arange(-200, 201)).reshape(-1).view(np.float64)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-29, 1e16, exclude_max=True)
                | st.sampled_from(_near_powers_of_ten().tolist()), min_size=1, max_size=32))
def test_rounded_exponent_is_exact(values):
    values = np.array(values)
    D, E, certain, _ = tableblocks._rounded(values)
    for v, d, e, sure in zip(values.tolist(), D.tolist(), E.tolist(), certain.tolist()):
        # E is floor(log10 v), or one more where D carries to 10^17
        exact = _exponent(v)
        assert e == exact + (round(Fraction(v) * Fraction(10) ** (16 - exact)) == 10 ** 17)
        if sure:  # D · 10^(E - 16) is the 17-digit text
            assert f"{v:.16e}" == f"{d // 10 ** 16}.{d % 10 ** 16:016d}e{e:+03d}"


def test_decades_are_the_least_floats_at_or_above_powers_of_ten():
    decades = tableblocks._DECADES.tolist()
    assert len(decades) == tableblocks._E_MAX - tableblocks._E_MIN
    for k, v in zip(range(tableblocks._E_MIN + 1, tableblocks._E_MAX + 1), decades):
        assert Fraction(v) >= Fraction(10) ** k > Fraction(math.nextafter(v, 0))


def test_dyadic_ties_are_exact_ties_and_fall_back():
    values = ties()
    assert 3 * 2.0 ** -24 in values.tolist()
    assert Fraction(3 * 2.0 ** -24) * 10 ** 23 == Fraction(35762786865234375, 2)
    assert all(_fraction(v) == Fraction(1, 2) for v in values.tolist())
    assert not tableblocks._rounded(values)[2].any()
    assert _texts(values) == _python(values)


def test_near_ties_are_certain_only_outside_the_margin():
    values = near_ties()
    offsets = [abs(_fraction(v) - Fraction(1, 2)) for v in values.tolist()]
    assert all(0 < offset <= Fraction(3, 2 ** 8) for offset in offsets)
    certain = tableblocks._rounded(values)[2].tolist()
    assert certain == [offset > Fraction(1, 2 ** 40) for offset in offsets]
    assert any(certain) and not all(certain)
    assert _texts(values) == _python(values)
    assert _texts(-values) == _python(-values)


def test_power_split_is_exact():
    for k in range(47):
        assert int(tableblocks._HI[k]) + int(tableblocks._LO[k]) == 10 ** k
        assert tableblocks._HH[k] + tableblocks._HL[k] == tableblocks._HI[k]
        for half in (tableblocks._HH[k], tableblocks._HL[k]):  # 26 significant bits at most
            mantissa = struct.unpack("<Q", struct.pack("<d", half))[0] & (2 ** 52 - 1)
            assert half == 0 or mantissa % 2 ** 26 == 0


def test_rounded_fraction_is_exact_near_powers_of_ten():
    # from its exact exponent -15, fl(1e-14) = 10^-14 - 0.118 units of its
    # 17th digit rounds to D = 10^17, the carry to E + 1, with f / 10
    values = _near_powers_of_ten()
    D, E, certain, f = tableblocks._rounded(values)
    assert D[values == 1e-14].tolist() == [10 ** 16] and E[values == 1e-14].tolist() == [-14]
    for v, d, e, sure, fraction in zip(values.tolist(), D.tolist(), E.tolist(),
                                       certain.tolist(), f.tolist()):
        exact = Fraction(v) * Fraction(10) ** (16 - e) - d
        assert abs(exact - Fraction(fraction)) < 2 ** -44
        # only a tie is left to Python: 10^15 + 0.25 among these
        assert sure == (abs(abs(exact) - Fraction(1, 2)) > 2 ** -40)
        if sure:
            assert f"{v:.16e}" == f"{d // 10 ** 16}.{d % 10 ** 16:016d}e{e:+03d}"
