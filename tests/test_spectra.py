"""Spectrum evaluation, reference curves, deviations and the limit-series fold."""

import functools
import hashlib
import json
import math
import mmap
import os
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stencil_spectra import cli, spectra, weights
from stencil_spectra.spectra import (
    CurveDomainError,
    CurveFamily,
    EmbeddingMode,
    EmbeddingOverflowError,
    FilterSpectrum,
    ReferenceCurve,
    deviation,
    dft_spectrum,
    omega_grid,
    reference_column,
    reference_values,
    truncated_limit_spectrum,
    truncated_limit_spectrum_dft_grid,
)

from _in_child import in_child

N = 2000


# --- DFT ----------------------------------------------------------------


def test_one_sided_dc_bin_is_exactly_zero():
    for n in range(1, 9):
        spectrum = dft_spectrum(weights.one_sided_first(n), N)
        assert spectrum.values[0] == 0.0


def test_half_point_n1_spectrum_is_a_sine():
    spectrum = dft_spectrum(weights.half_point(1), N)
    r = np.arange(N // 2 + 1)
    assert np.abs(spectrum.im_conj - np.sin(2 * np.pi * r / N)).max() <= 1e-10


def test_truncated_limit_sequence_nyquist_bin_is_real():
    # 2 (-1)**(m+1) / m, the central first-derivative limit weights
    taps = {m: float(Fraction(2 * (-1) ** (m + 1), m)) for m in range(1, 700)}
    spectrum = dft_spectrum(taps, N, EmbeddingMode.HALF_SEQUENCE)
    assert abs(spectrum.im_conj[N // 2]) <= 1e-10


def test_full_antisymmetric_embedding_is_purely_imaginary():
    stencil = weights.central_first(5)
    spectrum = dft_spectrum(stencil, 512, EmbeddingMode.FULL_ANTISYMMETRIC)
    weight_scale = sum(abs(float(w)) for _, w in stencil.nodes)
    assert np.abs(spectrum.values.real).max() <= 1e-10 * weight_scale
    assert spectrum.values[0] == 0.0


def test_full_symmetric_embedding_is_purely_real():
    spectrum = dft_spectrum(weights.central_second(4), 512, EmbeddingMode.FULL_SYMMETRIC)
    assert np.abs(spectrum.values.imag).max() <= 1e-10 * 10


def test_half_point_aliasing_mirror_symmetry():
    for n in (2, 5, 10):
        spectrum = dft_spectrum(weights.half_point(n), N)
        im = spectrum.im_conj
        for r in (0, 17, 250, 499):
            assert im[r] == pytest.approx(im[N // 2 - r], abs=1e-10)


def test_embedding_overflow():
    with pytest.raises(EmbeddingOverflowError):
        dft_spectrum(weights.one_sided_first(10), 16)


def test_embedding_validation():
    with pytest.raises(ValueError):
        dft_spectrum(weights.one_sided_first(2), 15)  # odd N
    for taps in ({-1: 1.0}, {-1: 1.0, 2: 1.0}):  # a negative index in a raw sequence
        with pytest.raises(ValueError, match="^embedded sequences are indexed by m >= 0$"):
            dft_spectrum(taps, 16)


def test_embedding_overflow_names_the_largest_offset():
    # the message the CLI's reach check prints too (weights.check_embedding)
    for source, label, offset in [({0: 1.0, 3: 1.0, 8: 1.0, 9: 1.0}, "weight sequence", 9),
                                  ({8: Fraction(1)}, "weight sequence", 8),
                                  (weights.one_sided_first(8), "one-sided-first(n=8)", 8)]:
        with pytest.raises(EmbeddingOverflowError) as info:
            dft_spectrum(source, 16, EmbeddingMode.FULL_SYMMETRIC)
        assert str(info.value) == (f"{label} reaches offset {offset}, which does not fit "
                                   "in a length-16 embedding (need |m| < N/2)")
    assert len(dft_spectrum({0: 1.0, 7: 1.0}, 16, EmbeddingMode.FULL_SYMMETRIC).values) == 9


@pytest.mark.parametrize("mode", list(EmbeddingMode))
@pytest.mark.parametrize("weight", [math.inf, -math.inf, math.nan, 10 ** 400,
                                    Fraction(-(10 ** 400), 7)])
def test_weight_outside_the_floats_is_the_documented_error(mode, weight):
    # an int or a Fraction past the floats overflows in its a / b
    with pytest.raises(ValueError, match=r"^weight sequence: the spectrum at N=8 overflows the floats$"):
        dft_spectrum({0: 0, 1: weight}, 8, mode)


@pytest.mark.parametrize("mode", [EmbeddingMode.HALF_SEQUENCE, EmbeddingMode.FULL_SYMMETRIC])
def test_an_exact_dc_sum_past_the_floats_is_the_documented_error(mode):
    # each weight is a float, their exact sum is not
    with pytest.raises(ValueError, match=r"^weight sequence: the spectrum at N=8 overflows the floats$"):
        dft_spectrum({0: 2 ** 1023, 1: 2 ** 1023}, 8, mode)


# per embedding, how many times the exact DC sum counts each a_m, m >= 1
_DC_REPEATS = {EmbeddingMode.HALF_SEQUENCE: 1, EmbeddingMode.FULL_ANTISYMMETRIC: 0,
               EmbeddingMode.FULL_SYMMETRIC: 2}


@pytest.mark.parametrize("mode", list(EmbeddingMode))
@pytest.mark.parametrize("sequence", [
    [Fraction(1, 3), Fraction(1, 7), Fraction(-2, 5), Fraction(1, 10)],
    [3, 2 ** 60 + 1, -2 ** 60, 5],
    [np.int64(w) for w in (3, 2 ** 60 + 1, -2 ** 60, 5)],  # numbers.Rational too
    [0.1, 1e16, 1.0, -1e16],
], ids=["fraction", "int", "numpy-int", "float"])
@pytest.mark.parametrize("with_dc_tap", [True, False])
def test_dc_bin_is_the_rounded_exact_sum_of_the_embedded_sequence(mode, sequence, with_dc_tap):
    # each sum rounds differently when added in floats tap by tap
    taps = {m: w for m, w in enumerate(sequence) if m or with_dc_tap}
    exact = Fraction(taps.get(0, 0)) + _DC_REPEATS[mode] * sum(
        Fraction(w) for m, w in taps.items() if m)
    assert dft_spectrum(taps, 16, mode).values[0] == complex(float(exact), 0.0)


def _per_tap_dft(taps, N, mode):
    """The sparse DFT with one complex exp over all N bins per embedded tap,
    taps in ascending offset order, each followed by its mirror."""
    k = np.arange(N)
    acc = np.zeros(N, dtype=complex)
    for m, w in sorted(taps.items()):
        embedded = [(m, w)]
        if mode is not EmbeddingMode.HALF_SEQUENCE and m >= 1:
            embedded.append((N - m, -w if mode is EmbeddingMode.FULL_ANTISYMMETRIC else w))
        for idx, v in embedded:
            acc += float(v) * np.exp((-2j * np.pi / N) * ((idx * k) % N))
    return acc


@st.composite
def _weight_sequences(draw):
    N = 2 * draw(st.integers(1, 300))
    weight = draw(st.sampled_from([
        st.fractions(min_value=-100, max_value=100, max_denominator=10 ** 6),
        st.floats(-1e6, 1e6, allow_nan=False),
    ]))
    offsets = st.integers(0, max(0, N // 2 - 1))
    return N, draw(st.dictionaries(offsets, weight, min_size=1, max_size=40))


@settings(max_examples=200, deadline=None)
@given(sequence=_weight_sequences(), mode=st.sampled_from(list(EmbeddingMode)))
def test_dft_spectrum_matches_per_tap_exp_loop(sequence, mode):
    N, taps = sequence
    values = dft_spectrum(taps, N, mode).values
    assert len(values) == N // 2 + 1
    # bin 0 is the exact weight sum, checked by the DC tests
    assert values[1:].tobytes() == _per_tap_dft(taps, N, mode)[1:N // 2 + 1].tobytes()


@pytest.mark.parametrize("N, kind, mode", [
    *((4000, weights.StencilKind(kind), mode)
      for kind in cli._LIMIT_CHOICES for mode in EmbeddingMode),
    (8000, weights.StencilKind.HALF_POINT_FIRST, EmbeddingMode.FULL_ANTISYMMETRIC),
], ids=lambda v: getattr(v, "value", v))
def test_dense_limit_spectrum_matches_per_tap_exp_loop(N, kind, mode):
    # the `spectrum --limit` sequence at its default length: N/2-1 central
    # taps (gap 1) or N/4 half-point taps (gap 2), whose rows wrap many times
    taps = cli._limit_sequence(kind, cli._limit_taps(kind, N, None))
    values = dft_spectrum(taps, N, mode).values
    assert values[1:].tobytes() == _per_tap_dft(taps, N, mode)[1:N // 2 + 1].tobytes()


@pytest.mark.parametrize("mode", list(EmbeddingMode), ids=lambda m: m.value)
def test_sparse_gaps_spectrum_matches_per_tap_exp_loop(mode):
    # gaps of 1, 2 and more, from offset 0 to the last that fits, N/2 - 1
    N = 6000
    offsets = [0, 1, 2, 4, 6, 7, 8, 11, 500, 501, 503, 1777, 2998, N // 2 - 1]
    taps = {m: (-1) ** m * (1.5 + m / 7) for m in offsets}
    values = dft_spectrum(taps, N, mode).values
    assert values[1:].tobytes() == _per_tap_dft(taps, N, mode)[1:N // 2 + 1].tobytes()


# --- reference curves ------------------------------------------------------


def test_second_limit_curve_at_dc():
    curve = ReferenceCurve(CurveFamily.SECOND_DERIV_LIMIT, h=0.7)
    assert reference_values(curve, [0.0])[0] == pytest.approx(math.pi ** 2 * 0.7 / 3)


def test_half_point_limit_curve_branches_agree_at_junction():
    h = 0.5
    curve = ReferenceCurve(CurveFamily.HALF_POINT_LIMIT, h=h)
    junction = math.pi / (2 * h)
    at_junction, below = reference_values(curve, [junction, junction * 0.999])
    assert at_junction == pytest.approx(-1j * math.pi * h)
    assert below == pytest.approx(-2j * h * (0.999 * math.pi / 2), rel=1e-12)


def test_fold_curve_values():
    curve = ReferenceCurve(CurveFamily.HALF_POINT_FOLD)
    quarter, dc, nyquist = reference_values(curve, [N // 4, 0, N // 2], N)
    assert quarter == pytest.approx(math.pi / 2)
    assert dc == 0.0
    assert nyquist == pytest.approx(0.0)
    ramp = ReferenceCurve(CurveFamily.LINEAR_RAMP)
    assert reference_values(ramp, [100], N)[0] == pytest.approx(2 * math.pi * 100 / N)
    zero = ReferenceCurve(CurveFamily.ZERO)
    assert reference_values(zero, [123], N)[0] == 0.0


def test_first_limit_curve_domain_excludes_nyquist():
    curve = ReferenceCurve(CurveFamily.FIRST_DERIV_LIMIT, h=1.0)
    assert reference_values(curve, [1.0])[0] == -2j
    # excluded at omega = pi/h: NaN, where deviation raises
    assert _bits(reference_values(curve, [math.pi])[0]) == _bits(complex(math.nan, math.nan))
    with pytest.raises(CurveDomainError):
        reference_values(curve, [-0.1])


def test_index_curve_domain():
    curve = ReferenceCurve(CurveFamily.LINEAR_RAMP)
    with pytest.raises(CurveDomainError):
        reference_values(curve, [N // 2 + 1], N)


def test_index_curves_require_N():
    for family in (CurveFamily.HALF_POINT_FOLD, CurveFamily.LINEAR_RAMP, CurveFamily.ZERO):
        curve = ReferenceCurve(family)
        with pytest.raises(ValueError, match=f"^{family.value} needs the DFT length N$"):
            reference_values(curve, [0, 1])
        with pytest.raises(ValueError, match=f"^{family.value} needs the DFT length N$"):
            reference_values(curve, [0])


@pytest.mark.parametrize("n", [3, 0, -4, 2.5], ids=["odd", "zero", "negative", "non-integer"])
def test_index_curves_need_an_even_N_of_at_least_2(n):
    # the check dft_spectrum makes, before the domain check on r
    for family in (CurveFamily.HALF_POINT_FOLD, CurveFamily.LINEAR_RAMP, CurveFamily.ZERO):
        curve = ReferenceCurve(family)
        with pytest.raises(ValueError, match="^N must be even and >= 2$"):
            reference_values(curve, [0, 1], n)
        with pytest.raises(ValueError, match="^N must be even and >= 2$"):
            reference_values(curve, [0], n)


def _pointwise_curve(curve, at, n):
    """One curve value in plain Python floats and complexes, an index curve
    of a length-n DFT; None where the first-derivative limit excludes
    omega = pi/h."""
    fam, h = curve.family, curve.h
    if fam is CurveFamily.FIRST_DERIV_LIMIT:
        return None if at >= math.pi / h else -2j * at * h * h
    if fam is CurveFamily.SECOND_DERIV_LIMIT:
        return -(at ** 2) * h ** 3 + (math.pi ** 2 / 3) * h
    if fam is CurveFamily.HALF_POINT_LIMIT:
        theta = min(at * h, math.pi)
        return -2j * h * (theta if theta <= math.pi / 2 else math.pi - theta)
    if fam is CurveFamily.HALF_POINT_FOLD:
        return 2 * math.pi * at / n if at <= n / 4 else math.pi - 2 * math.pi * at / n
    if fam is CurveFamily.LINEAR_RAMP:
        return 2 * math.pi * at / n
    return 0.0


def _bits(value):
    z = complex(value)
    return z.real.hex(), z.imag.hex()


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(list(CurveFamily)),
    h=st.one_of(st.sampled_from([1.0, 0.5, 0.7, 0.3, 2.0]), st.floats(1e-3, 1e3)),
    half_n=st.integers(1, 3000),
    fractions=st.lists(st.floats(0.0, 1.0), max_size=20),
)
def test_reference_values_match_pointwise_evaluation(family, h, half_n, fractions):
    curve, n = ReferenceCurve(family, h=h), 2 * half_n
    if family in (CurveFamily.FIRST_DERIV_LIMIT, CurveFamily.SECOND_DERIV_LIMIT,
                  CurveFamily.HALF_POINT_LIMIT):
        nyquist = math.pi / h
        extra = [nyquist] + [f * nyquist for f in fractions]
        xs = omega_grid(2 * half_n, h).tolist() + extra
    else:
        extra = [f * half_n for f in fractions]
        xs = list(range(half_n + 1)) + extra
    expected = [_pointwise_curve(curve, x, n) for x in xs]
    assert [_bits(v) for v in reference_values(curve, xs, n)] == [
        _bits(complex(math.nan, math.nan) if e is None else e) for e in expected
    ]
    for x in [xs[0], xs[half_n // 2], *extra]:
        expected = _pointwise_curve(curve, x, n)
        if expected is None:
            expected = complex(math.nan, math.nan)
        assert _bits(reference_values(curve, [x], n)[0]) == _bits(expected)


def test_reference_values_domain_error_names_the_point():
    curve = ReferenceCurve(CurveFamily.HALF_POINT_LIMIT, h=1.0)
    with pytest.raises(CurveDomainError, match=r"omega=-0.5 outside"):
        reference_values(curve, [0.0, -0.5, 1.0])
    ramp = ReferenceCurve(CurveFamily.LINEAR_RAMP)
    with pytest.raises(CurveDomainError, match=r"r=5 outside \[0, 4.0\]"):
        reference_values(ramp, [0, 5], 8)


@pytest.mark.parametrize("h", [1e-320, 1e-160, 1e308, 1e103])
def test_reference_curve_rejects_overflowing_h(h):
    for family in CurveFamily:
        with pytest.raises(ValueError, match="overflows"):
            ReferenceCurve(family, h=h)


def test_reference_curve_rejects_zero_h():
    with pytest.raises(ValueError, match="^h must be positive$"):
        ReferenceCurve(CurveFamily.LINEAR_RAMP, h=0)


# --- truncated limit series --------------------------------------------------


def test_first_limit_series_at_zero_is_exact():
    for M in (1, 17, 1000):
        value, bound = truncated_limit_spectrum(
            CurveFamily.FIRST_DERIV_LIMIT, 0.0, 1.0, M
        )
        assert value == 0.0
        assert bound == 0.0


def test_first_limit_series_midband():
    h = 1.0
    value, bound = truncated_limit_spectrum(
        CurveFamily.FIRST_DERIV_LIMIT, math.pi / 2, h, 10 ** 5
    )
    assert abs(value - (-1j * math.pi)) <= bound
    assert bound < 1e-3


def test_second_limit_series_at_dc():
    h = 0.5
    value, bound = truncated_limit_spectrum(
        CurveFamily.SECOND_DERIV_LIMIT, 0.0, h, 10 ** 6
    )
    assert abs(value - math.pi ** 2 * h / 3) <= 4 * h * 1e-12
    assert abs(value - math.pi ** 2 * h / 3) <= bound


def test_half_point_limit_series_at_junction():
    h = 1.0
    omega = math.pi / 2
    value, bound = truncated_limit_spectrum(
        CurveFamily.HALF_POINT_LIMIT, omega, h, 10 ** 5
    )
    assert abs(value - (-1j * omega * 2 * h ** 2)) <= bound


def test_dft_grid_series_matches_scalar():
    N_small, h, M = 64, 0.5, 20000
    for family in (
        CurveFamily.FIRST_DERIV_LIMIT,
        CurveFamily.SECOND_DERIV_LIMIT,
        CurveFamily.HALF_POINT_LIMIT,
    ):
        values, bounds = truncated_limit_spectrum_dft_grid(family, N_small, h, M)
        assert values.shape == bounds.shape == (N_small // 2 + 1,)
        for r in (0, 3, 16, 31, 32):
            omega = 2 * math.pi * r / (N_small * h)
            v, b = truncated_limit_spectrum(family, omega, h, M)
            assert complex(values[r]) == pytest.approx(v, abs=1e-9)
            assert float(bounds[r]) == pytest.approx(b, rel=1e-6)


_SERIES_FAMILIES = (
    CurveFamily.FIRST_DERIV_LIMIT,
    CurveFamily.SECOND_DERIV_LIMIT,
    CurveFamily.HALF_POINT_LIMIT,
)
# weight family, trigonometric factor and phase of each defining series
_SERIES = {
    CurveFamily.FIRST_DERIV_LIMIT: (weights.StencilKind.CENTRAL_FIRST, np.sin, -1j),
    CurveFamily.SECOND_DERIV_LIMIT: (weights.StencilKind.CENTRAL_SECOND, np.cos, 1.0 + 0j),
    CurveFamily.HALF_POINT_LIMIT: (weights.StencilKind.HALF_POINT_FIRST, np.sin, -1j),
}


def _series_coefficients(family, h, stop, start=0):
    """Offsets and terms j = start..stop-1 of a defining series: the limit
    weights times 2h."""
    return weights.limit_coefficients(_SERIES[family][0], stop, start, 2.0 * h)


def _full_table_fold(family, N, h, M):
    """The residue-bucket fold on the DFT grid as one product with the whole
    N x (N/2+1) trigonometric table, its buckets from one np.bincount of
    all M terms, not the library's np.add.at per chunk."""
    _, trig, phase = _SERIES[family]
    offsets, coef = _series_coefficients(family, h, M)
    buckets = np.bincount(offsets % N, weights=coef, minlength=N)
    thetas = 2.0 * math.pi * np.arange(N // 2 + 1) / N
    table = np.outer(np.arange(N), thetas)
    return phase * (buckets @ trig(table, out=table))


def _fold_cases():
    """(family, N, M) cases for the fold: N/2+1 runs below, at and past the
    edges of the first and second 16-bin and 32-bin blocks, M past several
    steps of the bucketed terms, and M at the edges of the first two turns."""
    sizes = [(N, M) for N in (2, 4, 6, 30, 32, 34, 62, 64, 66, 94, 96, 98, 126, 128, 130, 132,
                              254, 256, 258, 4732, 8000)
             for M in ((7, 3 * N + 5) if N < 1000 else (3 * N + 5,))]
    sizes += [(N, 3 * 2 ** 16 + 5) for N in (130, 4732)]
    # M at the edges of the first and second turn of N/2 (half-point) and N
    # (central) terms, so that the last turn is partial or whole
    sizes += [(N, M) for N in (2, 6, 130)
              for M in sorted({N // 2 - 1, N // 2, N // 2 + 1, N - 1, N, N + 1} - {0})]
    return [(family, N, M) for family in _SERIES_FAMILIES for N, M in sizes]


def _fold_digests():
    """The sha256 of truncated_limit_spectrum_dft_grid's bytes in each fold
    case, in the order of _fold_cases."""
    return [hashlib.sha256(truncated_limit_spectrum_dft_grid(family, N, 0.7, M)[0]).hexdigest()
            for family, N, M in _fold_cases()]


def _fold_mismatches():
    """_fold_digests, and the (family, N, M) cases where
    truncated_limit_spectrum_dft_grid differs from the full-table fold in
    any bit."""
    digests, bad = [], []
    for family, N, M in _fold_cases():
        values, _ = truncated_limit_spectrum_dft_grid(family, N, 0.7, M)
        digests.append(hashlib.sha256(values).hexdigest())
        if values.tobytes() != _full_table_fold(family, N, 0.7, M).tobytes():
            bad.append([family.value, N, M])
    return [digests, bad]


_FOLD_CHILD = """
import importlib.util, json, os, sys
sys.path.insert(0, os.path.dirname(sys.argv[1]))  # the module's own imports, as under pytest
spec = importlib.util.spec_from_file_location("spectra_tests", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
print(json.dumps(getattr(module, sys.argv[2])()))
"""


@settings(max_examples=150, deadline=None, database=None)
@given(
    half_n=st.integers(1, 300),
    trig=st.sampled_from([np.sin, np.cos]),
    data=st.data(),
)
def _check_random_fold(half_n, trig, data):
    # N moves the last block's start and the cut between the two shares
    N = 2 * half_n
    buckets = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                          min_size=N, max_size=N)))
    thetas = 2.0 * math.pi * np.arange(half_n + 1) / N
    folded = spectra._fold(buckets, trig, thetas)
    assert folded.tobytes() == (buckets @ trig(np.outer(np.arange(N), thetas))).tobytes()


def _random_fold_mismatches():
    """The failure of the fold against one product, bit for bit, on random
    finite buckets, both trigonometric factors and even N up to 600: [] if
    none."""
    try:
        _check_random_fold()
    except AssertionError as failure:  # with Hypothesis' falsifying example
        return [repr(failure), *getattr(failure, "__notes__", [])]
    return []


@functools.cache
def _mismatches_in_child(helper, blas_threads):
    """Run a helper of this module in a fresh interpreter whose BLAS runs on
    blas_threads threads, and return what it returns; once per helper and
    thread count, so that two tests may read one child's result."""
    return in_child(_FOLD_CHILD, __file__, helper, OPENBLAS_NUM_THREADS=blas_threads,
                     OMP_NUM_THREADS=blas_threads, MKL_NUM_THREADS=blas_threads)


def _scalar_series_bits():
    """Hex bits of truncated_limit_spectrum for each family at a few omega,
    M = 10**6."""
    bits = []
    for family in _SERIES_FAMILIES:
        for fraction in (0.0, 0.125, 0.5, 0.75, 1.0):
            value, bound = truncated_limit_spectrum(family, fraction * math.pi / 0.7, 0.7,
                                                    10 ** 6)
            bits.append([value.real.hex(), value.imag.hex(), bound.hex()])
    return bits


def test_scalar_series_bits_do_not_depend_on_blas_threads():
    assert _mismatches_in_child("_scalar_series_bits", "1") == _mismatches_in_child(
        "_scalar_series_bits", "2")


def test_blocked_fold_matches_full_table_fold():
    # gemv rounds a bin by how its threads split the rows: one thread each
    assert _mismatches_in_child("_fold_mismatches", "1")[1] == []


def test_fold_of_random_buckets_matches_one_product():
    assert _mismatches_in_child("_random_fold_mismatches", "1") == []


def _last_block_start(N):
    """Where the fold's last block starts: the last multiple of 32 below
    N/2+1 - 32, or 0."""
    return range(0, max(N // 2 + 1 - 32, 1), 32)[-1]


def test_doubling_a_grid_angle_is_exact():
    # a doubled bin's rows k < N/2 are its predecessor's rows 2k: exact when
    # thetas[2r] == 2 * thetas[r], so that fl(k * thetas[2r]) == fl(2k * thetas[r])
    for N in sorted({N for _, N, _ in _fold_cases()}):
        thetas = 2.0 * math.pi * np.arange(N // 2 + 1) / N
        r = np.arange(N // 4 + 1)
        assert thetas[2 * r].tobytes() == (2 * thetas[r]).tobytes(), N


@pytest.mark.parametrize("trig", [np.sin, np.cos])
def test_fold_takes_each_doubled_bins_even_rows_from_its_predecessor(trig):
    # N arguments per chain start and per last-block bin, N/2 per doubled bin
    def counted(x, out=None):
        arguments.append(x.size)  # one append per call: both pool threads call it
        return trig(x, out=out)

    for N in sorted({N for _, N, _ in _fold_cases()}):
        last = _last_block_start(N)
        starts = 1 + last // 2 if last else 0
        thetas = 2.0 * math.pi * np.arange(N // 2 + 1) / N
        arguments = []
        spectra._fold(np.ones(N), counted, thetas)
        assert sum(arguments) == N * (starts + N // 2 + 1 - last) + N // 2 * (last - starts), N
        if N == 8000:
            assert sum(arguments) == 24_076_000


# N = 448 and 512 cut at chain starts 81 and 105, odd multiples of 3: a
# cut that skipped them would land one block away
@pytest.mark.parametrize("N", [448, 512, 1000, 2000, 4732, 8000])
def test_fold_shares_are_whole_chains_of_equal_trig_counts(N):
    # the bins before the last block in chain order, 16 to a block, cut
    # where a chain starts into two shares: the cut, of all such cuts and
    # the one after the last block, whose trig counts differ least (the
    # earlier of two), by at most one block's N * 16 arguments
    last, *shares = spectra._fold_shares(N, N // 2 + 1)
    chains = [0]
    for odd in range(1, last, 2):
        r = odd
        while r < last:
            chains.append(r)
            r *= 2
    assert last == _last_block_start(N)
    blocks = [block for share in shares for block in share]
    assert [r for block in blocks for r in block] == chains
    assert all(len(block) == 16 for block in blocks)

    def difference(cut):  # the second share's trig count less the first's
        counts = [sum(N // 2 if r > 0 and r % 2 == 0 else N for block in share for r in block)
                  for share in (blocks[:cut], blocks[cut:])]
        return counts[1] + N * (N // 2 + 1 - last) - counts[0]

    cuts = [b for b in range(len(blocks) + 1) if b == len(blocks) or blocks[b][0] % 2]
    assert len(shares[0]) == min(cuts, key=lambda cut: abs(difference(cut)))
    assert abs(difference(len(shares[0]))) <= 16 * N


def test_fold_bytes_do_not_depend_on_blas_threads():
    # with two BLAS threads, each of the fold's two threads calls a threaded
    # gemv; the one-thread digests come from the full-table test's child
    one, _ = _mismatches_in_child("_fold_mismatches", "1")
    two = _mismatches_in_child("_fold_digests", "2")
    assert len(one) == len(two) == len(_fold_cases())
    assert [[family.value, N, M] for (family, N, M), a, b in zip(_fold_cases(), one, two)
            if a != b] == []


# replays the golden figure 1a/1b argvs through perfbench/child.py's
# execute and digest, and prints how many ran and the mismatches
_GOLDEN_FIGURE_CHILD = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
from child import digest, execute
from stencil_spectra import cli
with open(os.path.join(sys.argv[1], "golden.json"), encoding="utf-8") as fh:
    golden = json.load(fh)["digests"]
keys = [key for key in golden if key.split(" ")[:2] in (["figure", "1a"], ["figure", "1b"])]
bad = []
for key in keys:
    _, code, text, _ = execute(cli, key.split(" "))
    if [code, digest(text)] != golden[key]:
        bad.append(key)
print(json.dumps([len(keys), bad]))
"""


def test_golden_figure_1_bytes_hold_with_two_blas_threads():
    # the fold's gemv with two BLAS threads of its own on each fold thread;
    # the digests were recorded with one BLAS thread
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    assert in_child(_GOLDEN_FIGURE_CHILD, perfbench, OPENBLAS_NUM_THREADS="2",
                     OMP_NUM_THREADS="2") == [12, []]


def test_fold_threads_under_contention_write_every_bin_once():
    # the fold's two threads switching every microsecond against the same
    # call at the default interval: a lost or misplaced block write would
    # change some bin
    family = CurveFamily.SECOND_DERIV_LIMIT
    default, _ = truncated_limit_spectrum_dft_grid(family, 4732, 0.7, 10 ** 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        switched, _ = truncated_limit_spectrum_dft_grid(family, 4732, 0.7, 10 ** 4)
    finally:
        sys.setswitchinterval(interval)
    assert switched.tobytes() == default.tobytes()


# at N = 1000 the fold's last block starts at bin 448: the 28 blocks of 16
# bins before it are cut into two shares, one per pool thread, and the
# second share's thread also folds the last block
@pytest.mark.parametrize("bad_share", [0, 1, "last block"])
def test_fold_error_in_either_thread_reaches_the_caller(monkeypatch, bad_share):
    N = 1000
    last, *shares = spectra._fold_shares(N, N // 2 + 1)
    assert all(shares)
    if bad_share == "last block":
        bad_bin = last
    else:  # the share's last chain start
        bad_bin = [r for block in shares[bad_share] for r in block if r % 2][-1]
    bad_theta = 2.0 * math.pi * bad_bin / N

    def failing_sin(x, out=None):
        # k = 1 holds the theta: x[1] of a chain start's row, x[1, 0] of the
        # last block's table (a doubled bin's row starts at k = N/2)
        if (x[1] if x.ndim == 1 else x[1, 0]) == bad_theta:
            raise FloatingPointError(f"bin {bad_bin}")
        return np.sin(x, out=out)

    kind, _, phase = spectra._OMEGA_FAMILIES[CurveFamily.FIRST_DERIV_LIMIT]
    monkeypatch.setitem(
        spectra._OMEGA_FAMILIES, CurveFamily.FIRST_DERIV_LIMIT, (kind, failing_sin, phase)
    )
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match=f"bin {bad_bin}$"):
        truncated_limit_spectrum_dft_grid(CurveFamily.FIRST_DERIV_LIMIT, N, 1.0, 100)
    assert threading.active_count() == threads


@pytest.mark.parametrize("chunk", [1, 7, 129, 1 << 20])
def test_buckets_do_not_depend_on_the_step(monkeypatch, chunk):
    # one term per chunk (on the short series only: it takes seconds on the
    # long one), a few terms, more than N = 130 terms, and every term in one
    # chunk
    cases = [(family, N, M) for family in _SERIES_FAMILIES
             for N, M in ((2, 41), (6, 40), (130, 1000), (130, 3 * 2 ** 16 + 5))
             if chunk > 1 or M <= 1000]

    def folds():
        return [truncated_limit_spectrum_dft_grid(family, N, 0.7, M)[0].tobytes()
                for family, N, M in cases]

    default = folds()
    monkeypatch.setattr(spectra, "_TERM_CHUNK", chunk)
    assert folds() == default


_IMPORT_CHILD = """
import json, sys
import stencil_spectra
loaded = ["numpy" in sys.modules]
import stencil_spectra.cli
print(json.dumps(loaded + [name in sys.modules
                           for name in ("numpy", "mmap", "concurrent.futures")]))
"""


def test_importing_the_cli_loads_neither_mmap_nor_the_thread_pool():
    # the fold imports both when it runs, and run imports numpy for the
    # numeric subcommands only: every command start-up would pay for them
    # otherwise. Neither the package nor the CLI loads numpy
    assert in_child(_IMPORT_CHILD) == [False, False, False, False]


def test_dft_grid_fold_peak_is_two_in_place_tables(monkeypatch):
    # tracemalloc does not see the fold's tables, which are anonymous maps:
    # count their bytes beside the traced peak. One thread's outer product
    # and its sine took 12.9 MB; the two threads' maps, each a 16-bin buffer
    # and table (32 bins), and for the thread that folds the last block as
    # wide as it (33 bins), take 4.16 MB, and the traced peak besides is
    # about 1.4 MB
    mapped = []

    class CountedMap(mmap.mmap):
        def __new__(cls, fileno, length, *args, **kwargs):
            mapped.append(length)
            return super().__new__(cls, fileno, length, *args, **kwargs)

    # the fold's first run imports its thread pool, which is not its memory
    truncated_limit_spectrum_dft_grid(CurveFamily.FIRST_DERIV_LIMIT, 64, 1.0, 10)
    monkeypatch.setattr(mmap, "mmap", CountedMap)
    tracemalloc.start()
    try:
        truncated_limit_spectrum_dft_grid(CurveFamily.FIRST_DERIV_LIMIT, 8000, 1.0, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(mapped) == [8 * 8000 * 32, 8 * 8000 * 33]
    assert peak + sum(mapped) < 6 * 10 ** 6


def test_dft_grid_fold_memory_is_bounded():
    # one N x (N/2+1) float table alone is 256 MB at N = 8000
    tracemalloc.start()
    try:
        truncated_limit_spectrum_dft_grid(CurveFamily.FIRST_DERIV_LIMIT, 8000, 1.0, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 10 ** 6


@pytest.mark.parametrize("family", _SERIES_FAMILIES)
def test_dft_grid_fold_memory_is_bounded_in_M(family):
    # all 10**7 series terms at once would take 320 MB and more
    tracemalloc.start()
    try:
        truncated_limit_spectrum_dft_grid(family, 8000, 1.0, 10 ** 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 10 ** 6


def _scalar_bound(family, theta, h, M):
    """The remainder bound at one theta = omega h: one omitted block of
    equal-sign terms, or a tail estimate where that block is too long."""
    if family is CurveFamily.HALF_POINT_LIMIT:
        psi = abs(math.pi - 2.0 * theta)
    else:
        psi = math.pi - theta
    if psi > 1e-9:
        block = math.ceil(math.pi / psi) + 1
        if block <= 4096:
            offsets, coef = _series_coefficients(family, h, M + block, M)
            return float(np.sum(np.abs(coef * _SERIES[family][1](offsets * theta))))
    if family is CurveFamily.FIRST_DERIV_LIMIT:
        return 4.0 * h / ((M + 1) * max(math.cos(theta / 2.0), 1e-12))
    if family is CurveFamily.SECOND_DERIV_LIMIT:
        return 4.0 * h / M
    return (8.0 * h / math.pi) / (4.0 * M - 2.0)


# thetas on the tail-estimate branches: the singular point of each family,
# within 1e-9 of it, and blocks longer than 4096 terms; and a block of
# exactly 4096 terms, the longest one summed
_FALLBACK_THETAS = [
    math.pi, math.pi * (1 - 1e-10), math.pi - 1e-6,
    math.pi / 2, math.pi / 2 * (1 + 1e-11), math.pi / 2 + 1e-6,
    math.pi - math.pi / 4094.5, (math.pi - math.pi / 4094.5) / 2,
]


@settings(max_examples=100, deadline=None)
@given(
    family=st.sampled_from(_SERIES_FAMILIES),
    h=st.one_of(st.sampled_from([0.5, 0.7, 1.0, 2.0]), st.floats(1e-3, 1e3)),
    M=st.one_of(st.sampled_from([1, 7, 1000]), st.integers(1, 3000)),
    fractions=st.lists(st.floats(0.0, 1.0), max_size=20),
)
def test_grid_bounds_match_per_theta_bounds(family, h, M, fractions):
    omegas = np.array([f * math.pi for f in fractions] + _FALLBACK_THETAS + [0.0]) / h
    bounds = spectra._series_bounds(family, omegas * h, h, M)
    expected = [_scalar_bound(family, theta, h, M) for theta in omegas * h]
    assert [b.hex() for b in bounds.tolist()] == [b.hex() for b in expected]
    _, bound = truncated_limit_spectrum(family, omegas[0], h, M)
    assert bound.hex() == expected[0].hex()


@pytest.mark.parametrize("N", [64, 2000, 4732])
@pytest.mark.parametrize("M", [1, 10 ** 6])
def test_dft_grid_bounds_match_per_theta_bounds(N, M):
    thetas = 2.0 * math.pi * np.arange(N // 2 + 1) / N
    for family in _SERIES_FAMILIES:
        _, bounds = truncated_limit_spectrum_dft_grid(family, N, 0.7, M)
        expected = [_scalar_bound(family, theta, 0.7, M) for theta in thetas]
        assert [b.hex() for b in bounds.tolist()] == [b.hex() for b in expected]


def test_series_validation():
    with pytest.raises(ValueError):
        truncated_limit_spectrum(CurveFamily.FIRST_DERIV_LIMIT, 1.0, 1.0, 0)
    with pytest.raises(ValueError):
        truncated_limit_spectrum(CurveFamily.LINEAR_RAMP, 1.0, 1.0, 10)
    with pytest.raises(ValueError):
        truncated_limit_spectrum(CurveFamily.FIRST_DERIV_LIMIT, 4.0, 1.0, 10)
    with pytest.raises(ValueError, match="^h must be positive$"):
        truncated_limit_spectrum(CurveFamily.FIRST_DERIV_LIMIT, 1.0, 0.0, 10)


# --- deviations ----------------------------------------------------------------


def test_deviation_small_r_taylor_bound():
    spectrum = dft_spectrum(weights.half_point(1), N)
    curve = ReferenceCurve(CurveFamily.HALF_POINT_FOLD)
    report = deviation(spectrum, curve, "im", range(0, 51))
    assert report.max_abs <= (2 * math.pi * 50 / N) ** 3 / 6
    assert 0 <= report.argmax <= 50


def test_deviation_zero_curve_at_dc_is_exact():
    spectrum = dft_spectrum(weights.one_sided_first(4), N)
    curve = ReferenceCurve(CurveFamily.ZERO)
    report = deviation(spectrum, curve, "re", [0])
    assert report.max_abs == 0.0
    assert report.max_rel == 0.0


def test_deviation_against_an_all_zero_curve_part_is_infinitely_relative():
    # the second-derivative limit is real: its "im" column is zero on the
    # whole band, while the half-point spectrum's is not
    spectrum = dft_spectrum(weights.half_point(1), N)
    report = deviation(spectrum, ReferenceCurve(CurveFamily.SECOND_DERIV_LIMIT), "im",
                       range(0, 11))
    assert report.max_abs > 0 and report.max_rel == math.inf


def test_deviation_half_point_linearity_window():
    spectrum = dft_spectrum(weights.half_point(10), N)
    curve = ReferenceCurve(CurveFamily.HALF_POINT_FOLD)
    report = deviation(spectrum, curve, "im", range(0, 351))
    assert report.max_rel <= 0.05


def test_deviation_validation():
    spectrum = dft_spectrum(weights.half_point(1), N)
    curve = ReferenceCurve(CurveFamily.HALF_POINT_FOLD)
    with pytest.raises(ValueError):
        deviation(spectrum, curve, "im", [])
    with pytest.raises(ValueError):
        deviation(spectrum, curve, "im", range(N // 2, N // 2 + 5))
    with pytest.raises(ValueError):
        deviation(spectrum, curve, "abs", [0, 1])


def test_second_limit_dc_invariant():
    # symmetric full embedding of the truncated second-derivative limit
    # sequence: b(0) within one omitted term of pi^2/3
    M = 800
    # 2 (-1)**(m+1) / m**2, the central second-derivative limit weights
    taps = {m: float(Fraction(2 * (-1) ** (m + 1), m * m)) for m in range(1, M + 1)}
    spectrum = dft_spectrum(taps, N, EmbeddingMode.FULL_SYMMETRIC)
    b0 = float(spectrum.values[0].real)
    assert abs(b0 - math.pi ** 2 / 3) <= 4.0 / (M + 1) ** 2


def test_central_first_residual_shrinks_with_n():
    h = 1.0
    curve = ReferenceCurve(CurveFamily.FIRST_DERIV_LIMIT, h=h)
    r = 100
    omega = omega_grid(N, h)[r]
    target = -complex(reference_values(curve, [omega])[0]).imag
    residuals = {}
    for n in (1, 10):
        spectrum = dft_spectrum(
            weights.central_first(n), N, EmbeddingMode.FULL_ANTISYMMETRIC
        )
        residuals[n] = abs(spectrum.im_conj[r] * h - target)
    assert residuals[10] < residuals[1]


def test_filter_spectrum_reads_N_from_its_half_band():
    for length in (2, 3, 1001):
        assert FilterSpectrum(np.zeros(length, dtype=complex)).N == 2 * (length - 1)
    for n in (4, 16, 2000):
        assert dft_spectrum(weights.one_sided_first(1), n).N == n


@pytest.mark.parametrize("length", [0, 1])
def test_filter_spectrum_rejects_fewer_than_2_values(length):
    with pytest.raises(ValueError, match="at least 2 values"):
        FilterSpectrum(np.zeros(length, dtype=complex))


def test_index_reference_column_takes_N_from_its_grid():
    r = np.arange(1001)
    column = reference_column(ReferenceCurve(CurveFamily.LINEAR_RAMP), "im", 2000)
    assert column.tolist() == (2 * math.pi * r / 2000).tolist()


def test_first_limit_excludes_nyquist_bin_however_omega_rounds():
    # omega_{N/2} = 2 pi (N/2) / (N h) rounds below pi/h for some N and h
    # (N = 22, h = 0.5), to it or above for others (N = 16)
    for h in (0.5, 0.7, 1.0, 2.0):
        curve = ReferenceCurve(CurveFamily.FIRST_DERIV_LIMIT, h=h)
        for N in range(2, 401, 2):
            assert math.isnan(reference_column(curve, "im", N)[-1])
            spectrum = FilterSpectrum(values=np.zeros(N // 2 + 1, dtype=complex))
            with pytest.raises(CurveDomainError):
                deviation(spectrum, curve, "im", range(N // 2 + 1))


def test_deviation_against_frequency_curve():
    h = 0.5
    spectrum = dft_spectrum(
        weights.central_first(10), N, EmbeddingMode.FULL_ANTISYMMETRIC
    )
    curve = ReferenceCurve(CurveFamily.FIRST_DERIV_LIMIT, h=h)
    report = deviation(spectrum, curve, "im", range(0, 200))
    assert report.max_rel <= 0.01
