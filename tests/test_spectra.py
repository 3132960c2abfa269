"""Spectrum evaluation, reference curves, deviations, band differentiation."""

import math

import numpy as np
import pytest

from stencil_spectra import weights
from stencil_spectra.spectra import (
    CurveDomainError,
    CurveFamily,
    EmbeddingMode,
    EmbeddingOverflowError,
    ReferenceCurve,
    deviation,
    dft_spectrum,
    freq_differentiate,
    omega_grid,
    reference_value,
    truncated_limit_spectrum,
    truncated_limit_spectrum_dft_grid,
    truncated_limit_spectrum_grid,
)

N = 2000


# --- DFT ----------------------------------------------------------------


def test_one_sided_dc_bin_is_exactly_zero():
    for n in range(1, 9):
        spectrum = dft_spectrum(weights.one_sided_first(n), N)
        assert spectrum.values[0] == 0.0


def test_half_point_n1_spectrum_is_a_sine():
    spectrum = dft_spectrum(weights.half_point(1), N)
    r = np.arange(N)
    assert np.abs(spectrum.im_conj - np.sin(2 * np.pi * r / N)).max() <= 1e-10


def test_truncated_limit_sequence_nyquist_bin_is_real():
    taps = {m: weights.central_first_limit(m).value() for m in range(1, 700)}
    spectrum = dft_spectrum(taps, N, EmbeddingMode.HALF_SEQUENCE)
    assert abs(spectrum.im_conj[N // 2]) <= 1e-10


def test_conjugate_symmetry():
    for source in (weights.one_sided_first(5), weights.half_point(3)):
        values = dft_spectrum(source, 256).values
        for r in range(1, 128):
            assert abs(values[256 - r] - np.conj(values[r])) <= 1e-10


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
    with pytest.raises(ValueError):
        dft_spectrum({-1: 1.0}, 16)  # negative index in a raw sequence


# --- reference curves ------------------------------------------------------


def test_second_limit_curve_at_dc():
    curve = ReferenceCurve(CurveFamily.SECOND_DERIV_LIMIT, h=0.7)
    assert reference_value(curve, 0.0) == pytest.approx(math.pi ** 2 * 0.7 / 3)


def test_half_point_limit_curve_branches_agree_at_junction():
    h = 0.5
    curve = ReferenceCurve(CurveFamily.HALF_POINT_LIMIT, h=h)
    junction = math.pi / (2 * h)
    assert reference_value(curve, junction) == pytest.approx(-1j * math.pi * h)
    assert reference_value(curve, junction * 0.999) == pytest.approx(
        -2j * h * (0.999 * math.pi / 2), rel=1e-12
    )


def test_fold_curve_values():
    curve = ReferenceCurve(CurveFamily.HALF_POINT_FOLD, N=N)
    assert reference_value(curve, N // 4) == pytest.approx(math.pi / 2)
    assert reference_value(curve, 0) == 0.0
    assert reference_value(curve, N // 2) == pytest.approx(0.0)
    ramp = ReferenceCurve(CurveFamily.LINEAR_RAMP, N=N)
    assert reference_value(ramp, 100) == pytest.approx(2 * math.pi * 100 / N)
    zero = ReferenceCurve(CurveFamily.ZERO, N=N)
    assert reference_value(zero, 123) == 0.0


def test_first_limit_curve_domain_excludes_nyquist():
    curve = ReferenceCurve(CurveFamily.FIRST_DERIV_LIMIT, h=1.0)
    assert reference_value(curve, 1.0) == -2j
    with pytest.raises(CurveDomainError):
        reference_value(curve, math.pi)
    with pytest.raises(CurveDomainError):
        reference_value(curve, -0.1)


def test_index_curve_domain():
    curve = ReferenceCurve(CurveFamily.LINEAR_RAMP, N=N)
    with pytest.raises(CurveDomainError):
        reference_value(curve, N // 2 + 1)


def test_index_curves_require_N():
    with pytest.raises(ValueError):
        ReferenceCurve(CurveFamily.LINEAR_RAMP)


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


def test_grid_matches_scalar_evaluation():
    omegas = np.array([0.3, 1.1, 2.5])
    values, bounds = truncated_limit_spectrum_grid(
        CurveFamily.FIRST_DERIV_LIMIT, omegas, 1.0, 500
    )
    for i, omega in enumerate(omegas):
        v, b = truncated_limit_spectrum(CurveFamily.FIRST_DERIV_LIMIT, omega, 1.0, 500)
        assert v == pytest.approx(complex(values[i]), rel=1e-12, abs=1e-15)
        assert b == pytest.approx(float(bounds[i]), rel=1e-12)


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


def test_series_validation():
    with pytest.raises(ValueError):
        truncated_limit_spectrum(CurveFamily.FIRST_DERIV_LIMIT, 1.0, 1.0, 0)
    with pytest.raises(ValueError):
        truncated_limit_spectrum(CurveFamily.LINEAR_RAMP, 1.0, 1.0, 10)
    with pytest.raises(ValueError):
        truncated_limit_spectrum(CurveFamily.FIRST_DERIV_LIMIT, 4.0, 1.0, 10)


# --- deviations ----------------------------------------------------------------


def test_deviation_small_r_taylor_bound():
    spectrum = dft_spectrum(weights.half_point(1), N)
    curve = ReferenceCurve(CurveFamily.HALF_POINT_FOLD, N=N)
    report = deviation(spectrum, curve, "im", range(0, 51))
    assert report.max_abs <= (2 * math.pi * 50 / N) ** 3 / 6
    assert 0 <= report.argmax <= 50


def test_deviation_zero_curve_at_dc_is_exact():
    spectrum = dft_spectrum(weights.one_sided_first(4), N)
    curve = ReferenceCurve(CurveFamily.ZERO, N=N)
    report = deviation(spectrum, curve, "re", [0])
    assert report.max_abs == 0.0
    assert report.max_rel == 0.0


def test_deviation_half_point_linearity_window():
    spectrum = dft_spectrum(weights.half_point(10), N)
    curve = ReferenceCurve(CurveFamily.HALF_POINT_FOLD, N=N)
    report = deviation(spectrum, curve, "im", range(0, 351))
    assert report.max_rel <= 0.05


def test_deviation_validation():
    spectrum = dft_spectrum(weights.half_point(1), N)
    curve = ReferenceCurve(CurveFamily.HALF_POINT_FOLD, N=N)
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
    taps = {m: weights.central_second_limit(m).value() for m in range(1, M + 1)}
    spectrum = dft_spectrum(taps, N, EmbeddingMode.FULL_SYMMETRIC)
    b0 = float(spectrum.values[0].real)
    assert abs(b0 - math.pi ** 2 / 3) <= 4.0 / (M + 1) ** 2


def test_central_first_residual_shrinks_with_n():
    h = 1.0
    curve = ReferenceCurve(CurveFamily.FIRST_DERIV_LIMIT, h=h)
    r = 100
    omega = omega_grid(N, h)[r]
    target = -complex(reference_value(curve, omega)).imag
    residuals = {}
    for n in (1, 10):
        spectrum = dft_spectrum(
            weights.central_first(n), N, EmbeddingMode.FULL_ANTISYMMETRIC
        )
        residuals[n] = abs(spectrum.im_conj[r] * h - target)
    assert residuals[10] < residuals[1]


def test_deviation_against_frequency_curve():
    h = 0.5
    spectrum = dft_spectrum(
        weights.central_first(10), N, EmbeddingMode.FULL_ANTISYMMETRIC
    )
    curve = ReferenceCurve(CurveFamily.FIRST_DERIV_LIMIT, h=h)
    report = deviation(spectrum, curve, "im", range(0, 200))
    assert report.max_rel <= 0.01


# --- band-limited differentiation -----------------------------------------------


def test_freq_differentiate_constant_is_zero():
    c = np.fft.fft(np.ones(64))
    out = freq_differentiate(c, 1, 0.5)
    assert np.abs(out).max() == 0.0


def test_freq_differentiate_pure_tone_round_trip():
    n, h = 64, 0.5
    k = np.arange(n)
    omega0 = 2 * math.pi * 5 / (n * h)
    samples = np.cos(omega0 * k * h)
    out = np.fft.ifft(freq_differentiate(np.fft.fft(samples), 1, h))
    expected = -omega0 * np.sin(omega0 * k * h)
    assert np.abs(out.real - expected).max() <= 1e-10
    assert np.abs(out.imag).max() <= 1e-10


def test_freq_differentiate_alternating_tone_second_order():
    n, h = 32, 0.5
    k = np.arange(n)
    samples = (-1.0) ** k
    out = np.fft.ifft(freq_differentiate(np.fft.fft(samples), 2, h))
    expected = -((math.pi / h) ** 2) * samples
    assert np.abs(out.real - expected).max() <= 1e-9 * (math.pi / h) ** 2


def test_freq_differentiate_first_order_kills_nyquist():
    n = 32
    samples = (-1.0) ** np.arange(n)
    out = np.fft.ifft(freq_differentiate(np.fft.fft(samples), 1, 1.0))
    assert np.abs(out).max() <= 1e-12


def test_freq_differentiate_validation():
    c = np.zeros(8, dtype=complex)
    with pytest.raises(ValueError):
        freq_differentiate(c, 3, 1.0)
    with pytest.raises(ValueError):
        freq_differentiate(np.zeros(7, dtype=complex), 1, 1.0)
    with pytest.raises(ValueError):
        freq_differentiate(c, 1, 0.0)
