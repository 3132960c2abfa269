"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; tolerances are fixed here and in tests/golden/figure_thresholds.json.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from stencil_spectra import oracle, weights
from stencil_spectra.signals import (
    SampledSignal,
    Sinusoid,
    alternating_second_derivative_check,
    apply_stencil_at,
    convergence_study,
    differentiate_half_point,
)
from stencil_spectra.spectra import (
    CurveFamily,
    EmbeddingMode,
    ReferenceCurve,
    deviation,
    dft_spectrum,
    truncated_limit_spectrum,
)
from stencil_spectra.weights import StencilKind

F = Fraction
N = 2000

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "figure_thresholds.json").read_text()
)


def _finish(number, name, failures):
    status = "FAIL" if failures else "PASS"
    detail = f"  [{'; '.join(failures)}]" if failures else ""
    print(f"ACCEPTANCE {number} {name}: {status}{detail}")
    assert not failures, failures


def test_criterion_1_one_sided_weight_tables():
    failures = []
    for n in range(1, 9):
        stencil = weights.one_sided_first(n)
        if stencil.weight_at(1) != n:
            failures.append(f"a1 != n at n={n}")
        harmonic = sum(F(1, m) for m in range(1, n + 1))
        if stencil.weight_at(0) != -harmonic:
            failures.append(f"a0 != -H_n at n={n}")
        for m in range(1, n + 1):
            if stencil.weight_at(m) != F((-1) ** (m + 1) * math.comb(n, m), m):
                failures.append(f"binomial form fails at n={n}, m={m}")
        solved = oracle.solve_moment_system(
            oracle.MomentSystem(offsets=stencil.offsets, degree=n, target_order=1)
        )
        if solved != list(stencil.weights):
            failures.append(f"oracle mismatch at n={n}")
    _finish(1, "exact one-sided weight tables (n <= 8)", failures)


def test_criterion_2_moment_orthogonality_suite():
    failures = []
    for n in range(1, 13):
        offsets = tuple(range(n + 1))
        solutions = {
            l: oracle.solve_moment_system(
                oracle.MomentSystem(offsets=offsets, degree=n, target_order=l)
            )
            for l in range(n + 1)
        }
        solutions_closed = {
            1: list(weights.one_sided_first(n).weights),
            n: [
                w * weights.one_sided_nth(n).prefactor / math.factorial(n)
                for w in weights.one_sided_nth(n).weights
            ],
        }
        for origin, table in (("solver", solutions), ("closed", solutions_closed)):
            for l, coeffs in table.items():
                for k in range(n + 1):
                    total = sum(a * m ** k for a, m in zip(coeffs, offsets))
                    if total != (1 if k == l else 0):
                        failures.append(f"{origin} n={n} l={l} k={k}")
                if l >= 1 and sum(coeffs, F(0)) != 0:
                    failures.append(f"{origin} zero-sum n={n} l={l}")
    _finish(2, "moment conditions exact (l, k <= n <= 12)", failures)


def test_criterion_3_determinant_identities():
    failures = []
    for n in range(1, 11):
        det = oracle.vandermonde_det(n)
        closed = math.factorial(n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                closed *= j - i
        if det != closed:
            failures.append(f"Vandermonde closed form fails at n={n}")
        stencil = weights.one_sided_first(n)
        for m in range(1, n + 1):
            if F(oracle.delta_m1_closed_form(m, n), det) != stencil.weight_at(m):
                failures.append(f"determinant ratio fails at n={n}, m={m}")
    _finish(3, "determinant identities (n <= 10)", failures)


def test_criterion_4_limit_spectra():
    failures = []
    h, M = 1.0, 10 ** 6
    for fraction in (F(1, 8), F(1, 4), F(1, 2), F(3, 4)):
        omega = math.pi * float(fraction) / h
        value, bound = truncated_limit_spectrum(
            CurveFamily.FIRST_DERIV_LIMIT, omega, h, M
        )
        err = abs(value - (-2j * omega * h * h))
        if err > bound:
            failures.append(
                f"first-derivative series at omega*h={fraction}*pi: "
                f"err {err:.3e} > bound {bound:.3e}"
            )
    for h2 in (1.0, 0.5):
        value, _ = truncated_limit_spectrum(CurveFamily.SECOND_DERIV_LIMIT, 0.0, h2, M)
        target = math.pi ** 2 * h2 / 3
        if abs(value - target) > 1e-10 * target:
            failures.append(f"second-derivative series at DC, h={h2}")
    _finish(4, "limit spectra within series bounds (M = 1e6)", failures)


def test_criterion_5_nyquist_behavior():
    failures = []
    points = 41
    origin = points // 2
    signal = SampledSignal(
        h=1.0,
        samples=tuple((-1.0) ** abs(i - origin) for i in range(points)),
        origin=origin,
    )
    for n in range(1, 9):
        value = apply_stencil_at(signal, weights.central_first(n), origin)
        if value != 0.0:
            failures.append(f"aliased derivative not exactly 0 at n={n}")
    check = alternating_second_derivative_check(10 ** 5, 1.0)
    if abs(check + math.pi ** 2) > 1e-4 * math.pi ** 2:
        failures.append(f"alternating second derivative {check} vs -pi^2")
    _finish(5, "Nyquist aliasing and second-derivative recovery", failures)


def test_criterion_6_figure_reproduction():
    failures = []

    spectrum = dft_spectrum(weights.half_point(1), N)
    r = np.arange(N // 2 + 1)
    gap = np.abs(spectrum.im_conj - np.sin(2 * np.pi * r / N)).max()
    if gap > 1e-10:
        failures.append(f"(a) half-point n=1 vs sine: {gap:.2e}")

    golden = GOLDEN["2a_half_point_vs_fold"]
    report = deviation(
        dft_spectrum(weights.half_point(golden["n"]), N),
        ReferenceCurve(CurveFamily.HALF_POINT_FOLD),
        "im",
        range(0, golden["r_max"] + 1),
    )
    if report.max_rel > golden["threshold"]:
        failures.append(f"(b) fold linearity window: {report.max_rel:.4f}")
    if report.max_rel > golden["observed"] * 1.1:
        failures.append(f"(b) regression vs calibration: {report.max_rel:.6f}")

    for n in (1, 3, 5, 8):
        if dft_spectrum(weights.one_sided_first(n), N).values[0] != 0.0:
            failures.append(f"(c) b(0) not exactly zero at n={n}")
    golden = GOLDEN["3a_one_sided_im_vs_ramp"]
    report = deviation(
        dft_spectrum(weights.one_sided_first(golden["n"]), N),
        ReferenceCurve(CurveFamily.LINEAR_RAMP),
        "im",
        range(0, golden["r_max"] + 1),
    )
    if report.max_rel > golden["threshold"]:
        failures.append(f"(c) ramp window at n=5: {report.max_rel:.4f}")

    golden = GOLDEN["3b_one_sided_re_vs_zero"]
    for n_text, observed in golden["observed"].items():
        report = deviation(
            dft_spectrum(weights.one_sided_first(int(n_text)), N),
            ReferenceCurve(CurveFamily.ZERO),
            "re",
            range(0, golden["r_max"] + 1),
        )
        if report.max_rel > golden["threshold"]:
            failures.append(f"(d) real part at n={n_text}: {report.max_rel:.4f}")
        if report.max_rel > observed * 1.1:
            failures.append(f"(d) regression vs calibration at n={n_text}")
    _finish(6, "figure reproduction at N = 2000", failures)


def test_criterion_7_convergence_orders():
    failures = []
    for n in (1, 2, 3):
        study = convergence_study(Sinusoid(omega=1.0), n, 1, [0.04, 0.02, 0.01])
        target = 2 * n
        if study.exact or abs(study.slope - target) > 0.1 * target:
            failures.append(f"slope {study.slope} vs {target} at n={n}")
    _finish(7, "convergence orders 2n +- 10%", failures)


def test_criterion_8_envelope_identity():
    failures = []
    h, origin, points = 0.5, 32, 65
    for a, b in ((1.0, 0.25), (0.5, -0.375), (-2.0, 1.5)):
        samples = tuple(
            (1.0 if (i - origin) % 2 == 0 else -1.0) * (a + b * (i - origin) * h)
            for i in range(points)
        )
        signal = SampledSignal(h=h, samples=samples, origin=origin)
        for n in range(1, 9):
            value = differentiate_half_point(signal, n, origin)
            if value != -b:
                failures.append(f"a={a}, b={b}, n={n}: {value} != {-b}")
    _finish(8, "envelope derivative exactly -b (n <= 8)", failures)


def test_criterion_9_polynomial_exactness_table():
    failures = []
    expected = {
        StencilKind.CENTRAL_FIRST: lambda n: 2 * n,
        StencilKind.CENTRAL_SECOND: lambda n: 2 * n + 1,
        StencilKind.HALF_POINT_FIRST: lambda n: 2 * n,
        StencilKind.ONE_SIDED_FIRST: lambda n: n,
        StencilKind.ONE_SIDED_NTH: lambda n: n,
    }
    for n in range(1, 9):
        for kind, degree_fn in expected.items():
            degree = degree_fn(n)
            report = oracle.exactness_check(weights.build(kind, n), degree + 1)
            if report.max_exact_degree != degree:
                failures.append(
                    f"{kind.value} n={n}: degree {report.max_exact_degree}"
                    f" != {degree}"
                )
    _finish(9, "polynomial exactness table (n <= 8)", failures)
