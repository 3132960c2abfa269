"""Discrete Fourier spectra of weight sequences and their limit curves.

The DFT is evaluated by direct sparse summation (weight sequences have few
nonzeros and N is small), never by an FFT library. The module follows the
plotting convention of conjugated spectra: accessors expose Re[b*(r)] and
Im[b*(r)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Union

import numpy as np

from .weights import Stencil

# Sign-block bounds fall back to coarse tail estimates past this length.
_MAX_BLOCK = 4096
_CHUNK_ELEMS = 8_000_000


class EmbeddingOverflowError(ValueError):
    pass


class CurveDomainError(ValueError):
    pass


class EmbeddingMode(Enum):
    """How a one-sided weight list a_m (m >= 0) is placed into N DFT slots.

    HALF_SEQUENCE puts a_m at index m and nothing else (the convention used
    for the finite-spectrum figures). FULL_ANTISYMMETRIC additionally puts
    -a_m at index N-m for m >= 1, FULL_SYMMETRIC puts +a_m there; these give
    the complete filter response of the central families.
    """

    HALF_SEQUENCE = "half-sequence"
    FULL_ANTISYMMETRIC = "full-antisymmetric"
    FULL_SYMMETRIC = "full-symmetric"


class CurveFamily(Enum):
    """Analytic reference curves.

    The first three live on the frequency axis omega (units of the sampled
    signal); the last three live on the integer DFT index r.
    """

    FIRST_DERIV_LIMIT = "first-deriv-limit"    # -2i omega h^2,  0 <= omega < pi/h
    SECOND_DERIV_LIMIT = "second-deriv-limit"  # -omega^2 h^3 + pi^2 h / 3
    HALF_POINT_LIMIT = "half-point-limit"      # -2ih * folded(omega h)
    HALF_POINT_FOLD = "half-point-fold"        # 2 pi r/N folded at N/4
    LINEAR_RAMP = "linear-ramp"                # 2 pi r / N
    ZERO = "zero"


_OMEGA_FAMILIES = frozenset(
    {
        CurveFamily.FIRST_DERIV_LIMIT,
        CurveFamily.SECOND_DERIV_LIMIT,
        CurveFamily.HALF_POINT_LIMIT,
    }
)


@dataclass(frozen=True)
class ReferenceCurve:
    family: CurveFamily
    h: float = 1.0
    N: int | None = None

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("h must be positive")
        if self.family not in _OMEGA_FAMILIES and self.N is None:
            raise ValueError(f"{self.family.value} needs the DFT length N")


@dataclass(frozen=True)
class FilterSpectrum:
    """Length-N DFT of an embedded weight sequence."""

    N: int
    mode: EmbeddingMode
    values: np.ndarray
    source: str

    @property
    def re_conj(self) -> np.ndarray:
        """Re[b*(r)] for all r."""
        return self.values.real

    @property
    def im_conj(self) -> np.ndarray:
        """Im[b*(r)] for all r."""
        return -self.values.imag


@dataclass(frozen=True)
class DeviationReport:
    r_start: int
    r_stop: int
    max_abs: float
    max_rel: float
    argmax: int


WeightSource = Union[Stencil, Mapping[int, object], Iterable[tuple[int, object]]]


def _base_entries(source: WeightSource):
    """Normalize to a sorted list of (index, weight); weights may be exact
    Fractions (stencils) or floats (truncated limit sequences)."""
    if isinstance(source, Stencil):
        label = source.label()
        entries = [(o, w) for o, w in source.nodes if o >= 0]
    elif isinstance(source, Mapping):
        label = f"sequence({len(source)} taps)"
        entries = sorted(source.items())
    else:
        entries = sorted(source)
        label = f"sequence({len(entries)} taps)"
    return entries, label


def _embed(entries, N: int, mode: EmbeddingMode):
    out = []
    for m, w in entries:
        if m < 0:
            raise ValueError("embedded sequences are indexed by m >= 0")
        if m != 0 and m >= N // 2:
            raise EmbeddingOverflowError(
                f"offset {m} does not fit in a length-{N} embedding (need |m| < N/2)"
            )
        out.append((m, w))
        if mode is not EmbeddingMode.HALF_SEQUENCE and m >= 1:
            mirrored = -w if mode is EmbeddingMode.FULL_ANTISYMMETRIC else w
            out.append((N - m, mirrored))
    return out


def _accumulate(embedded, N):
    k = np.arange(N)
    acc = np.zeros(N, dtype=complex)
    for idx, w in embedded:
        # reduce idx*k mod N so the phase never leaves one turn
        phase = (idx * k) % N
        acc += float(w) * np.exp((-2j * np.pi / N) * phase)
    return acc


def dft_spectrum(
    source: WeightSource, N: int, mode: EmbeddingMode = EmbeddingMode.HALF_SEQUENCE
) -> FilterSpectrum:
    """Sparse direct DFT b(r) = sum_m a_m exp(-2i pi m r / N), r = 0..N-1.

    The DC bin is recomputed from the exact rational weight sum when the
    source carries exact weights, so zero-sum stencils report b(0) = 0
    exactly.
    """
    if N < 2 or N % 2:
        raise ValueError("N must be even and >= 2")
    entries, label = _base_entries(source)
    embedded = _embed(entries, N, mode)

    values = _accumulate(embedded, N)
    if all(isinstance(w, (Fraction, int)) for _, w in embedded):
        dc = float(sum(Fraction(w) for _, w in embedded))
    else:
        dc = math.fsum(float(w) for _, w in embedded)
    values[0] = complex(dc, 0.0)
    return FilterSpectrum(N=N, mode=mode, values=values, source=label)


def reference_value(curve: ReferenceCurve, at: float):
    """Evaluate an analytic reference curve at omega (frequency families)
    or at the DFT index r (index families). Raises CurveDomainError outside
    the stated domain."""
    fam = curve.family
    if fam in _OMEGA_FAMILIES:
        omega, h = at, curve.h
        nyquist = math.pi / h
        # the inclusive upper edge tolerates the rounding of 2*pi*r/(N*h)
        if omega < 0 or omega > nyquist * (1 + 1e-12):
            raise CurveDomainError(f"omega={omega} outside [0, {nyquist}]")
        if fam is CurveFamily.FIRST_DERIV_LIMIT:
            if omega >= nyquist:
                raise CurveDomainError("first-derivative limit excludes omega = pi/h")
            return -2j * omega * h * h
        if fam is CurveFamily.SECOND_DERIV_LIMIT:
            return -(omega ** 2) * h ** 3 + (math.pi ** 2 / 3) * h
        theta = min(omega * h, math.pi)
        folded = theta if theta <= math.pi / 2 else math.pi - theta
        return -2j * h * folded

    r, N = at, curve.N
    if r < 0 or r > N / 2:
        raise CurveDomainError(f"r={r} outside [0, {N / 2}]")
    if fam is CurveFamily.HALF_POINT_FOLD:
        return 2 * math.pi * r / N if r <= N / 4 else math.pi - 2 * math.pi * r / N
    if fam is CurveFamily.LINEAR_RAMP:
        return 2 * math.pi * r / N
    return 0.0


def _series_chunk(family: CurveFamily, theta: float, h: float, mlo: int, mhi: int):
    """Signed value-contributions of terms mlo..mhi-1 (1-based for the
    central families, 0-based for the half-point family)."""
    if family is CurveFamily.FIRST_DERIV_LIMIT:
        m = np.arange(mlo, mhi, dtype=float)
        signs = np.where(m % 2 == 1, 1.0, -1.0)
        return 4.0 * h * signs * np.sin(m * theta) / m
    if family is CurveFamily.SECOND_DERIV_LIMIT:
        m = np.arange(mlo, mhi, dtype=float)
        signs = np.where(m % 2 == 1, 1.0, -1.0)
        return 4.0 * h * signs * np.cos(m * theta) / (m * m)
    if family is CurveFamily.HALF_POINT_LIMIT:
        j = np.arange(mlo, mhi, dtype=float)
        signs = np.where(j % 2 == 0, 1.0, -1.0)
        odd = 2.0 * j + 1.0
        return (8.0 * h / math.pi) * signs * np.sin(odd * theta) / (odd * odd)
    raise ValueError(f"{family.value} has no defining series")


def _series_bound(family: CurveFamily, theta: float, h: float, M: int) -> float:
    """Remainder bound: the truncated series alternates in blocks of equal
    sign; one full omitted block bounds the tail. Falls back to an absolute
    or Abel-type tail estimate when the blocks grow too long."""
    if family is CurveFamily.HALF_POINT_LIMIT:
        psi = abs(math.pi - 2.0 * theta)
    else:
        psi = math.pi - theta
    if psi > 1e-9:
        block = math.ceil(math.pi / psi) + 1
        if block <= _MAX_BLOCK:
            start = M + 1 if family is not CurveFamily.HALF_POINT_LIMIT else M
            terms = _series_chunk(family, theta, h, start, start + block)
            return float(np.sum(np.abs(terms)))
    if family is CurveFamily.FIRST_DERIV_LIMIT:
        return 4.0 * h / ((M + 1) * max(math.cos(theta / 2.0), 1e-12))
    if family is CurveFamily.SECOND_DERIV_LIMIT:
        return 4.0 * h / M
    # integral tail of 1/(2m+1)^2, slackened so the asymptotically tight
    # estimate also absorbs the partial sum's accumulation round-off
    return (8.0 * h / math.pi) / (4.0 * M - 2.0)


def _series_prefactor(family: CurveFamily) -> complex:
    # the chunks above carry the magnitudes; this restores the phase
    if family is CurveFamily.SECOND_DERIV_LIMIT:
        return 1.0 + 0j
    return -1j


def truncated_limit_spectrum(
    family: CurveFamily, omega: float, h: float, M: int
) -> tuple[complex, float]:
    """Partial sum of the defining series of an infinite-family spectrum,
    with a rigorous remainder bound.

    Returns (value, bound) where |value - limit| <= bound + accumulation
    round-off for omega interior to the curve's domain.
    """
    values, bounds = truncated_limit_spectrum_grid(family, np.array([omega]), h, M)
    return complex(values[0]), float(bounds[0])


def truncated_limit_spectrum_grid(
    family: CurveFamily, omegas: np.ndarray, h: float, M: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized truncated_limit_spectrum over a frequency grid."""
    if family not in _OMEGA_FAMILIES:
        raise ValueError(f"{family.value} has no defining series")
    if M < 1:
        raise ValueError("M must be >= 1")
    if h <= 0:
        raise ValueError("h must be positive")
    omegas = np.asarray(omegas, dtype=float)
    thetas = omegas * h
    if np.any(thetas < 0) or np.any(thetas > math.pi * (1 + 1e-12)):
        raise ValueError("omega must lie in [0, pi/h]")

    first = 0 if family is CurveFamily.HALF_POINT_LIMIT else 1
    sums = np.zeros(len(thetas))
    chunk = max(1, _CHUNK_ELEMS // max(1, len(thetas)))
    for lo in range(first, first + M, chunk):
        hi = min(lo + chunk, first + M)
        m = np.arange(lo, hi, dtype=float)
        if family is CurveFamily.HALF_POINT_LIMIT:
            signs = np.where(m % 2 == 0, 1.0, -1.0)
            odd = 2.0 * m + 1.0
            coef = (8.0 * h / math.pi) * signs / (odd * odd)
            sums += coef @ np.sin(np.outer(odd, thetas))
        else:
            signs = np.where(m % 2 == 1, 1.0, -1.0)
            if family is CurveFamily.FIRST_DERIV_LIMIT:
                coef = 4.0 * h * signs / m
                sums += coef @ np.sin(np.outer(m, thetas))
            else:
                coef = 4.0 * h * signs / (m * m)
                sums += coef @ np.cos(np.outer(m, thetas))

    values = _series_prefactor(family) * sums
    bounds = np.array([_series_bound(family, t, h, M) for t in thetas])
    return values, bounds


def truncated_limit_spectrum_dft_grid(
    family: CurveFamily, N: int, h: float, M: int
) -> tuple[np.ndarray, np.ndarray]:
    """truncated_limit_spectrum on the DFT grid omega_r = 2 pi r/(N h),
    r = 0..N/2.

    On this grid the trigonometric factors are N-periodic in the summation
    index, so the M terms fold into N residue buckets: cost O(M + N^2)
    instead of O(M N), and no large sine arguments are ever formed.
    """
    if family not in _OMEGA_FAMILIES:
        raise ValueError(f"{family.value} has no defining series")
    if N < 2 or N % 2:
        raise ValueError("N must be even and >= 2")
    if M < 1:
        raise ValueError("M must be >= 1")
    if h <= 0:
        raise ValueError("h must be positive")

    if family is CurveFamily.HALF_POINT_LIMIT:
        j = np.arange(M, dtype=float)
        odd = 2.0 * j + 1.0
        coef = (8.0 * h / math.pi) * np.where(j % 2 == 0, 1.0, -1.0) / (odd * odd)
        index = (2 * np.arange(M) + 1) % N
        use_cos = False
    else:
        m = np.arange(1, M + 1, dtype=float)
        signs = np.where(m % 2 == 1, 1.0, -1.0)
        if family is CurveFamily.FIRST_DERIV_LIMIT:
            coef = 4.0 * h * signs / m
            use_cos = False
        else:
            coef = 4.0 * h * signs / (m * m)
            use_cos = True
        index = np.arange(1, M + 1) % N

    buckets = np.bincount(index, weights=coef, minlength=N)
    thetas = 2.0 * math.pi * np.arange(N // 2 + 1) / N
    angles = np.outer(np.arange(N), thetas)
    table = np.cos(angles) if use_cos else np.sin(angles)
    sums = buckets @ table
    values = _series_prefactor(family) * sums
    bounds = np.array([_series_bound(family, t, h, M) for t in thetas])
    return values, bounds


def omega_grid(N: int, h: float) -> np.ndarray:
    """Analysis frequencies omega_r = 2 pi r / (N h) for r = 0..N/2."""
    return 2.0 * math.pi * np.arange(N // 2 + 1) / (N * h)


def _conj_part(value, part: str) -> float:
    if part == "im":
        return -complex(value).imag
    return complex(value).real


def deviation(
    spectrum: FilterSpectrum,
    curve: ReferenceCurve,
    part: str,
    r_range: Iterable[int],
) -> DeviationReport:
    """Compare Im[b*(r)] or Re[b*(r)] against a reference curve.

    For frequency-domain curves the spectrum side is scaled by h (the
    measure of the underlying transform) and compared at omega_r. The
    relative deviation is normalized by the curve's maximum over the half
    band [0, N/2]; for the identically-zero curve the spectrum's own
    maximum is used instead.
    """
    if part not in ("im", "re"):
        raise ValueError("part must be 'im' or 're'")
    rs = np.array(sorted(set(int(r) for r in r_range)))
    if rs.size == 0:
        raise ValueError("empty r range")
    N = spectrum.N
    if rs[0] < 0 or rs[-1] > N // 2:
        raise ValueError("r range must lie within [0, N/2]")

    sides = spectrum.im_conj if part == "im" else spectrum.re_conj
    half = np.arange(N // 2 + 1)

    if curve.family in _OMEGA_FAMILIES:
        omegas = omega_grid(N, curve.h)
        got = sides[rs] * curve.h
        ref = np.array([_conj_part(reference_value(curve, omegas[r]), part) for r in rs])
        valid = half[:-1] if curve.family is CurveFamily.FIRST_DERIV_LIMIT else half
        norm = max(
            abs(_conj_part(reference_value(curve, omegas[r]), part)) for r in valid
        )
    else:
        got = sides[rs]
        ref = np.array([float(reference_value(curve, int(r))) for r in rs])
        if curve.family is CurveFamily.ZERO:
            norm = float(np.max(np.abs(sides[half])))
        else:
            norm = max(abs(float(reference_value(curve, int(r)))) for r in half)

    diffs = np.abs(got - ref)
    imax = int(np.argmax(diffs))
    max_abs = float(diffs[imax])
    if norm > 0:
        max_rel = max_abs / norm
    else:
        max_rel = 0.0 if max_abs == 0 else math.inf
    return DeviationReport(
        r_start=int(rs[0]),
        r_stop=int(rs[-1]),
        max_abs=max_abs,
        max_rel=max_rel,
        argmax=int(rs[imax]),
    )


def freq_differentiate(values: np.ndarray, order: int, h: float) -> np.ndarray:
    """Band-limited derivative of a sampled-signal DFT.

    Bin r is multiplied by i*omega_r (order 1) or -omega_r**2 (order 2),
    with omega_r wrapping to negative frequencies for r > N/2. Order 1
    zeroes the Nyquist bin (the first-derivative limit spectrum excludes
    omega = pi/h); order 2 keeps it.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if h <= 0:
        raise ValueError("h must be positive")
    c = np.asarray(values, dtype=complex)
    N = c.shape[0]
    if N < 2 or N % 2:
        raise ValueError("spectrum length must be even and >= 2")
    r = np.arange(N)
    signed = np.where(r <= N // 2, r, r - N)
    omega = 2.0 * math.pi * signed / (N * h)
    if order == 1:
        out = 1j * omega * c
        out[N // 2] = 0.0
        return out
    return -(omega ** 2) * c
