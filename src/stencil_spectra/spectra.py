"""Discrete Fourier spectra of weight sequences and their limit curves.

The DFT is evaluated by direct sparse summation, never by an FFT library:
one table of exp(-2i pi p/N), p = 0..N, is built per call, and each tap
gathers from it over the N/2+1 bins r = 0..N/2 (the half band; a real
sequence's other bins are its conjugate mirror b(N-r) = conj b(r)), then
is scaled and added in place. No tap takes a modulo: its indices
p = (m r) mod N step from the previous tap's by the row of the gap. The
embedding is decided once, as a mirror sign s = 0, -1 or +1 (half
sequence, full antisymmetric, full symmetric), and each tap m >= 1's
mirror N - m, weight s a_m, is gathered right after it from entry N - p
(see _accumulate). The DC bin is the exact sum of the embedded sequence,
rounded once: a_0 + sum a_m, a_0, or a_0 + 2 sum a_m over m >= 1. A weight
or a bin that leaves the floats is one ValueError, "<stencil label or
'weight sequence'>: the spectrum at N=<N> overflows the floats", in every
embedding. The module follows the plotting convention of conjugated
spectra: accessors expose Re[b*(r)] and Im[b*(r)].

The infinite-family series on the DFT grid (figure 1a/1b) add their terms
into N residue buckets with one np.bincount per chunk of terms, and fold
the buckets with the trigonometric table in blocks of 32 bins, which the
two threads of a thread pool share, each in one N x 32 table that it fills
in place (see truncated_limit_spectrum_dft_grid, _fold and
_FOLD_BLOCK): 4.2 MB at N = 8000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

# CurveFamily and EmbeddingMode live in weights, which imports without numpy
from .weights import CurveFamily, EmbeddingMode, Stencil, StencilKind, limit_coefficients

# Sign-block bounds fall back to coarse tail estimates past this length.
_MAX_BLOCK = 4096
# Bins per block of the residue-bucket fold. gemv rounds the rows of one
# product in groups of its row unroll and the leftover last rows on another
# path; a product shorter than one unroll takes a third path (numpy computes
# a one-row product as a dot). So blocks start at multiples of _FOLD_BLOCK,
# which every unroll must divide (4 rows in the OpenBLAS SkylakeX kernel; 32
# leaves room for wider ones), and the last block takes the remainder whole:
# each bin is then rounded as in one full-table product. Blocks of 500 bins,
# or a last block of 1 to 3 bins, changed some bins. Each fold thread fills
# one table in place, as wide as its widest block, so with two threads the
# fold's memory is O(N + 2*32*N): at N = 8000 the tables are 2.05 + 2.11 MB
# (32 and 33 bins), against 4.10 + 6.21 MB at 64 bins. The fold is bound by
# np.sin, so its time moved by under 4 % either way (N = 2000 and 8000, one
# BLAS thread). Widths 4 to 128 all gave the same bits with numpy 2.4.6's
# OpenBLAS; that the bits also hold with two BLAS threads was measured on
# the benchmark's figure 1a/1b argvs only.
_FOLD_BLOCK = 32
# Threads of the fold's pool, each folding every other block; np.sin and
# gemv release the GIL, and the calling thread only waits. Fixed at two, not
# tunable: each thread holds one block-wide table, and two keep the memory
# bound above. A bin's bits do not depend on which thread folds its block.
_FOLD_WORKERS = 2
# Series terms made per step of either series loop: a step's arrays stay in
# cache. No bucket of the DFT grid depends on it.
_TERM_CHUNK = 1 << 14


class EmbeddingOverflowError(ValueError):
    pass


class CurveDomainError(ValueError):
    pass


def _check_dft_length(N) -> None:
    if N < 2 or N % 2:
        raise ValueError("N must be even and >= 2")


# The frequency curves are the limits of the infinite-family series; each
# maps to its weight family, the trigonometric factor of its terms and the
# phase that restores the series value from the term magnitudes.
_OMEGA_FAMILIES = {
    CurveFamily.FIRST_DERIV_LIMIT: (StencilKind.CENTRAL_FIRST, np.sin, -1j),
    CurveFamily.SECOND_DERIV_LIMIT: (StencilKind.CENTRAL_SECOND, np.cos, 1.0 + 0j),
    CurveFamily.HALF_POINT_LIMIT: (StencilKind.HALF_POINT_FIRST, np.sin, -1j),
}


@dataclass(frozen=True)
class ReferenceCurve:
    """An analytic curve; an index curve takes N where it is evaluated."""

    family: CurveFamily
    h: float = 1.0

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("h must be positive")
        # the largest magnitudes the curves and the omega grid form
        try:
            nyquist = math.pi / self.h
            finite = all(map(math.isfinite, (nyquist, nyquist ** 2, self.h ** 3)))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(
                f"h={self.h} overflows the curves: pi/h, (pi/h)**2 and h**3 must be finite"
            )


@dataclass(frozen=True)
class FilterSpectrum:
    """The half band b(r), r = 0..N/2, of the length-N DFT of an embedded
    weight sequence; N is read from the N/2+1 values."""

    values: np.ndarray

    def __post_init__(self):
        if len(self.values) < 2:
            raise ValueError("a half band needs at least 2 values (N >= 2)")

    @property
    def N(self) -> int:
        return 2 * (len(self.values) - 1)

    @property
    def re_conj(self) -> np.ndarray:
        """Re[b*(r)] for r = 0..N/2."""
        return self.values.real

    @property
    def im_conj(self) -> np.ndarray:
        """Im[b*(r)] for r = 0..N/2."""
        return -self.values.imag


@dataclass(frozen=True)
class DeviationReport:
    r_start: int
    r_stop: int
    max_abs: float
    max_rel: float
    argmax: int


# The embedding's mirror sign s: each tap a_m, m >= 1, is mirrored to
# index N - m with weight s a_m, and s = 0 mirrors nothing.
_MIRROR_SIGN = {EmbeddingMode.HALF_SEQUENCE: 0, EmbeddingMode.FULL_ANTISYMMETRIC: -1,
                EmbeddingMode.FULL_SYMMETRIC: 1}


def _accumulate(taps, N, sign):
    """b(r) for r = 0..N/2 of the taps (m, w), offsets m ascending in
    0..N/2-1, each followed for sign s != 0 and m >= 1 by its mirror
    (N - m, s w).

    Tap m reads twiddle[p] = exp(-2i pi p/N) at p = (m k) mod N over the
    bins k, and no tap reduces m k: p steps from the previous offset's row
    by the row (d k) mod N of the gap d, made once per distinct gap, and
    wraps by one subtraction of N. Its mirror reads entry N - p at the same
    row, which is entry p of the table reversed (entry N is a copy of entry
    0). Each weight is converted to float once, and the mirror's weight is
    s times that float. Each term is gathered into one buffer and scaled
    there through its real view: its parts are those of the complex product
    but for the sign of a zero, which no sum from +0.0 keeps. Bin 0 is the
    float sum of every term; dft_spectrum replaces it by the exact DC sum,
    a_0 + sum a_m for s = 0, a_0 for s = -1 and a_0 + 2 sum a_m for s = +1,
    and raises its one ValueError for a weight or a bin outside the floats
    (a weight's float() may raise OverflowError here).
    """
    half = N // 2
    twiddle = np.empty(N + 1, dtype=complex)
    np.exp((-2j * np.pi / N) * np.arange(N), out=twiddle[:N])
    twiddle[N] = twiddle[0]
    reversed_twiddle = twiddle[::-1].copy()
    k = np.arange(half + 1)
    acc = np.zeros(half + 1, dtype=complex)
    term = np.empty_like(acc)
    parts = term.view(float)
    p, spill = np.zeros_like(k), np.empty_like(k)
    p_bits, spill_bits = p.view(np.uint64), spill.view(np.uint64)
    steps = {}
    previous = 0
    for m, w in taps:
        if m != previous:
            step = steps.get(m - previous)
            if step is None:
                step = steps[m - previous] = (m - previous) * k % N
            p += step
            # as unsigned, p - N wraps past 2**64 where p < N: the smaller
            # of p and p - N is p mod N
            np.subtract(p_bits, N, out=spill_bits)
            np.minimum(p_bits, spill_bits, out=p_bits)
            previous = m
        weight = float(w)
        np.take(twiddle, p, out=term, mode="clip")
        parts *= weight
        acc += term
        if sign and m:
            np.take(reversed_twiddle, p, out=term, mode="clip")
            parts *= sign * weight
            acc += term
    return acc


def dft_spectrum(
    source: Stencil | Mapping[int, object], N: int,
    mode: EmbeddingMode = EmbeddingMode.HALF_SEQUENCE,
) -> FilterSpectrum:
    """Sparse direct DFT b(r) = sum_m a_m exp(-2i pi m r / N) on the half
    band r = 0..N/2: N/2+1 values.

    The taps are a stencil's weights at offsets >= 0, or a mapping's items,
    by ascending offset; each offset must lie in 0..N/2-1. The mode mirrors
    each tap m >= 1 to N - m: not at all (HALF_SEQUENCE), negated
    (FULL_ANTISYMMETRIC) or as it is (FULL_SYMMETRIC). The DC bin is the
    exact sum of the embedded sequence, rounded once: a_0 + sum a_m, a_0
    alone (each negated mirror cancels its tap) and a_0 + 2 sum a_m
    respectively, over m >= 1. It is summed as Fractions when every weight
    in it is a Fraction or an int, so zero-sum stencils report b(0) = 0
    exactly, and by math.fsum otherwise. A weight or a bin that leaves the
    floats is one ValueError, "<stencil label or 'weight sequence'>: the
    spectrum at N=<N> overflows the floats".
    """
    _check_dft_length(N)
    if isinstance(source, Stencil):
        name, taps = source.label(), [(o, w) for o, w in source.nodes if o >= 0]
    else:
        name, taps = "weight sequence", sorted(source.items())
    if taps and taps[0][0] < 0:
        raise ValueError("embedded sequences are indexed by m >= 0")
    for m, _ in taps:
        if m >= N // 2:
            raise EmbeddingOverflowError(
                f"offset {m} does not fit in a length-{N} embedding (need |m| < N/2)"
            )
    sign = _MIRROR_SIGN[mode]
    # a_0 once, and each a_m, m >= 1, 1 + s times: no Fraction is multiplied
    dc_terms = [w for m, w in taps for _ in range(1 + sign * (m > 0))]

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = _accumulate(taps, N, sign)
        if all(isinstance(w, (Fraction, int)) for w in dc_terms):
            dc = float(sum(Fraction(w) for w in dc_terms))
        else:
            dc = math.fsum(float(w) for w in dc_terms)
        values[0] = complex(dc, 0.0)
        finite = np.isfinite(values).all()
    except OverflowError:  # a weight or the exact DC sum
        finite = False
    if not finite:
        raise ValueError(f"{name}: the spectrum at N={N} overflows the floats")
    return FilterSpectrum(values)


def reference_values(curve: ReferenceCurve, at, N: int | None = None) -> np.ndarray:
    """Evaluate an analytic reference curve at each omega (frequency
    families, complex except the real second-derivative curve) or at each
    DFT index r of a length-N DFT (index families, real; N is required).
    Raises CurveDomainError for a point outside the stated domain; the
    first-derivative limit is complex(nan, nan) at omega >= pi/h, which it
    excludes."""
    at = np.asarray(at)
    fam = curve.family
    if fam in _OMEGA_FAMILIES:
        omega, h = at, curve.h
        nyquist = math.pi / h
        # the inclusive upper edge tolerates the rounding of 2*pi*r/(N*h)
        outside = (omega < 0) | (omega > nyquist * (1 + 1e-12))
        if outside.any():
            raise CurveDomainError(f"omega={omega[outside][0]} outside [0, {nyquist}]")
        if fam is CurveFamily.FIRST_DERIV_LIMIT:
            values = -2j * omega * h * h
            return np.where(omega >= nyquist, complex(math.nan, math.nan), values)
        if fam is CurveFamily.SECOND_DERIV_LIMIT:
            # Python's float power, as the scalar curve always used: it may
            # differ from omega*omega in the last bit
            square = (omega.astype(object) ** 2).astype(float)
            return -square * h ** 3 + (math.pi ** 2 / 3) * h
        theta = np.minimum(omega * h, math.pi)
        folded = np.where(theta <= math.pi / 2, theta, math.pi - theta)
        return -2j * h * folded

    if N is None:
        raise ValueError(f"{fam.value} needs the DFT length N")
    _check_dft_length(N)
    r = at
    outside = (r < 0) | (r > N / 2)
    if outside.any():
        raise CurveDomainError(f"r={r[outside][0]} outside [0, {N / 2}]")
    ramp = 2 * math.pi * r / N
    if fam is CurveFamily.HALF_POINT_FOLD:
        return np.where(r <= N / 4, ramp, math.pi - ramp)
    if fam is CurveFamily.LINEAR_RAMP:
        return ramp
    return np.zeros(r.shape)


def _series_terms(family: CurveFamily, h: float, stop: int, start: int = 0):
    """Offsets and signed value-contributions of the defining-series terms
    j = start..stop-1: the limit weight times 2h (the mirrored pair and the
    transform's measure h)."""
    return limit_coefficients(_OMEGA_FAMILIES[family][0], stop, start, 2.0 * h)


def _tail_estimate(family: CurveFamily, theta: float, h: float, M: int) -> float:
    """Absolute or Abel-type remainder bound, for theta whose sign blocks are
    too long to sum."""
    if family is CurveFamily.FIRST_DERIV_LIMIT:
        return 4.0 * h / ((M + 1) * max(math.cos(theta / 2.0), 1e-12))
    if family is CurveFamily.SECOND_DERIV_LIMIT:
        return 4.0 * h / M
    # integral tail of 1/(2m+1)^2, slackened so the asymptotically tight
    # estimate also absorbs the partial sum's accumulation round-off
    return (8.0 * h / math.pi) / (4.0 * M - 2.0)


def _series_bounds(family: CurveFamily, thetas: np.ndarray, h: float, M: int) -> np.ndarray:
    """Remainder bound at each theta = omega h: the truncated series
    alternates in blocks of equal sign, and one full omitted block bounds
    the tail. The terms are computed once, for the longest block; the thetas
    are summed in groups of equal block length. Falls back to _tail_estimate
    where a block would be longer than _MAX_BLOCK."""
    if family is CurveFamily.HALF_POINT_LIMIT:
        psi = np.abs(math.pi - 2.0 * thetas)
    else:
        psi = math.pi - thetas
    near = psi > 1e-9
    blocks = np.zeros(len(thetas), dtype=np.int64)
    blocks[near] = np.ceil(math.pi / psi[near]) + 1
    summed = (blocks > 0) & (blocks <= _MAX_BLOCK)

    bounds = np.empty(len(thetas))
    if summed.any():
        offsets, coef = _series_terms(family, h, M + blocks[summed].max(), M)
        trig = _OMEGA_FAMILIES[family][1]
        for b in np.unique(blocks[summed]):
            at = np.flatnonzero(blocks == b)
            terms = coef[:b] * trig(np.outer(thetas[at], offsets[:b]))
            bounds[at] = np.sum(np.abs(terms), axis=1)
    for i in np.flatnonzero(~summed):
        bounds[i] = _tail_estimate(family, float(thetas[i]), h, M)
    return bounds


def _check_series(family: CurveFamily, h: float, M: int) -> None:
    if family not in _OMEGA_FAMILIES:
        raise ValueError(f"{family.value} has no defining series")
    if M < 1:
        raise ValueError("M must be >= 1")
    if h <= 0:
        raise ValueError("h must be positive")


def truncated_limit_spectrum(
    family: CurveFamily, omega: float, h: float, M: int
) -> tuple[complex, float]:
    """Partial sum of the defining series of an infinite-family spectrum,
    with a rigorous remainder bound.

    Returns (value, bound) where |value - limit| <= bound + accumulation
    round-off for omega interior to the curve's domain. The terms are made
    and summed _TERM_CHUNK at a time, each chunk by numpy's pairwise sum.
    """
    _check_series(family, h, M)
    theta = omega * h
    if not 0 <= theta <= math.pi * (1 + 1e-12):
        raise ValueError("omega must lie in [0, pi/h]")

    _, trig, phase = _OMEGA_FAMILIES[family]
    total = 0.0
    for lo in range(0, M, _TERM_CHUNK):
        offsets, coef = _series_terms(family, h, min(lo + _TERM_CHUNK, M), lo)
        total += np.sum(coef * trig(offsets * theta))
    return complex(phase * total), float(_series_bounds(family, np.array([theta]), h, M)[0])


def truncated_limit_spectrum_dft_grid(
    family: CurveFamily, N: int, h: float, M: int
) -> tuple[np.ndarray, np.ndarray]:
    """truncated_limit_spectrum on the DFT grid omega_r = 2 pi r/(N h),
    r = 0..N/2.

    On this grid the trigonometric factors are N-periodic in the summation
    index, so the M terms fold into N residue buckets: cost O(M + N^2)
    instead of O(M N), and no large sine arguments are ever formed. The
    terms are made _TERM_CHUNK at a time, and one np.bincount per chunk
    adds them to the buckets so far: it adds each bin's weights in index
    order, so a bucket is the sum of its terms in term order from +0.0. The
    buckets meet the trigonometric table in blocks of _FOLD_BLOCK bins (the
    last up to twice that), which the two threads of a pool fold, every
    other block each, in one in-place table per thread, so memory is
    O(N + 2*32*N), whatever M.
    """
    _check_series(family, h, M)
    _check_dft_length(N)

    _, trig, phase = _OMEGA_FAMILIES[family]
    bins = np.arange(N)
    buckets = np.zeros(N)
    for lo in range(0, M, _TERM_CHUNK):
        offsets, coef = _series_terms(family, h, min(lo + _TERM_CHUNK, M), lo)
        buckets = np.bincount(np.concatenate((bins, offsets % N)),
                              np.concatenate((buckets, coef)), N)
    thetas = 2.0 * math.pi * np.arange(N // 2 + 1) / N
    return phase * _fold(buckets, trig, thetas), _series_bounds(family, thetas, h, M)


def _fold(buckets: np.ndarray, trig, thetas: np.ndarray) -> np.ndarray:
    """buckets @ trig(outer(k, thetas)), k = 0..N-1, one block of bins per
    product: blocks start at multiples of _FOLD_BLOCK, the last takes the
    remainder, and block i goes to share i % _FOLD_WORKERS. A thread pool
    folds each share on a thread of its own; an exception in any share is
    raised here once all have stopped.

    Each thread allocates its share's table as an anonymous map, which is
    unmapped when its last view dies. A table from a thread's malloc arena
    stayed there, and one from np.empty stayed in the heap after the call;
    either raised the peak RSS of later work.
    """
    import mmap  # here, as the pool, so that importing the package loads neither
    from concurrent.futures import ThreadPoolExecutor

    N = len(buckets)
    k = np.arange(N, dtype=float)[:, None]
    edges = [*range(0, max(len(thetas) - _FOLD_BLOCK, 1), _FOLD_BLOCK), len(thetas)]
    blocks = list(zip(edges, edges[1:]))
    sums = np.empty(len(thetas))

    def fold(share):
        buffer = np.frombuffer(mmap.mmap(-1, 8 * N * max(hi - lo for lo, hi in share)))
        for lo, hi in share:
            table = buffer[:N * (hi - lo)].reshape(N, hi - lo)
            np.multiply(k, thetas[lo:hi], out=table)
            sums[lo:hi] = buckets @ trig(table, out=table)

    shares = [blocks[w::_FOLD_WORKERS] for w in range(_FOLD_WORKERS)]
    with ThreadPoolExecutor(_FOLD_WORKERS) as pool:
        list(pool.map(fold, filter(None, shares)))
    return sums


def omega_grid(N: int, h: float) -> np.ndarray:
    """Analysis frequencies omega_r = 2 pi r / (N h) for r = 0..N/2."""
    return 2.0 * math.pi * np.arange(N // 2 + 1) / (N * h)


def reference_column(curve: ReferenceCurve, part: str, N: int, measure: float = 1.0) -> np.ndarray:
    """The curve at r = 0..N/2, as the real column compared with Im[b*(r)]
    (part "im", the negated imaginary part) or Re[b*(r)] (part "re"): an
    index curve as it is, a frequency curve's part at omega_r divided by
    measure. The first-derivative limit is NaN at r = N/2, which it
    excludes, however omega_{N/2} rounds against pi/h."""
    if curve.family not in _OMEGA_FAMILIES:
        return reference_values(curve, range(N // 2 + 1), N)
    values = reference_values(curve, omega_grid(N, curve.h))
    column = (-values.imag if part == "im" else values.real) / measure
    if curve.family is CurveFamily.FIRST_DERIV_LIMIT:
        column[-1] = math.nan
    return column


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
    band [0, N/2] (where the curve is defined); for the identically-zero
    curve the spectrum's own maximum is used instead.
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
    band = reference_column(curve, part, N)
    ref = band[rs]
    if curve.family in _OMEGA_FAMILIES:
        got = sides[rs] * curve.h
        if np.isnan(ref).any():
            raise CurveDomainError("first-derivative limit excludes omega = pi/h")
    else:
        got = sides[rs]
        if curve.family is CurveFamily.ZERO:
            band = sides
    norm = float(np.nanmax(np.abs(band)))

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
