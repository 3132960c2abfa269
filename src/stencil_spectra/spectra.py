"""Discrete Fourier spectra of weight sequences and their limit curves.

The DFT is evaluated by direct sparse summation, never by an FFT library:
one table of exp(-2i pi p/N), p = 0..N, is built per call, and each tap
gathers from it over the N/2+1 bins r = 0..N/2 (the half band; a real
sequence's other bins are its conjugate mirror b(N-r) = conj b(r)), then
is scaled and added in place. No tap takes a modulo: its indices
p = (m r) mod N step from the previous tap's by the row of the gap, and a
mirror N - m reads entry N - p (see _accumulate). The module follows the
plotting convention of conjugated spectra: accessors expose Re[b*(r)] and
Im[b*(r)].

The infinite-family series on the DFT grid (figure 1a/1b) add their terms
into N residue buckets a turn of offsets at a time, and fold the buckets
with the trigonometric table in blocks of bins, which the calling thread
and a thread pool share (see truncated_limit_spectrum_dft_grid and _fold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .weights import Stencil, StencilKind, limit_coefficients

# Sign-block bounds fall back to coarse tail estimates past this length.
_MAX_BLOCK = 4096
_CHUNK_ELEMS = 8_000_000
# Bins per block of the residue-bucket fold. gemv rounds the rows of one
# product in groups of its row unroll and the leftover last rows on another
# path; a product shorter than one unroll takes a third path (numpy computes
# a one-row product as a dot). So blocks start at multiples of _FOLD_BLOCK,
# which every unroll must divide (4 rows in the OpenBLAS SkylakeX kernel; 64
# leaves room for wider ones), and the last block takes the remainder whole:
# each bin is then rounded as in one full-table product. Blocks of 500 bins,
# or a last block of 1 to 3 bins, changed some bins. Each fold thread fills
# one table in place, as wide as its widest block, so with two threads the
# fold's memory is O(N + 2*64*N).
_FOLD_BLOCK = 64
# Threads that fold blocks at once; np.sin and gemv release the GIL. Fixed
# at two, not tunable: each thread holds one block-wide table, and two keep
# the memory bound above. A bin's bits do not depend on which thread folds
# its block.
_FOLD_WORKERS = 2
_TERM_CHUNK = 1 << 16
# Least terms per step of the residue buckets, in whole turns (no bit depends
# on it): a step's arrays stay in cache, and a short turn is not a step.
_TURN_TERMS = 1 << 14


class EmbeddingOverflowError(ValueError):
    pass


class CurveDomainError(ValueError):
    pass


def _check_dft_length(N) -> None:
    if N < 2 or N % 2:
        raise ValueError("N must be even and >= 2")


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


def _base_entries(source: Stencil | Mapping[int, object]):
    """Normalize to a sorted list of (index, weight); weights may be exact
    Fractions (stencils) or floats (truncated limit sequences)."""
    if isinstance(source, Stencil):
        return [(o, w) for o, w in source.nodes if o >= 0]
    return sorted(source.items())


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
    """b(r) for r = 0..N/2, as _embed lists the taps: offsets m ascending,
    each mirror N - m right after its m.

    Tap m reads twiddle[p] = exp(-2i pi p/N) at p = (m k) mod N over the
    bins k, and no tap reduces m k: p steps from the previous offset's row
    by the row (d k) mod N of the gap d, made once per distinct gap, and
    wraps by one subtraction of N. The mirror reads entry N - p, which is
    entry p of the table reversed (entry N is a copy of entry 0). Each term
    is gathered into one buffer and scaled there through its real view: its
    parts are those of the complex product but for the sign of a zero, which
    no sum from +0.0 keeps.
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
    m = 0
    for idx, w in embedded:
        table = twiddle
        if idx > half:
            table = reversed_twiddle
        elif idx != m:
            step = steps.get(idx - m)
            if step is None:
                step = steps[idx - m] = (idx - m) * k % N
            p += step
            # as unsigned, p - N wraps past 2**64 where p < N: the smaller
            # of p and p - N is p mod N
            np.subtract(p_bits, N, out=spill_bits)
            np.minimum(p_bits, spill_bits, out=p_bits)
            m = idx
        np.take(table, p, out=term, mode="clip")
        parts *= float(w)
        acc += term
    return acc


def dft_spectrum(
    source: Stencil | Mapping[int, object], N: int,
    mode: EmbeddingMode = EmbeddingMode.HALF_SEQUENCE,
) -> FilterSpectrum:
    """Sparse direct DFT b(r) = sum_m a_m exp(-2i pi m r / N) on the half
    band r = 0..N/2: N/2+1 values.

    The DC bin is recomputed from the exact rational weight sum when the
    source carries exact weights, so zero-sum stencils report b(0) = 0
    exactly. A weight or a bin that leaves the floats is a ValueError
    naming the stencil and N.
    """
    _check_dft_length(N)
    embedded = _embed(_base_entries(source), N, mode)

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = _accumulate(embedded, N)
        if all(isinstance(w, (Fraction, int)) for _, w in embedded):
            dc = float(sum(Fraction(w) for _, w in embedded))
        else:
            dc = math.fsum(float(w) for _, w in embedded)
        values[0] = complex(dc, 0.0)
        finite = np.isfinite(values).all()
    except OverflowError:  # a weight or the exact DC sum
        finite = False
    if not finite:
        name = source.label() if isinstance(source, Stencil) else "weight sequence"
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
            group = np.flatnonzero(blocks == b)
            rows = max(1, _CHUNK_ELEMS // b)
            for lo in range(0, len(group), rows):
                at = group[lo:lo + rows]
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
    instead of O(M N), and no large sine arguments are ever formed. In a
    turn, N terms (offsets step 1) or N/2 (half-point, step 2), each
    reachable residue occurs once, at the same place in every turn: the
    terms are made in whole turns, a row each, and np.add.accumulate adds
    the rows down each column, so a bucket adds its terms in term order
    from +0.0. The buckets meet the trigonometric table in blocks of
    _FOLD_BLOCK bins (the last up to twice that), which two threads fold
    in two in-place tables, so memory is O(N + 2*64*N), whatever M.
    """
    _check_series(family, h, M)
    _check_dft_length(N)

    _, trig, phase = _OMEGA_FAMILIES[family]
    turn = N // 2 if family is CurveFamily.HALF_POINT_LIMIT else N
    span = -(-_TURN_TERMS // turn) * turn
    sums = np.zeros(turn)  # bucket sums by position in the turn
    for lo in range(0, M, span):
        offsets, coef = _series_terms(family, h, min(lo + span, M), lo)
        if lo == 0:
            residues = offsets[:turn] % N
        # the sums so far, a row per turn, and +0.0 (a sum from +0.0 is
        # never -0.0, so adding +0.0 changes no bit) to fill the last turn
        rows = np.concatenate((sums, coef, np.zeros(-len(coef) % turn)))
        sums = np.add.accumulate(rows.reshape(-1, turn))[-1]
    buckets = np.zeros(N)
    buckets[residues] = sums[:len(residues)]
    thetas = 2.0 * math.pi * np.arange(N // 2 + 1) / N
    return phase * _fold(buckets, trig, thetas), _series_bounds(family, thetas, h, M)


def _fold(buckets: np.ndarray, trig, thetas: np.ndarray) -> np.ndarray:
    """buckets @ trig(outer(k, thetas)), k = 0..N-1, one block of bins per
    product: blocks start at multiples of _FOLD_BLOCK, the last takes the
    remainder, and block i goes to share i % _FOLD_WORKERS. The calling
    thread folds share 0 and a thread pool the others; an exception in any
    share is raised here once all have stopped.

    Each share's table is allocated here, before any share starts, as an
    anonymous map that is unmapped when the last view of it dies. A table
    that a thread allocated stayed in that thread's malloc arena, and one
    from np.empty stayed in the heap after the call; either raised the
    peak RSS of later work.
    """
    import mmap  # here, as the pool, so that importing the package loads neither
    from concurrent.futures import ThreadPoolExecutor

    N = len(buckets)
    k = np.arange(N, dtype=float)[:, None]
    edges = [*range(0, max(len(thetas) - _FOLD_BLOCK, 1), _FOLD_BLOCK), len(thetas)]
    blocks = list(zip(edges, edges[1:]))
    shares = [blocks[w::_FOLD_WORKERS] for w in range(min(_FOLD_WORKERS, len(blocks)))]
    tables = [np.frombuffer(mmap.mmap(-1, 8 * N * max(hi - lo for lo, hi in share)))
              for share in shares]
    sums = np.empty(len(thetas))

    def fold(share, buffer):
        for lo, hi in share:
            table = buffer[:N * (hi - lo)].reshape(N, hi - lo)
            np.multiply(k, thetas[lo:hi], out=table)
            sums[lo:hi] = buckets @ trig(table, out=table)

    with ThreadPoolExecutor(max(1, len(shares) - 1)) as pool:
        others = [pool.submit(fold, *pair) for pair in zip(shares[1:], tables[1:])]
        fold(shares[0], tables[0])
    for future in others:
        future.result()
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
