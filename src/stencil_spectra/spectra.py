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
(see _accumulate). A stencil's weights are read as integer pairs: each
float is a / b, and the DC bin is the exact sum of the embedded sequence,
a_0 + sum a_m, a_0, or a_0 + 2 sum a_m over m >= 1, as one integer sum
over the denominators' lcm, rounded once by one int division. A weight
or a bin that leaves the floats is one ValueError, "<stencil label or
'weight sequence'>: the spectrum at N=<N> overflows the floats", in every
embedding. The module follows the plotting convention of conjugated
spectra: accessors expose Re[b*(r)] and Im[b*(r)].

The infinite-family series on the DFT grid (figure 1a/1b) add their terms
into N residue buckets with one np.add.at per chunk of terms, and fold
the buckets with the trigonometric table. The bins before the last block
go in doubling chains 0, r, 2r, 4r, ... (r odd), in products of 16 bins:
a bin that doubles its predecessor copies half its sines, because
fl(k theta_2r) = fl(2k theta_r). The last block (up to 64 bins) is one
product. The two threads of a thread pool each fold a contiguous share of
the blocks in one anonymous map of N x 32 floats, 4.2 MB in all at
N = 8000 (see truncated_limit_spectrum_dft_grid, _fold and _FOLD_BLOCK).
"""

from __future__ import annotations

import math
import numbers
from typing import Iterable, Mapping

import numpy as np

# CurveFamily, EmbeddingMode, EmbeddingOverflowError and ReferenceCurve live
# in weights, which imports without numpy, and pass through here
from .weights import (CurveFamily, EmbeddingMode, EmbeddingOverflowError, ReferenceCurve,
                      Stencil, StencilKind, _Record, check_embedding, limit_coefficients,
                      stencil_pairs)

# Sign-block bounds fall back to coarse tail estimates past this length.
_MAX_BLOCK = 4096
# Bins per block of the residue-bucket fold's grid. gemv rounds the rows of
# one product in groups of its row unroll and the leftover last rows on
# another path; a product shorter than one unroll takes a third path (numpy
# computes a one-row product as a dot). So the last block starts at a
# multiple of _FOLD_BLOCK and takes the remainder whole, and the bins before
# it go in products of _FOLD_BLOCK // 2 bins, which every unroll must divide
# (4 rows in the OpenBLAS SkylakeX kernel; 16 leaves room for wider ones),
# none on a leftover path: each bin is then rounded as in one full-table
# product, wherever its product puts it. Blocks of 500 bins, or
# a last block of 1 to 3 bins, changed some bins. Each fold thread maps
# N * _FOLD_BLOCK floats, a 16-bin buffer and a 16-bin table, or N times the
# last block's width if it folds that block and it is wider: at N = 8000
# the two maps are 2.05 + 2.11 MB. Widths 4 to 128 all gave the same bits
# with numpy 2.4.6's OpenBLAS; that the bits also hold with two BLAS threads
# was measured on the benchmark's figure 1a/1b argvs only.
_FOLD_BLOCK = 32
# Threads of the fold's pool, each folding one contiguous share of the
# blocks; np.sin and gemv release the GIL, and the calling thread only
# waits. Fixed at two, not tunable: each thread holds one map, and two keep
# the memory bound above. A bin's bits do not depend on which thread folds
# its block.
_FOLD_WORKERS = 2
# Series terms made per step of either series loop: a step's arrays stay in
# cache. No bucket of the DFT grid depends on it.
_TERM_CHUNK = 1 << 14


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


class FilterSpectrum(_Record):
    """The half band b(r), r = 0..N/2, of the length-N DFT of an embedded
    weight sequence; N is read from the N/2+1 values."""

    _fields = ("values",)

    def __init__(self, values: np.ndarray):
        if len(values) < 2:
            raise ValueError("a half band needs at least 2 values (N >= 2)")
        self._init(values)

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


class DeviationReport(_Record):
    _fields = ("r_start", "r_stop", "max_abs", "max_rel", "argmax")

    def __init__(self, r_start: int, r_stop: int, max_abs: float, max_rel: float, argmax: int):
        self._init(r_start, r_stop, max_abs, max_rel, argmax)


# The embedding's mirror sign s: each tap a_m, m >= 1, is mirrored to
# index N - m with weight s a_m, and s = 0 mirrors nothing.
_MIRROR_SIGN = {EmbeddingMode.HALF_SEQUENCE: 0, EmbeddingMode.FULL_ANTISYMMETRIC: -1,
                EmbeddingMode.FULL_SYMMETRIC: 1}


def _accumulate(taps, N, sign):
    """b(r) for r = 0..N/2 of the taps (m, w), float weights w at offsets m
    ascending in 0..N/2-1, each followed for sign s != 0 and m >= 1 by its
    mirror (N - m, s w).

    Tap m reads twiddle[p] = exp(-2i pi p/N) at p = (m k) mod N over the
    bins k, and no tap reduces m k: p steps from the previous offset's row
    by the row (d k) mod N of the gap d, made once per distinct gap, and
    wraps by one subtraction of N. Its mirror reads entry N - p at the same
    row, which is entry p of the table reversed (entry N is a copy of entry
    0). The mirror's weight is s times the tap's. Each term is gathered
    into one buffer and scaled there through its real view: its parts are
    those of the complex product but for the sign of a zero, which no sum
    from +0.0 keeps. Bin 0 is the float sum of every term; dft_spectrum
    replaces it by the exact DC sum, a_0 + sum a_m for s = 0, a_0 for
    s = -1 and a_0 + 2 sum a_m for s = +1.
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
    for m, weight in taps:
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
    by ascending offset; each offset must lie in 0..N/2-1
    (`weights.check_embedding`, which names the largest). The mode mirrors
    each tap m >= 1 to N - m: not at all (HALF_SEQUENCE), negated
    (FULL_ANTISYMMETRIC) or as it is (FULL_SYMMETRIC). The DC bin is the
    exact sum of the embedded sequence, rounded once: a_0 + sum a_m, a_0
    alone (each negated mirror cancels its tap) and a_0 + 2 sum a_m
    respectively, over m >= 1. A stencil's weights are read as integer
    pairs a / b (`weights.stencil_pairs`), as are a mapping's when every
    one is a `numbers.Rational` (an int or a Fraction, say), by its
    numerator and denominator: each tap's float is a / b, which Python
    rounds correctly, and the DC bin is one integer sum over the lcm L of
    the denominators, divided by L, so zero-sum stencils report b(0) = 0
    exactly. Any other mapping's floats are summed by math.fsum. A weight
    or a bin that leaves the floats is one ValueError, "<stencil label or
    'weight sequence'>: the spectrum at N=<N> overflows the floats".
    """
    _check_dft_length(N)
    if isinstance(source, Stencil):
        _, offsets, pairs, _ = stencil_pairs(source)
        name, taps = source.label(), [tap for tap in zip(offsets, pairs) if tap[0] >= 0]
        exact = True
    else:
        name, taps = "weight sequence", sorted(source.items())
        exact = all(isinstance(w, numbers.Rational) for _, w in taps)
        if exact:
            taps = [(m, (int(w.numerator), int(w.denominator))) for m, w in taps]
    if taps and taps[0][0] < 0:
        raise ValueError("embedded sequences are indexed by m >= 0")
    if taps:
        check_embedding(name, taps[-1][0], N)  # the taps ascend
    sign = _MIRROR_SIGN[mode]
    # a_0 once, and each a_m, m >= 1, 1 + s times
    counts = [1 + sign * (m > 0) for m, _ in taps]

    try:
        if exact:
            floats = [(m, a / b) for m, (a, b) in taps]
            common = math.lcm(*[b for _, (_, b) in taps])
            dc = sum([c * a * (common // b) for c, (_, (a, b)) in zip(counts, taps)]) / common
        else:
            floats = [(m, float(w)) for m, w in taps]
            dc = math.fsum(w for c, (_, w) in zip(counts, floats) for _ in range(c))
        with np.errstate(over="ignore", invalid="ignore"):
            values = _accumulate(floats, N, sign)
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
    terms are made _TERM_CHUNK at a time, and one np.add.at per chunk adds
    them to the buckets so far: it adds the terms one by one in index
    order, so a bucket is the sum of its terms in term order from +0.0. The
    buckets meet the trigonometric table in blocks (see _fold), which the
    two threads of a pool fold, a contiguous share each, in one map per
    thread, so memory is O(N + 2*32*N), whatever M.
    """
    _check_series(family, h, M)
    _check_dft_length(N)

    _, trig, phase = _OMEGA_FAMILIES[family]
    buckets = np.zeros(N)
    for lo in range(0, M, _TERM_CHUNK):
        offsets, coef = _series_terms(family, h, min(lo + _TERM_CHUNK, M), lo)
        np.add.at(buckets, offsets % N, coef)
    thetas = 2.0 * math.pi * np.arange(N // 2 + 1) / N
    return phase * _fold(buckets, trig, thetas), _series_bounds(family, thetas, h, M)


def _fold_shares(N: int, bins: int):
    """The start of the fold's last block, and the _FOLD_WORKERS shares of
    the bins before it; the last share's thread also folds the last block.

    The bins before the last block go in doubling chains: 0, then r, 2r,
    4r, ... below the last block for each odd r, ascending, so a bin is
    twice its predecessor exactly when it is even and not 0. They are cut
    into blocks of _FOLD_BLOCK // 2 bins. A share is a contiguous run of
    blocks that starts where a chain does, so no chain crosses threads, and
    each cut is the one nearest to equal trig counts: N arguments per bin,
    N/2 per doubled bin, and N per bin of the last block.
    """
    last = max(bins - 1 - _FOLD_BLOCK, 0) // _FOLD_BLOCK * _FOLD_BLOCK
    chains = [0] + [odd << j for odd in range(1, last, 2)
                    for j in range(((last - 1) // odd).bit_length())]
    blocks = [chains[i:i + _FOLD_BLOCK // 2] for i in range(0, last, _FOLD_BLOCK // 2)]
    done = [0]
    for block in blocks:
        done.append(done[-1] + sum(N // 2 if r > 0 and r % 2 == 0 else N for r in block))
    total = done[-1] + N * (bins - last)
    cuts = [0]
    for share in range(1, _FOLD_WORKERS):
        cuts.append(min((b for b in range(cuts[-1], len(blocks) + 1)
                         if b == len(blocks) or blocks[b][0] % 2),
                        key=lambda b: abs(done[b] - share * total / _FOLD_WORKERS)))
    cuts.append(len(blocks))
    return last, [blocks[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def _fold(buckets: np.ndarray, trig, thetas: np.ndarray) -> np.ndarray:
    """buckets @ trig(outer(k, thetas)), k = 0..N-1, one block of bins per
    product, in the shares of _fold_shares. A thread pool folds each share
    on a thread of its own; an exception in any share is raised here once
    all have stopped.

    A thread fills its block's bins as rows of a buffer: row k of a chain's
    first bin is trig(k theta), and a doubled bin copies its rows k < N/2
    from its predecessor's rows 2k (the row before, or the last row of the
    block before) and computes the rest, so at N = 8000 trig takes
    24,076,000 arguments instead of 32,008,000. It copies the buffer
    transposed into the N x 16 table of its product (writing the table's
    columns in place was slower) and scatters the product's values to their
    bins. The last block's table is made whole, in the same map.

    Each thread allocates its map anonymously, and it is unmapped when its
    last view dies. A table from a thread's malloc arena stayed there, and
    one from np.empty stayed in the heap after the call; either raised the
    peak RSS of later work.
    """
    import mmap  # here, as the pool, so that importing the package loads neither
    from concurrent.futures import ThreadPoolExecutor

    N, half, width = len(buckets), len(buckets) // 2, _FOLD_BLOCK // 2
    k = np.arange(N, dtype=float)
    last, shares = _fold_shares(N, len(thetas))
    sums = np.empty(len(thetas))

    def fold(share, wide):
        buffer = np.frombuffer(mmap.mmap(-1, 8 * N * max(_FOLD_BLOCK if share else 0, wide)))
        if share:
            rows = buffer[:N * width].reshape(width, N)
            table = buffer[N * width:N * _FOLD_BLOCK].reshape(N, width)
        for block in share:
            for i, r in enumerate(block):
                lo = half if r > 0 and r % 2 == 0 else 0
                rows[i, :lo] = rows[i - 1, :2 * lo:2]  # nothing for a chain's first bin
                args = rows[i, lo:]
                np.multiply(k[lo:], thetas[r], out=args)
                trig(args, out=args)
            np.copyto(table, rows.T)
            sums[block] = buckets @ table
        if wide:
            table = buffer[:N * wide].reshape(N, wide)
            np.multiply(k[:, None], thetas[last:], out=table)
            sums[last:] = buckets @ trig(table, out=table)

    jobs = [(share, 0) for share in shares[:-1] if share] + [(shares[-1], len(thetas) - last)]
    with ThreadPoolExecutor(len(jobs)) as pool:
        list(pool.map(fold, *zip(*jobs)))
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
