"""Differentiation of sampled data with the generated stencils.

Interior points use central rules, boundary points fall back to one-sided
rules of the same family parameter (order 1 only; order-2 boundary points
are skipped). Each weight's float is a / b of its integer pair
(`weights.stencil_pairs`), which Python rounds correctly, and the
per-application accumulation runs from the smallest |offset| outward, so
antisymmetric cancellations (e.g. on the alternating Nyquist signal) are
bit-exact. Half-point differentiation is correctly rounded: each value is
computed in float double-double arithmetic, with each weight a
double-double over the exact divisor 2h, and kept where an error bound
proves it is the exact value rounded once; every other value, and every
value of a rule whose weights leave the float route's range (n >= 478),
comes from the exact route, which scales samples, weights and h to
integers and rounds one int quotient. The float route's split, TwoSum and
TwoProduct are those of `_eft`, which the table renderer's float text
shares.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from . import weights
from ._eft import split, two_product, two_sum
# the test functions, their grammar and the grid rule live in sampling,
# which imports without numpy, and pass through here
from .sampling import (ModulatedAlternating, Polynomial, Sinusoid, check_grid,
                       parse_test_function)
from .weights import (Stencil, StencilKind, _Record, central_first, central_second, half_point,
                      limit_coefficients, one_sided_first, stencil_pairs)

SKIPPED = "skipped"


class BoundaryError(IndexError):
    """A stencil offset fell outside the sampled range."""


class SampledSignal(_Record):
    """Equidistant samples; index `origin` maps to x = 0. The samples are
    held as a read-only float64 copy of the sequence given. Two signals
    are equal only if they are the same object."""

    _fields = ("h", "samples", "origin")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, h: float, samples: np.ndarray, origin: int = 0):
        samples = np.array(samples, dtype=float)
        samples.flags.writeable = False
        check_grid(h, len(samples), origin)
        if not np.isfinite(samples).all():
            index = int(np.argmin(np.isfinite(samples)))
            raise ValueError(f"sample {index} is {samples[index].item()}: samples must be finite")
        self._init(h, samples, origin)

    def __len__(self) -> int:
        return len(self.samples)

    def x(self, index: int) -> float:
        return (index - self.origin) * self.h


class DerivativeResult(_Record):
    """Per-index derivative values; NaN where the policy says skipped. Each
    span (label, start, stop) names the rule applied at indices
    start..stop-1, and the indices no span covers are skipped.
    policy_codes() gives the policy as labels and a code per index, and
    policy as the label of each index."""

    _fields = ("values", "spans", "order")

    def __init__(self, values: np.ndarray, spans: tuple[tuple[str, int, int], ...], order: int):
        self._init(values, spans, order)

    def policy_codes(self) -> tuple[list[str], np.ndarray]:
        """The labels, SKIPPED and then each span's, and each index's uint8
        code into them."""
        codes = np.zeros(len(self.values), np.uint8)
        for code, (_, start, stop) in enumerate(self.spans, 1):
            codes[start:stop] = code
        return [SKIPPED, *(label for label, _, _ in self.spans)], codes

    @cached_property
    def policy(self) -> tuple[str, ...]:
        """The label of each index: its span's, or SKIPPED."""
        labels, codes = self.policy_codes()
        return tuple(labels[code] for code in codes.tolist())


class _CompiledRule:
    """Float view of a stencil, nodes ordered smallest |offset| first.

    A rule is what _apply_spans applies: a policy label, the offsets
    min_offset..max_offset it reads, and apply_range."""

    def __init__(self, stencil: Stencil, label: str | None = None):
        order, offsets, pairs, (p, q) = stencil_pairs(stencil)
        ordered = sorted(zip(offsets, pairs), key=lambda node: (abs(node[0]), node[0]))
        self.label = label or stencil.label()
        try:
            self.nodes = [(o, a / b) for o, (a, b) in ordered]
            self.scale = p / q
        except OverflowError:
            raise ValueError(f"{self.label}: a weight or the prefactor "
                             "overflows the floats") from None
        self.order = order
        self.min_offset, self.max_offset = offsets[0], offsets[-1]

    def apply_range(self, signal: SampledSignal, start: int, stop: int) -> np.ndarray:
        """The rule at indices start..stop-1, all of whose sample indices
        must lie in the signal; each index accumulates its nodes in the
        stored order, exactly as one scalar application would. Raises
        ValueError when h**order overflows or underflows to zero, or when
        a value leaves the floats."""
        try:
            divisor = signal.h ** self.order
        except OverflowError:
            divisor = math.inf
        if not 0 < divisor < math.inf:
            raise ValueError(
                f"h={signal.h} is out of range for {self.label}: "
                f"h**{self.order} must be a finite nonzero float"
            )
        total = np.zeros(stop - start)
        with np.errstate(over="ignore", invalid="ignore"):
            for o, w in self.nodes:
                total += w * signal.samples[start + o:stop + o]
            values = (self.scale * total) / divisor
        if not np.isfinite(values).all():
            raise ValueError(f"h={signal.h}: {self.label} values overflow the floats")
        return values


# the certified half-point route's range conditions, proved in
# _HalfPointRule's docstring: split's range, and 2^-968, the least |w_hi|,
# nonzero |p| and |q0·2h| the route takes (u²·2^-968 = 2^-1074, the least
# subnormal), and the least |q0|
_SPLIT_MIN, _SPLIT_MAX = 2.0 ** -1022, 2.0 ** 995
_TINY, _QUOTIENT_MIN = 2.0 ** -968, 2.0 ** -900


def _low_part(a: int, b: int, hi: float) -> float:
    """fl(w − hi) for the weight w = a / b (b > 0) and a float hi: with
    hi = c / d, the exact difference (a·d − c·b) / (b·d), rounded once by
    Python's correctly rounded int division."""
    c, d = hi.as_integer_ratio()
    return (a * d - c * b) / (b * d)


def _within_half_gap(q, deviation):
    """Where deviation lies below the distance from q to the nearer of its
    two rounding midpoints, which is half the gap below |q| (the smaller
    gap when |q| is a power of two). Strictly: a value on a midpoint may
    round away from q."""
    return deviation < 0.5 * np.spacing(np.nextafter(np.abs(q), 0))


class _HalfPointRule:
    """half_point(n) as a rule, correctly rounded: each value is
    V = S / g rounded once, where S = Σ w(k)·(f[i+k] − f[i−k]) over the
    positive offsets k and g = 2h, which is exact.

    A certified float route computes each value and keeps it where it is
    provably V rounded. Every other index takes the exact route (`exact`)
    in one call; that route is also the tests' reference. Each weight is
    a double-double: w_hi = fl(w) and w_lo = fl(w − w_hi), taken from the
    exact integer pair (`_low_part`), so |w_lo| <= u·|w_hi| and
    w − w_hi − w_lo = δ with |δ| <= u²·|w_hi| (for |w_hi| >= 2^-968,
    where rounding w − w_hi to a subnormal costs 2^-1075 <= u²·|w_hi| at
    most). With u = 2^-53, η = 2^-1074, γ_m = m·u/(1 − m·u) (Higham,
    Accuracy and Stability, §2–§4) and P = Σ|p| below, the route and its
    bound at one index:

    1. The sum. TwoSum splits f[i+k] − f[i−k] into d + e, TwoProduct
       d·w_hi into p + π, both exactly, with |e| <= u·|d| and
       |π| <= u·|p|. Then w·(d + e) = p + π + w_hi·e + w_lo·d + w_lo·e
       + δ·(d + e). c = fl(fl(w_hi·e) + fl(w_lo·d)), two terms of at most
       u·|p| each, errs by at most 4u²·|p| + η, which is 5u²·|p| since
       |p| >= 2^-968 = η/u² where d is nonzero (each product may underflow
       by η/2), and the last two terms, left out, are at most 2u²·|p|. A
       cascade of TwoSums (Sum2's first stage: Ogita, Rump & Oishi,
       SIAM J. Sci. Comput. 26, 2005) adds the p into s, with errors q and
       Σp = s + Σq exactly; σ is the float sum of the N = 3n − 1 small
       terms q, π and c. Since |q_j| <= u·|s_j| <= u·(1+u)^(j−1)·P,
       Σ|q| <= γ_(n−1)·P; with |π| <= u·|p| and |c| <= 2u·|p|, the small
       terms sum to at most (n + 2)·u·P, σ errs by at most γ_(N−1) times
       that (Higham (4.3)), and
       |S − (s + σ)| <= ((3n − 2)(n + 2) + 7)·u²·P.
    2. The residual. From q0 = fl(s / g), TwoProduct q0·g = P' + Π and
       s − P' exact (Sterbenz), r = (s − P' − Π) + σ is s + σ − q0·g
       after two roundings, of terms at most u·|s| and u·|s| + |σ|: it
       errs by at most 2u²·|s| + u·|σ|, which is (n + 4)·u²·P, and
       |r| <= (n + 3)·u·P.
    3. The correction. TwoSum(q0, fl(r / g)) gives q and its rounding
       error err exactly, and fl(r / g) lies within u·|r| / g + η/2 of
       r / g, so |V − q − err| <= B = (3n² + 6n + 10)·u²·P / g + η/2,
       each coefficient above holding up to factors 1 + O(n·u).
    4. The certificate. q is V rounded if |err| + B lies below the
       distance from q to its nearer rounding midpoint, strictly, since V
       may be a tie (`_within_half_gap`); that distance is a float, so a
       float sum below it is below it exactly. The float bound
       fl(fl(Σ|p|) / g)·(3n² + 6n + 11)·u² exceeds B: its extra
       u²·P / g, above 2^-1007, covers the 1 + O(n·u) factors, its own
       roundings and η/2.

    The range conditions keep the exact steps exact (the products' halves
    lose no bits to underflow, and nothing overflows) and let every other
    rounding err relatively, or by η/2 where stated. The whole call takes
    the exact route unless every |w_hi| >= 2^-968 (half_point's least
    weight falls below it from n = 478 on), Σ|w_hi| <= 2 and g lies in
    split's range 2^-1022..2^995. A window falls back if it holds a sample
    above 2^994 in magnitude or a nonzero d with |p| < 2^-968. Otherwise
    |d| <= 2^995 (split's range), p, s, σ and Σ|p| stay below 2^997, and
    each nonzero d is normal, with d·w_hi's exponents summing to −970 or
    more. A value falls back unless max(2^-900, 2^-968 / g) <= |q0| <=
    2^995: then q0 lies in split's range, |q0·g| > 2^-969 makes q0·g's
    TwoProduct exact, and fl(Σ|p|) / g and the bound are normal. Zero,
    subnormal and overflowing values thus fall back, and the exact route
    gives their sign of zero, their underflow and its ValueError.
    """

    def __init__(self, n: int):
        self.stencil = half_point(n)
        self.label = f"half-point({n})"
        self.min_offset, self.max_offset = self.stencil.offsets[0], self.stencil.offsets[-1]
        _, offsets, pairs, _ = stencil_pairs(self.stencil)
        positive = [(k, pair) for k, pair in zip(offsets, pairs) if k > 0]
        # the exact route's ints a(k) = D·w(k), D the weights' common denominator
        self.D = math.lcm(*(b for _, (_, b) in positive))
        self.scaled = [(k, a * (self.D // b)) for k, (a, b) in positive]
        # (k, w_hi and its halves, w_lo) for the certified route, unless a
        # weight leaves its range; and its bound's coefficient
        highs = [(k, a, b, a / b) for k, (a, b) in positive]
        magnitudes = [abs(hi) for _, _, _, hi in highs]
        self.weights = ([(k, hi, *split(hi), _low_part(a, b, hi)) for k, a, b, hi in highs]
                        if min(magnitudes) >= _TINY and sum(magnitudes) <= 2 else None)
        self.bound_coefficient = (3 * n * n + 6 * n + 11) * 2.0 ** -106

    def apply_range(self, signal: SampledSignal, start: int, stop: int) -> np.ndarray:
        """The values at indices start..stop-1, all of whose sample indices
        must lie in the signal. Raises ValueError when a value leaves the
        floats."""
        if self.weights is None or not _SPLIT_MIN <= 2.0 * signal.h <= _SPLIT_MAX:
            return self.exact(signal, np.arange(start, stop))
        values, kept = self._certified(signal, start, stop)
        missed = np.flatnonzero(~kept)
        if len(missed):
            values[missed] = self.exact(signal, missed + start)
        return values

    def _certified(self, signal: SampledSignal, start: int, stop: int):
        """The certified route's values at indices start..stop-1 and where
        each is kept (see the class docstring), for weights and 2h in the
        route's range."""
        count, reach = stop - start, self.max_offset
        g = 2.0 * signal.h
        window = signal.samples[start - reach:stop + reach]
        with np.errstate(over="ignore", invalid="ignore"):
            s = sigma = total = 0.0
            tiny = False
            for k, w_hi, hi, lo, w_lo in self.weights:
                d, e = two_sum(window[reach + k:reach + k + count],
                               -window[reach - k:reach - k + count])
                p, pi = two_product(d, w_hi, hi, lo)
                s, q = two_sum(s, p)
                sigma = sigma + (q + (pi + (w_hi * e + w_lo * d)))
                magnitude = np.abs(p)
                total = total + magnitude
                tiny = tiny | ((magnitude < _TINY) & (d != 0))
            q0 = s / g
            product, pi = two_product(q0, g, *split(g))
            r = s - product - pi + sigma
            q, err = two_sum(q0, r / g)
            bound = total / g * self.bound_coefficient
            magnitude = np.abs(q0)
            kept = (_within_half_gap(q, np.abs(err) + bound) & ~tiny
                    & (magnitude >= max(_QUOTIENT_MIN, _TINY / g)) & (magnitude <= _SPLIT_MAX))
            outside = np.abs(window) > _SPLIT_MAX / 2
            if outside.any():
                kept &= np.convolve(outside, np.ones(2 * reach + 1, bool), "valid") == 0
        return q, kept

    def exact(self, signal: SampledSignal, indices: np.ndarray) -> np.ndarray:
        """The values at the given ascending indices (at least one), all of
        whose sample indices must lie in the signal, in exact rational
        arithmetic: each sample they read is scaled by the common
        denominator S of those samples (a power of two) to an int F,
        h = hp/hq, and each value is the int quotient
        Σ a(k)·(F[i+k] − F[i−k])·hq / (2·D·S·hp), correctly rounded.
        Raises ValueError when a value leaves the floats."""
        reach = self.max_offset
        local = indices - indices[0] + reach
        window = signal.samples[indices[0] - reach:indices[-1] + reach + 1]
        needed = np.zeros(len(window), bool)
        for k, _ in self.scaled:
            needed[local + k] = needed[local - k] = True
        ratios = [v.as_integer_ratio() for v in window[needed].tolist()]
        S = math.lcm(*{q for _, q in ratios})
        F = np.empty(len(window), dtype=object)
        F[needed] = np.array([p * (S // q) for p, q in ratios], dtype=object)
        total = sum(a * (F[local + k] - F[local - k]) for k, a in self.scaled)
        hp, hq = signal.h.as_integer_ratio()
        try:
            values = total * hq / (2 * self.D * S * hp)
        except OverflowError:
            raise ValueError(
                f"h={signal.h}: {self.stencil.label()} values overflow the floats") from None
        return values.astype(float)


# each n's rule is built once (half_point(n), D and the double-double
# weights: 9.9 ms of a 30 ms call at n = 300) for the last few n used; a
# rule is never changed after it is built
_half_point_rule = lru_cache(maxsize=8, typed=True)(_HalfPointRule)


def _apply_spans(signal: SampledSignal, order: int, spans) -> DerivativeResult:
    """Each (rule, start, stop) span applied at indices start..stop-1; the
    indices no span covers are skipped (NaN)."""
    values = np.full(len(signal), math.nan)
    spans = [(rule, start, stop) for rule, start, stop in spans if start < stop]
    for rule, start, stop in spans:
        values[start:stop] = rule.apply_range(signal, start, stop)
    return DerivativeResult(values=values, order=order,
                            spans=tuple((rule.label, start, stop) for rule, start, stop in spans))


def _apply_where_it_fits(signal: SampledSignal, order: int, rule) -> DerivativeResult:
    """The rule at every index whose offsets all read a sample."""
    span = (rule, max(0, -rule.min_offset), len(signal) - max(0, rule.max_offset))
    return _apply_spans(signal, order, [span])


def _check_reads(signal: SampledSignal, min_offset: int, max_offset: int, index: int) -> None:
    """BoundaryError naming the outermost sample index that a rule reading
    offsets min_offset..max_offset would read outside the signal at index."""
    length = len(signal)
    for j in (index + min_offset, index + max_offset):
        if not 0 <= j < length:
            raise BoundaryError(f"stencil needs sample index {j}, outside 0..{length - 1}")


def apply_stencil_at(signal: SampledSignal, stencil: Stencil, index: int) -> float:
    """Evaluate one stencil at one sample index."""
    rule = _CompiledRule(stencil)
    _check_reads(signal, rule.min_offset, rule.max_offset, index)
    return float(rule.apply_range(signal, index, index + 1)[0])


def apply_stencil(signal: SampledSignal, stencil: Stencil) -> DerivativeResult:
    """Apply a single stencil at every index where it fits."""
    return _apply_where_it_fits(signal, stencil.derivative_order, _CompiledRule(stencil))


def differentiate(signal: SampledSignal, n: int, order: int) -> DerivativeResult:
    """Differentiate the whole signal: central(n) in the interior, one-sided
    forward/backward of the same n near the edges (order 1), skipped edge
    points for order 2."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    length = len(signal)
    if length < n + 1:
        raise ValueError(f"need at least n+1 = {n + 1} samples")

    central_stencil = central_first(n) if order == 1 else central_second(n)
    spans = [(_CompiledRule(central_stencil, f"central({n})"), n, length - n)]
    if order == 1:
        # forward below the central span, backward (the forward stencil
        # mirrored) above it, as far as each fits: a signal shorter than
        # 2n+1 leaves a skipped middle
        forward = one_sided_first(n)
        forward_order, offsets, pairs, prefactor = stencil_pairs(forward)
        backward = Stencil(forward.kind, n, forward_order, tuple(-o for o in reversed(offsets)),
                           [(-a, b) for a, b in reversed(pairs)], prefactor)
        spans += [(_CompiledRule(forward, f"forward({n})"), 0, min(n, length - n)),
                  (_CompiledRule(backward, f"backward({n})"), max(n, length - n), length)]
    return _apply_spans(signal, order, spans)


def differentiate_half_point(signal: SampledSignal, n: int, index: int) -> float:
    """First derivative from the odd offsets only:
    1/(2h) * sum_m w(2m+1) * (f[index+2m+1] - f[index-2m-1]).

    The exact value (samples are dyadic rationals) rounded once, so the
    first-moment cancellation on linear alternating envelopes is bit-exact.
    One value is computed in exact rational arithmetic (_HalfPointRule's
    exact route), which for a single index is cheaper than the certified
    float route that differentiate_half_point_signal runs; both give the
    same bits. The reads are checked before the rule is built.
    """
    reach = weights.reach(StencilKind.HALF_POINT_FIRST, n)
    _check_reads(signal, -reach, reach, index)
    return float(_half_point_rule(n).exact(signal, np.array([index]))[0])


def differentiate_half_point_signal(signal: SampledSignal, n: int) -> DerivativeResult:
    """differentiate_half_point at every index where the odd-offset stencil
    fits; the 2n-1 indices at each edge are skipped (NaN). A float
    double-double route, each weight w(k) held as w_hi + w_lo, gives each
    value where its result is certain: where the result's own rounding
    error plus the bound (3n² + 6n + 10)·u²·Σ|p| / (2h) + 2^-1075 on the
    rest (u = 2^-53, p = fl(w_hi·fl(f[i+k] − f[i−k]))) lies strictly below
    the distance from the result to its nearer rounding midpoint. Elsewhere,
    and for a whole call whose weights or 2h leave the route's range, exact
    rational arithmetic gives it (see _HalfPointRule). A signal of fewer
    than 4n - 1 samples fits no index, and no rule is built for it: the
    rule's cost grows about as n^2.8."""
    if len(signal) <= 2 * weights.reach(StencilKind.HALF_POINT_FIRST, n):
        return _apply_spans(signal, 1, [])
    return _apply_where_it_fits(signal, 1, _half_point_rule(n))


def alternating_second_derivative_check(M: int, h: float) -> float:
    """Second derivative of the alternating Nyquist signal f_m = (-1)**m via
    the truncated infinite-family second-derivative weights; converges to
    -(pi/h)**2 as M grows."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if h <= 0:
        raise ValueError("h must be positive")
    m, alpha = limit_coefficients(StencilKind.CENTRAL_SECOND, M)
    f_m = np.where(m % 2 == 1, -1.0, 1.0)
    deltas = 2.0 * f_m - 2.0
    return float(np.sum(alpha * deltas) / h ** 2)


def make_signal(fn, h: float, points: int) -> SampledSignal:
    """Sample a test function on an equidistant grid with its origin at the
    center, index points // 2: fn.sample at the grid indices
    m = -origin..points-1-origin, once the grid passes check_grid. A sample
    that overflows to inf or NaN is left to SampledSignal to reject."""
    origin = check_grid(h, points)
    with np.errstate(over="ignore", invalid="ignore"):
        samples = fn.sample(np.arange(-origin, points - origin), h)
    return SampledSignal(h=h, samples=samples, origin=origin)


class ConvergenceStudy(_Record):
    _fields = ("points", "slope", "exact")

    def __init__(self, points: tuple[tuple[float, float], ...], slope: float | None, exact: bool):
        self._init(points, slope, exact)


_EXACT_FLOOR = 1e-12


def convergence_study(fn, n: int, order: int, h_list) -> ConvergenceStudy:
    """Error of the interior derivative at the origin for each h, with the
    least-squares slope of log(error) vs log(h); fn is a Sinusoid or a
    Polynomial, whose derivative(x, order) is analytic.

    Families that the stencil reproduces exactly sit at the rounding floor;
    they are reported with exact=True and no slope.
    """
    h_list = list(h_list)
    if len(h_list) < 3:
        raise ValueError("need at least three step sizes")
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError("h_list must be strictly decreasing")
    points = []
    for h in h_list:
        length = 2 * n + 5
        signal = make_signal(fn, h, length)
        result = differentiate(signal, n, order)
        got = result.values[signal.origin]
        want = fn.derivative(0.0, order)
        points.append((h, abs(got - want)))
    errors = [e for _, e in points]
    if max(errors) <= _EXACT_FLOOR:
        return ConvergenceStudy(points=tuple(points), slope=None, exact=True)
    logs = np.log([max(e, 1e-300) for e in errors])
    slope = float(np.polyfit(np.log(h_list), logs, 1)[0])
    return ConvergenceStudy(points=tuple(points), slope=slope, exact=False)
