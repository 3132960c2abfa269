"""Differentiation of sampled data with the generated stencils.

Interior points use central rules, boundary points fall back to one-sided
rules of the same family parameter (order 1 only; order-2 boundary points
are skipped). Weight-to-float conversion is correctly rounded and the
per-application accumulation runs from the smallest |offset| outward, so
antisymmetric cancellations (e.g. on the alternating Nyquist signal) are
bit-exact. Half-point differentiation is exact: samples, weights and h are
scaled to integers and each value is rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

# BoundaryError lives in weights, which imports without numpy
from .weights import (BoundaryError, Stencil, StencilKind, central_first, central_second,
                      half_point, limit_coefficients, one_sided_first)

SKIPPED = "skipped"


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Equidistant samples; index `origin` maps to x = 0. The samples are
    held as a read-only float64 copy of the sequence given."""

    h: float
    samples: np.ndarray
    origin: int = 0

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if not 0 < self.h < math.inf:
            raise ValueError(f"h={self.h} must be a positive finite float")
        if len(samples) < 2:
            raise ValueError("need at least two samples")
        if not 0 <= self.origin < len(samples):
            raise ValueError("origin must index into the samples")
        reach = max(self.origin, len(samples) - 1 - self.origin)
        if not math.isfinite(reach * self.h):
            raise ValueError(f"h={self.h}: x = {reach}*h at the far end overflows the floats")
        if not np.isfinite(samples).all():
            index = int(np.argmin(np.isfinite(samples)))
            raise ValueError(f"sample {index} is {samples[index].item()}: samples must be finite")

    def __len__(self) -> int:
        return len(self.samples)

    def x(self, index: int) -> float:
        return (index - self.origin) * self.h


@dataclass(frozen=True)
class DerivativeResult:
    """Per-index derivative values; NaN where the policy says skipped. Each
    span (label, start, stop) names the rule applied at indices
    start..stop-1, and the indices no span covers are skipped.
    policy_codes() gives the policy as labels and a code per index, and
    policy as the label of each index."""

    values: np.ndarray
    spans: tuple[tuple[str, int, int], ...]
    order: int

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
        ordered = sorted(stencil.nodes, key=lambda ow: (abs(ow[0]), ow[0]))
        self.label = label or stencil.label()
        try:
            self.nodes = [(o, float(w)) for o, w in ordered]
            self.scale = float(stencil.prefactor)
        except OverflowError:
            raise ValueError(f"{self.label}: a weight or the prefactor "
                             "overflows the floats") from None
        self.order = stencil.derivative_order
        self.min_offset, self.max_offset = stencil.offsets[0], stencil.offsets[-1]

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


class _HalfPointRule:
    """half_point(n) as a rule, applied exactly: 1/(2h) * sum over the
    positive offsets k of w(k) * (f[i+k] - f[i-k]), rounded once per value.

    The weights are scaled by their common denominator D to ints a(k), a
    window of samples by its common denominator S (a power of two) to ints
    F, and h = hp/hq; each value is the int quotient
    sum a(k) (F[i+k] - F[i-k]) * hq / (2 D S hp), correctly rounded.
    """

    def __init__(self, n: int):
        self.stencil = half_point(n)
        self.label = f"half-point({n})"
        self.min_offset, self.max_offset = self.stencil.offsets[0], self.stencil.offsets[-1]
        positive = [(k, w) for k, w in self.stencil.nodes if k > 0]
        self.D = math.lcm(*(w.denominator for _, w in positive))
        self.scaled = [(k, w.numerator * (self.D // w.denominator)) for k, w in positive]

    def apply_range(self, signal: SampledSignal, start: int, stop: int) -> np.ndarray:
        """The values at indices start..stop-1, all of whose sample indices
        must lie in the signal. Raises ValueError when a value leaves the
        floats."""
        count, reach = stop - start, self.max_offset
        window = signal.samples[start - reach:stop + reach].tolist()
        ratios = [v.as_integer_ratio() for v in window]
        S = math.lcm(*{q for _, q in ratios})
        F = np.array([p * (S // q) for p, q in ratios], dtype=object)
        total = np.zeros(count, dtype=object)
        for k, a in self.scaled:
            total += a * (F[reach + k:reach + k + count] - F[reach - k:reach - k + count])
        hp, hq = signal.h.as_integer_ratio()
        try:
            values = total * hq / (2 * self.D * S * hp)
        except OverflowError:
            raise ValueError(
                f"h={signal.h}: {self.stencil.label()} values overflow the floats") from None
        return values.astype(float)


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


def _apply_at(signal: SampledSignal, rule, index: int) -> float:
    """The rule at one index; BoundaryError names the outermost sample index
    it would read outside the signal."""
    length = len(signal)
    for j in (index + rule.min_offset, index + rule.max_offset):
        if not 0 <= j < length:
            raise BoundaryError(f"stencil needs sample index {j}, outside 0..{length - 1}")
    return float(rule.apply_range(signal, index, index + 1)[0])


def apply_stencil_at(signal: SampledSignal, stencil: Stencil, index: int) -> float:
    """Evaluate one stencil at one sample index."""
    return _apply_at(signal, _CompiledRule(stencil), index)


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
        backward = replace(forward, offsets=tuple(-o for o in reversed(forward.offsets)),
                           weights=tuple(-w for w in reversed(forward.weights)))
        spans += [(_CompiledRule(forward, f"forward({n})"), 0, min(n, length - n)),
                  (_CompiledRule(backward, f"backward({n})"), max(n, length - n), length)]
    return _apply_spans(signal, order, spans)


def differentiate_half_point(signal: SampledSignal, n: int, index: int) -> float:
    """First derivative from the odd offsets only:
    1/(2h) * sum_m w(2m+1) * (f[index+2m+1] - f[index-2m-1]).

    Computed exactly (samples are dyadic rationals) and rounded once on
    return, so the first-moment cancellation on linear alternating
    envelopes is bit-exact.
    """
    return _apply_at(signal, _HalfPointRule(n), index)


def differentiate_half_point_signal(signal: SampledSignal, n: int) -> DerivativeResult:
    """differentiate_half_point at every index where the odd-offset stencil
    fits; the 2n-1 indices at each edge are skipped (NaN)."""
    return _apply_where_it_fits(signal, 1, _HalfPointRule(n))


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


# --- test functions -----------------------------------------------------


def _poly_eval(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_diff(coeffs):
    return tuple(k * c for k, c in enumerate(coeffs))[1:] or (0.0,)


@dataclass(frozen=True)
class Sinusoid:
    omega: float
    phase: float = 0.0

    def sample(self, m: np.ndarray, h: float) -> np.ndarray:
        return np.sin(self.omega * m * h + self.phase)

    def derivative(self, x: float, order: int) -> float:
        if order == 1:
            return self.omega * math.cos(self.omega * x + self.phase)
        return -(self.omega ** 2) * math.sin(self.omega * x + self.phase)


@dataclass(frozen=True)
class Polynomial:
    coeffs: tuple[float, ...]

    def sample(self, m: np.ndarray, h: float) -> np.ndarray:
        return _poly_eval(self.coeffs, m * h)

    def derivative(self, x: float, order: int) -> float:
        c = self.coeffs
        for _ in range(order):
            c = _poly_diff(c)
        return _poly_eval(c, x)


@dataclass(frozen=True)
class ModulatedAlternating:
    """Samples (-1)**m * g(m h) with a polynomial envelope g: the grid alias
    of a Nyquist carrier modulated by g."""

    coeffs: tuple[float, ...]

    def envelope(self, x: float) -> float:
        return _poly_eval(self.coeffs, x)

    def sample(self, m: np.ndarray, h: float) -> np.ndarray:
        return np.where(m % 2, -1.0, 1.0) * self.envelope(m * h)


def parse_test_function(expr: str):
    """CLI test-function grammar: sin:omega=...[,phase=...], poly:c0,c1,...,
    altpoly:c0,c1,..."""
    head, sep, rest = expr.partition(":")
    if not sep or not rest:
        raise ValueError(f"malformed test function {expr!r}")
    if head == "sin":
        params = {}
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq or key not in ("omega", "phase"):
                raise ValueError(f"malformed sinusoid parameter {item!r}")
            if key in params:
                raise ValueError(f"sinusoid parameter {key} is given twice")
            params[key] = float(val)
        if "omega" not in params:
            raise ValueError("sinusoid needs omega=")
        return Sinusoid(**params)
    coeffs = tuple(float(c) for c in rest.split(","))
    if head == "poly":
        return Polynomial(coeffs)
    if head == "altpoly":
        return ModulatedAlternating(coeffs)
    raise ValueError(f"unknown test function family {head!r}")


def make_signal(fn, h: float, points: int) -> SampledSignal:
    """Sample a test function on an equidistant grid with its origin at the
    center, index points // 2: fn.sample at the grid indices
    m = -origin..points-1-origin. A sample that overflows to inf or NaN is
    left to SampledSignal to reject."""
    if points < 2:
        raise ValueError("need at least two points")
    origin = points // 2
    with np.errstate(over="ignore", invalid="ignore"):
        samples = fn.sample(np.arange(-origin, points - origin), h)
    return SampledSignal(h=h, samples=samples, origin=origin)


@dataclass(frozen=True)
class ConvergenceStudy:
    points: tuple[tuple[float, float], ...]
    slope: float | None
    exact: bool


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
