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
from dataclasses import dataclass

import numpy as np

from .weights import (Stencil, StencilKind, central_first, central_second, half_point,
                      limit_coefficients, one_sided_first)

SKIPPED = "skipped"


class BoundaryError(IndexError):
    """A stencil offset fell outside the sampled range."""


@dataclass(frozen=True)
class SampledSignal:
    """Equidistant samples; index `origin` maps to x = 0."""

    h: float
    samples: tuple[float, ...]
    origin: int = 0

    def __post_init__(self):
        if not 0 < self.h < math.inf:
            raise ValueError(f"h={self.h} must be a positive finite float")
        if len(self.samples) < 2:
            raise ValueError("need at least two samples")
        if not 0 <= self.origin < len(self.samples):
            raise ValueError("origin must index into the samples")
        reach = max(self.origin, len(self.samples) - 1 - self.origin)
        if not math.isfinite(reach * self.h):
            raise ValueError(f"h={self.h}: x = {reach}*h at the far end overflows the floats")
        if not all(map(math.isfinite, self.samples)):
            index = next(i for i, v in enumerate(self.samples) if not math.isfinite(v))
            raise ValueError(f"sample {index} is {self.samples[index]}: samples must be finite")

    def __len__(self) -> int:
        return len(self.samples)

    def x(self, index: int) -> float:
        return (index - self.origin) * self.h


@dataclass(frozen=True)
class DerivativeResult:
    """Per-index derivative values; NaN where the policy says skipped."""

    values: np.ndarray
    policy: tuple[str, ...]
    order: int

    def defined(self, index: int) -> bool:
        return self.policy[index] != SKIPPED


class _CompiledRule:
    """Float view of a stencil, nodes ordered smallest |offset| first."""

    def __init__(self, nodes, prefactor, h_power, label):
        ordered = sorted(nodes, key=lambda ow: (abs(ow[0]), ow[0]))
        self.offsets = [o for o, _ in ordered]
        self.weights = [float(w) for _, w in ordered]
        self.scale = float(prefactor)
        self.h_power = h_power
        self.label = label
        self.min_offset = min(self.offsets)
        self.max_offset = max(self.offsets)

    @classmethod
    def from_stencil(cls, stencil: Stencil, label=None):
        return cls(
            stencil.nodes,
            stencil.prefactor,
            stencil.h_power,
            label or stencil.label(),
        )

    def mirrored(self, label):
        nodes = [(-o, -w) for o, w in zip(self.offsets, self.weights)]
        rule = _CompiledRule(nodes, 1, self.h_power, label)
        rule.scale = self.scale
        return rule

    def apply_range(self, samples: np.ndarray, start: int, stop: int, h: float) -> np.ndarray:
        """The rule at indices start..stop-1, all of whose sample indices
        must lie in the array; each index accumulates its nodes in the
        stored order, exactly as one scalar application would. Raises
        ValueError when h**h_power overflows or underflows to zero, or when
        a value leaves the floats."""
        try:
            divisor = h ** self.h_power
        except OverflowError:
            divisor = math.inf
        if not 0 < divisor < math.inf:
            raise ValueError(
                f"h={h} is out of range for {self.label}: "
                f"h**{self.h_power} must be a finite nonzero float"
            )
        total = np.zeros(stop - start)
        with np.errstate(over="ignore", invalid="ignore"):
            for o, w in zip(self.offsets, self.weights):
                total += w * samples[start + o:stop + o]
            values = (self.scale * total) / divisor
        if not np.isfinite(values).all():
            raise ValueError(f"h={h}: {self.label} values overflow the floats")
        return values


def _apply_spans(signal: SampledSignal, order: int, spans) -> DerivativeResult:
    """Each (rule, start, stop) span applied at indices start..stop-1; the
    indices no span covers are skipped (NaN)."""
    samples = np.asarray(signal.samples, dtype=float)
    values = np.full(len(signal), math.nan)
    policy = [SKIPPED] * len(signal)
    for rule, start, stop in spans:
        if start < stop:
            values[start:stop] = rule.apply_range(samples, start, stop, signal.h)
            policy[start:stop] = [rule.label] * (stop - start)
    return DerivativeResult(values=values, policy=tuple(policy), order=order)


def apply_stencil_at(signal: SampledSignal, stencil: Stencil, index: int) -> float:
    """Evaluate one stencil at one sample index."""
    rule = _CompiledRule.from_stencil(stencil)
    length = len(signal)
    missing = [index + o for o in rule.offsets if not 0 <= index + o < length]
    if missing:
        raise BoundaryError(f"stencil needs sample index {missing[0]}, outside 0..{length - 1}")
    samples = np.asarray(signal.samples, dtype=float)
    return float(rule.apply_range(samples, index, index + 1, signal.h)[0])


def apply_stencil(signal: SampledSignal, stencil: Stencil) -> DerivativeResult:
    """Apply a single stencil at every index where it fits."""
    rule = _CompiledRule.from_stencil(stencil)
    span = (rule, max(0, -rule.min_offset), len(signal) - max(0, rule.max_offset))
    return _apply_spans(signal, stencil.derivative_order, [span])


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
    central = _CompiledRule.from_stencil(central_stencil, f"central({n})")
    spans = [(central, n, length - n)]
    if order == 1:
        # forward below the central span, backward above it, as far as each
        # fits: a signal shorter than 2n+1 leaves a skipped middle
        forward = _CompiledRule.from_stencil(one_sided_first(n), f"forward({n})")
        backward = forward.mirrored(f"backward({n})")
        spans += [(forward, 0, min(n, length - n)), (backward, max(n, length - n), length)]
    return _apply_spans(signal, order, spans)


def _half_point_range(signal: SampledSignal, stencil: Stencil, start: int,
                      stop: int) -> np.ndarray:
    """1/(2h) * sum over the positive offsets k of w(k) * (f[i+k] - f[i-k])
    at indices start..stop-1, all of whose sample indices must lie in the
    signal; exact, with one rounding per value.

    The samples of the window are scaled by their common denominator S (a
    power of two) to exact ints F, the weights by theirs, D, to ints a(k),
    and h = hp/hq; each value is then the int quotient
    sum a(k) (F[i+k] - F[i-k]) * hq / (2 D S hp), which int true division
    rounds correctly. Raises ValueError when a value leaves the floats.
    """
    count = stop - start
    if count <= 0:
        return np.empty(0)
    positive = [(k, w) for k, w in stencil.nodes if k > 0]
    reach = max(k for k, _ in positive)
    ratios = [v.as_integer_ratio() for v in signal.samples[start - reach:stop + reach]]
    S = math.lcm(*{q for _, q in ratios})
    F = np.array([p * (S // q) for p, q in ratios], dtype=object)
    D = math.lcm(*(w.denominator for _, w in positive))
    total = np.zeros(count, dtype=object)
    for k, w in positive:
        a = w.numerator * (D // w.denominator)
        total += a * (F[reach + k:reach + k + count] - F[reach - k:reach - k + count])
    hp, hq = signal.h.as_integer_ratio()
    try:
        values = total * hq / (2 * D * S * hp)
    except OverflowError:
        raise ValueError(
            f"h={signal.h}: {stencil.label()} values overflow the floats") from None
    return values.astype(float)


def differentiate_half_point(signal: SampledSignal, n: int, index: int) -> float:
    """First derivative from the odd offsets only:
    1/(2h) * sum_m w(2m+1) * (f[index+2m+1] - f[index-2m-1]).

    Computed exactly (samples are dyadic rationals) and rounded once on
    return, so the first-moment cancellation on linear alternating
    envelopes is bit-exact.
    """
    stencil = half_point(n)
    reach = 2 * n - 1
    length = len(signal)
    for j in (index - reach, index + reach):
        if not 0 <= j < length:
            raise BoundaryError(
                f"stencil needs sample index {j}, outside 0..{length - 1}"
            )
    return float(_half_point_range(signal, stencil, index, index + 1)[0])


def differentiate_half_point_signal(signal: SampledSignal, n: int) -> DerivativeResult:
    """differentiate_half_point at every index where the odd-offset stencil
    fits; the 2n-1 indices at each edge are skipped (NaN)."""
    stencil = half_point(n)
    reach = 2 * n - 1
    length = len(signal)
    start = min(reach, length)
    stop = max(start, length - reach)
    values = np.full(length, math.nan)
    values[start:stop] = _half_point_range(signal, stencil, start, stop)
    policy = ((SKIPPED,) * start + (f"half-point({n})",) * (stop - start)
              + (SKIPPED,) * (length - stop))
    return DerivativeResult(values=values, policy=policy, order=1)


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

    def sample_node(self, m: int, h: float) -> float:
        return math.sin(self.omega * m * h + self.phase)

    def derivative(self, x: float, order: int, h: float | None = None) -> float:
        if order == 1:
            return self.omega * math.cos(self.omega * x + self.phase)
        return -(self.omega ** 2) * math.sin(self.omega * x + self.phase)


@dataclass(frozen=True)
class Polynomial:
    coeffs: tuple[float, ...]

    def sample_node(self, m: int, h: float) -> float:
        return _poly_eval(self.coeffs, m * h)

    def derivative(self, x: float, order: int, h: float | None = None) -> float:
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

    def envelope_derivative(self, x: float) -> float:
        return _poly_eval(_poly_diff(self.coeffs), x)

    def sample_node(self, m: int, h: float) -> float:
        carrier = -1.0 if m % 2 else 1.0
        return carrier * self.envelope(m * h)

    def derivative(self, x: float, order: int, h: float | None = None) -> float:
        # derivative of cos(pi x / h) g(x) evaluated on the grid
        if h is None:
            raise ValueError("modulated test functions need the grid spacing h")
        m = round(x / h)
        carrier = -1.0 if m % 2 else 1.0
        if order == 1:
            return carrier * self.envelope_derivative(x)
        g2 = _poly_eval(_poly_diff(_poly_diff(self.coeffs)), x)
        return carrier * (g2 - (math.pi / h) ** 2 * self.envelope(x))


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


def make_signal(fn, h: float, points: int, origin: int | None = None) -> SampledSignal:
    """Sample a test function on an equidistant grid (origin at the center
    by default)."""
    if points < 2:
        raise ValueError("need at least two points")
    if origin is None:
        origin = points // 2
    samples = tuple(fn.sample_node(i - origin, h) for i in range(points))
    return SampledSignal(h=h, samples=samples, origin=origin)


@dataclass(frozen=True)
class ConvergenceStudy:
    points: tuple[tuple[float, float], ...]
    slope: float | None
    exact: bool


_EXACT_FLOOR = 1e-12


def convergence_study(fn, n: int, order: int, h_list) -> ConvergenceStudy:
    """Error of the interior derivative at the origin for each h, with the
    least-squares slope of log(error) vs log(h).

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
        want = fn.derivative(0.0, order, h)
        points.append((h, abs(got - want)))
    errors = [e for _, e in points]
    if max(errors) <= _EXACT_FLOOR:
        return ConvergenceStudy(points=tuple(points), slope=None, exact=True)
    logs = np.log([max(e, 1e-300) for e in errors])
    slope = float(np.polyfit(np.log(h_list), logs, 1)[0])
    return ConvergenceStudy(points=tuple(points), slope=slope, exact=False)
