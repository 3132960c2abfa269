"""Finite-difference weight families in exact rational arithmetic.

All generators return weights as `fractions.Fraction` (always reduced,
positive denominator), so every stated identity can be checked bit-exactly.
Floating point enters only when a consumer converts a weight for evaluation
(`limit_coefficients` is that conversion for the infinite-family limits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np


class StencilFormatError(ValueError):
    """A stencil dict (e.g. a parsed JSON file) does not describe a stencil."""


class StencilKind(Enum):
    CENTRAL_FIRST = "central-first"
    CENTRAL_SECOND = "central-second"
    HALF_POINT_FIRST = "half-point-first"
    ONE_SIDED_FIRST = "one-sided-first"
    ONE_SIDED_NTH = "one-sided-nth"


@dataclass(frozen=True)
class Stencil:
    """A derivative-approximation rule on integer grid offsets.

    The rule reads: d^order f / dx^order at the anchor point is approximated
    by  prefactor / h**h_power * sum_m weights[m] * f[anchor + offsets[m]].
    Only nonzero weights are stored; absent offsets count as zero.
    """

    kind: StencilKind
    n: int
    derivative_order: int
    offsets: tuple[int, ...]
    weights: tuple[Fraction, ...]
    h_power: int
    prefactor: Fraction

    def __post_init__(self):
        if len(self.offsets) != len(self.weights):
            raise ValueError("offsets and weights must have equal length")
        if any(b <= a for a, b in zip(self.offsets, self.offsets[1:])):
            raise ValueError("offsets must be strictly increasing")
        if self.derivative_order < 0 or self.h_power < 0:
            raise ValueError("derivative_order and h_power must be >= 0")

    @property
    def nodes(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(zip(self.offsets, self.weights))

    def weight_at(self, offset: int) -> Fraction:
        for o, w in zip(self.offsets, self.weights):
            if o == offset:
                return w
        return Fraction(0)

    def label(self) -> str:
        return f"{self.kind.value}(n={self.n})"


@dataclass(frozen=True)
class LimitWeight:
    """One coefficient of an infinite-family weight sequence.

    The numeric value is rational_part * pi**pi_power; the pi factor is kept
    symbolic so the half-point limit stays exact until evaluation.
    """

    index: int
    rational_part: Fraction
    pi_power: int = 0

    def __post_init__(self):
        if self.pi_power not in (0, -1):
            raise ValueError("pi_power must be 0 or -1")

    def value(self) -> float:
        if self.pi_power == 0:
            return float(self.rational_part)
        return float(self.rational_part) / math.pi


def harmonic_number(n: int) -> Fraction:
    """Exact n-th harmonic number sum(1/m, m=1..n)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum((Fraction(1, m) for m in range(1, n + 1)), Fraction(0))


def _central_alpha(n: int, k: int) -> list[Fraction]:
    """Positive-side central weights (-1)**(m+1) * 2 (n!)**2 /
    (m**k (n-m)! (n+m)!) for m = 1..n; k = 1 first, k = 2 second derivative."""
    if n < 1:
        raise ValueError("n must be >= 1")
    middle = math.comb(2 * n, n)
    return [
        Fraction((-1) ** (m + 1) * 2 * math.comb(2 * n, n + m), m ** k * middle)
        for m in range(1, n + 1)
    ]


def central_first(n: int) -> Stencil:
    """Central first-derivative weights for offsets -n..-1, 1..n.

    The weight at offset m >= 1 is the closed form
    (-1)**(m+1) * 2 (n!)**2 / (m (n-m)! (n+m)!), which satisfies the odd
    moment conditions sum_m w_m * m**(2j+1) = delta(j, 0) for j = 0..n-1;
    the negative side is the antisymmetric mirror.  Evaluation rule:
    1/(2h) * sum w_m (f_m - f_-m).
    """
    alpha = _central_alpha(n, 1)
    offsets = tuple(range(-n, 0)) + tuple(range(1, n + 1))
    weights = tuple(-alpha[-m - 1] for m in range(-n, 0)) + tuple(alpha)
    return Stencil(
        kind=StencilKind.CENTRAL_FIRST,
        n=n,
        derivative_order=1,
        offsets=offsets,
        weights=weights,
        h_power=1,
        prefactor=Fraction(1, 2),
    )


def central_second(n: int) -> Stencil:
    """Central second-derivative weights for offsets -n..n.

    The weight at offset m >= 1 is the closed form
    (-1)**(m+1) * 2 (n!)**2 / (m**2 (n-m)! (n+m)!), which satisfies the even
    moment conditions sum_m w_m * m**(2j) = delta(j, 1) for j = 1..n; the
    center weight is -2 * sum of the positive-side weights and the negative
    side mirrors symmetrically.  Evaluation rule: 1/h**2 * sum over all
    offsets.
    """
    alpha = _central_alpha(n, 2)
    center = -2 * sum(alpha)
    offsets = tuple(range(-n, n + 1))
    weights = (
        tuple(alpha[-m - 1] for m in range(-n, 0))
        + (center,)
        + tuple(alpha)
    )
    return Stencil(
        kind=StencilKind.CENTRAL_SECOND,
        n=n,
        derivative_order=2,
        offsets=offsets,
        weights=weights,
        h_power=2,
        prefactor=Fraction(1),
    )


def half_point(n: int) -> Stencil:
    """First-derivative weights using only the odd offsets +-1, +-3, ...

    Weight at offset 2m+1 is 1 / ((2m+1) * p) where p is the exact product
    over k != m of (1 - (2m+1)**2 / (2k+1)**2).  Even offsets carry weight
    zero and are not stored.  Evaluation rule matches central_first:
    1/(2h) * sum over stored offsets.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    positive = []
    for m in range(n):
        prod = Fraction(1)
        for k in range(n):
            if k != m:
                prod *= 1 - Fraction((2 * m + 1) ** 2, (2 * k + 1) ** 2)
        positive.append(Fraction(1, 2 * m + 1) / prod)
    offsets = tuple(-(2 * m + 1) for m in reversed(range(n)))
    offsets += tuple(2 * m + 1 for m in range(n))
    weights = tuple(-w for w in reversed(positive)) + tuple(positive)
    return Stencil(
        kind=StencilKind.HALF_POINT_FIRST,
        n=n,
        derivative_order=1,
        offsets=offsets,
        weights=weights,
        h_power=1,
        prefactor=Fraction(1, 2),
    )


def one_sided_first(n: int) -> Stencil:
    """One-sided first-derivative weights on offsets 0..n.

    Weight at offset m >= 1 is (-1)**(m+1) * C(n, m) / m; the weight at 0 is
    the negated harmonic number so the weights sum to zero.  Evaluation
    rule: 1/h * sum.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    weights = [-harmonic_number(n)]
    for m in range(1, n + 1):
        weights.append(Fraction((-1) ** (m + 1) * math.comb(n, m), m))
    return Stencil(
        kind=StencilKind.ONE_SIDED_FIRST,
        n=n,
        derivative_order=1,
        offsets=tuple(range(n + 1)),
        weights=tuple(weights),
        h_power=1,
        prefactor=Fraction(1),
    )


def one_sided_nth(n: int) -> Stencil:
    """n-th-derivative weights on offsets 0..n (alternating binomial row).

    Weight at offset m is (-1)**(m+n) * C(n, m) / n!; with the stored
    prefactor n! the rule reduces to the n-th forward difference / h**n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    fact = math.factorial(n)
    weights = tuple(
        Fraction((-1) ** (m + n) * math.comb(n, m), fact) for m in range(n + 1)
    )
    return Stencil(
        kind=StencilKind.ONE_SIDED_NTH,
        n=n,
        derivative_order=n,
        offsets=tuple(range(n + 1)),
        weights=weights,
        h_power=n,
        prefactor=Fraction(fact),
    )


def product_form_one_sided(m: int, n: int) -> Fraction:
    """One-sided first-derivative weight at offset m via the product form
    1 / (m * prod over k != m of (1 - m/k)); equals one_sided_first(n)'s
    weight at m."""
    if not 1 <= m <= n:
        raise ValueError("require 1 <= m <= n")
    prod = Fraction(1)
    for k in range(1, n + 1):
        if k != m:
            prod *= 1 - Fraction(m, k)
    return 1 / (Fraction(m) * prod)


def _limit_term(kind: StencilKind, j):
    """Term j >= 0 of an infinite-family weight sequence as (offset, signed
    numerator, denominator); j may be an int or an array of whole numbers.

    central-first: offset m = j+1, weight (-1)**(m+1) * 2 / m
    central-second: offset m = j+1, weight (-1)**(m+1) * 2 / m**2
    half-point-first: offset 2j+1, weight (-1)**j * 4 / ((2j+1)**2 * pi),
    whose 1/pi is left to the caller.
    """
    sign = 1 - 2 * (j % 2)  # (-1)**j without a power per term
    if kind is StencilKind.HALF_POINT_FIRST:
        odd = 2 * j + 1
        return odd, 4 * sign, odd * odd
    m = j + 1
    if kind is StencilKind.CENTRAL_FIRST:
        return m, 2 * sign, m
    if kind is StencilKind.CENTRAL_SECOND:
        return m, 2 * sign, m * m
    raise ValueError(f"{kind.value} has no infinite-family limit")


def limit_coefficients(kind: StencilKind, stop: int, start: int = 0, scale: float = 1.0):
    """Offsets and float coefficients scale * numerator / denominator of the
    infinite-family terms j = start..stop-1 (see _limit_term), as arrays.

    With scale = 1 each coefficient is the correctly rounded weight; the
    half-point family still lacks its factor 1/pi.
    """
    # float terms are exact below 2**53, where int64 squares would wrap
    offsets, numerators, denominators = _limit_term(kind, np.arange(start, stop, dtype=float))
    return offsets.astype(np.int64), (scale * numerators) / denominators


def _limit_weight(kind: StencilKind, j: int, pi_power: int = 0) -> LimitWeight:
    offset, numerator, denominator = _limit_term(kind, j)
    return LimitWeight(
        index=offset, rational_part=Fraction(numerator, denominator), pi_power=pi_power
    )


def central_first_limit(m: int) -> LimitWeight:
    """Infinite-family central first-derivative coefficient (-1)**(m+1)*2/m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _limit_weight(StencilKind.CENTRAL_FIRST, m - 1)


def central_second_limit(m: int) -> LimitWeight:
    """Infinite-family central second-derivative coefficient (-1)**(m+1)*2/m**2."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _limit_weight(StencilKind.CENTRAL_SECOND, m - 1)


def half_point_limit(m: int) -> LimitWeight:
    """Infinite-family half-point coefficient at odd offset 2m+1:
    (-1)**m * 4 / ((2m+1)**2 * pi), kept exact as rational_part / pi."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return _limit_weight(StencilKind.HALF_POINT_FIRST, m, pi_power=-1)


_KIND_BUILDERS = {
    StencilKind.CENTRAL_FIRST: central_first,
    StencilKind.CENTRAL_SECOND: central_second,
    StencilKind.HALF_POINT_FIRST: half_point,
    StencilKind.ONE_SIDED_FIRST: one_sided_first,
    StencilKind.ONE_SIDED_NTH: one_sided_nth,
}


def build(kind: StencilKind, n: int) -> Stencil:
    """Generate the stencil of the given kind and family parameter n."""
    return _KIND_BUILDERS[kind](n)


def stencil_to_dict(stencil: Stencil) -> dict:
    """JSON-ready form with weights as exact fraction strings."""
    return {
        "kind": stencil.kind.value,
        "n": stencil.n,
        "derivative_order": stencil.derivative_order,
        "h_power": stencil.h_power,
        "prefactor": str(stencil.prefactor),
        "nodes": [
            {"offset": o, "weight": str(w)} for o, w in stencil.nodes
        ],
    }


def stencil_from_dict(data: dict) -> Stencil:
    """Inverse of stencil_to_dict; reconstruction is bit-exact.

    Raises StencilFormatError when data is not an object, lacks a key, has
    no nodes, or holds a field that does not parse (weights and prefactor
    must be rationals with a nonzero denominator).
    """
    if not isinstance(data, dict):
        raise StencilFormatError(f"stencil must be an object, not {type(data).__name__}")
    try:
        nodes = sorted((int(d["offset"]), Fraction(d["weight"])) for d in data["nodes"])
        stencil = Stencil(
            kind=StencilKind(data["kind"]),
            n=int(data["n"]),
            derivative_order=int(data["derivative_order"]),
            offsets=tuple(o for o, _ in nodes),
            weights=tuple(w for _, w in nodes),
            h_power=int(data["h_power"]),
            prefactor=Fraction(data["prefactor"]),
        )
    except KeyError as exc:
        raise StencilFormatError(f"stencil is missing key {exc}") from None
    except ZeroDivisionError:
        raise StencilFormatError("stencil has a rational with denominator 0") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise StencilFormatError(f"malformed stencil: {exc}") from None
    if not stencil.offsets:
        raise StencilFormatError("stencil has no nodes")
    return stencil
