"""Finite-difference weight families in exact rational arithmetic.

All generators return weights as `fractions.Fraction` (always reduced,
positive denominator), so every stated identity can be checked bit-exactly.
Floating point enters only when a consumer converts a weight for evaluation
(`limit_coefficients` is that conversion for the infinite-family limits).

The module imports without numpy: only `limit_coefficients` needs it and
imports it when called. It also holds the names that the CLI parses with
(`CurveFamily`, `EmbeddingMode`), so that `stencil` and `verify` start
without numpy; `spectra` re-exports them. Its records are plain frozen classes (`_Record`), not
dataclasses: importing `dataclasses`, and the `inspect` it loads, took
about half of this module's import time.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from functools import cached_property
from fractions import Fraction


# the weight of an absent offset, shared: Fractions are immutable
_ZERO = Fraction(0)


class StencilFormatError(ValueError):
    """A stencil dict (e.g. a parsed JSON file) does not describe a stencil."""


class StencilKind(Enum):
    CENTRAL_FIRST = "central-first"
    CENTRAL_SECOND = "central-second"
    HALF_POINT_FIRST = "half-point-first"
    ONE_SIDED_FIRST = "one-sided-first"
    ONE_SIDED_NTH = "one-sided-nth"


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


class _Record:
    """A frozen record, as a frozen dataclass would make it: the fields,
    `_fields` in constructor order, are set once by `_init`; setting or
    deleting an attribute raises AttributeError; equality and the hash are
    field-wise within one class, and the repr is the dataclass form."""

    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values, strict=True))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A new record with the given fields changed, validated as the
        constructor validates one."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


class Stencil(_Record):
    """A derivative-approximation rule on integer grid offsets.

    The rule reads: d^order f / dx^order at the anchor point is approximated
    by  prefactor / h**order * sum_m weights[m] * f[anchor + offsets[m]],
    where order is derivative_order: a rule for the d-th derivative divides
    by h**d. Only nonzero weights are stored; absent offsets count as zero.
    """

    _fields = ("kind", "n", "derivative_order", "offsets", "weights", "prefactor")

    def __init__(self, kind: StencilKind, n: int, derivative_order: int,
                 offsets: tuple[int, ...], weights: tuple[Fraction, ...], prefactor: Fraction):
        if len(offsets) != len(weights):
            raise ValueError("offsets and weights must have equal length")
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ValueError("offsets must be strictly increasing")
        if derivative_order < 0:
            raise ValueError("derivative_order must be >= 0")
        self._init(kind, n, derivative_order, offsets, weights, prefactor)

    @property
    def nodes(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(zip(self.offsets, self.weights))

    @cached_property
    def _weight_by_offset(self) -> dict[int, Fraction]:
        return dict(zip(self.offsets, self.weights))

    def weight_at(self, offset: int) -> Fraction:
        return self._weight_by_offset.get(offset, _ZERO)

    def label(self) -> str:
        return f"{self.kind.value}(n={self.n})"


def harmonic_number(n: int) -> Fraction:
    """Exact n-th harmonic number sum(1/m, m=1..n): one integer sum of the
    terms L/m over L = lcm(1..n), normalised once by one Fraction, where a
    term-by-term Fraction sum would normalise after every term."""
    if n < 0:
        raise ValueError("n must be >= 0")
    common = math.lcm(*range(1, n + 1))
    return Fraction(sum(common // m for m in range(1, n + 1)), common)


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


def _mirrored(kind: StencilKind, n: int, order: int, offsets, positive, center=None) -> Stencil:
    """A central family's stencil from its positive half, the offsets > 0
    ascending and their weights: the negative half mirrors it, negated for
    the first derivative (antisymmetric) and as it is for the second
    (symmetric), with the center weight at offset 0 if one is given. The
    rule divides the sum by 2h for the first derivative and by h**2 for the
    second."""
    left = tuple(-o for o in reversed(offsets))
    mirror = tuple(-w if order == 1 else w for w in reversed(positive))
    if center is not None:
        left, mirror = left + (0,), mirror + (center,)
    return Stencil(
        kind=kind,
        n=n,
        derivative_order=order,
        offsets=left + tuple(offsets),
        weights=mirror + tuple(positive),
        prefactor=Fraction(1, 2) if order == 1 else Fraction(1),
    )


def central_first(n: int) -> Stencil:
    """Central first-derivative weights for offsets -n..-1, 1..n.

    The weight at offset m >= 1 is the closed form
    (-1)**(m+1) * 2 (n!)**2 / (m (n-m)! (n+m)!), which satisfies the odd
    moment conditions sum_m w_m * m**(2j+1) = delta(j, 0) for j = 0..n-1;
    the negative side is the antisymmetric mirror.  Evaluation rule:
    1/(2h) * sum w_m (f_m - f_-m).
    """
    return _mirrored(StencilKind.CENTRAL_FIRST, n, 1, range(1, n + 1), _central_alpha(n, 1))


def central_second(n: int) -> Stencil:
    """Central second-derivative weights for offsets -n..n.

    The weight at offset m >= 1 is the closed form
    (-1)**(m+1) * 2 (n!)**2 / (m**2 (n-m)! (n+m)!), which satisfies the even
    moment conditions sum_m w_m * m**(2j) = delta(j, 1) for j = 1..n; the
    center weight is -2 * sum of the positive-side weights, one integer sum
    over their common denominator lcm(1..n)**2 C(2n, n) normalised once, and
    the negative side mirrors symmetrically.  Evaluation rule: 1/h**2 * sum
    over all offsets.
    """
    alpha = _central_alpha(n, 2)
    common = math.lcm(*range(1, n + 1))
    center = Fraction(
        -4 * sum((-1) ** (m + 1) * math.comb(2 * n, n + m) * (common // m) ** 2
                 for m in range(1, n + 1)),
        common * common * math.comb(2 * n, n))
    return _mirrored(StencilKind.CENTRAL_SECOND, n, 2, range(1, n + 1), alpha, center=center)


def half_point(n: int) -> Stencil:
    """First-derivative weights using only the odd offsets +-1, +-3, ...

    The paper's weight at offset 2m+1, 1 / ((2m+1) * prod over k != m of
    (1 - (2m+1)**2 / (2k+1)**2)), in closed form: (-1)**m * 2n C(2n, n)
    C(2n-1, n+m) / (4**(2n-1) (2m+1)**2), m = 0..n-1, mirrored
    antisymmetrically.  Even offsets carry weight zero and are not stored.
    Evaluation rule matches central_first: 1/(2h) * sum over stored offsets.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    top = 2 * n * math.comb(2 * n, n)
    bottom = 4 ** (2 * n - 1)
    positive = [
        Fraction((-1) ** m * top * math.comb(2 * n - 1, n + m), bottom * (2 * m + 1) ** 2)
        for m in range(n)
    ]
    return _mirrored(StencilKind.HALF_POINT_FIRST, n, 1, range(1, 2 * n, 2), positive)


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
        prefactor=Fraction(fact),
    )


def limit_coefficients(kind: StencilKind, stop: int, start: int = 0, scale: float = 1.0):
    """Offsets (int64) and float coefficients scale * weight of the terms
    j = start..stop-1 of an infinite-family weight sequence:

    central-first: offset m = j+1, weight (-1)**(m+1) * 2 / m
    central-second: offset m = j+1, weight (-1)**(m+1) * 2 / m**2
    half-point-first: offset 2j+1, weight (-1)**j * 4 / ((2j+1)**2 * pi)

    Each coefficient is scale * numerator / denominator rounded once, then
    over pi for the half-point family. (-1)**j is read from the low bit of
    j; the offsets and denominators are floats, exact below 2**53, where
    int64 squares would wrap.
    """
    import numpy as np  # here, so that the exact layer imports without it

    j = np.arange(start, stop)
    sign = 1 - 2 * (j & 1)
    j = j.astype(float)
    if kind is StencilKind.HALF_POINT_FIRST:
        offsets = 2 * j + 1
        return offsets.astype(np.int64), (scale * (4 * sign)) / (offsets * offsets) / math.pi
    offsets = j + 1
    if kind is StencilKind.CENTRAL_FIRST:
        denominators = offsets
    elif kind is StencilKind.CENTRAL_SECOND:
        denominators = offsets * offsets
    else:
        raise ValueError(f"{kind.value} has no infinite-family limit")
    return offsets.astype(np.int64), (scale * (2 * sign)) / denominators


_KIND_BUILDERS = {
    StencilKind.CENTRAL_FIRST: central_first,
    StencilKind.CENTRAL_SECOND: central_second,
    StencilKind.HALF_POINT_FIRST: half_point,
    StencilKind.ONE_SIDED_FIRST: one_sided_first,
    StencilKind.ONE_SIDED_NTH: one_sided_nth,
}


def reach(kind: StencilKind, n: int) -> int:
    """The largest offset of build(kind, n), found without building it:
    2n - 1 for the half-point family, whose offsets are the odd numbers
    up to it, and n for every other family."""
    return 2 * n - 1 if kind is StencilKind.HALF_POINT_FIRST else n


def build(kind: StencilKind, n: int) -> Stencil:
    """Generate the stencil of the given kind and family parameter n."""
    return _KIND_BUILDERS[kind](n)


def stencil_to_dict(stencil: Stencil) -> dict:
    """JSON-ready form with weights as exact fraction strings; h_power, the
    power of h the rule divides by, is the derivative_order. A weight with
    more digits than Python converts to a string is a ValueError naming its
    offset (a built stencil's prefactor is never longer than its weights)."""
    nodes = []
    for o, w in stencil.nodes:
        try:
            nodes.append({"offset": o, "weight": str(w)})
        except ValueError:  # Python's int-to-str digit limit
            raise ValueError(f"{stencil.label()}: the weight at offset {o} has more "
                             "digits than Python prints exactly") from None
    return {
        "kind": stencil.kind.value,
        "n": stencil.n,
        "derivative_order": stencil.derivative_order,
        "h_power": stencil.derivative_order,
        "prefactor": str(stencil.prefactor),
        "nodes": nodes,
    }


def _parse_field(parse, value, field: str):
    """parse(value): int reads a JSON integer or its text, Fraction a JSON
    number or a rational's text. Anything else, a boolean included, is a
    ValueError naming the field, as is a value with more digits than
    Python's int-from-str limit lets it read."""
    if parse is int:
        valid = type(value) is int or (
            isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value) is not None)
    else:
        valid = type(value) in (int, float, str)
    if valid:
        try:
            return parse(value)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            if "integer string conversion" in str(exc):
                raise ValueError(f"{field} has more digits than Python reads exactly") from None
    raise ValueError(f"{field} is not {'an integer' if parse is int else 'a rational'}")


def stencil_from_dict(data: dict) -> Stencil:
    """Inverse of stencil_to_dict; reconstruction is bit-exact.

    Raises StencilFormatError when data is not an object, lacks a key, has
    no nodes, or holds a field that does not parse: offsets, n,
    derivative_order and h_power must be integers, weights and prefactor
    rationals with a nonzero denominator, and none a boolean. A field that
    does not parse is named, a weight by its offset. The h_power, the power
    of h a rule divides by, must equal the derivative_order.
    """
    if not isinstance(data, dict):
        raise StencilFormatError(f"stencil must be an object, not {type(data).__name__}")
    try:
        nodes = []
        for i, d in enumerate(data["nodes"]):
            o = _parse_field(int, d["offset"], f"the offset of node {i}")
            nodes.append((o, _parse_field(Fraction, d["weight"], f"the weight at offset {o}")))
        nodes.sort()
        number = {key: _parse_field(int, data[key], f"the {key}")
                  for key in ("n", "derivative_order", "h_power")}
        if number.pop("h_power") != number["derivative_order"]:
            raise ValueError("the h_power must equal the derivative_order")
        stencil = Stencil(
            kind=StencilKind(data["kind"]),
            offsets=tuple(o for o, _ in nodes),
            weights=tuple(w for _, w in nodes),
            prefactor=_parse_field(Fraction, data["prefactor"], "the prefactor"),
            **number,
        )
    except KeyError as exc:
        raise StencilFormatError(f"stencil is missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise StencilFormatError(f"malformed stencil: {exc}") from None
    if not stencil.offsets:
        raise StencilFormatError("stencil has no nodes")
    return stencil
