"""Finite-difference weight families in exact rational arithmetic.

Each family has one generator on integers (`weight_pairs`): it returns
the family's weights as reduced integer pairs (numerator, positive
denominator) and its prefactor as a pair. A `Stencil` holds such pairs,
and `build` hands them over as they are; a stencil turns them into
`fractions.Fraction`s, one per distinct pair, only when its `weights` or
`prefactor` is first read, so every stated identity can still be checked
bit-exactly; `stencil_pairs` reads any stencil's pairs without making one.
The CLI, `oracle`, `spectra` and `signals` read the pairs, so no command
makes a `Fraction`, and the module imports `fractions` only where it hands
one out or reads a rational's text. Floating point enters only when a
consumer converts a weight for evaluation, as a / b, which Python rounds
correctly (`limit_coefficients` is that conversion for the
infinite-family limits).

The module imports without numpy: only `limit_coefficients` needs it and
imports it when called. It also holds the names that the CLI parses and
checks with before numpy loads: `CurveFamily`, `EmbeddingMode`, `reach`,
`check_embedding`, `EmbeddingOverflowError` and `ReferenceCurve`, whose h
rule reads no array; `spectra` passes all but `reach` and
`check_embedding` through. Its records are plain
frozen classes (`_Record`), not dataclasses: importing `dataclasses`, and
the `inspect` it loads, took about half of this module's import time.
`_Record` is the package's one record type: the test functions of
`sampling` and the records of `spectra`, `signals` and `tableblocks`
subclass it too, so no command loads `dataclasses`.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from functools import cached_property


class StencilFormatError(ValueError):
    """A stencil dict (e.g. a parsed JSON file) does not describe a stencil."""


class EmbeddingOverflowError(ValueError):
    """A weight sequence reaches past a length-N DFT embedding (|m| >= N/2)."""


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
    """The base of every record of the package.

    A frozen record, as a frozen dataclass would make it: the fields,
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

    A stencil holds its weights and prefactor as reduced integer pairs
    (numerator, positive denominator), the form of `weight_pairs`, and makes
    `weights` and `prefactor` when each is first read: one `Fraction` per
    distinct pair, so a symmetric mirror holds its positive side's objects.
    The constructor reads a rational weight or prefactor (a Fraction or an
    int) by as_integer_ratio, and takes a pair as it is: a pair must be
    reduced, with a positive denominator, as `weight_pairs` makes them.
    """

    _fields = ("kind", "n", "derivative_order", "offsets", "weights", "prefactor")

    def __init__(self, kind: StencilKind, n: int, derivative_order: int,
                 offsets: tuple[int, ...], weights: tuple[Fraction | tuple[int, int], ...],
                 prefactor: Fraction | tuple[int, int]):
        if len(offsets) != len(weights):
            raise ValueError("offsets and weights must have equal length")
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ValueError("offsets must be strictly increasing")
        if derivative_order < 0:
            raise ValueError("derivative_order must be >= 0")
        self.__dict__.update(kind=kind, n=n, derivative_order=derivative_order, offsets=offsets,
                             _pairs=tuple(map(_pair, weights)), _prefactor_pair=_pair(prefactor))

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        from fractions import Fraction

        made = {pair: Fraction(*pair) for pair in dict.fromkeys(self._pairs)}
        return tuple(map(made.__getitem__, self._pairs))

    @cached_property
    def prefactor(self) -> Fraction:
        from fractions import Fraction

        return Fraction(*self._prefactor_pair)

    @property
    def nodes(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(zip(self.offsets, self.weights))

    @cached_property
    def _weight_by_offset(self) -> dict[int, Fraction]:
        return dict(zip(self.offsets, self.weights))

    def weight_at(self, offset: int) -> Fraction:
        """The weight at offset; Fraction(0) at an offset not stored."""
        weight = self._weight_by_offset.get(offset)
        if weight is None:
            from fractions import Fraction

            weight = Fraction(0)
        return weight

    def label(self) -> str:
        return stencil_label(self.kind, self.n)


def _pair(value) -> tuple[int, int]:
    """A Stencil's weight or prefactor as its pair: a pair as it is, a
    rational by as_integer_ratio."""
    return value if type(value) is tuple else value.as_integer_ratio()


class ReferenceCurve(_Record):
    """An analytic curve, evaluated by `spectra`; an index curve takes N
    where it is evaluated. h must be positive, and pi/h, (pi/h)**2 and
    h**3, the largest magnitudes the curves and the omega grid form, must
    be finite."""

    _fields = ("family", "h")

    def __init__(self, family: CurveFamily, h: float = 1.0):
        if h <= 0:
            raise ValueError("h must be positive")
        try:
            nyquist = math.pi / h
            finite = all(map(math.isfinite, (nyquist, nyquist ** 2, h ** 3)))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(
                f"h={h} overflows the curves: pi/h, (pi/h)**2 and h**3 must be finite")
        self._init(family, h)


def _reduced(a: int, b: int) -> tuple[int, int]:
    """a / b (b > 0) in lowest terms, the pair Fraction(a, b) holds."""
    g = math.gcd(a, b)
    return a // g, b // g


def _harmonic(n: int) -> tuple[int, int]:
    """The n-th harmonic number sum(1/m, m=1..n) as a reduced pair: one
    integer sum of the terms L/m over L = lcm(1..n), reduced once, where a
    term-by-term Fraction sum would normalise after every term."""
    common = math.lcm(*range(1, n + 1))
    return _reduced(sum(common // m for m in range(1, n + 1)), common)


def harmonic_number(n: int) -> Fraction:
    """Exact n-th harmonic number sum(1/m, m=1..n) (`_harmonic`)."""
    from fractions import Fraction

    if n < 0:
        raise ValueError("n must be >= 0")
    return Fraction(*_harmonic(n))


# the generators of `weight_pairs`, one per family, for n >= 1


def _central_alpha(n: int, k: int) -> list[tuple[int, int]]:
    """Positive-side central weights (-1)**(m+1) * 2 (n!)**2 /
    (m**k (n-m)! (n+m)!) for m = 1..n; k = 1 first, k = 2 second derivative."""
    middle = math.comb(2 * n, n)
    return [_reduced((-1) ** (m + 1) * 2 * math.comb(2 * n, n + m), m ** k * middle)
            for m in range(1, n + 1)]


def _mirrored(order: int, offsets, positive, center=None) -> tuple:
    """A central family's rule from its positive half, the offsets > 0
    ascending and their pairs: the negative half mirrors it, negated for
    the first derivative (antisymmetric) and as the same pairs for the
    second (symmetric), with the center pair at offset 0 if one is given.
    The rule divides the sum by 2h for the first derivative and by h**2
    for the second."""
    left = [-o for o in reversed(offsets)]
    mirror = [(-a, b) for a, b in reversed(positive)] if order == 1 else positive[::-1]
    if center is not None:
        left.append(0)
        mirror.append(center)
    return order, (*left, *offsets), mirror + positive, (1, 2) if order == 1 else (1, 1)


def _central_first(n: int) -> tuple:
    return _mirrored(1, range(1, n + 1), _central_alpha(n, 1))


def _central_second(n: int) -> tuple:
    positive = _central_alpha(n, 2)
    common = math.lcm(*range(1, n + 1))
    center = _reduced(
        -4 * sum((-1) ** (m + 1) * math.comb(2 * n, n + m) * (common // m) ** 2
                 for m in range(1, n + 1)),
        common * common * math.comb(2 * n, n))
    return _mirrored(2, range(1, n + 1), positive, center)


def _half_point(n: int) -> tuple:
    top = 2 * n * math.comb(2 * n, n)
    bottom = 4 ** (2 * n - 1)
    positive = [
        _reduced((-1) ** m * top * math.comb(2 * n - 1, n + m), bottom * (2 * m + 1) ** 2)
        for m in range(n)
    ]
    return _mirrored(1, range(1, 2 * n, 2), positive)


def _one_sided_first(n: int) -> tuple:
    a, b = _harmonic(n)
    pairs = [(-a, b)]
    pairs += [_reduced((-1) ** (m + 1) * math.comb(n, m), m) for m in range(1, n + 1)]
    return 1, tuple(range(n + 1)), pairs, (1, 1)


def _one_sided_nth(n: int) -> tuple:
    fact = math.factorial(n)
    pairs = [_reduced((-1) ** (m + n) * math.comb(n, m), fact) for m in range(n + 1)]
    return n, tuple(range(n + 1)), pairs, (fact, 1)


def central_first(n: int) -> Stencil:
    """Central first-derivative weights for offsets -n..-1, 1..n.

    The weight at offset m >= 1 is the closed form
    (-1)**(m+1) * 2 (n!)**2 / (m (n-m)! (n+m)!), which satisfies the odd
    moment conditions sum_m w_m * m**(2j+1) = delta(j, 0) for j = 0..n-1;
    the negative side is the antisymmetric mirror.  Evaluation rule:
    1/(2h) * sum w_m (f_m - f_-m).
    """
    return build(StencilKind.CENTRAL_FIRST, n)


def central_second(n: int) -> Stencil:
    """Central second-derivative weights for offsets -n..n.

    The weight at offset m >= 1 is the closed form
    (-1)**(m+1) * 2 (n!)**2 / (m**2 (n-m)! (n+m)!), which satisfies the even
    moment conditions sum_m w_m * m**(2j) = delta(j, 1) for j = 1..n; the
    center weight is -2 * sum of the positive-side weights, one integer sum
    over their common denominator lcm(1..n)**2 C(2n, n) reduced once, and
    the negative side mirrors symmetrically.  Evaluation rule: 1/h**2 * sum
    over all offsets.
    """
    return build(StencilKind.CENTRAL_SECOND, n)


def half_point(n: int) -> Stencil:
    """First-derivative weights using only the odd offsets +-1, +-3, ...

    The paper's weight at offset 2m+1, 1 / ((2m+1) * prod over k != m of
    (1 - (2m+1)**2 / (2k+1)**2)), in closed form: (-1)**m * 2n C(2n, n)
    C(2n-1, n+m) / (4**(2n-1) (2m+1)**2), m = 0..n-1, mirrored
    antisymmetrically.  Even offsets carry weight zero and are not stored.
    Evaluation rule matches central_first: 1/(2h) * sum over stored offsets.
    """
    return build(StencilKind.HALF_POINT_FIRST, n)


def one_sided_first(n: int) -> Stencil:
    """One-sided first-derivative weights on offsets 0..n.

    Weight at offset m >= 1 is (-1)**(m+1) * C(n, m) / m; the weight at 0 is
    the negated harmonic number so the weights sum to zero.  Evaluation
    rule: 1/h * sum.
    """
    return build(StencilKind.ONE_SIDED_FIRST, n)


def one_sided_nth(n: int) -> Stencil:
    """n-th-derivative weights on offsets 0..n (alternating binomial row).

    Weight at offset m is (-1)**(m+n) * C(n, m) / n!; with the stored
    prefactor n! the rule reduces to the n-th forward difference / h**n.
    """
    return build(StencilKind.ONE_SIDED_NTH, n)


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


_GENERATORS = {
    StencilKind.CENTRAL_FIRST: _central_first,
    StencilKind.CENTRAL_SECOND: _central_second,
    StencilKind.HALF_POINT_FIRST: _half_point,
    StencilKind.ONE_SIDED_FIRST: _one_sided_first,
    StencilKind.ONE_SIDED_NTH: _one_sided_nth,
}


def reach(kind: StencilKind, n: int) -> int:
    """The largest offset of build(kind, n), found without building it:
    2n - 1 for the half-point family, whose offsets are the odd numbers
    up to it, and n for every other family."""
    return 2 * n - 1 if kind is StencilKind.HALF_POINT_FIRST else n


def check_embedding(label: str, offset: int, N: int) -> None:
    """Refuse a weight sequence whose largest offset does not fit in a
    length-N DFT embedding (offsets below N/2): one EmbeddingOverflowError,
    naming the sequence by its label."""
    if offset >= N // 2:
        raise EmbeddingOverflowError(f"{label} reaches offset {offset}, which does not fit "
                                     f"in a length-{N} embedding (need |m| < N/2)")


def weight_pairs(kind: StencilKind, n: int) -> tuple:
    """The rule of build(kind, n) on integers, from its family's generator:
    (derivative order, offsets ascending, the weight at each offset as a
    reduced pair (numerator, positive denominator), the prefactor as a
    pair). No Fraction is made."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _GENERATORS[kind](n)


def build(kind: StencilKind, n: int) -> Stencil:
    """Generate the stencil of the given kind and family parameter n: the
    pairs of `weight_pairs`, held as they are."""
    return Stencil(kind, n, *weight_pairs(kind, n))


def stencil_pairs(stencil: Stencil) -> tuple:
    """A stencil's rule in the form of `weight_pairs`: the pairs it holds,
    the weights' in a new list."""
    return stencil.derivative_order, stencil.offsets, list(stencil._pairs), stencil._prefactor_pair


def stencil_label(kind: StencilKind, n: int) -> str:
    """The name of the stencil of kind at n, as `Stencil.label` gives it."""
    return f"{kind.value}(n={n})"


def _ratio_text(a: int, b: int) -> str:
    """The text of a reduced pair a / b, as str(Fraction(a, b)) writes it."""
    return str(a) if b == 1 else f"{a}/{b}"


def pair_fields(kind: StencilKind, n: int, order: int, offsets, pairs,
                prefactor: tuple[int, int]) -> tuple[dict, list[str]]:
    """The fields of stencil_to_dict but its nodes, and the exact "p/q"
    text of each weight by ascending offset, for a rule in the form of
    `weight_pairs`. A weight with more digits than Python converts to a
    string is a ValueError naming its offset (a built stencil's prefactor
    is never longer than its weights)."""
    texts = []
    for o, pair in zip(offsets, pairs):
        try:
            texts.append(_ratio_text(*pair))
        except ValueError:  # Python's int-to-str digit limit
            raise ValueError(f"{stencil_label(kind, n)}: the weight at offset {o} has more "
                             "digits than Python prints exactly") from None
    header = {"kind": kind.value, "n": n, "derivative_order": order, "h_power": order,
              "prefactor": _ratio_text(*prefactor)}
    return header, texts


def stencil_to_dict(stencil: Stencil) -> dict:
    """JSON-ready form with weights as exact fraction strings; h_power, the
    power of h the rule divides by, is the derivative_order. A weight too
    long to print is `pair_fields`' ValueError."""
    header, texts = pair_fields(stencil.kind, stencil.n, *stencil_pairs(stencil))
    return {**header, "nodes": [{"offset": o, "weight": text}
                                for o, text in zip(stencil.offsets, texts)]}


def _rational(value) -> tuple[int, int]:
    """A JSON number (int or float) or a rational's text as the reduced
    pair Fraction(value) holds: a number by its as_integer_ratio (a float
    inf or nan raises its error), text through Fraction."""
    if type(value) is str:
        from fractions import Fraction

        value = Fraction(value)
    return value.as_integer_ratio()


def _parse_field(parse, value, field: str):
    """parse(value): int reads a JSON integer or its text, `_rational` a
    JSON number or a rational's text. Anything else, a boolean included, is
    a ValueError naming the field, as is a value with more digits than
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
    rationals with a nonzero denominator (`_rational`), and none a
    boolean. A field that does not parse is named, a weight by its offset. The h_power, the power
    of h a rule divides by, must equal the derivative_order.
    """
    if not isinstance(data, dict):
        raise StencilFormatError(f"stencil must be an object, not {type(data).__name__}")
    try:
        nodes = []
        for i, d in enumerate(data["nodes"]):
            o = _parse_field(int, d["offset"], f"the offset of node {i}")
            nodes.append((o, _parse_field(_rational, d["weight"], f"the weight at offset {o}")))
        nodes.sort()
        number = {key: _parse_field(int, data[key], f"the {key}")
                  for key in ("n", "derivative_order", "h_power")}
        if number.pop("h_power") != number["derivative_order"]:
            raise ValueError("the h_power must equal the derivative_order")
        kind = StencilKind(data["kind"])
        prefactor = _parse_field(_rational, data["prefactor"], "the prefactor")
        stencil = Stencil(kind, number["n"], number["derivative_order"],
                          tuple(o for o, _ in nodes), [w for _, w in nodes], prefactor)
    except KeyError as exc:
        raise StencilFormatError(f"stencil is missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise StencilFormatError(f"malformed stencil: {exc}") from None
    if not stencil.offsets:
        raise StencilFormatError("stencil has no nodes")
    return stencil
