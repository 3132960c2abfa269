"""Independent exact verifiers for the weight families.

They share no code with the generators in `weights` (`build` only makes the
stencils under test): Bjorck-Pereyra solves of the moment systems, Bareiss
(fraction-free) elimination for the Vandermonde determinant only, the
paper's product forms and polynomial exactness on integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .weights import Stencil, StencilKind, build


class SingularSystemError(ValueError):
    pass


@dataclass(frozen=True)
class MomentSystem:
    """Square system sum_m a_m * offset_m**k = delta(target_order, k),
    k = 0..degree, with the convention 0**0 = 1."""

    offsets: tuple[int, ...]
    degree: int
    target_order: int

    def __post_init__(self):
        if len(self.offsets) != self.degree + 1:
            raise ValueError("need degree+1 offsets for a square system")
        if not 0 <= self.target_order <= self.degree:
            raise ValueError("target_order must lie in 0..degree")


@dataclass(frozen=True)
class ExactnessReport:
    stencil: Stencil
    max_exact_degree: int
    first_failing_degree: int | None
    residuals: tuple[Fraction, ...]


def _bareiss_eliminate(rows):
    """Fraction-free forward elimination in place; returns the sign of the
    row permutation. Integer entries stay integer (divisions are exact)."""
    size = len(rows)
    sign = 1
    prev = 1
    for col in range(size - 1):
        if rows[col][col] == 0:
            swap = next(
                (r for r in range(col + 1, size) if rows[r][col] != 0), None
            )
            if swap is None:
                raise SingularSystemError("zero pivot column")
            rows[col], rows[swap] = rows[swap], rows[col]
            sign = -sign
        for r in range(col + 1, size):
            for c in range(col + 1, len(rows[r])):
                rows[r][c] = (
                    rows[r][c] * rows[col][col] - rows[r][col] * rows[col][c]
                ) // prev
            rows[r][col] = 0
        prev = rows[col][col]
    return sign


def solve_moment_system(system: MomentSystem) -> list[Fraction]:
    """Exact solution of the moment system for offsets in any order, by the
    Bjorck-Pereyra algorithm (Golub & Van Loan, Alg. 4.6.2): O(n^2) exact
    operations, the first of its two sweeps on integers.

    Raises SingularSystemError for repeated offsets.
    """
    x, n = system.offsets, system.degree
    if len(set(x)) != len(x):
        raise SingularSystemError("repeated offsets")
    b = [1 if k == system.target_order else 0 for k in range(n + 1)]
    for k in range(n):
        for i in range(n, k, -1):
            b[i] -= x[k] * b[i - 1]
    z = [Fraction(v) for v in b]
    for k in range(n - 1, -1, -1):
        for i in range(k + 1, n + 1):
            z[i] /= x[i] - x[i - k - 1]
        for i in range(k, n):
            z[i] -= z[i + 1]
    return z


def vandermonde_det(n: int) -> int:
    """Determinant of the (n+1) x (n+1) power matrix over nodes 0..n,
    computed by fraction-free elimination (never zero)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rows = [[m ** k for m in range(n + 1)] for k in range(n + 1)]
    sign = _bareiss_eliminate(rows)
    return sign * rows[n][n]


def delta_m1_closed_form(m: int, n: int) -> int:
    """Numerator determinant for the first-derivative weight at offset m:
    (-1)**(m+1) * (n!/m)**2 * prod over 1 <= i < j <= n, i,j != m of (j-i)."""
    if not 1 <= m <= n:
        raise ValueError("require 1 <= m <= n")
    prod = 1
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if i != m and j != m:
                prod *= j - i
    return (-1) ** (m + 1) * (math.factorial(n) // m) ** 2 * prod


def _product_form(m: int, nodes, power: int) -> Fraction:
    """1 / (m * prod over nodes k != m of (1 - (m/k)**power)), on integers."""
    powers = [k ** power for k in nodes if k != m]
    return Fraction(math.prod(powers), m * math.prod(p - m ** power for p in powers))


def product_form_one_sided(m: int, n: int) -> Fraction:
    """One-sided first-derivative weight at offset m via the product form
    1 / (m * prod over k = 1..n, k != m of (1 - m/k)); equals
    one_sided_first(n)'s weight at m."""
    if not 1 <= m <= n:
        raise ValueError("require 1 <= m <= n")
    return _product_form(m, range(1, n + 1), 1)


def product_form_half_point(m: int, n: int) -> Fraction:
    """Half-point weight at offset 2m+1 via the paper's product form
    1 / ((2m+1) * prod over k = 0..n-1, k != m of (1 - (2m+1)**2/(2k+1)**2));
    equals half_point(n)'s weight at 2m+1."""
    if not 0 <= m < n:
        raise ValueError("require 0 <= m < n")
    return _product_form(2 * m + 1, range(1, 2 * n, 2), 2)


def exactness_check(stencil: Stencil, max_degree: int) -> ExactnessReport:
    """Apply the stencil symbolically to x**k for k = 0..max_degree and
    compare with the exact derivative at 0.

    h is factored out through h**d, so the residuals are h-independent
    rationals: residual(k) = prefactor * sum w_m m**k - d! * delta(k, d).
    The sums run on the integers L * prefactor * w_m * m**k, L the lcm of
    the denominators of prefactor * w_m: one Fraction(..., L) per degree.
    """
    if max_degree > 2 * stencil.n + 4:
        raise ValueError("bounded search: max_degree must be <= 2n + 4")
    d = stencil.derivative_order
    scaled = [stencil.prefactor * w for w in stencil.weights]
    lcm = math.lcm(*(w.denominator for w in scaled))
    terms = [w.numerator * (lcm // w.denominator) for w in scaled]
    residuals = []
    first_failing = None
    for k in range(max_degree + 1):
        total = sum(terms) - (lcm * math.factorial(d) if k == d else 0)
        residuals.append(Fraction(total, lcm))
        if total != 0 and first_failing is None:
            first_failing = k
        terms = [t * o for t, o in zip(terms, stencil.offsets)]
    max_exact = max_degree if first_failing is None else first_failing - 1
    return ExactnessReport(
        stencil=stencil,
        max_exact_degree=max_exact,
        first_failing_degree=first_failing,
        residuals=tuple(residuals),
    )


# the degree through which each family differentiates polynomials exactly
_EXACT_DEGREE = {
    StencilKind.CENTRAL_FIRST: lambda n: 2 * n,
    StencilKind.CENTRAL_SECOND: lambda n: 2 * n + 1,
    StencilKind.HALF_POINT_FIRST: lambda n: 2 * n,
    StencilKind.ONE_SIDED_FIRST: lambda n: n,
    StencilKind.ONE_SIDED_NTH: lambda n: n,
}


def cross_checks(max_n: int) -> Iterator[tuple[str, bool, str]]:
    """Yield (name, ok, detail) for the cross-check suite, 13 checks for
    each n = 1..max_n: the moment system and the polynomial exactness of
    every family, then the factorial-ratio central-first weights, the
    binomial, product and harmonic forms of the one-sided weights, and the
    Vandermonde and numerator determinants."""
    fact = math.factorial
    for n in range(1, max_n + 1):
        built = {kind: build(kind, n) for kind in StencilKind}
        for kind, stencil in built.items():
            label, order = stencil.label(), stencil.derivative_order
            solution = solve_moment_system(MomentSystem(
                offsets=stencil.offsets, degree=len(stencil.offsets) - 1, target_order=order
            ))
            scale = stencil.prefactor / fact(order)
            ok = solution == [w * scale for w in stencil.weights]
            yield f"moment-system {label}", ok, "oracle solver reproduces the weights"

            expected = _EXACT_DEGREE[kind](n)
            got = exactness_check(stencil, expected + 1).max_exact_degree
            yield (f"exactness {label}", got == expected,
                   f"max exact degree {got}, expected {expected}")

        cf = built[StencilKind.CENTRAL_FIRST]
        ok = all(
            cf.weight_at(m)
            == Fraction((-1) ** (m + 1) * 2 * fact(n) ** 2, m * fact(n - m) * fact(n + m))
            for m in range(1, n + 1)
        )
        yield f"closed-form central-first(n={n})", ok, "factorial ratio form"

        os1 = built[StencilKind.ONE_SIDED_FIRST]
        harmonic = sum((Fraction(1, m) for m in range(1, n + 1)), Fraction(0))
        ok = (
            os1.weight_at(1) == n
            and os1.weight_at(0) == -harmonic
            and all(os1.weight_at(m) == product_form_one_sided(m, n) for m in range(1, n + 1))
            and sum(os1.weights, Fraction(0)) == 0
        )
        yield f"closed-form one-sided-first(n={n})", ok, "binomial/product/harmonic forms"

        det = vandermonde_det(n)
        # prod over 0 <= i < j <= n of (j - i) is the superfactorial 1! 2! ... n!
        ok = det == math.prod(map(fact, range(1, n + 1))) and all(
            Fraction(delta_m1_closed_form(m, n), det) == os1.weight_at(m)
            for m in range(1, n + 1)
        )
        yield f"determinants(n={n})", ok, "Vandermonde product and numerator ratios"
