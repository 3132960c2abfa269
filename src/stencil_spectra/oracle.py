"""Independent exact verifiers for the weight families.

They share no code with the generators in `weights` (`weight_pairs` only
makes the rules under test): the moment systems solved from their node
polynomial, which grows with the node set (`_NodePolynomial`), the
Vandermonde determinants by Newton row operations on the power matrix (one
reduction whose diagonal serves every n), the paper's product forms and
polynomial exactness on integers. The hot loops run on Python ints: each
family's rule is read once, straight from the generators' reduced integer
pairs, into an integer view (`_IntegerView`: its taps t_m = L * w_m over L,
the lcm of its weight denominators, and its prefactor as an integer pair),
and every check of `cross_checks` compares t_m with a rational by
cross-multiplication, so it reads no weight twice and makes no `Fraction`.
`build` holds the same pairs, and `exactness_check` reads a `Stencil` into
the same view through `weights.stencil_pairs`.

Only the CLI's `verify` imports this module, when it runs, so that
`stencil` starts without it. The module imports `fractions` only inside
the public functions that return a `Fraction` (`solve_moment_system`,
`exactness_check` and the product forms), so `verify` runs without it.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from collections.abc import Iterator

from .weights import Stencil, StencilKind, _Record, stencil_label, stencil_pairs, weight_pairs


class SingularSystemError(ValueError):
    pass


class MomentSystem(_Record):
    """Square system sum_m a_m * offset_m**k = delta(target_order, k),
    k = 0..degree, with the convention 0**0 = 1."""

    _fields = ("offsets", "degree", "target_order")

    def __init__(self, offsets: tuple[int, ...], degree: int, target_order: int):
        # a float offset would turn the exact solution into floats
        if any(isinstance(v, bool) or not isinstance(v, int)
               for v in (*offsets, degree, target_order)):
            raise ValueError("offsets, degree and target_order must be integers")
        if len(offsets) != degree + 1:
            raise ValueError("need degree+1 offsets for a square system")
        if not 0 <= target_order <= degree:
            raise ValueError("target_order must lie in 0..degree")
        self._init(offsets, degree, target_order)


class ExactnessReport(_Record):
    _fields = ("stencil", "max_exact_degree", "first_failing_degree", "residuals")

    def __init__(self, stencil: Stencil, max_exact_degree: int,
                 first_failing_degree: int | None, residuals: tuple[Fraction, ...]):
        self._init(stencil, max_exact_degree, first_failing_degree, residuals)


class _NodePolynomial:
    """The node polynomial P(t) = prod_j (t - x_j) of a set of distinct
    integer nodes that grows, and the moment-system solution it gives.

    With P'(x_m) = prod_{j != m} (x_m - x_j), the Lagrange polynomial of
    node m is P(t) / ((t - x_m) P'(x_m)), and its t**d coefficient is the
    solution a_m = [t**d](P(t) / (t - x_m)) / P'(x_m). The object keeps P's
    coefficients, lowest power first, and P'(x_m) at each node. Adding a
    node x multiplies P by (t - x) and each kept P'(y) by (y - x), and forms
    P'(x) as one running product: O(nodes) integer operations.
    """

    __slots__ = ("coefficients", "derivatives")

    def __init__(self):
        self.coefficients = [1]
        self.derivatives = {}  # node -> P'(node)

    def grow(self, offsets) -> None:
        """Multiply in the offsets not held yet, after starting again from
        P = 1 when a node held is not among them.

        Raises SingularSystemError for repeated offsets.
        """
        nodes = set(offsets)
        if len(nodes) != len(offsets):
            raise SingularSystemError("repeated offsets")
        if not self.derivatives.keys() <= nodes:
            self.coefficients, self.derivatives = [1], {}
        derivatives = self.derivatives
        for x in offsets:
            if x in derivatives:
                continue
            p = self.coefficients
            self.coefficients = [a - x * b for a, b in zip([0, *p], [*p, 0])]
            running = 1
            for y, value in derivatives.items():
                derivatives[y] = value * (y - x)
                running *= x - y
            derivatives[x] = running

    def solution(self, offsets, order: int) -> tuple[list[int], list[int]]:
        """Numerators [t**order](P(t) / (t - x_m)) and denominators P'(x_m)
        of the moment-system solution over `offsets` (grown first), in
        their order; denominators may be negative.

        Each numerator comes by synthetic division from the shorter end:
        from the top, Horner's rule on the coefficients of
        t**size .. t**(order+1); from the bottom, q_0 = -P_0 / x_m and
        q_j = (q_{j-1} - P_j) / x_m for j <= order, each division exact.
        A tie takes the top, which divides nothing, and so does the node 0,
        where Horner's rule reads q_order = P_{order+1}.

        Raises SingularSystemError for repeated offsets.
        """
        self.grow(offsets)
        p = self.coefficients
        top = len(offsets) - order <= order + 1
        head, low = p[:order:-1], p[:order + 1]
        numerators = []
        for x in offsets:
            q = 0
            if top or not x:
                for c in head:
                    q = q * x + c
            else:
                for c in low:
                    q = (q - c) // x
            numerators.append(q)
        return numerators, [self.derivatives[x] for x in offsets]


def solve_moment_system(system: MomentSystem) -> list[Fraction]:
    """Exact solution of the moment system for offsets in any order, from
    the node polynomial of a fresh `_NodePolynomial`: O(n^2) integer
    operations for n offsets, and one `Fraction` per weight.

    Raises SingularSystemError for repeated offsets.
    """
    from fractions import Fraction

    numerators, denominators = _NodePolynomial().solution(system.offsets,
                                                          system.target_order)
    return [Fraction(a, b) for a, b in zip(numerators, denominators)]


def _newton_minors(nodes) -> list[int]:
    """The leading minors of the power matrix rows[k][m] = nodes[m]**k over
    distinct integer nodes, by Newton row operations (Björck & Pereyra,
    Math. Comp. 24, 1970).

    The operations rows[k] <- rows[k] - x_j * rows[k-1], for each node x_j
    in turn and k from the last row down to j + 1, take row k to the
    Newton basis polynomial prod_{i<k} (t - x_i) at the nodes. The
    transform is unit lower-triangular, so it keeps every leading minor and
    leaves the matrix upper triangular: minor n is the product of the first
    n + 1 diagonal entries. Each entry below the diagonal is checked to end
    at 0; from the first row where one does not, every minor reads 0, which
    no Vandermonde determinant over distinct nodes is.
    """
    rows = [[x ** k for x in nodes] for k in range(len(nodes))]
    for j, x in enumerate(nodes):
        for k in range(len(rows) - 1, j, -1):
            rows[k] = [a - x * b for a, b in zip(rows[k], rows[k - 1])]
    minors, product = [], 1
    for k, row in enumerate(rows):
        product *= 0 if any(row[:k]) else row[k]
        minors.append(product)
    return minors


def _leading_minors(max_n: int) -> list[int]:
    """The Vandermonde determinants over nodes 0..n for every n = 0..max_n,
    from one Newton reduction of the (max_n+1) x (max_n+1) power matrix
    over nodes 0..max_n (`_newton_minors`): its leading (n+1) x (n+1) block
    is the power matrix over nodes 0..n. The entries stay at most
    max_n**max_n, so the reduction takes O(max_n**3) operations on
    integers of at most max_n * log2(max_n) bits."""
    return _newton_minors(range(max_n + 1))


def vandermonde_det(n: int) -> int:
    """Determinant of the (n+1) x (n+1) power matrix over nodes 0..n, the
    last leading minor of its Newton reduction (`_leading_minors`, never
    zero)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _leading_minors(n)[n]


def _delta_m1(m: int, n: int, pairs: int) -> int:
    """`delta_m1_closed_form(m, n)` from pairs, the product over
    1 <= i < j <= n of (j - i): the pairs that hold m contribute (m-1)!
    (i < m) and (n-m)! (j > m), and dividing them out leaves the rest."""
    fact = math.factorial
    return (-1) ** (m + 1) * (fact(n) // m) ** 2 * (pairs // (fact(m - 1) * fact(n - m)))


def delta_m1_closed_form(m: int, n: int) -> int:
    """Numerator determinant for the first-derivative weight at offset m:
    (-1)**(m+1) * (n!/m)**2 * prod over 1 <= i < j <= n, i,j != m of (j-i).
    The product over all pairs is 1! 2! ... (n-1)!, so this takes O(n)
    multiplications (`_delta_m1`)."""
    if not 1 <= m <= n:
        raise ValueError("require 1 <= m <= n")
    return _delta_m1(m, n, math.prod([math.factorial(k) for k in range(1, n)]))


def _product_form(m: int, nodes, power: int) -> tuple[int, int]:
    """Numerator and denominator of
    1 / (m * prod over nodes k != m of (1 - (m/k)**power)), on integers;
    the denominator may be negative."""
    powers = [k ** power for k in nodes if k != m]
    m_power = m ** power
    return math.prod(powers), m * math.prod([p - m_power for p in powers])


def product_form_one_sided(m: int, n: int) -> Fraction:
    """One-sided first-derivative weight at offset m via the product form
    1 / (m * prod over k = 1..n, k != m of (1 - m/k)); equals
    one_sided_first(n)'s weight at m."""
    from fractions import Fraction

    if not 1 <= m <= n:
        raise ValueError("require 1 <= m <= n")
    return Fraction(*_product_form(m, range(1, n + 1), 1))


def product_form_half_point(m: int, n: int) -> Fraction:
    """Half-point weight at offset 2m+1 via the paper's product form
    1 / ((2m+1) * prod over k = 0..n-1, k != m of (1 - (2m+1)**2/(2k+1)**2));
    equals half_point(n)'s weight at 2m+1."""
    from fractions import Fraction

    if not 0 <= m < n:
        raise ValueError("require 0 <= m < n")
    return Fraction(*_product_form(2 * m + 1, range(1, 2 * n, 2), 2))


def _power_table(bases, max_degree: int) -> tuple[dict[int, int], list[list[int]]]:
    """The column of each base (a list or range of integers), and for
    k = 0..max_degree the row of the bases' k-th powers (0**0 = 1), each
    row the one before times the bases."""
    powers = [[1] * len(bases)]
    for _ in range(max_degree):
        powers.append(list(map(operator.mul, powers[-1], bases)))
    return {base: column for column, base in enumerate(bases)}, powers


class _IntegerView:
    """A rule read on integers once, from its derivative order, offsets,
    weight pairs and prefactor pair in the form of `weights.weight_pairs`:
    the offsets and order, the taps t_m = L * w_m over L, the lcm of the
    weight denominators, L itself, and the prefactor as the integer pair
    p / q. A weight w_m equals a / b exactly when t_m * b == a * L."""

    __slots__ = ("offsets", "order", "taps", "lcm", "p", "q")

    def __init__(self, order: int, offsets, pairs, prefactor: tuple[int, int]):
        self.lcm = lcm = math.lcm(*[b for _, b in pairs])
        self.taps = [a * (lcm // b) for a, b in pairs]
        self.offsets, self.order = offsets, order
        self.p, self.q = prefactor

    def tap_at(self) -> defaultdict[int, int]:
        """offset -> t_m; an absent offset holds t_m = 0."""
        return defaultdict(int, zip(self.offsets, self.taps))


def _scaled_residuals(view: _IntegerView, max_degree: int,
                      table: tuple[dict[int, int], list[list[int]]]) -> tuple[list[int], int]:
    """The exactness residuals of a stencil's integer view times a common
    scale, and that scale, with the powers read from `table`
    (`_power_table`), whose bases hold every |offset| and whose rows reach
    max_degree.

    h is factored out through h**d, so the residuals are h-independent
    rationals: residual(k) = p/q * sum w_m m**k - d! * delta(k, d). With
    t_m = L * w_m, residual(k) * q * L = p * sum t_m m**k - q * L * d! *
    delta(k, d): integer sums. The taps at m and -m fold into the even sum
    t_m + t_-m and the odd sum t_m - t_-m at the column of |m|, and the
    degree-k sum is the fold of k's parity times row k (the tap at 0 joins
    the even fold only, as 0**k is 0 at every odd k). A fold that is all
    zeros, as the even fold of an antisymmetric stencil is, sums to 0 at
    every degree of its parity, so its products are not formed.
    """
    columns, powers = table
    at = [columns[abs(o)] for o in view.offsets]
    size = max(at, default=-1) + 1
    even, odd = [0] * size, [0] * size
    for o, t, column in zip(view.offsets, view.taps, at):
        even[column] += t
        if o:
            odd[column] += t if o > 0 else -t
    folds = [even if any(even) else None, odd if any(odd) else None]
    p = view.p
    totals = [p * sum(map(operator.mul, fold, powers[k])) if (fold := folds[k % 2]) else 0
              for k in range(max_degree + 1)]
    scale = view.q * view.lcm
    if view.order <= max_degree:
        totals[view.order] -= scale * math.factorial(view.order)
    return totals, scale


def exactness_check(stencil: Stencil, max_degree: int) -> ExactnessReport:
    """Apply the stencil symbolically to x**k for k = 0..max_degree and
    compare with the exact derivative at 0 (`_scaled_residuals`, on a
    power table over the stencil's own distinct |offsets|); the report
    holds each residual as one `Fraction`."""
    from fractions import Fraction

    if max_degree > 2 * stencil.n + 4:
        raise ValueError("bounded search: max_degree must be <= 2n + 4")
    table = _power_table(sorted({abs(o) for o in stencil.offsets}), max_degree)
    totals, scale = _scaled_residuals(_IntegerView(*stencil_pairs(stencil)), max_degree,
                                      table)
    first_failing = next((k for k, total in enumerate(totals) if total), None)
    max_exact = max_degree if first_failing is None else first_failing - 1
    return ExactnessReport(
        stencil=stencil,
        max_exact_degree=max_exact,
        first_failing_degree=first_failing,
        residuals=tuple(Fraction(total, scale) for total in totals),
    )


def _is_ratio(tap: int, lcm: int, numerator: int, denominator: int) -> bool:
    """tap / lcm == numerator / denominator (lcm > 0, denominator != 0), on
    integers: a weight t_m / L of an `_IntegerView` against a closed form."""
    return tap * denominator == numerator * lcm


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
    Vandermonde and numerator determinants.

    Work shared across n is done once: one Newton reduction at max_n gives
    every Vandermonde determinant (`_leading_minors`); one power table over
    the bases 0..2*max_n-1 (every |offset|) and the degrees 0..2*max_n+2
    (one past the highest expected degree) serves every exactness check;
    each family keeps one `_NodePolynomial` and grows it by the one or two
    nodes that n adds, so that its moment solution at n takes O(n) integer
    operations (at most three quotient steps per node from the bottom, and
    one from the top for one-sided-nth); and the superfactorial and the
    harmonic number are a running product and a running sum. So the checks
    for n do not depend on max_n, and `verify --max-n N` does O(N^3)
    operations on integers of O(N log N) bits in the reduction, and O(n^2)
    integer products per family at each n in the exactness sums."""
    fact = math.factorial
    minors = _leading_minors(max_n)
    table = _power_table(range(2 * max_n), 2 * max_n + 2)
    polynomials = {kind: _NodePolynomial() for kind in StencilKind}
    superfactorial, harmonic, harmonic_den = 1, 0, 1
    for n in range(1, max_n + 1):
        views = {}
        degree_0 = {}  # the degree-0 scaled residual of each family
        for kind, polynomial in polynomials.items():
            views[kind] = view = _IntegerView(*weight_pairs(kind, n))
            label, order, p = stencil_label(kind, n), view.order, view.p
            # a_m / b_m == w_m * p / (q * order!) with w_m = t_m / L,
            # cross-multiplied
            numerators, denominators = polynomial.solution(view.offsets, order)
            scale = view.lcm * view.q * fact(order)
            ok = all(a * scale == t * p * b
                     for a, b, t in zip(numerators, denominators, view.taps))
            yield f"moment-system {label}", ok, "oracle solver reproduces the weights"

            expected = _EXACT_DEGREE[kind](n)
            totals, _ = _scaled_residuals(view, expected + 1, table)
            degree_0[kind] = totals[0]
            got = next((k for k, total in enumerate(totals) if total), len(totals)) - 1
            yield (f"exactness {label}", got == expected,
                   f"max exact degree {got}, expected {expected}")

        cf = views[StencilKind.CENTRAL_FIRST]
        tap, lcm = cf.tap_at(), cf.lcm
        top = 2 * fact(n) ** 2
        ok = all(
            _is_ratio(tap[m], lcm, (-1) ** (m + 1) * top, m * fact(n - m) * fact(n + m))
            for m in range(1, n + 1)
        )
        yield f"closed-form central-first(n={n})", ok, "factorial ratio form"

        os1 = views[StencilKind.ONE_SIDED_FIRST]
        tap, lcm = os1.tap_at(), os1.lcm
        # the harmonic number H_n as a reduced pair
        harmonic, harmonic_den = harmonic * n + harmonic_den, harmonic_den * n
        common = math.gcd(harmonic, harmonic_den)
        harmonic, harmonic_den = harmonic // common, harmonic_den // common
        ok = (
            _is_ratio(tap[1], lcm, n, 1)
            and _is_ratio(tap[0], lcm, -harmonic, harmonic_den)
            and all(_is_ratio(tap[m], lcm, *_product_form(m, range(1, n + 1), 1))
                    for m in range(1, n + 1))
            # the prefactor 1 times the weight sum, scaled by an lcm
            and degree_0[StencilKind.ONE_SIDED_FIRST] == 0
        )
        yield f"closed-form one-sided-first(n={n})", ok, "binomial/product/harmonic forms"

        # prod over 1 <= i < j <= n of (j - i) is 1! 2! ... (n-1)!, and over
        # 0 <= i < j <= n it is the superfactorial 1! 2! ... n!
        pairs = superfactorial
        superfactorial *= fact(n)
        det = minors[n]
        ok = det == superfactorial and all(
            _is_ratio(tap[m], lcm, _delta_m1(m, n, pairs), det)
            for m in range(1, n + 1)
        )
        yield f"determinants(n={n})", ok, "Vandermonde product and numerator ratios"
