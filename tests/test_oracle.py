"""Oracle cross-checks: the independent solver against the generators."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from stencil_spectra import oracle, weights
from stencil_spectra.oracle import (
    ExactnessReport,
    MomentSystem,
    SingularSystemError,
    _NodePolynomial,
    _leading_minors,
    _newton_minors,
    _IntegerView,
    _power_table,
    _scaled_residuals,
    cross_checks,
    delta_m1_closed_form,
    exactness_check,
    product_form_half_point,
    product_form_one_sided,
    solve_moment_system,
    vandermonde_det,
)
from stencil_spectra.weights import StencilKind

F = Fraction


def test_solver_forward_difference():
    sol = solve_moment_system(MomentSystem(offsets=(0, 1), degree=1, target_order=1))
    assert sol == [F(-1), F(1)]


def test_solver_three_point_first_derivative():
    sol = solve_moment_system(MomentSystem(offsets=(0, 1, 2), degree=2, target_order=1))
    assert sol == [F(-3, 2), F(2), F(-1, 2)]
    assert sol == list(weights.one_sided_first(2).weights)


def test_solver_three_point_second_derivative():
    sol = solve_moment_system(MomentSystem(offsets=(0, 1, 2), degree=2, target_order=2))
    assert sol == [F(1, 2), F(-1), F(1, 2)]
    assert sol == list(weights.one_sided_nth(2).weights)


def test_solver_handles_zero_offset_power():
    # 0**0 = 1: the k = 0 row must count the node at offset 0
    sol = solve_moment_system(MomentSystem(offsets=(0, 1), degree=1, target_order=0))
    assert sol == [F(1), F(0)]


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("kind", list(StencilKind))
def test_solver_reproduces_every_family(kind, n):
    stencil = weights.build(kind, n)
    system = MomentSystem(
        offsets=stencil.offsets,
        degree=len(stencil.offsets) - 1,
        target_order=stencil.derivative_order,
    )
    solution = solve_moment_system(system)
    scale = stencil.prefactor / math.factorial(stencil.derivative_order)
    for value, offset in zip(solution, system.offsets):
        assert value == stencil.weight_at(offset) * scale, (kind, n, offset)


@pytest.mark.parametrize("n", range(1, 13))
def test_solver_general_order_moment_conditions(n):
    # all intermediate derivative orders l, checked against the defining system
    offsets = tuple(range(n + 1))
    for l in range(n + 1):
        sol = solve_moment_system(
            MomentSystem(offsets=offsets, degree=n, target_order=l)
        )
        for k in range(n + 1):
            total = sum(a * o ** k for a, o in zip(sol, offsets))
            assert total == (1 if k == l else 0)
        if l >= 1:
            assert sum(sol, F(0)) == 0


def test_solver_rejects_repeated_offsets():
    with pytest.raises(SingularSystemError):
        solve_moment_system(MomentSystem(offsets=(0, 1, 1), degree=2, target_order=1))


def _bareiss_eliminate(rows):
    """Fraction-free forward elimination in place, without row swaps
    (Bareiss, Math. Comp. 22, 1968), kept as the reference: every caller
    eliminates a power matrix over distinct nodes, whose leading minors,
    the pivots, are nonzero Vandermonde determinants. Integer entries stay
    integer (divisions are exact)."""
    prev = 1
    for col in range(len(rows) - 1):
        pivot_row = rows[col]
        pivot, tail = pivot_row[col], pivot_row[col + 1:]
        for row in rows[col + 1:]:
            lead = row[col]
            row[col + 1:] = [(a * pivot - lead * b) // prev
                             for a, b in zip(row[col + 1:], tail)]
            row[col] = 0
        prev = pivot


def _bareiss_solve(system):
    """A second route to the moment-system solution, kept as the reference:
    fraction-free elimination of the power matrix, then Fraction
    back-substitution. It shares nothing with the node-polynomial solver."""
    if len(set(system.offsets)) != len(system.offsets):
        raise SingularSystemError("repeated offsets")
    size = system.degree + 1
    rows = [
        [o ** k for o in system.offsets] + [1 if k == system.target_order else 0]
        for k in range(size)
    ]
    _bareiss_eliminate(rows)
    solution = [Fraction(0)] * size
    for i in reversed(range(size)):
        acc = Fraction(rows[i][size])
        for j in range(i + 1, size):
            acc -= rows[i][j] * solution[j]
        solution[i] = acc / rows[i][i]
    return solution


_OFFSETS = st.lists(st.integers(-60, 60), min_size=1, max_size=14, unique=True)


@settings(max_examples=200, deadline=None)
@given(offsets=_OFFSETS)
@example(offsets=[3, -2, 0, 7, -5, 1])
@example(offsets=list(range(13, -1, -1)))
def test_solver_matches_bareiss_reference(offsets):
    # distinct offsets in any order, every target order
    for order in range(len(offsets)):
        system = MomentSystem(offsets=tuple(offsets), degree=len(offsets) - 1,
                              target_order=order)
        assert solve_moment_system(system) == _bareiss_solve(system), order


# the node sets verify solves are larger than the strategy's 14 offsets:
# central-second, half-point and one-sided at n = 16, and central-second in
# descending order, each as the last of its family's sets for n = 1..16
_VERIFY_NODE_SETS = {
    "central-33": lambda n: tuple(range(-n, n + 1)),
    "half-point-odd-32": lambda n: tuple(range(1 - 2 * n, 2 * n, 2)),
    "one-sided-17": lambda n: tuple(range(n + 1)),
    "descending-33": lambda n: tuple(range(n, -n - 1, -1)),
}


@pytest.mark.parametrize("nodes", _VERIFY_NODE_SETS.values(), ids=_VERIFY_NODE_SETS)
@pytest.mark.parametrize("order", [0, 1, 2])
def test_solver_matches_bareiss_reference_on_verify_node_sets(nodes, order):
    # fresh, and grown through n = 1..16 as cross_checks grows it
    offsets = nodes(16)
    system = MomentSystem(offsets=offsets, degree=len(offsets) - 1, target_order=order)
    expected = _bareiss_solve(system)
    assert solve_moment_system(system) == expected
    grown = _NodePolynomial()
    for n in range(1, 16):
        grown.grow(nodes(n))
    numerators, denominators = grown.solution(offsets, order)
    assert [Fraction(a, b) for a, b in zip(numerators, denominators)] == expected


@st.composite
def _node_set_sequences(draw):
    """A few node sets in a row, each either a superset of the one before
    (new nodes in any place) or any other set, which restarts the grown
    polynomial unless it happens to hold every earlier node."""
    sets = [draw(st.lists(st.integers(-30, 30), min_size=1, max_size=8, unique=True))]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            added = draw(st.lists(st.integers(-30, 30).filter(lambda x: x not in sets[-1]),
                                  max_size=4, unique=True))
            sets.append(draw(st.permutations(sets[-1] + added)))
        else:
            sets.append(draw(st.lists(st.integers(-30, 30), min_size=1, max_size=8,
                                      unique=True)))
    return sets


@settings(max_examples=150, deadline=None)
@given(sets=_node_set_sequences())
@example(sets=[[0, 1], [0, 1, 2], [2, 0, 1, 3]])
@example(sets=[[-1, 1], [-2, -1, 1, 2], [-3, -2, -1, 0, 1, 2, 3]])
@example(sets=[[0, 1, 2], [5, -3, 0], [5, -3, 0, 7, 1]])
@example(sets=[[1, 2, 3], [1, 2], [1, 2, 3, 4]])
def test_grown_node_polynomial_matches_fresh_and_bareiss(sets):
    # every target order, so that the numerators come from the top (high
    # orders) and from the bottom (low orders), through the node 0 too
    grown = _NodePolynomial()
    for offsets in sets:
        for order in range(len(offsets)):
            fresh = _NodePolynomial()
            got = grown.solution(offsets, order)
            assert got == fresh.solution(offsets, order), (offsets, order)
            assert (grown.coefficients, grown.derivatives) == \
                (fresh.coefficients, fresh.derivatives)
            system = MomentSystem(offsets=tuple(offsets), degree=len(offsets) - 1,
                                  target_order=order)
            assert [Fraction(a, b) for a, b in zip(*got)] == _bareiss_solve(system)


def test_grown_node_polynomial_rebuilds_nothing_for_the_nodes_it_holds():
    # grow multiplies in only the missing offsets: the same node set in
    # another order leaves P and every P'(x_m) as they were
    grown = _NodePolynomial()
    grown.grow((0, 1, 2))
    coefficients, derivatives = grown.coefficients, grown.derivatives
    assert grown.solution((2, 0, 1), 1) == ([-1, -3, -2], [2, 2, -1])
    assert grown.coefficients is coefficients and grown.derivatives is derivatives


class _CountedNode(int):
    """An integer node that counts the Horner steps (an int times the node)
    and the quotient steps (an int floor-divided by the node) taken with
    it; int's operators try these reflected ones first for a subclass."""

    steps = Counter()

    def __rmul__(self, other):
        self.steps["top"] += 1
        return int(other) * int(self)

    def __rfloordiv__(self, other):
        self.steps["bottom"] += 1
        return int(other) // int(self)


@pytest.mark.parametrize("offsets", [
    (-3, -2, -1, 0, 1, 2, 3), (0, 1, 2, 3, 4, 5), (-5, -3, -1, 1, 3, 5),
])
def test_numerators_come_from_the_shorter_end(offsets, monkeypatch):
    # size - order Horner steps from the top, order + 1 quotient steps from
    # the bottom; a tie and the node 0 take the top
    size, zeros = len(offsets), offsets.count(0)
    grown = _NodePolynomial()
    grown.grow(offsets)
    for order in range(size):
        monkeypatch.setattr(_CountedNode, "steps", Counter())
        got = grown.solution([_CountedNode(x) for x in offsets], order)
        assert got == _NodePolynomial().solution(offsets, order)
        if order + 1 < size - order:
            expected = {"top": (size - order) * zeros, "bottom": (order + 1) * (size - zeros)}
        else:
            expected = {"top": (size - order) * size}
        assert _CountedNode.steps == Counter(expected), order


def test_grown_node_polynomial_rejects_repeated_offsets():
    grown = _NodePolynomial()
    grown.grow((0, 1, 2))
    with pytest.raises(SingularSystemError, match="^repeated offsets$"):
        grown.solution((0, 1, 2, 2), 1)
    with pytest.raises(SingularSystemError, match="^repeated offsets$"):
        grown.grow((3, 4, 3))


@settings(max_examples=100, deadline=None)
@given(offsets=_OFFSETS, data=st.data())
def test_solver_rejects_repeated_offsets_in_any_order(offsets, data):
    repeated = data.draw(st.permutations(offsets + [data.draw(st.sampled_from(offsets))]))
    system = MomentSystem(offsets=tuple(repeated), degree=len(repeated) - 1,
                          target_order=data.draw(st.integers(0, len(repeated) - 1)))
    with pytest.raises(SingularSystemError):
        solve_moment_system(system)


def test_moment_system_validation():
    with pytest.raises(ValueError):
        MomentSystem(offsets=(0, 1), degree=2, target_order=1)
    with pytest.raises(ValueError):
        MomentSystem(offsets=(0, 1, 2), degree=2, target_order=3)


@pytest.mark.parametrize("offsets, degree, order", [
    ((0, 0.5, 1), 2, 1), ((0, 1.0), 1, 1), ((0, True), 1, 1), ((False, 1), 1, 1),
    ((0, F(1)), 1, 1), ((0, "1"), 1, 1), ((0, 1), 1.0, 1), ((0, 1), 1, 1.0),
    ((0, 1), 1, True),
])
def test_moment_system_rejects_non_integers(offsets, degree, order):
    # a float offset would make the exact solver return floats; a bool is
    # not an integer here either
    with pytest.raises(ValueError, match="must be integers"):
        MomentSystem(offsets=offsets, degree=degree, target_order=order)


def test_moment_system_repr_is_the_dataclass_form():
    # as the frozen dataclass that MomentSystem once was wrote it
    assert repr(MomentSystem((-1, 0, 1), 2, 1)) == \
        "MomentSystem(offsets=(-1, 0, 1), degree=2, target_order=1)"


@pytest.mark.parametrize("changes", [
    {"offsets": (-1, 0, 2)}, {"offsets": (0, 1), "degree": 1}, {"target_order": 2},
])
def test_moment_system_equality_and_hash_are_field_wise(changes):
    system = MomentSystem((-1, 0, 1), 2, 1)
    same = MomentSystem(offsets=(-1, 0, 1), degree=2, target_order=1)
    assert same is not system and same == system and not same != system
    assert hash(same) == hash(system)
    changed = system.replace(**changes)
    assert changed != system and not changed == system
    assert system != (-1, 0, 1) and system.__eq__(((-1, 0, 1), 2, 1)) is NotImplemented


@pytest.mark.parametrize("field", ["offsets", "degree", "target_order", "not_a_field"])
def test_moment_system_is_frozen(field):
    system = MomentSystem((-1, 0, 1), 2, 1)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(system, field, 0)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(system, field)
    assert (system.offsets, system.degree, system.target_order) == ((-1, 0, 1), 2, 1)


def test_moment_system_replace_validates_as_the_constructor_does():
    system = MomentSystem((-1, 0, 1), 2, 1)
    with pytest.raises(ValueError, match="^need degree\\+1 offsets for a square system$"):
        system.replace(degree=1)
    with pytest.raises(ValueError, match="^target_order must lie in 0..degree$"):
        system.replace(target_order=3)
    with pytest.raises(ValueError, match="^target_order must lie in 0..degree$"):
        system.replace(target_order=-1)
    with pytest.raises(ValueError, match="must be integers"):
        system.replace(offsets=(-1, 0, 0.5))


def test_exactness_report_equality_hash_and_freezing():
    stencil = weights.central_first(2)
    report = exactness_check(stencil, 5)
    assert report == exactness_check(weights.central_first(2), 5)
    assert hash(report) == hash(exactness_check(stencil, 5))
    assert report != exactness_check(stencil, 4)
    assert report == ExactnessReport(stencil, 4, 5, report.residuals)
    assert report != ExactnessReport(stencil, 4, None, report.residuals)
    assert repr(report).startswith("ExactnessReport(stencil=Stencil(kind=")
    assert repr(report).endswith(", max_exact_degree=4, first_failing_degree=5, residuals=("
                                 "Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), "
                                 "Fraction(0, 1), Fraction(0, 1), Fraction(-4, 1)))")
    with pytest.raises(AttributeError, match="^cannot assign to field 'residuals'$"):
        report.residuals = ()


# --- determinants -----------------------------------------------------------


def test_vandermonde_small_values():
    # n=2: det [[1,1,1],[0,1,2],[0,1,4]] = 2, n=3: 3! * (1*2*1) = 12
    assert vandermonde_det(1) == 1
    assert vandermonde_det(2) == 2
    assert vandermonde_det(3) == 12
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        vandermonde_det(0)


@pytest.mark.parametrize("n", range(1, 11))
def test_vandermonde_closed_form(n):
    closed = math.factorial(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            closed *= j - i
    det = vandermonde_det(n)
    assert det == closed
    assert det != 0


def test_leading_minors_match_fresh_eliminations_and_superfactorial():
    # the pivots of one elimination at n = 60 against the determinant of the
    # (n+1)-sized power matrix by its own elimination, for every n
    minors = _leading_minors(60)
    superfactorial = 1
    for n in range(1, 61):
        superfactorial *= math.factorial(n)
        rows = [[m ** k for m in range(n + 1)] for k in range(n + 1)]
        _bareiss_eliminate(rows)
        assert minors[n] == rows[n][n] == superfactorial, n


def _bareiss_minors(nodes):
    """The leading minors of the power matrix over nodes, as the pivots of
    its fraction-free elimination."""
    rows = [[x ** k for x in nodes] for k in range(len(nodes))]
    _bareiss_eliminate(rows)
    return [rows[n][n] for n in range(len(nodes))]


def test_leading_minors_match_bareiss_at_every_max_n_up_to_40():
    # Bareiss's pivots do not depend on the size of the matrix, so one
    # elimination at 40 serves every max-n
    reference = _bareiss_minors(range(41))
    for max_n in range(41):
        assert _leading_minors(max_n) == reference[:max_n + 1], max_n


@settings(max_examples=200, deadline=None)
@given(nodes=_OFFSETS)
@example(nodes=[3, -2, 0, 7, -5, 1])
@example(nodes=list(range(-6, 7)))
@example(nodes=[-60, 60, 0, -1, 1])
def test_newton_minors_match_bareiss_on_any_distinct_nodes(nodes):
    assert _newton_minors(nodes) == _bareiss_minors(nodes)


class _FaultyNode(int):
    """A node whose products are one too large: each row operation that
    subtracts a multiple of it leaves its row off by one everywhere, below
    the diagonal too."""

    def __mul__(self, other):
        return int(self) * other + 1


def test_newton_minors_read_zero_from_a_row_left_nonzero_below_the_diagonal():
    # the rows after the faulty node's step keep a nonzero entry in column
    # 0, so their minors read 0 and not the product of a wrong diagonal
    nodes = [0, 1, 2, 3, 4, _FaultyNode(5), 6, 7, 8]
    assert _newton_minors(nodes) == _leading_minors(5) + [0, 0, 0]


def test_verify_reports_a_faulty_reduction_as_failed_determinants(capsys, monkeypatch):
    # a reduction left nonzero below the diagonal fails the determinant
    # checks of its rows, one line each, with no traceback
    from stencil_spectra.cli import run

    newton_minors = oracle._newton_minors
    monkeypatch.setattr(oracle, "_newton_minors", lambda nodes: newton_minors(
        [_FaultyNode(x) if x == 5 else x for x in nodes]))
    code = run(["verify", "--max-n", "8"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        f"FAIL determinants(n={n}): Vandermonde product and numerator ratios"
        for n in (6, 7, 8)]
    assert out.endswith("\n101/104 checks passed\n")


def test_cross_checks_for_n_do_not_depend_on_max_n():
    # the determinants come from an elimination of max-n's size
    assert list(cross_checks(20))[:13 * 12] == list(cross_checks(12))


def test_integer_view_reads_each_weight_once_and_an_absent_offset_as_zero():
    stencil = weights.Stencil(kind=StencilKind.CENTRAL_FIRST, n=1, derivative_order=1,
                              offsets=(-3, 1), weights=(F(1, 4), F(-2, 3)),
                              prefactor=F(5, 6))
    view = _IntegerView(*weights.stencil_pairs(stencil))
    assert (view.offsets, view.order, view.taps, view.lcm, view.p, view.q) == \
        ((-3, 1), 1, [3, -8], 12, 5, 6)
    taps = view.tap_at()
    assert [taps[m] for m in (-3, 1, 0, 2)] == [3, -8, 0, 0]


def _checks_with(monkeypatch, max_n, kind, n, change):
    """cross_checks(max_n) with the stencil of `kind` at `n` replaced by
    change(stencil)."""
    def weight_pairs(k, size):
        if (k, size) != (kind, n):
            return weights.weight_pairs(k, size)
        return weights.stencil_pairs(change(weights.build(k, size)))

    monkeypatch.setattr(oracle, "weight_pairs", weight_pairs)
    return list(cross_checks(max_n))


def _read_by(kind, n, offset):
    """The checks of cross_checks(n) that read the weight of kind at offset:
    its family's moment system and exactness, central-first's closed form
    at m = 1..n, and one-sided-first's closed forms at m = 0..n and its
    determinants at m = 1..n."""
    label = f"{kind.value}(n={n})"
    names = [f"moment-system {label}", f"exactness {label}"]
    if kind is StencilKind.CENTRAL_FIRST and offset > 0:
        names.append(f"closed-form {label}")
    if kind is StencilKind.ONE_SIDED_FIRST:
        names.append(f"closed-form {label}")
        if offset > 0:
            names.append(f"determinants(n={n})")
    return names


@pytest.mark.parametrize("kind", list(StencilKind))
def test_cross_checks_fail_exactly_the_checks_that_read_a_bad_weight(kind, monkeypatch):
    # every weight at n = 4 in turn: the moment system and the exactness of
    # its family fail, and so do the closed forms that read that offset
    n = 4
    for index, offset in enumerate(weights.build(kind, n).offsets):
        def change(stencil):
            bad = list(stencil.weights)
            bad[index] += Fraction(1, 7)
            return stencil.replace(weights=tuple(bad))

        results = _checks_with(monkeypatch, n, kind, n, change)
        assert [name for name, ok, _ in results if not ok] == _read_by(kind, n, offset), offset


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(list(StencilKind)), n=st.integers(1, 12), data=st.data(),
       delta=st.fractions(-10, 10, max_denominator=10 ** 6).filter(bool))
def test_cross_checks_flag_exactly_the_checks_that_read_a_perturbed_weight(kind, n, data,
                                                                           delta):
    offsets = weights.build(kind, n).offsets
    index = data.draw(st.integers(0, len(offsets) - 1), label="index")

    def change(stencil):
        bad = list(stencil.weights)
        bad[index] += delta
        return stencil.replace(weights=tuple(bad))

    with pytest.MonkeyPatch.context() as patch:  # a fixture would span the examples
        results = _checks_with(patch, n, kind, n, change)
    assert [name for name, ok, _ in results if not ok] == _read_by(kind, n, offsets[index])


@pytest.mark.parametrize("kind, zero_parity", [
    (StencilKind.CENTRAL_FIRST, 0), (StencilKind.HALF_POINT_FIRST, 0),
    (StencilKind.CENTRAL_SECOND, 1)])
@pytest.mark.parametrize("n", range(1, 7))
def test_one_perturbed_tap_makes_a_zero_fold_count(kind, zero_parity, n):
    # an antisymmetric stencil's even fold and a symmetric one's odd fold
    # are all zeros, and their degrees are skipped; one tap perturbed at
    # m != 0 makes that fold nonzero, and its degrees must be summed again
    stencil = weights.build(kind, n)
    degree = 2 * n + 2
    clean = exactness_check(stencil, degree).residuals
    assert not any(clean[zero_parity::2])
    for index, offset in enumerate(stencil.offsets):
        if offset == 0:
            continue
        bad = list(stencil.weights)
        bad[index] += Fraction(1, 7)
        bent = stencil.replace(weights=tuple(bad))
        report = exactness_check(bent, degree)
        assert all(report.residuals[zero_parity::2]), offset
        got = (report.max_exact_degree, report.first_failing_degree, report.residuals)
        assert got == _fraction_exactness(bent, degree), offset


def test_cross_checks_catch_a_stencil_more_exact_than_its_family(monkeypatch):
    # central-first's weights for n = 3 labelled n = 2 are exact through
    # degree 6, not 4; the search looks one degree past the expected one
    results = _checks_with(monkeypatch, 2, StencilKind.CENTRAL_FIRST, 2,
                           lambda stencil: weights.build(StencilKind.CENTRAL_FIRST, 3)
                           .replace(n=2))
    details = {name: (ok, detail) for name, ok, detail in results}
    assert details["exactness central-first(n=2)"] == \
        (False, "max exact degree 5, expected 4")
    assert [name for name, ok, _ in results if not ok] == [
        "exactness central-first(n=2)", "closed-form central-first(n=2)"]


def test_one_sided_closed_form_reads_the_weight_sum(monkeypatch):
    # two taps past n whose weights cancel in the first moment but not in
    # the sum: only the weight sum among the closed forms sees them
    def change(stencil):
        n = stencil.n
        return stencil.replace(offsets=stencil.offsets + (n + 1, n + 2),
                               weights=stencil.weights + (Fraction(n + 2), Fraction(-n - 1)))

    results = _checks_with(monkeypatch, 3, StencilKind.ONE_SIDED_FIRST, 3, change)
    assert [name for name, ok, _ in results if not ok] == [
        "moment-system one-sided-first(n=3)", "exactness one-sided-first(n=3)",
        "closed-form one-sided-first(n=3)"]


@pytest.mark.parametrize("m", range(2, 5))
def test_one_sided_closed_form_reads_every_weight(m, monkeypatch):
    # a wrong weight at m whose error a tap past n cancels in the weight
    # sum: the product form at m must still see it
    def change(stencil):
        bad = list(stencil.weights)
        bad[m] += Fraction(1, 7)
        return stencil.replace(offsets=stencil.offsets + (5,),
                               weights=tuple(bad) + (Fraction(-1, 7),))

    results = _checks_with(monkeypatch, 4, StencilKind.ONE_SIDED_FIRST, 4, change)
    assert [name for name, ok, _ in results if not ok] == [
        "moment-system one-sided-first(n=4)", "exactness one-sided-first(n=4)",
        "closed-form one-sided-first(n=4)", "determinants(n=4)"]


def test_cross_checks_grown_state_cannot_hide_a_bad_weight(monkeypatch):
    # one wrong weight of central-second at n = 5 fails its own checks only;
    # the polynomial carried from n = 4 into n = 6 stays right
    def change(stencil):
        bad = list(stencil.weights)
        bad[3] += Fraction(1, 7)
        return stencil.replace(weights=tuple(bad))

    results = _checks_with(monkeypatch, 7, StencilKind.CENTRAL_SECOND, 5, change)
    failed = [name for name, ok, _ in results if not ok]
    assert failed == ["moment-system central-second(n=5)", "exactness central-second(n=5)"]
    assert all(ok for name, ok, _ in results[13 * 3:13 * 4] + results[13 * 5:13 * 6])


def _pair_loop_delta_m1(m, n):
    """The numerator determinant by the loop over every pair i < j, kept as
    the reference for the product 1! 2! ... (n-1)! with the pairs holding m
    divided out."""
    prod = 1
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if i != m and j != m:
                prod *= j - i
    return (-1) ** (m + 1) * (math.factorial(n) // m) ** 2 * prod


def test_delta_m1_matches_pair_loop():
    for n in range(1, 41):
        for m in range(1, n + 1):
            assert delta_m1_closed_form(m, n) == _pair_loop_delta_m1(m, n), (n, m)


def test_delta_m1_examples():
    assert delta_m1_closed_form(1, 1) == 1
    assert F(delta_m1_closed_form(1, 1), vandermonde_det(1)) == 1
    assert F(delta_m1_closed_form(1, 2), vandermonde_det(2)) == 2
    assert F(delta_m1_closed_form(2, 3), vandermonde_det(3)) == F(-3, 2)


@pytest.mark.parametrize("n", range(1, 11))
def test_delta_m1_ratio_gives_one_sided_weights(n):
    stencil = weights.one_sided_first(n)
    det = vandermonde_det(n)
    for m in range(1, n + 1):
        assert F(delta_m1_closed_form(m, n), det) == stencil.weight_at(m)


def test_delta_m1_range_errors():
    with pytest.raises(ValueError):
        delta_m1_closed_form(0, 3)
    with pytest.raises(ValueError):
        delta_m1_closed_form(4, 3)


# --- product forms ----------------------------------------------------------


def test_product_form_examples():
    assert product_form_one_sided(1, 2) == 2  # p1 = 1/2
    assert product_form_one_sided(2, 2) == F(-1, 2)  # p2 = -1
    assert product_form_one_sided(1, 1) == 1  # empty product


def test_product_form_matches_binomial_form():
    for n in range(1, 13):
        s = weights.one_sided_first(n)
        for m in range(1, n + 1):
            assert product_form_one_sided(m, n) == s.weight_at(m)


def test_product_form_range_errors():
    with pytest.raises(ValueError):
        product_form_one_sided(0, 3)
    with pytest.raises(ValueError):
        product_form_one_sided(4, 3)


def test_half_point_product_form_examples():
    # n=2: pi_0 = 1 - 1/9 = 8/9 and pi_1 = 1 - 9 = -8
    assert product_form_half_point(0, 1) == 1  # empty product
    assert product_form_half_point(0, 2) == F(9, 8)
    assert product_form_half_point(1, 2) == F(-1, 24)
    with pytest.raises(ValueError):
        product_form_half_point(-1, 3)
    with pytest.raises(ValueError):
        product_form_half_point(3, 3)


def _fraction_product_form(m, nodes, power):
    """The product form as a Fraction loop, kept as the reference for the
    integer product."""
    prod = Fraction(1)
    for k in nodes:
        if k != m:
            prod *= 1 - Fraction(m, k) ** power
    return 1 / (Fraction(m) * prod)


def test_product_forms_match_fraction_loop():
    for n in range(1, 41):
        for m in range(1, n + 1):
            assert product_form_one_sided(m, n) == _fraction_product_form(
                m, range(1, n + 1), 1), (n, m)
        for m in range(n):
            assert product_form_half_point(m, n) == _fraction_product_form(
                2 * m + 1, range(1, 2 * n, 2), 2), (n, m)


def test_half_point_closed_form_matches_product_form():
    for n in range(1, 61):
        s = weights.half_point(n)
        assert s.offsets == tuple(range(1 - 2 * n, 2 * n, 2))
        for m in range(n):
            w = product_form_half_point(m, n)
            assert s.weight_at(2 * m + 1) == w, (n, m)
            assert s.weight_at(-2 * m - 1) == -w, (n, m)


# --- polynomial exactness ----------------------------------------------------


def test_exactness_central_first_n1():
    report = exactness_check(weights.central_first(1), 4)
    assert report.max_exact_degree == 2
    assert report.first_failing_degree == 3
    assert report.residuals[3] != 0


def test_exactness_half_point_n2():
    report = exactness_check(weights.half_point(2), 6)
    assert report.max_exact_degree == 4
    assert report.first_failing_degree == 5


@pytest.mark.parametrize("n", range(1, 11))
def test_exactness_degree_table(n):
    expected = {
        StencilKind.CENTRAL_FIRST: 2 * n,
        StencilKind.CENTRAL_SECOND: 2 * n + 1,
        StencilKind.HALF_POINT_FIRST: 2 * n,
        StencilKind.ONE_SIDED_FIRST: n,
        StencilKind.ONE_SIDED_NTH: n,
    }
    for kind, degree in expected.items():
        report = exactness_check(weights.build(kind, n), degree + 1)
        assert report.max_exact_degree == degree, (kind, n)
        assert report.first_failing_degree == degree + 1


def test_exactness_bounded_search():
    stencil = weights.central_first(2)
    with pytest.raises(ValueError):
        exactness_check(stencil, 2 * stencil.n + 5)
    # searching below the first failure reports the searched bound
    report = exactness_check(stencil, 2)
    assert report.max_exact_degree == 2
    assert report.first_failing_degree is None


def _fraction_exactness(stencil, max_degree):
    """(max exact degree, first failing degree, residuals) by the per-degree
    Fraction sum exactness_check made before its integer scaling, kept as
    the reference."""
    d = stencil.derivative_order
    exact_at_d = Fraction(math.factorial(d))
    residuals = []
    first_failing = None
    for k in range(max_degree + 1):
        applied = stencil.prefactor * sum(
            (w * o ** k for o, w in stencil.nodes), Fraction(0)
        )
        res = applied - (exact_at_d if k == d else 0)
        residuals.append(res)
        if res != 0 and first_failing is None:
            first_failing = k
    max_exact = max_degree if first_failing is None else first_failing - 1
    return max_exact, first_failing, tuple(residuals)


@pytest.mark.parametrize("kind", list(StencilKind))
def test_scaled_residuals_on_the_shared_table_match_the_stencils_own(kind):
    # the table cross_checks(40) builds, against one over the stencil's
    # own distinct |offsets|, through one degree past the highest checked
    shared = _power_table(range(80), 82)
    for n in range(1, 41):
        stencil = weights.build(kind, n)
        own = _power_table(sorted({abs(o) for o in stencil.offsets}), 2 * n + 2)
        view = _IntegerView(*weights.stencil_pairs(stencil))
        assert _scaled_residuals(view, 2 * n + 2, shared) == \
            _scaled_residuals(view, 2 * n + 2, own), n


def test_exactness_check_of_sparse_far_offsets_stays_small():
    # the powers of the stencil's own three |offsets| only: a table over
    # every base up to 10**6 would take tens of megabytes
    stencil = weights.Stencil(
        kind=StencilKind.CENTRAL_FIRST, n=1, derivative_order=1,
        offsets=(-10 ** 6, 0, 10 ** 6), weights=(F(-1, 2), F(1, 7), F(1, 2)),
        prefactor=F(1, 10 ** 6))
    tracemalloc.start()
    try:
        report = exactness_check(stencil, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6
    got = (report.max_exact_degree, report.first_failing_degree, report.residuals)
    assert got == _fraction_exactness(stencil, 1)


@pytest.mark.parametrize("max_degree", range(5))
def test_exactness_of_a_stencil_without_taps_matches_fraction_reference(max_degree):
    # every sum is empty: only the d! term at degree d = 2 is left
    stencil = weights.Stencil(kind=StencilKind.CENTRAL_SECOND, n=0, derivative_order=2,
                              offsets=(), weights=(), prefactor=F(3))
    report = exactness_check(stencil, max_degree)
    got = (report.max_exact_degree, report.first_failing_degree, report.residuals)
    assert got == _fraction_exactness(stencil, max_degree)


_RATIONALS = st.one_of(st.just(F(0)), st.fractions(-100, 100, max_denominator=10 ** 4))


@st.composite
def _hand_built_stencils(draw):
    offsets = sorted(draw(st.sets(st.integers(-30, 30), min_size=1, max_size=12)))
    return weights.Stencil(
        kind=draw(st.sampled_from(list(StencilKind))),
        n=draw(st.integers(0, 8)),
        derivative_order=draw(st.integers(0, 8)),
        offsets=tuple(offsets),
        weights=tuple(draw(st.lists(_RATIONALS, min_size=len(offsets),
                                    max_size=len(offsets)))),
        prefactor=draw(_RATIONALS),
    )


@settings(max_examples=300, deadline=None)
@given(
    stencil=st.one_of(
        st.builds(weights.build, st.sampled_from(list(StencilKind)), st.integers(1, 12)),
        _hand_built_stencils(),
    ),
    data=st.data(),
)
def test_exactness_matches_fraction_reference(stencil, data):
    max_degree = data.draw(st.integers(0, 2 * stencil.n + 4))
    report = exactness_check(stencil, max_degree)
    got = (report.max_exact_degree, report.first_failing_degree, report.residuals)
    assert got == _fraction_exactness(stencil, max_degree)
