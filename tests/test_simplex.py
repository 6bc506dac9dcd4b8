import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from conftest import solve_standard_form_fraction_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmech import simplex
from flowmech.simplex import OPTIMAL, UNBOUNDED, solve_standard_form


def test_pinned_variable():
    result = solve_standard_form([[1]], [5], [1], [0])
    assert result.status == OPTIMAL and result.value == 5


def test_two_constraints_with_slacks():
    # max 2x + y  s.t.  x + y <= 4, x <= 3, from the slack basis
    A = [[1, 1, 1, 0], [1, 0, 0, 1]]
    result = solve_standard_form(A, [4, 3], [2, 1, 0, 0], [2, 3])
    assert result.status == OPTIMAL
    assert result.value == 7


def test_unbounded():
    # max x - y  s.t.  x - y - s = 0: x rises with s, y stays 0
    result = solve_standard_form([[1, -1, -1]], [0], [1, 0, 0], [0])
    assert result.status == UNBOUNDED and result.value is None


def test_degenerate_does_not_cycle():
    # several tight constraints at the optimum; Bland's rule must terminate
    A = [
        [1, 1, 1, 0, 0],
        [1, 0, 0, 1, 0],
        [0, 1, 0, 0, 1],
    ]
    result = solve_standard_form(A, [1, 1, 1], [1, 1, 0, 0, 0], [2, 3, 4])
    assert result.status == OPTIMAL
    assert result.value == 1


def test_negative_rhs_normalized():
    # -x = -3 from the basis {x}: the pivot on -1 turns the tableau's sign
    # around, and x = 3
    result = solve_standard_form([[-1]], [-3], [1], [0])
    assert result.status == OPTIMAL and result.value == 3


def test_exact_fractions_survive():
    # 7x + 21y = 3 from the basis {y}: the optimum x = 3/7 is exact
    result = solve_standard_form([[7, 21]], [3], [1, 0], [1])
    assert result.status == OPTIMAL
    assert result.value == F(3, 7)


@pytest.mark.parametrize(
    "A, b, basis, message",
    [
        pytest.param([[1, 1], [1, 1]], [1, 1], [0, 1], "singular", id="dependent-columns"),
        pytest.param([[1, 0], [0, 1]], [1, 1], [0, 0], "singular", id="repeated-column"),
        pytest.param([[0, 1], [1, 0]], [1, 1], [0, 1], "singular", id="zero-pivot-in-its-row"),
        pytest.param([[1, 0], [0, 1]], [1, 1], [0, 2], "singular", id="column-out-of-range"),
        pytest.param([[1, 0], [0, 1]], [1, 1], [0, -1], "singular", id="negative-column"),
        pytest.param([[1, 0], [0, 1]], [1, -1], [0, 1], "negative", id="negative-rhs"),
        pytest.param([[1, 1], [0, -1]], [1, 2], [0, 1], "negative", id="negative-after-pivots"),
        pytest.param([[1, 0], [0, 1]], [1], [0, 1], "sizes", id="short-b"),
        pytest.param([[1, 0], [0, 1]], [1, 1], [0], "sizes", id="short-basis"),
        pytest.param([[1, 0], [0]], [1, 1], [0, 1], "sizes", id="ragged-A"),
    ],
)
def test_a_basis_that_is_singular_or_infeasible_is_refused(A, b, basis, message):
    with pytest.raises(ValueError, match=message):
        solve_standard_form(A, b, [0, 0], basis)


@pytest.mark.parametrize(
    "A, b, c",
    [
        ([[F(1)]], [1], [1]),
        ([[1]], [F(1)], [1]),
        ([[1]], [1], [F(1, 2)]),
        ([[1]], [1], [1.0]),
        ([[True]], [1], [1]),
    ],
    ids=["fraction-A", "fraction-b", "fraction-c", "float", "bool"],
)
def test_entries_that_are_not_ints_are_refused(A, b, c):
    # `//` on a Fraction would divide without an error and the value would be wrong
    with pytest.raises(TypeError, match="ints"):
        solve_standard_form(A, b, c, [0])


def test_ratio_ties_leave_by_lowest_basic_index(monkeypatch):
    # x0 and x3 could both enter; Bland's rule takes x0, the lower index.
    # Both rows then tie at ratio 1, and row 1 holds the lower basic column
    # (1 against 2), so x0 goes into row 1; x3 follows into row 0.  Taking
    # x3 first would end after one pivot at the same value
    pivots = []
    pivot = simplex._pivot

    def recording(tableau, basis, row, col, d):
        pivots.append((row, col))
        return pivot(tableau, basis, row, col, d)

    monkeypatch.setattr(simplex, "_pivot", recording)
    result = solve_standard_form([[1, 0, 1, 1], [1, 1, 0, 0]], [1, 1], [1, 0, 0, 1], [2, 1])
    assert (result.status, result.value) == (OPTIMAL, 1)
    assert pivots == [(0, 2), (1, 1), (1, 0), (0, 3)]


def _feasible_lp(rng: random.Random, m: int, n: int):
    """A random integer LP  max c.w, A w = b, w >= 0  with m rows, n >= m
    columns and a feasible basis.  Unit columns at random positions, with a
    right-hand side b0 >= 0, are multiplied by M = L U (L unit lower
    triangular, U upper triangular with a nonzero diagonal), so the basis'
    columns become those of M, each meets a nonzero pivot in its own row,
    and the basic solution stays b0."""
    basis = rng.sample(range(n), m)
    cols = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
    for i, j in enumerate(basis):
        cols[j] = [int(k == i) for k in range(m)]
    b0 = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(m)]
    L = [[int(i == k) if k >= i else rng.randint(-2, 2) for k in range(m)] for i in range(m)]
    U = [
        [rng.choice((-2, -1, 1, 2)) if k == i else rng.randint(-2, 2) * (k > i) for k in range(m)]
        for i in range(m)
    ]
    M = [[sum(L[i][t] * U[t][k] for t in range(m)) for k in range(m)] for i in range(m)]
    A = [[sum(M[i][k] * cols[j][k] for k in range(m)) for j in range(n)] for i in range(m)]
    b = [sum(M[i][k] * b0[k] for k in range(m)) for i in range(m)]
    c = [rng.randint(-3, 3) for _ in range(n)]
    return A, b, c, basis


def _solve_exact(columns, b):
    """Solve the system given by column vectors via Gaussian elimination;
    returns the unique solution, or None when the columns are dependent or
    the system inconsistent."""
    m = len(b)
    k = len(columns)
    rows = [[F(columns[j][i]) for j in range(k)] + [F(b[i])] for i in range(m)]
    pivot_row = 0
    pivots = []
    for col in range(k):
        target = next((r for r in range(pivot_row, m) if rows[r][col] != 0), None)
        if target is None:
            return None  # dependent columns
        rows[pivot_row], rows[target] = rows[target], rows[pivot_row]
        factor = rows[pivot_row][col]
        rows[pivot_row] = [x / factor for x in rows[pivot_row]]
        for r in range(m):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    if any(all(x == 0 for x in rows[r][:-1]) and rows[r][-1] != 0 for r in range(m)):
        return None  # inconsistent
    solution = [F(0)] * k
    for r, col in enumerate(pivots):
        solution[col] = rows[r][-1]
    return solution


def _enumerate_lp(A, b, c):
    """Independent oracle for a feasible LP: best objective over all basic
    feasible solutions, plus a search for an improving recession ray to
    detect unboundedness."""
    m, n = len(A), len(c)
    cols = [[A[i][j] for i in range(m)] for j in range(n)]
    best = None
    for size in range(0, m + 1):
        for picked in combinations(range(n), size):
            if size == 0:
                solution = [] if all(x == 0 for x in b) else None
            else:
                solution = _solve_exact([cols[j] for j in picked], b)
            if solution is None or any(x < 0 for x in solution):
                continue
            value = sum(c[j] * x for j, x in zip(picked, solution))
            if best is None or value > best:
                best = value
    assert best is not None, "the LP has a feasible basis"
    for size in range(1, min(n, m + 2) + 1):
        for picked in combinations(range(n), size):
            # a ray supported here: fix one coordinate at 1, solve for the rest
            for drop in picked:
                rest = [j for j in picked if j != drop]
                target = [-cols[drop][i] for i in range(m)]
                sol = _solve_exact([cols[j] for j in rest], target) if rest else (
                    [] if all(x == 0 for x in target) else None
                )
                if sol is None:
                    continue
                ray = [F(0)] * n
                ray[drop] = F(1)
                for j, x in zip(rest, sol):
                    ray[j] = x
                if all(x >= 0 for x in ray) and sum(c[j] * ray[j] for j in range(n)) > 0:
                    return UNBOUNDED, None
    return OPTIMAL, best


@settings(max_examples=60, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2),
)
def test_against_enumeration_oracle(rng, m, extra):
    A, b, c, basis = _feasible_lp(rng, m, m + extra)
    mine = solve_standard_form(A, b, c, basis)
    assert (mine.status, mine.value) == _enumerate_lp(A, b, c)


def _assert_same_as_reference(A, b, c, basis):
    mine = solve_standard_form(A, b, c, basis)
    ref = solve_standard_form_fraction_reference(A, b, c)
    assert (mine.status, mine.value) == (ref.status, ref.value)
    if mine.status == OPTIMAL:
        assert type(mine.value) is F
    return mine


@settings(max_examples=150, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=3),
)
def test_integer_tableau_matches_fraction_reference(rng, m, extra):
    """Status and value equal the two-phase Fraction tableau's on random
    integer LPs from a feasible basis whose columns are not unit vectors."""
    _assert_same_as_reference(*_feasible_lp(rng, m, m + extra))


def test_integer_tableau_matches_reference_on_every_outcome():
    """A seeded sweep that must meet both statuses, and a degenerate
    start (a zero in the basic solution), at least 20 times each."""
    rng = random.Random(5)
    seen = {OPTIMAL: 0, UNBOUNDED: 0}
    degenerate = 0
    for _ in range(400):
        m = rng.randint(1, 5)
        A, b, c, basis = _feasible_lp(rng, m, m + rng.randint(0, 3))
        result = _assert_same_as_reference(A, b, c, basis)
        seen[result.status] += 1
        degenerate += 0 in _solve_exact([[row[j] for row in A] for j in basis], b)
    assert all(count >= 20 for count in seen.values()), seen
    assert degenerate >= 20


def test_integer_tableau_accepts_ints_and_matches_on_core_shaped_lps():
    # 0/1 constraint columns with the singletons first, integer objective,
    # and the start `mechanisms._CoreDual` uses: the singletons, with z- in
    # the target's row when minimising
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(2, 5)
        coalitions = [mask for mask in range(1, 1 << m) if mask & (mask - 1)]
        masks = [1 << i for i in range(m)] + rng.sample(coalitions, rng.randint(0, len(coalitions)))
        A = [[mask >> i & 1 for mask in masks] + [1, -1] for i in range(m)]
        c = [rng.randint(0, 9) for _ in masks] + [9, -9]
        target = rng.randrange(m)
        for sign in (1, -1):
            b = [sign if i == target else 0 for i in range(m)]
            basis = [len(c) - 1 if sign < 0 and i == target else i for i in range(m)]
            _assert_same_as_reference(A, b, c, basis)
