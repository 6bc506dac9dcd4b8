import random
from fractions import Fraction as F

from conftest import solve_standard_form_fraction_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmech.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_standard_form


def test_pinned_variable():
    result = solve_standard_form([[F(1)]], [F(5)], [F(1)])
    assert result.status == OPTIMAL and result.value == 5


def test_two_constraints_with_slacks():
    # max 2x + y  s.t.  x + y <= 4, x <= 3
    A = [[F(1), F(1), F(1), F(0)], [F(1), F(0), F(0), F(1)]]
    result = solve_standard_form(A, [F(4), F(3)], [F(2), F(1), F(0), F(0)])
    assert result.status == OPTIMAL
    assert result.value == 7
    assert result.solution[:2] == [F(3), F(1)]


def test_infeasible():
    # x + y = 1 and x + y = 2 cannot both hold
    A = [[F(1), F(1)], [F(1), F(1)]]
    result = solve_standard_form(A, [F(1), F(2)], [F(0), F(0)])
    assert result.status == INFEASIBLE


def test_unbounded():
    # max x - y  s.t.  x - y = x - y (vacuous row keeps x free upward)
    A = [[F(1), F(-1), F(-1)]]
    result = solve_standard_form(A, [F(0)], [F(1), F(0), F(0)])
    assert result.status == UNBOUNDED


def test_degenerate_does_not_cycle():
    # several tight constraints at the optimum; Bland's rule must terminate
    A = [
        [F(1), F(1), F(1), F(0), F(0)],
        [F(1), F(0), F(0), F(1), F(0)],
        [F(0), F(1), F(0), F(0), F(1)],
    ]
    b = [F(1), F(1), F(1)]
    c = [F(1), F(1), F(0), F(0), F(0)]
    result = solve_standard_form(A, b, c)
    assert result.status == OPTIMAL
    assert result.value == 1


def test_negative_rhs_normalized():
    # -x = -3  =>  x = 3
    result = solve_standard_form([[F(-1)]], [F(-3)], [F(1)])
    assert result.status == OPTIMAL and result.value == 3


def test_exact_fractions_survive():
    A = [[F(1, 3), F(1)]]
    result = solve_standard_form(A, [F(1, 7)], [F(1), F(0)])
    assert result.status == OPTIMAL
    assert result.value == F(3, 7)


def _solve_exact(columns, b):
    """Solve the system given by column vectors via Gaussian elimination;
    returns the unique solution, or None when the columns are dependent or
    the system inconsistent."""
    m = len(b)
    k = len(columns)
    rows = [[columns[j][i] for j in range(k)] + [b[i]] for i in range(m)]
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
    """Independent oracle: best objective over all basic feasible solutions,
    plus a search for an improving recession ray to detect unboundedness."""
    from itertools import combinations

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
    if best is None:
        return INFEASIBLE, None
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
@given(st.data())
def test_against_enumeration_oracle(data):
    m = data.draw(st.integers(min_value=1, max_value=3), label="rows")
    n = data.draw(st.integers(min_value=1, max_value=4), label="cols")
    coeff = st.integers(min_value=-3, max_value=3)
    A = [[F(data.draw(coeff)) for _ in range(n)] for _ in range(m)]
    b = [F(data.draw(st.integers(min_value=-2, max_value=4))) for _ in range(m)]
    c = [F(data.draw(coeff)) for _ in range(n)]

    mine = solve_standard_form(A, b, c)
    if mine.status == OPTIMAL:
        # the reported point must be feasible and attain the value
        for i in range(m):
            assert sum(A[i][j] * mine.solution[j] for j in range(n)) == b[i]
        assert all(x >= 0 for x in mine.solution)
        assert sum(c[j] * mine.solution[j] for j in range(n)) == mine.value

    status, value = _enumerate_lp(A, b, c)
    assert mine.status == status
    if status == OPTIMAL:
        assert mine.value == value


def _assert_same_as_reference(A, b, c):
    mine = solve_standard_form(A, b, c)
    ref = solve_standard_form_fraction_reference(A, b, c)
    assert mine == ref
    if mine.status == OPTIMAL:
        assert type(mine.value) is F
        assert all(type(x) is F for x in mine.solution)
    return mine


_rational = st.builds(
    F, st.integers(min_value=-4, max_value=4), st.sampled_from((1, 1, 1, 2, 3, 5))
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_tableau_matches_fraction_reference(data):
    """Status, value and solution equal the Fraction tableau's on random
    LPs with mixed denominators, negative right-hand sides and rows that
    repeat a multiple of an earlier row (redundant, or contradictory when
    the right-hand side does not follow)."""
    m = data.draw(st.integers(min_value=1, max_value=4), label="rows")
    n = data.draw(st.integers(min_value=1, max_value=6), label="cols")
    A = [[data.draw(_rational) for _ in range(n)] for _ in range(m)]
    b = [data.draw(_rational) for _ in range(m)]
    if m > 1 and data.draw(st.booleans(), label="repeat a row"):
        k = data.draw(st.sampled_from((F(1), F(-2), F(1, 3))), label="multiple")
        A[-1] = [k * x for x in A[0]]
        b[-1] = k * b[0] if data.draw(st.booleans(), label="consistent") else b[0] + 1
    c = [data.draw(_rational) for _ in range(n)]
    _assert_same_as_reference(A, b, c)


def test_integer_tableau_matches_reference_on_every_outcome():
    """A seeded sweep, with many negative right-hand sides, that must meet
    every status and a redundant row at least 20 times each."""
    rng = random.Random(5)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    redundant = 0
    for _ in range(600):
        m, n = rng.randint(1, 5), rng.randint(1, 7)
        A = [[F(rng.randint(-3, 3), rng.choice((1, 2, 7))) for _ in range(n)] for _ in range(m)]
        b = [F(rng.randint(-3, 4), rng.choice((1, 3))) for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            A[1] = [-2 * x for x in A[0]]
            b[1] = -2 * b[0]
        c = [F(rng.randint(-3, 3), rng.choice((1, 4))) for _ in range(n)]
        result = _assert_same_as_reference(A, b, c)
        seen[result.status] += 1
        if result.status == OPTIMAL and m > 1 and A[1] == [-2 * x for x in A[0]] and any(A[0]):
            redundant += 1
    assert all(count >= 20 for count in seen.values()), seen
    assert redundant >= 20


def test_integer_tableau_accepts_ints_and_matches_on_core_shaped_lps():
    # 0/1 constraint columns, integer objective: the shape the core bounds solve
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(2, 5)
        masks = rng.sample(range(1, 1 << m), rng.randint(1, (1 << m) - 1))
        A = [[mask >> i & 1 for mask in masks] + [1, -1] for i in range(m)]
        c = [rng.randint(0, 9) for _ in masks] + [9, -9]
        target = rng.randrange(m)
        for sign in (1, -1):
            b = [sign if i == target else 0 for i in range(m)]
            _assert_same_as_reference(A, b, c)


def test_ratio_ties_leave_by_lowest_basic_index():
    # several rows tie in the ratio test; another leaving row reaches a
    # different optimal vertex, so only Bland's tie-break gives this solution
    A = [[-1, 1, 2, 2, 2, 1], [1, 2, 2, 1, 2, -1], [1, -1, 1, -1, 2, 0]]
    result = _assert_same_as_reference(A, [1, 0, 0], [0, 2, 0, 2, 2, 0])
    assert result.value == F(2, 3)
    assert result.solution == [F(1, 3), F(1, 3), F(0), F(0), F(0), F(1)]
