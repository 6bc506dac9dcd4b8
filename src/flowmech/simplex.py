"""Exact simplex from a given feasible basis, with Bland's anti-cycling rule.

Solves  maximize c.w  subject to  A w = b, w >= 0  for integer A, b and c,
starting from a basis the caller supplies: one column per row whose basic
solution is nonnegative.  The core-bound dual always has one (its singleton
columns), so there is no phase 1 and no artificial column.  Pivots are
fraction-free (Edmonds; Bareiss 1968): the tableau is held as integers T
with rational tableau T / d, where d is the previous pivot, and a pivot on p
replaces every entry x outside the pivot row by (x*p - f*y) // d, a division
that is always exact.  Only the optimal value is built as a Fraction.  Small
and dense on purpose: the caller has at most a dozen rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Optional[Fraction]


def solve_standard_form(
    A: Sequence[Sequence[int]],
    b: Sequence[int],
    c: Sequence[int],
    basis: Sequence[int],
) -> LPResult:
    """Pivot column basis[i] into row i for every row, then run Bland's
    rule to an optimum or an unbounded ray.  Raises TypeError for an entry
    that is not an int (the exact division needs integers), and ValueError
    when the shapes disagree, when some basis[i] meets a zero pivot in row
    i (a singular basis), or when the basic solution is negative."""
    m, n = len(A), len(c)
    if len(b) != m or len(basis) != m or any(len(row) != n for row in A):
        raise ValueError("A, b, c and basis have inconsistent sizes")
    if any(type(x) is not int for x in chain(*A, b, c)):
        raise TypeError("A, b and c must hold ints")
    tableau = [list(row) + [rhs] for row, rhs in zip(A, b)]
    tableau.append([-x for x in c] + [0])  # the objective row, reduced by the pivots below
    rows_basis = [-1] * m
    d = 1
    for i, col in enumerate(basis):
        if not 0 <= col < n or tableau[i][col] == 0:
            raise ValueError(f"basis column {col} cannot pivot into row {i}: the basis is singular")
        d = _pivot(tableau, rows_basis, i, col, d)
    if any(row[-1] < 0 for row in tableau[:m]):
        raise ValueError("the basis is infeasible: its basic solution is negative")
    status, d = _pivot_until_optimal(tableau, rows_basis, width=n, d=d)
    return LPResult(status, Fraction(tableau[-1][-1], d) if status == OPTIMAL else None)


def _pivot_until_optimal(tableau, basis, width: int, d: int) -> tuple[str, int]:
    """Bland's rule on the integer tableau with divisor d > 0; returns the
    status and the divisor after the last pivot."""
    z = tableau[-1]
    while True:
        entering = next((j for j in range(width) if z[j] < 0), None)  # Bland: lowest index
        if entering is None:
            return OPTIMAL, d
        leaving: Optional[int] = None
        for i in range(len(basis)):
            coeff = tableau[i][entering]
            if coeff > 0:
                # ratios rhs/coeff compared by cross-multiplying (coeffs > 0)
                if leaving is None:
                    leaving, best_rhs, best_coeff = i, tableau[i][-1], coeff
                    continue
                lhs, rhs = tableau[i][-1] * best_coeff, best_rhs * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving, best_rhs, best_coeff = i, tableau[i][-1], coeff
        if leaving is None:
            return UNBOUNDED, d
        d = _pivot(tableau, basis, leaving, entering, d)


def _pivot(tableau, basis, row: int, col: int, d: int) -> int:
    """Fraction-free pivot on tableau[row][col]; returns the new divisor,
    kept positive by negating the whole tableau after a negative pivot."""
    # rows are mutated in place: callers hold references into the tableau
    prow = tableau[row]
    p = prow[col]
    for i, other in enumerate(tableau):
        if i == row:
            continue
        f = other[col]
        if f:
            other[:] = [(x * p - f * y) // d for x, y in zip(other, prow)]
        elif p != d:
            other[:] = [x * p // d for x in other]
    basis[row] = col
    if p < 0:
        for other in tableau:
            other[:] = [-x for x in other]
        p = -p
    return p
