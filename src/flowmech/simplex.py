"""Exact two-phase simplex with Bland's anti-cycling rule.

Solves  maximize c.w  subject to  A w = b, w >= 0  on an integer tableau.
A and b are multiplied by the lcm of their denominators, c by the lcm of
its own; a positive scale changes neither the sign of a reduced cost nor
the order of two ratios, so Bland's rule picks the same pivots as on the
rational tableau.  Pivots are fraction-free (Edmonds; Bareiss 1968): the
tableau is held as integers T with rational tableau T / d, where d is the
previous pivot, and a pivot on p replaces every entry x outside the pivot
row by (x*p - f*y) // d, a division that is always exact.  Fractions are
built only for the result.  Small and dense on purpose: the callers here
have at most a dozen rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Optional[Fraction]
    solution: Optional[list[Fraction]]


def solve_standard_form(
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
) -> LPResult:
    m = len(A)
    n = len(c)
    for row in A:
        if len(row) != n:
            raise ValueError("A and c have inconsistent widths")
    flat, _ = _scaled([x for row in A for x in row] + list(b))
    rows = [flat[i * n:(i + 1) * n] for i in range(m)]
    rhs = flat[m * n:]
    cost, c_scale = _scaled(c)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    # Phase 1: artificial variable per row, drive their sum to zero.  The
    # reduced cost of an original column is minus its column sum.
    tableau = [rows[i] + [int(k == i) for k in range(m)] + [rhs[i]] for i in range(m)]
    tableau.append(
        [-sum(row[j] for row in rows) for j in range(n)] + [0] * m + [-sum(rhs)]
    )
    basis = [n + i for i in range(m)]
    status, d = _pivot_until_optimal(tableau, basis, width=n + m, d=1)
    if status != OPTIMAL or tableau[-1][-1] != 0:
        return LPResult(INFEASIBLE, None, None)

    # Remove artificials: pivot them out of the basis where possible, drop
    # redundant rows otherwise.  Dropping a row whose basic column is a unit
    # vector keeps every other row and d exact.
    keep_rows: list[int] = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if pivot_col is None:
                continue  # redundant constraint
            d = _pivot(tableau, basis, i, pivot_col, d)
        keep_rows.append(i)
    tableau = [tableau[i][:n] + [tableau[i][-1]] for i in keep_rows]
    basis = [basis[i] for i in keep_rows]

    # Phase 2: the objective row in reduced form for the basis, times d.
    z = [-cj * d for cj in cost] + [0]
    for row, var in zip(tableau, basis):
        coeff = cost[var]
        if coeff:
            z = [zj + coeff * x for zj, x in zip(z, row)]
    tableau.append(z)
    status, d = _pivot_until_optimal(tableau, basis, width=n, d=d)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    solution = [Fraction(0)] * n
    for i, var in enumerate(basis):
        solution[var] = Fraction(tableau[i][-1], d)
    return LPResult(OPTIMAL, Fraction(tableau[-1][-1], d * c_scale), solution)


def _scaled(values: Sequence) -> tuple[list[int], int]:
    """The values times the lcm of their denominators, as integers, and
    that lcm."""
    exact = [x if type(x) is int else Fraction(x) for x in values]
    scale = 1
    for x in exact:
        if scale % x.denominator:
            scale = lcm(scale, x.denominator)
    return [x.numerator * (scale // x.denominator) for x in exact], scale


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
