"""Exact rational linear feasibility via phase-1 simplex with Bland's rule.

No floating point anywhere: inputs are ints or ``Fraction`` and the
returned witness is ``Fraction``.  The tableau is pivoted in integers
(Bareiss' fraction-free elimination): every entry is held as an integer
over the current basis determinant, and each pivot divides exactly by
the previous one.

To make the system integer, each structural column j of A is scaled by
d_j, the lcm of that column's own denominators, and b by s, the lcm of
b's; phase 1 runs on A D y = s b with y >= 0, and x_j = d_j y_j / s.
Scaling a column by d_j > 0 multiplies its reduced cost by d_j (the
phase-1 duals are unchanged, since basic structural columns cost 0) and
each of its ratios by s / d_j, so Bland's entering column, the leaving
row and every tie are those of the unscaled rational tableau, and so
is the returned vertex.  One common denominator for all of A and b
would give the same pivots too, but it turns every 1 of a 0/1 marginal
matrix into that denominator, and the basis determinant grows by that
factor with each structural pivot; per-column scaling keeps such a
matrix 0/1 and only the rhs holds large numbers.  Rows are not scaled,
since that would change the phase-1 objective.

Only feasibility is needed by the rest of the project (Farkas
implication checks and the triangle marginal problem), so no objective
interface is exposed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Optional, Sequence


def _phase1(
    rows: Sequence[Sequence[Rational]], rhs: Sequence[Rational]
) -> Optional[list[Fraction]]:
    """Find x >= 0 with A x = b, or None.  ``rows`` is A (dense)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    # structural column j is scaled by d[j] and the rhs by s, each the
    # lcm of its own denominators (see the module docstring)
    d = [1] * n
    for r in rows:
        d = [lcm(dj, v.denominator) for dj, v in zip(d, r)]
    s = lcm(*[v.denominator for v in rhs])

    # tableau columns: n structural + m artificial + rhs; each row is
    # negated where b < 0, artificials stay unit
    width = n + m
    T = []
    for i, (r, b) in enumerate(zip(rows, rhs)):
        sign = -1 if b < 0 else 1
        row = [sign * v.numerator * dj // v.denominator for v, dj in zip(r, d)]
        row += [0] * m
        row[n + i] = 1
        row.append(sign * b.numerator * s // b.denominator)
        T.append(row)
    basis = [n + i for i in range(m)]

    # objective: minimize sum of artificials; reduced cost row, whose
    # artificial entries cancel to 0
    cost = [-sum(col) for col in zip(*T)] if m else [0] * (width + 1)
    cost[n:width] = [0] * m

    # every entry is its rational value times det, the current basis
    # determinant (positive: each pivot is)
    det = 1
    while True:
        # Bland: entering = lowest-index column with negative reduced cost
        enter = next((j for j in range(width) if cost[j] < 0), -1)
        if enter < 0:
            break
        # ratio test by cross-multiplication, Bland tie-break on lowest
        # basis index
        leave = -1
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = T[i][width] * T[leave][enter]
                best = T[leave][width] * a
                if lhs < best or (lhs == best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # unbounded phase-1 objective cannot happen (bounded below by 0)
            raise RuntimeError("phase-1 unbounded")
        pivot = T[leave]
        p = pivot[enter]
        for i in range(m):
            if i == leave:
                continue
            row = T[i]
            f = row[enter]
            if f:
                T[i] = [(p * v - f * w) // det for v, w in zip(row, pivot)]
            elif p != det:
                T[i] = [v * p // det for v in row]
        f = cost[enter]
        cost = [(p * v - f * w) // det for v, w in zip(cost, pivot)]
        det = p
        basis[leave] = enter

    if cost[width] != 0:
        return None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(T[i][width] * d[j], det * s)
    return x


def nonneg_combination(
    target: Sequence[Rational], rows: Sequence[Sequence[Rational]]
) -> Optional[list[Fraction]]:
    """Coefficients c >= 0 with sum(c_i * rows_i) == target, or None."""
    if not rows or not target:
        return [Fraction(0)] * len(rows) if not any(target) else None
    A = [[r[k] for r in rows] for k in range(len(target))]
    return _phase1(A, target)
