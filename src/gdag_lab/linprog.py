"""Exact rational linear feasibility via phase-1 simplex with Bland's rule.

No floating point anywhere: inputs are ints or ``Fraction`` and the
returned witness is ``Fraction``.  The tableau is pivoted in integers
(Bareiss' fraction-free elimination): the system is scaled by one
common denominator, every entry is held as an integer over the current
basis determinant, and each pivot divides exactly by the previous one.
The pivots are those of a rational tableau under Bland's rule, so the
returned vertex is too.  Only feasibility is needed by the rest of the
project (Farkas implication checks and the triangle marginal problem),
so no objective interface is exposed.
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
    scale = lcm(*(v.denominator for r in (*rows, rhs) for v in r))

    # tableau columns: n structural + m artificial + rhs; each row is
    # scaled by `scale` and negated where b < 0, artificials stay unit
    width = n + m
    T = []
    for i, (r, b) in enumerate(zip(rows, rhs)):
        s = -scale if b < 0 else scale
        row = [v.numerator * s // v.denominator for v in r]
        row += [0] * m
        row[n + i] = 1
        row.append(b.numerator * s // b.denominator)
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
            x[j] = Fraction(T[i][width], det)
    return x


def nonneg_combination(
    target: Sequence[Rational], rows: Sequence[Sequence[Rational]]
) -> Optional[list[Fraction]]:
    """Coefficients c >= 0 with sum(c_i * rows_i) == target, or None."""
    if not rows or not target:
        return [Fraction(0)] * len(rows) if not any(target) else None
    A = [[r[k] for r in rows] for k in range(len(target))]
    return _phase1(A, target)
