"""Exact rational linear feasibility via phase-1 simplex with Bland's rule.

No floating point anywhere: inputs and the returned witness are
``Fraction``.  Only feasibility is needed by the rest of the project
(Farkas implication checks and the triangle marginal problem), so no
objective interface is exposed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


def _phase1(rows: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Find x >= 0 with A x = b, or None.  ``rows`` is A (dense)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    A = [list(r) for r in rows]
    b = list(rhs)
    for i in range(m):
        if b[i] < 0:
            A[i] = [-a for a in A[i]]
            b[i] = -b[i]

    # tableau columns: n structural + m artificial
    width = n + m
    T = [A[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]

    # objective: minimize sum of artificials; reduced cost row
    cost = [Fraction(0)] * (width + 1)
    for i in range(m):
        for j in range(width + 1):
            cost[j] -= T[i][j]
    # artificial columns have cost 1; cancel them back
    for i in range(m):
        cost[n + i] += 1

    while True:
        # Bland: entering = lowest-index column with negative reduced cost
        enter = -1
        for j in range(width):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        # ratio test, Bland tie-break on lowest basis index
        leave = -1
        best: Optional[Fraction] = None
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                r = T[i][width] / a
                if best is None or r < best or (r == best and basis[i] < basis[leave]):
                    best = r
                    leave = i
        if leave < 0:
            # unbounded phase-1 objective cannot happen (bounded below by 0)
            raise RuntimeError("phase-1 unbounded")
        piv = T[leave][enter]
        T[leave] = [v / piv for v in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter]:
                f = T[i][enter]
                T[i] = [v - f * w for v, w in zip(T[i], T[leave])]
        if cost[enter]:
            f = cost[enter]
            cost = [v - f * w for v, w in zip(cost, T[leave])]
        basis[leave] = enter

    if -cost[width] != 0:
        return None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = T[i][width]
    return x


def nonneg_combination(
    target: Sequence[Fraction], rows: Sequence[Sequence[Fraction]]
) -> Optional[list[Fraction]]:
    """Coefficients c >= 0 with sum(c_i * rows_i) == target, or None."""
    if not rows:
        return [] if all(t == 0 for t in target) else None
    dim = len(target)
    A = [[Fraction(rows[j][k]) for j in range(len(rows))] for k in range(dim)]
    return _phase1(A, [Fraction(t) for t in target])
