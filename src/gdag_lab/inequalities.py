"""Theory-independent necessary conditions for the triangle and
instrumental causal structures."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .linprog import nonneg_combination
from .models import ConditionalDistribution, Distribution, ModelError
from .models import entropy, mutual_information

#: A monogamy margin above this many bits certifies a violation; smaller
#: positive values are floating-point noise in the entropies.
MONOGAMY_TOL = 1e-9


def _three_vars(p: Distribution) -> tuple[str, str, str]:
    if len(p.variables) != 3:
        raise ModelError("expected a distribution over exactly three variables")
    a, b, c = p.names
    return a, b, c


def triangle_monogamy_margin(p: Distribution) -> float:
    """I(A:B) + I(B:C) - H(B) in bits; > 0 certifies p is not realizable
    in the triangle structure in any probabilistic theory."""
    a, b, c = _three_vars(p)
    iab, ibc = mutual_information(p, {a}, {b}), mutual_information(p, {b}, {c})
    return iab + ibc - entropy(p, {b})


def triangle_gpt_feasible(p: Distribution) -> bool:
    """Exact feasibility of a surrogate joint P' with P'(a,b) = P(a,b),
    P'(b,c) = P(b,c) and P'(a,c) = P(a) P(c).

    Infeasibility certifies that p cannot arise in the triangle
    structure in any probabilistic theory.
    """
    a, b, c = _three_vars(p)
    ca, cb, cc = (p.card(n) for n in (a, b, c))
    pa = p.marginal([a]).probs
    pc = p.marginal([c]).probs
    # Nonnegative q with three families of marginal equalities; feasibility
    # is q >= 0 with A q = b, i.e. b is a nonnegative combination of A's
    # columns.  Rows are the row-major (a,b), (b,c) and (a,c) tables, in
    # that order, so q(a,b,c) has a 1 in one row of each block.
    target = [
        *p.marginal([a, b]).probs,
        *p.marginal([b, c]).probs,
        *(x * y for x in pa for y in pc),
    ]
    at_bc = ca * cb  # where the (b,c) and (a,c) blocks start
    at_ac = at_bc + cb * cc
    columns = []
    for av, bv, cv in product(range(ca), range(cb), range(cc)):
        col = [0] * len(target)
        for k in (av * cb + bv, at_bc + bv * cc + cv, at_ac + av * cc + cv):
            col[k] = 1
        columns.append(col)
    return nonneg_combination(target, columns) is not None


def instrumental_value(p: ConditionalDistribution) -> Fraction:
    """max_b sum_a max_y P(a,b|y); a value > 1 certifies the family is
    not realizable in the instrumental structure in any theory."""
    if len(p.variables) != 2 or len(p.given) != 1:
        raise ModelError("expected a family P(a,b|y) with a single index")
    ca = p.variables[0][1]
    cb = p.variables[1][1]
    cy = p.given[0][1]
    slices = [p.slice((y,)) for y in range(cy)]
    best = Fraction(0)
    for bv in range(cb):
        s = Fraction(0)
        for av in range(ca):
            s += max(sl.prob((av, bv)) for sl in slices)
        best = max(best, s)
    return best
