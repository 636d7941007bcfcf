from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gdag_lab.linprog import _phase1, nonneg_combination

from oracles import Constraint, lp_feasible, phase1_oracle

F = Fraction


def test_constraint_validation():
    with pytest.raises(ValueError):
        Constraint({"x": F(1)}, "<=")


def test_nonneg_combination_simple():
    rows = [(F(1), F(0)), (F(0), F(1))]
    assert nonneg_combination((F(2), F(3)), rows) == [F(2), F(3)]
    assert nonneg_combination((F(-1), F(0)), rows) is None


def test_nonneg_combination_mixed():
    rows = [(F(1), F(1)), (F(1), F(-1))]
    c = nonneg_combination((F(2), F(0)), rows)
    assert c == [F(1), F(1)]
    # (0, 1) needs a negative weight on the second row
    assert nonneg_combination((F(0), F(1)), rows) is None


def test_nonneg_combination_empty_rows():
    assert nonneg_combination((F(0), F(0)), []) == []
    assert nonneg_combination((F(1),), []) is None


def test_nonneg_combination_empty_target():
    # one coefficient per row, even with no coordinate to match
    assert nonneg_combination([], [[], []]) == [0, 0]
    assert nonneg_combination([], []) == []


def test_lp_feasible_basic():
    sol = lp_feasible(
        [
            Constraint({"x": F(1)}, ">=", F(3)),
            Constraint({"x": F(1), "y": F(1)}, "==", F(5)),
            Constraint({"y": F(1)}, ">=", F(1)),
        ]
    )
    assert sol is not None
    assert sol["x"] >= 3 and sol["y"] >= 1 and sol["x"] + sol["y"] == 5


def test_lp_infeasible():
    assert (
        lp_feasible(
            [
                Constraint({"x": F(1)}, ">=", F(1)),
                Constraint({"x": F(-1)}, ">=", F(0)),
            ]
        )
        is None
    )


def test_lp_free_variables():
    sol = lp_feasible([Constraint({"x": F(1)}, "==", F(-7, 3))])
    assert sol is not None and sol["x"] == F(-7, 3)


def _random_system(rng: Random):
    nvars = rng.randint(1, 4)
    names = [f"v{i}" for i in range(nvars)]
    point = {n: F(rng.randint(-6, 6), rng.randint(1, 4)) for n in names}
    cons = []
    for _ in range(rng.randint(1, 6)):
        coeffs = {
            n: F(rng.randint(-3, 3))
            for n in names
            if rng.random() < 0.8
        }
        if not coeffs:
            continue
        lhs = sum(a * point[n] for n, a in coeffs.items())
        if rng.random() < 0.5:
            cons.append(Constraint(coeffs, "==", lhs))
        else:
            cons.append(Constraint(coeffs, ">=", lhs - F(rng.randint(0, 3))))
    return cons, point


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_lp_feasible_finds_constructed_solutions(seed):
    cons, _ = _random_system(Random(seed))
    sol = lp_feasible(cons)
    assert sol is not None
    for c in cons:
        lhs = sum(a * sol.get(n, F(0)) for n, a in c.coeffs.items())
        if c.relation == "==":
            assert lhs == c.rhs
        else:
            assert lhs >= c.rhs


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_nonneg_combination_round_trip(seed):
    rng = Random(seed)
    dim = rng.randint(1, 4)
    rows = [
        tuple(F(rng.randint(-3, 3)) for _ in range(dim))
        for _ in range(rng.randint(1, 5))
    ]
    weights = [F(rng.randint(0, 4)) for _ in rows]
    target = tuple(
        sum(w * r[k] for w, r in zip(weights, rows)) for k in range(dim)
    )
    c = nonneg_combination(target, rows)
    assert c is not None
    assert all(w >= 0 for w in c)
    for k in range(dim):
        assert sum(w * r[k] for w, r in zip(c, rows)) == target[k]


@st.composite
def _dense_systems(draw):
    """A x = b with integer or rational entries, some zero or duplicate
    rows, and b either A x0 for a sparse x0 >= 0 (degenerate ties) or
    arbitrary, so negative and infeasible right-hand sides occur."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        entry = st.integers(-4, 4).map(F)
    else:
        entry = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=5))
    if draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = [F(0)] * n
    if draw(st.booleans()):
        rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    if draw(st.booleans()):
        x0 = draw(st.lists(st.sampled_from([F(0), F(0), F(1), F(2)]), min_size=n, max_size=n))
        rhs = [sum(a * x for a, x in zip(r, x0)) for r in rows]
    else:
        rhs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    return rows, rhs


@st.composite
def _triangle_marginal_systems(draw):
    """The marginal LP of ``inequalities.triangle_gpt_feasible``: q >= 0
    over (a, b, c) matching the (a, b) and (b, c) marginals of a joint
    with large denominators, often sparse, and either its own (a, c)
    marginal (feasible) or the product of its a and c marginals."""
    cards = draw(st.tuples(*[st.integers(1, 3)] * 3))
    cells = list(product(*(range(k) for k in cards)))
    weight = st.one_of(st.just(0), st.integers(1, 10 ** 6))
    weights = draw(st.lists(weight, min_size=len(cells), max_size=len(cells)))
    total = sum(weights) or 1
    p = {cell: F(w, total) for cell, w in zip(cells, weights)}

    def marginal(*axes):
        out = {}
        for cell, v in p.items():
            key = tuple(cell[a] for a in axes)
            out[key] = out.get(key, F(0)) + v
        return out

    pa, pc = marginal(0), marginal(2)
    pac = marginal(0, 2) if draw(st.booleans()) else {
        (a, c): pa[a,] * pc[c,] for a in range(cards[0]) for c in range(cards[2])
    }
    rows, rhs = [], []
    for axes, target in (((0, 1), marginal(0, 1)), ((1, 2), marginal(1, 2)), ((0, 2), pac)):
        for key, value in sorted(target.items()):
            rows.append([F(tuple(cell[a] for a in axes) == key) for cell in cells])
            rhs.append(value)
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(st.one_of(_dense_systems(), _triangle_marginal_systems()))
def test_phase1_matches_fraction_tableau(system):
    """The integer tableau makes the Fraction tableau's pivots: the same
    vertex, or None for both."""
    rows, rhs = system
    x = _phase1(rows, rhs)
    assert x == phase1_oracle(rows, rhs)
    if x is not None:
        assert all(type(v) is F for v in x)
