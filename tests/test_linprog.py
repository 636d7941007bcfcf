from fractions import Fraction
from itertools import product
from math import lcm
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


# Large primes: rhs denominators drawn from them share no factor with
# each other or with the small column denominators.
_PRIMES = (10007, 65537, 999983, 1000003, 2147483647)


@st.composite
def _column_scaled_systems(draw):
    """A x = b whose column and rhs denominators are unrelated: rational
    columns, each over its own denominators, with an integer rhs; or 0/1
    columns with an rhs over large coprime denominators.  The rhs is
    either A x0 for some x0 >= 0 or arbitrary."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    feasible = draw(st.booleans())
    if draw(st.booleans()):
        columns = [
            draw(st.lists(
                st.fractions(min_value=-4, max_value=4, max_denominator=draw(st.integers(1, 30))),
                min_size=m, max_size=m,
            ))
            for _ in range(n)
        ]
        if feasible:
            # x0_j a multiple of column j's common denominator: A x0 is integer
            x0 = [
                draw(st.integers(0, 3)) * lcm(*(v.denominator for v in col))
                for col in columns
            ]
        else:
            x0 = None
            rhs = draw(st.lists(st.integers(-5, 5).map(F), min_size=m, max_size=m))
    else:
        columns = [draw(st.lists(st.sampled_from([F(0), F(1)]), min_size=m, max_size=m)) for _ in range(n)]
        large = st.builds(
            F, st.integers(0, 10 ** 6), st.sampled_from(_PRIMES)
        )
        if feasible:
            x0 = draw(st.lists(st.one_of(st.just(F(0)), large), min_size=n, max_size=n))
        else:
            x0 = None
            rhs = draw(st.lists(large, min_size=m, max_size=m))
    rows = [[col[i] for col in columns] for i in range(m)]
    if x0 is not None:
        rhs = [sum((a * x for a, x in zip(r, x0)), F(0)) for r in rows]
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(_column_scaled_systems())
def test_phase1_column_scaling_matches_oracle(system):
    """Per-column and rhs scaling makes the unscaled tableau's pivots,
    and the vertex returned solves A x = b, x >= 0 exactly."""
    rows, rhs = system
    x = _phase1(rows, rhs)
    assert x == phase1_oracle(rows, rhs)
    if x is not None:
        assert all(type(v) is F and v >= 0 for v in x)
        for r, b in zip(rows, rhs):
            assert sum((a * v for a, v in zip(r, x)), F(0)) == b


def _cut_lp(cards, p):
    """The cut-inflation LP of ``inequalities.triangle_gpt_feasible`` for
    a joint ``p`` over cells (a, b, c): q >= 0 with q's (a, b) and (b, c)
    marginals those of p and its (a, c) marginal P(a) P(c), as a target
    and one 0/1 column per cell."""
    cells = list(product(*(range(k) for k in cards)))

    def marginal(*axes):
        out = dict.fromkeys(product(*(range(cards[a]) for a in axes)), F(0))
        for cell in cells:
            out[tuple(cell[a] for a in axes)] += p[cell]
        return out

    pa, pc = marginal(0), marginal(2)
    blocks = (
        ((0, 1), marginal(0, 1)),
        ((1, 2), marginal(1, 2)),
        ((0, 2), {(a, c): pa[a,] * pc[c,] for a, c in product(range(cards[0]), range(cards[2]))}),
    )
    target, keys = [], []
    for axes, table in blocks:
        for key in sorted(table):
            target.append(table[key])
            keys.append((axes, key))
    columns = [
        [int(tuple(cell[a] for a in axes) == key) for axes, key in keys]
        for cell in cells
    ]
    return target, columns


@pytest.mark.parametrize("cards", [(4, 4, 4), (5, 4, 5)], ids=str)
def test_cut_lp_exact_point(cards):
    """A seeded full-support joint with large denominators: the cut LP
    has an exact nonnegative solution; perfect correlation has none."""
    rng = Random(20)
    cells = list(product(*(range(k) for k in cards)))
    weights = [rng.randint(1, 10 ** 6) for _ in cells]
    p = {cell: F(w, sum(weights)) for cell, w in zip(cells, weights)}
    target, columns = _cut_lp(cards, p)
    q = nonneg_combination(target, columns)
    assert q is not None
    assert all(type(v) is F and v >= 0 for v in q)
    for k, t in enumerate(target):
        assert sum(v for v, col in zip(q, columns) if col[k]) == t

    k = min(cards)
    ghz = {cell: F(int(cell[0] == cell[1] == cell[2]), k) for cell in cells}
    assert nonneg_combination(*_cut_lp(cards, ghz)) is None
