from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gdag_lab.linprog import nonneg_combination

from oracles import Constraint, lp_feasible

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
