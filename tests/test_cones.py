import json
import sys
from fractions import Fraction
from hashlib import sha256
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gdag_lab import cones
from gdag_lab.catalog import (
    bell_gdag,
    chain,
    collider,
    extended_bell_gdag,
    instrumental_gdag,
    one_sided_bell_gdag,
    triangle_gdag,
)
from gdag_lab.cones import (
    Cone,
    ConeError,
    LinIneq,
    _eliminate_coord,
    _markov_rows,
    _minimize,
    _rows_implies,
    derive_classical_cone,
    derive_independence_cone,
    elemental_inequalities,
    implied_by,
)
from gdag_lab.graph import GDag, NodeKind
from gdag_lab.linprog import nonneg_combination
from gdag_lab.models import entropy, observed_from_classical_gmc

from generators import (
    random_classical_gmc,
    random_gdag,
    random_markov_model,
)
from oracles import Constraint, lp_feasible

F = Fraction


def cone_implies(a: Cone, b: Cone) -> bool:
    """Every inequality of b follows from a."""
    return all(implied_by(i, a) for i in b.ineqs())


def cones_equivalent(a: Cone, b: Cone) -> bool:
    return cone_implies(a, b) and cone_implies(b, a)


def _entropy_vector(p) -> dict[frozenset[str], float]:
    """Entropies of every nonempty subset of p's variables."""
    return {
        frozenset(s): entropy(p, s)
        for k in range(1, len(p.names) + 1)
        for s in combinations(p.names, k)
    }


def _value(ineq: LinIneq, h: dict[frozenset[str], float]) -> float:
    """sum(coeffs[S] * h[S]): ineq's left side at the entropy vector h."""
    return sum(float(c) * h[s] for s, c in ineq.coeffs.items())


# -- inequality and cone data types ------------------------------------


def test_linineq_validation():
    with pytest.raises(ConeError):
        LinIneq({})
    with pytest.raises(ConeError):
        LinIneq({frozenset({"A"}): F(0)})
    with pytest.raises(ConeError):
        LinIneq({frozenset(): F(1)})
    i = LinIneq({frozenset({"A"}): F(1), frozenset({"B"}): F(0)})
    assert list(i.coeffs) == [frozenset({"A"})]


def test_linineq_rejects_string_subset_key():
    """"LAB" would read as the subset {L, A, B}."""
    with pytest.raises(ConeError, match="string"):
        LinIneq({"LAB": 1})
    with pytest.raises(ConeError, match="string"):
        LinIneq({frozenset({"A"}): 1, "B": 1})


@pytest.mark.parametrize("coef", [0.1, 1.0, True, False], ids=["0.1", "1.0", "True", "False"])
def test_linineq_rejects_float_or_bool_coefficient(coef):
    """0.1 would become the binary fraction 3602879701896397/2**55, and a
    bool would read as 0 or 1: only ints and Fractions are exact input."""
    with pytest.raises(ConeError, match="bool or float"):
        LinIneq({frozenset({"A"}): coef, frozenset({"B"}): 1})


def test_cone_row_round_trip():
    c = elemental_inequalities(("A", "B"))
    for ineq in c.ineqs():
        assert c.row_of(ineq) in c.rows
    with pytest.raises(ConeError):
        c.row_of(LinIneq({frozenset({"Z"}): F(1)}))


@pytest.mark.parametrize(
    "variables", [("A,B", "A", "B"), ("A,B", "C"), ("A", 1), ("A B",)],
    ids=[
        "comma-reads-as-other-names", "comma-reads-as-unknown-name", "not-a-string",
        "whitespace",
    ],
)
def test_cone_variable_must_be_a_string_without_comma(variables):
    """Subsets are written as their names joined by ",", so a name with a
    "," would read back as other variables."""
    with pytest.raises(ConeError, match="cone variable"):
        Cone(variables, ())
    text = json.dumps({"variables": list(variables), "ineqs": []})
    with pytest.raises(ConeError, match="cone variable"):
        Cone.from_json(text)


def test_cone_json_round_trip():
    c = derive_independence_cone(chain())
    assert Cone.from_json(c.to_json()) == Cone(
        c.variables, tuple(sorted(c.rows))
    )
    with pytest.raises(ConeError):
        Cone.from_json("{}")


@pytest.mark.parametrize(
    "text",
    [
        '{"variables": ["A"], "ineqs": [{"coeffs": {"A": "1/0"}}]}',
        '{"variables": ["A", "A"], "ineqs": [{"coeffs": {"A": "1/1"}}]}',
        '{"variables": ["A"], "ineqs": [{"coeffs": {"B": "1/1"}}]}',
        '{"variables": ["A"], "ineqs": [{"coeffs": []}]}',
        '{"variables": ["A"], "ineqs": [{"coeffs": {"A": "1/1", "B": "0"}}]}',
        '{"variables": ["A"], "ineqs": [{"coeffs": {"A": 1e999}}]}',
        '{"variables": ["A"], "ineqs": [{"coeffs": {"A": "1e999"}}]}',
        '{"variables": ["A"], "ineqs": [{"coeffs": {"A": true}}]}',
        '{"variables": ["A"], "ineqs": [{"coeffs": {"A": 0.1}}]}',
        "[" * 100_000,
        '{"variables": ' + json.dumps([f"V{i}" for i in range(40)])
        + ', "ineqs": [{"coeffs": {"V0": "1"}}]}',
        '{"variables": "AB", "ineqs": [{"coeffs": {"A": "1"}}]}',
        '{"variables": ["A"], "ineqs": {}}',
        '{"variables": ["A"], "ineqs": [{"coeffs": {"A": " 1/2 "}}]}',
    ],
    ids=[
        "zero-denominator", "repeated-variable", "unknown-variable",
        "list-coeffs", "unknown-variable-zero-coefficient", "float-overflow",
        "exponent", "bool", "float", "deep-nesting", "too-many-variables",
        "string-variables", "object-ineqs", "padded-rational",
    ],
)
def test_cone_from_json_bad_input(text):
    with pytest.raises(ConeError):
        Cone.from_json(text)


def test_cone_rejects_repeated_variables():
    # with "A" twice, subset masks 1 and 2 would both mean {A}
    with pytest.raises(ConeError, match="repeated cone variable"):
        Cone(("A", "A"), ((1, 0, 0),))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Cone(("A", "B"), ((1, 0),)), "row length does not match variable count"),
        (lambda: elemental_inequalities(()), "need at least one variable"),
        (lambda: elemental_inequalities(tuple("ABCDEFGHI")), "too many variables"),
        (lambda: derive_independence_cone(GDag([("L", NodeKind.UNOBSERVED)])),
         "graph has no observed nodes"),
    ],
    ids=["row-length", "no-variable", "nine-variables", "no-observed-node"],
)
def test_cone_input_checks(make, message):
    with pytest.raises(ConeError) as e:
        make()
    assert str(e.value) == message


def test_cone_rows_keep_sign():
    # H(A) >= 0 and -H(A) >= 0 are different inequalities
    up = Cone(("A",), ((1,),))
    down = Cone(("A",), ((-1,),))
    assert up.rows != down.rows
    assert implied_by(LinIneq({frozenset({"A"}): F(1)}), up)
    assert not implied_by(LinIneq({frozenset({"A"}): F(1)}), down)


def test_elemental_counts():
    # n + C(n, 2) * 2^(n-2) elemental inequalities
    assert len(elemental_inequalities(("A", "B")).rows) == 3
    assert len(elemental_inequalities(("A", "B", "C")).rows) == 9
    assert len(elemental_inequalities(("A", "B", "C", "D")).rows) == 28


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_elemental_hold_on_entropy_vectors(seed):
    rng = Random(seed)
    g = random_gdag(rng, max_nodes=4, p_unobserved=0.0)
    p = observed_from_classical_gmc(random_markov_model(rng, g))
    h = _entropy_vector(p)
    for ineq in elemental_inequalities(p.names).ineqs():
        assert _value(ineq, h) >= -1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_markov_rows_vanish_on_markov_joints(seed):
    rng = Random(seed)
    g = random_gdag(rng, max_nodes=4, p_unobserved=0.0)
    p = observed_from_classical_gmc(random_markov_model(rng, g))
    h = _entropy_vector(p)
    for ineq in Cone(g.names, tuple(_markov_rows(g))).ineqs():
        assert abs(_value(ineq, h)) <= 1e-9


def test_markov_rows_chain():
    g = chain()
    rows = Cone(g.names, tuple(_markov_rows(g))).ineqs()
    # X and Z have no nondescendants beyond their parents, so only Y
    # contributes: -I(Y; X | Z) >= 0.
    vals = [i.coeffs for i in rows]
    assert {
        frozenset({"X", "Z"}): F(-1),
        frozenset({"Y", "Z"}): F(-1),
        frozenset({"X", "Y", "Z"}): F(1),
        frozenset({"Z"}): F(1),
    } in vals


# -- Fourier-Motzkin ----------------------------------------------------


def _project(rows, mask):
    """One Fourier-Motzkin step on the coordinate of subset ``mask``,
    then the redundancy pass."""
    return _minimize(_eliminate_coord(list(rows), mask - 1))


def test_fm_two_variable_shannon():
    c = elemental_inequalities(("A", "B"))
    live = set(_project(c.rows, 0b11))  # drop the joint coord
    # projection of the Shannon cone onto (H(A), H(B)) is the quadrant
    assert (1, 0, 0) in live
    assert (0, 1, 0) in live
    assert all(r[2] == 0 for r in live)
    assert len(live) == 2


def _satisfies(rows, point):
    return all(
        sum(F(a) * x for a, x in zip(r, point)) >= 0 for r in rows
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_fm_projection_oracle(seed):
    """A point satisfies the projected system iff it extends to the full
    system, checked with the exact LP."""
    rng = Random(seed)
    vars3 = ("A", "B")  # coords: A, B, AB
    rows = tuple(
        tuple(rng.randint(-3, 3) for _ in range(3))
        for _ in range(rng.randint(1, 6))
    )
    rows = tuple(r for r in rows if any(r))
    if not rows:
        return
    out = _project(Cone(vars3, rows).rows, 0b11)
    point = [F(rng.randint(-4, 4)), F(rng.randint(-4, 4))]
    ok_proj = _satisfies([r[:2] for r in out], point)
    cons = [
        Constraint(
            {"t": F(r[2])},
            ">=",
            -(F(r[0]) * point[0] + F(r[1]) * point[1]),
        )
        for r in rows
    ]
    ok_ext = lp_feasible(cons) is not None
    assert ok_proj == ok_ext


# -- derived cones ------------------------------------------------------


def test_classical_equals_independence_all_observed():
    for g in (chain(), collider()):
        ec = derive_classical_cone(g)
        ei = derive_independence_cone(g)
        assert cones_equivalent(ec, ei)


def test_one_sided_bell_cones():
    g = one_sided_bell_gdag()
    ec = derive_classical_cone(g)
    ei = derive_independence_cone(g)
    assert ec.variables == g.observed_nodes()
    # E_C is always at least as strong as E_I
    assert cone_implies(ec, ei)


def test_size_guard():
    big = random_gdag(Random(0), max_nodes=6)
    # force an oversized graph
    g = GDag([(f"N{i}", NodeKind.OBSERVED) for i in range(7)])
    with pytest.raises(ConeError):
        derive_classical_cone(g)
    with pytest.raises(ConeError):
        derive_independence_cone(g)
    assert derive_independence_cone(big, allow_large=True) is not None


def test_independence_cone_guard_counts_observed_nodes():
    """E_I is built over the observed nodes, so the 8-node extended Bell
    graph, with 4 observed, needs no flag; E_C still counts every node."""
    g = extended_bell_gdag()
    assert derive_independence_cone(g) == derive_independence_cone(g, allow_large=True)
    with pytest.raises(ConeError, match="8 nodes"):
        derive_classical_cone(g)
    seven = GDag(
        [(f"N{i}", NodeKind.OBSERVED) for i in range(7)] + [("L", NodeKind.UNOBSERVED)],
        [("L", "N0"), ("L", "N1")],
    )
    with pytest.raises(ConeError, match="7 observed nodes"):
        derive_independence_cone(seven)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_classical_cone_sound_on_models(seed):
    """Observed entropy vectors of classical models satisfy E_C."""
    rng = Random(seed)
    g = one_sided_bell_gdag()
    ec = derive_classical_cone(g)
    m = random_classical_gmc(rng, g)
    if m is None:
        return
    h = _entropy_vector(observed_from_classical_gmc(m))
    for ineq in ec.ineqs():
        assert _value(ineq, h) >= -1e-9


def test_minimality_of_derived_cones():
    """No row of a public cone is implied by the remaining rows."""
    for c in (
        derive_independence_cone(chain()),
        derive_classical_cone(collider()),
        derive_independence_cone(one_sided_bell_gdag()),
    ):
        rows = list(c.rows)
        for i, r in enumerate(rows):
            rest = Cone(c.variables, tuple(rows[:i] + rows[i + 1:]))
            ineq = c.ineqs()[i]
            assert not implied_by(ineq, rest)


#: The triangle's monogamy inequality, I(A;B) + I(B;C) <= H(B).
MONOGAMY = LinIneq(
    {
        frozenset({"A"}): F(-1),
        frozenset({"B"}): F(-1),
        frozenset({"C"}): F(-1),
        frozenset({"A", "B"}): F(1),
        frozenset({"B", "C"}): F(1),
    }
)


def test_monogamy_not_shannon():
    shannon = elemental_inequalities(("A", "B", "C"))
    assert not implied_by(MONOGAMY, shannon)
    for ineq in shannon.ineqs():
        assert implied_by(ineq, shannon)


# -- exact verification of the float LP ---------------------------------


def _exact_answer(rows, target) -> bool:
    return (
        nonneg_combination(
            [F(t) for t in target], [[F(c) for c in r] for r in rows]
        )
        is not None
    )


@st.composite
def _small_systems(draw, coef=st.integers(-3, 3)):
    """Rows of ``coef`` entries plus a target that is a nonnegative
    combination of them (feasible) or arbitrary (mostly infeasible)."""
    dim = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[coef] * dim), min_size=1, max_size=6))
    if draw(st.booleans()):
        lam = draw(
            st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows))
        )
        target = tuple(
            sum(l * r[k] for l, r in zip(lam, rows)) for k in range(dim)
        )
    else:
        target = draw(st.tuples(*[coef] * dim))
    return rows, target


@settings(max_examples=150, deadline=None)
@given(_small_systems())
def test_rows_implies_matches_exact_lp(system):
    rows, target = system
    assert _rows_implies(rows, target) == _exact_answer(rows, target)


def _fake_lp(mp, answer):
    """Replace the HiGHS model by a fake whose every solve returns
    ``answer(m, n)`` for its m rows and n columns: (True, y) proposing a
    Farkas vector, (False, lam) proposing one multiplier per row, or None
    for a solve that proposes neither.  Returns the list the fake appends
    each tested row to."""
    calls = []

    class FakeLp:
        def __init__(self, np, a, live):
            self.shape = a.shape

        def cap(self, i, upper):
            pass

        def solve(self, j):
            calls.append(j)
            return answer(*self.shape)

    mp.setattr(cones, "_HighsLp", FakeLp)
    return calls


@pytest.mark.parametrize(
    "rows, target, proposal, answer",
    [
        # (-1, 0) is not implied, yet the fake LP proposes multipliers
        # with both rows in the support.
        ([(1, 0), (0, 1)], (-1, 0), (False, [1.0, 1.0, 1.0]), False),
        # (1, 1) = (1, 0) + (0, 1), yet the fake LP proposes the Farkas
        # vector y = (1, 0), which violates (1, 0) . y <= 0.
        ([(1, 0), (0, 1)], (1, 1), (True, [1.0, 0.0]), True),
        # The multipliers combine to (1, 1) = -1 * (-1, -1), a negative
        # multiple.
        ([(1, 0), (0, 1)], (-1, -1), (False, [1.0, 1.0, 1.0]), False),
        # (1, 2) is implied, but the multipliers combine to (1, 1): the
        # support solve finds the right ones.
        ([(1, 0), (0, 1)], (1, 2), (False, [1.0, 1.0, 1.0]), True),
    ],
)
def test_wrong_proposal_is_not_trusted(rows, target, proposal, answer, monkeypatch):
    calls = _fake_lp(monkeypatch, lambda m, n: proposal)
    assert _rows_implies(rows, target) == answer
    assert calls


def _adversarial(data, m, n):
    """A fake HiGHS proposal for m rows and n columns, scaled by a factor
    of either sign and any size, as a dual ray may be: either
    multipliers of either sign, mostly not combining to a positive
    multiple of the target, or an arbitrary Farkas vector y."""
    scale = data.draw(st.sampled_from([1.0, -1.0, 3.0, 1e-6, -2.5e7]), label="scale")
    if data.draw(st.booleans(), label="claims implied"):
        lam = st.lists(
            st.sampled_from([0.0, 1.0, 0.5, 3.0, -1.0, 1e-12]),
            min_size=m,
            max_size=m,
        )
        return False, [scale * v for v in data.draw(lam)]
    y = st.lists(
        st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), min_size=n, max_size=n
    )
    return True, [scale * v for v in data.draw(y)]


@settings(max_examples=150, deadline=None)
@given(_small_systems(), st.data())
def test_rows_implies_exact_under_adversarial_lp(system, data):
    """Whatever support or Farkas vector the float LP proposes, the answer
    equals the exact LP's."""
    rows, target = system
    with pytest.MonkeyPatch.context() as mp:
        calls = _fake_lp(mp, lambda m, n: _adversarial(data, m, n))
        assert _rows_implies(rows, target) == _exact_answer(rows, target)
    assert calls or not any(target) or target in rows


@st.composite
def _row_sets(draw):
    """Small integer rows plus exact copies, positive multiples and
    negations of some of them, and maybe a zero row, shuffled."""
    dim = draw(st.integers(1, 4))
    base = draw(
        st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=6)
    )
    copies = draw(
        st.lists(
            st.tuples(st.sampled_from(base), st.sampled_from([1, 2, -1])),
            max_size=4,
        )
    )
    rows = base + [tuple(s * c for c in r) for r, s in copies]
    if draw(st.booleans()):
        rows.append((0,) * dim)
    return draw(st.permutations(rows))


def _minimize_without_scipy(rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "scipy.optimize", None)
        return cones._minimize(rows)


@settings(max_examples=150, deadline=None)
@given(_row_sets())
def test_minimize_warm_model_matches_exact(rows):
    """One pass's model bounds each tested row below by 1, frees each
    dropped row and restores each kept one: whether it proposes a Farkas
    vector equals whether a cold ``linprog`` solve finds r_j.y >= 1 with
    the rows still live at r.y <= 0 feasible; each proposal holds in
    floats (the vector refutes the tested row, the multipliers, >= 0 on
    the live rows, combine to it); and the rows kept equal the exact
    simplex's with SciPy hidden."""
    np = pytest.importorskip("numpy")
    from scipy.optimize import linprog

    proposed = []
    confirm = cones._FloatRows.confirm

    def spy(self, j, refutes, values):
        # the pass's coordinates, on which a Farkas vector is proposed
        ints = np.array(self.rows, dtype=float)[:, self.coords]
        proposed.append((ints, self.live.copy(), j, refutes, np.array(values, dtype=float)))
        return confirm(self, j, refutes, values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones._FloatRows, "confirm", spy)
        kept = cones._minimize(rows)
    # with two distinct nonzero rows the first of them gets a proposal
    assert proposed or len({r for r in rows if any(r)}) < 2
    for ints, live, j, refutes, values in proposed:
        rest, target = ints[live], ints[j]
        cold = linprog(
            np.zeros(len(target)),
            A_ub=np.vstack([rest, -target]),
            b_ub=[0] * len(rest) + [-1],
            bounds=(None, None),
        )
        assert cold.status in (0, 2)
        assert refutes == (cold.status == 0)
        if refutes:
            assert target @ values >= 1 - 1e-7
            assert (rest @ values <= 1e-7).all()
        else:
            assert (values[live] >= -1e-9).all()
            assert values[live] @ rest == pytest.approx(target, abs=1e-7)
    assert kept == _minimize_without_scipy(rows)


@settings(max_examples=150, deadline=None)
@given(
    _row_sets().filter(lambda rows: len({r for r in rows if any(r)}) > 1),
    st.data(),
)
def test_minimize_exact_under_adversarial_lp(rows, data):
    """A model that answers a whole pass adversarially, its first solve
    not optimal, leaves the rows kept as the exact simplex's."""

    def answer(m, n):
        # calls already holds this solve's objective
        return _adversarial(data, m, n) if len(calls) > 1 else None

    with pytest.MonkeyPatch.context() as mp:
        calls = _fake_lp(mp, answer)
        kept = cones._minimize(rows)
    assert calls
    assert kept == _minimize_without_scipy(rows)


class _Fallback(Exception):
    pass


#: an integer plus noise in units of LP_TOL * max(1, |n|), around both
#: of the fast path's bounds: the tolerance and the size 0.5 / LP_TOL
_NEAR_INTEGERS = st.lists(
    st.builds(
        lambda n, e: n + e * cones.LP_TOL * max(1, abs(n)),
        st.one_of(
            st.integers(-4, 4),
            st.integers(-(10**10), 10**10),
            st.sampled_from([499_999_999, -500_000_000, 500_000_001, 2**53]),
        ),
        st.sampled_from([0.0, 0.5, -0.5, 0.99, -1.0, 1.01, -2.0, 1e3, 1e8]),
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(_NEAR_INTEGERS)
def test_integral_proposal_read_without_fractions(values):
    """Every vector that ``_proposed`` reads by rounding, with no
    continued fraction, equals the vector of the values' convergents
    scaled by ``_normalize``."""
    np = pytest.importorskip("numpy")
    expected = cones._normalize([cones._convergent(v) for v in values])

    def fallback(v):
        raise _Fallback

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "_convergent", fallback)
        try:
            fast = cones._proposed(np, values)
        except _Fallback:
            return
    assert fast == expected


def test_integral_proposal_skips_fractions():
    """Integers within LP_TOL are read by rounding; 1/2 and a value as
    large as 0.5 / LP_TOL take the continued-fraction route."""
    np = pytest.importorskip("numpy")
    assert cones._proposed(np, [2.0, -4.0000000001, 0.0]) == (1, -2, 0)
    assert cones._proposed(np, [0.0, 0.0]) is None
    rationalized = []
    convergent = cones._convergent

    def spy(v):
        rationalized.append(v)
        return convergent(v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "_convergent", spy)
        assert cones._proposed(np, [1.0, 3.0]) == (1, 3)
        assert not rationalized
        assert cones._proposed(np, [0.5, 1.0]) == (1, 2)
        assert cones._proposed(np, [5e8, 1.0]) == (500_000_000, 1)
    assert rationalized


def test_pool_matrix_turns_to_python_ints():
    """The pool's matrix stays int64 while every vector's sizes sum below
    2**63, then holds every vector, the earlier ones too, as Python
    ints."""
    np = pytest.importorskip("numpy")
    pool = cones._Pool()
    pool.add(np, (1, -2, 0))
    assert pool.ys.dtype == np.int64 and pool.weight == 3
    pool.add(np, (2**62, 2**62, -1))
    assert pool.ys.dtype == object and pool.weight == 2**63 + 1
    assert pool.ys.tolist() == [[1, -2, 0], [2**62, 2**62, -1]]


def test_exact_dtype_bound():
    """int64 exactly while no partial sum can reach 2**63."""
    np = pytest.importorskip("numpy")
    assert cones._exact_dtype(np, 1, 2**63 - 1) is np.int64
    assert cones._exact_dtype(np, 1, 2**63) is object
    assert cones._exact_dtype(np, 2**31, 2**32 - 1) is np.int64
    assert cones._exact_dtype(np, 2**31, 2**32) is object


#: entries 0 or at least 2**40 in size: a dual check's weight includes
#: the largest entry, so its products pass the int64 bound
_BIG = st.one_of(
    st.just(0),
    st.builds(
        lambda c, d: c * 2**40 + d,
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
        st.integers(-3, 3),
    ),
)


@settings(max_examples=100, deadline=None)
@given(_small_systems(_BIG))
def test_big_integer_rows_match_exact(system):
    rows, target = system
    assert _rows_implies(rows, target) == _exact_answer(rows, target)
    assert cones._minimize(rows) == _minimize_without_scipy(rows)


def test_big_rows_dual_check_on_python_ints(monkeypatch):
    """Rows of size 2**40 + 1: HiGHS's duals for an implied target are
    multiplied out as Python ints and decide with no exact solve."""
    pytest.importorskip("scipy.optimize")
    chosen = []
    pick = cones._exact_dtype

    def spy(np, peak, weight):
        chosen.append(pick(np, peak, weight))
        return chosen[-1]

    def fallback(*args):
        raise AssertionError("the exact simplex ran")

    monkeypatch.setattr(cones, "_exact_dtype", spy)
    monkeypatch.setattr(cones, "_exact_implies", fallback)
    b = 2**40 + 1
    assert _rows_implies([(b, 0), (0, b)], (b, 2 * b))
    assert chosen[-1] is object


def _cone_answers(g):
    ec = derive_classical_cone(g)
    ei = derive_independence_cone(g)
    implied = [implied_by(i, ei) for i in ec.ineqs()] + [
        implied_by(i, ec) for i in ei.ineqs()
    ]
    return ec.to_json(), ei.to_json(), implied


@pytest.mark.parametrize(
    "make",
    [bell_gdag, one_sided_bell_gdag, instrumental_gdag, triangle_gdag],
    ids=["bell", "one_sided_bell", "instrumental", "triangle"],
)
def test_catalog_cones_need_no_exact_solve(make, monkeypatch):
    """Every HiGHS proposal on a catalog graph's cones verifies, and every
    feasibility LP ends optimal (a Farkas vector) or infeasible (a dual
    ray), so no pass switches to the bounded form."""
    pytest.importorskip("scipy.optimize")
    solve = cones._HighsLp.solve
    kinds = set()

    def spy(self, j):
        solved = solve(self, j)
        assert solved is not None, "HiGHS proposed nothing"
        assert not self.bounded, "a feasibility LP ended neither optimal nor infeasible"
        kinds.add(solved[0])
        return solved

    def exact(*args):
        raise AssertionError("an exact solve ran")

    monkeypatch.setattr(cones._HighsLp, "solve", spy)
    monkeypatch.setattr(cones, "_exact_implies", exact)
    _cone_answers(make())
    # both a Farkas vector and multipliers were proposed and confirmed
    assert kinds == {True, False}


@pytest.mark.parametrize(
    "make, every", [(bell_gdag, 1), (triangle_gdag, 20)], ids=["bell", "triangle"]
)
def test_non_optimal_solve_decides_nothing(make, every, monkeypatch):
    """A HiGHS solve that ends neither optimal nor infeasible clears the
    solver; a refused feasibility LP hands its pass to the bounded form,
    and a refused bounded solve leaves the check to the exact simplex,
    so the cones are unchanged.  Every solve is refused on Bell; every
    20th on the triangle, where refusing all of them costs about a
    minute of exact solves, and where refused solves then interleave
    with solves from a kept basis."""
    pytest.importorskip("scipy.optimize")
    from scipy.optimize._highspy import _core

    g = make()
    expected = (derive_classical_cone(g).to_json(), derive_independence_cone(g).to_json())
    statuses = cleared = 0

    class Refusing:
        """A HiGHS model whose every ``every``-th status is kNotset."""

        def __init__(self, highs):
            self.highs = highs

        def __getattr__(self, name):
            return getattr(self.highs, name)

        def getModelStatus(self):
            nonlocal statuses
            statuses += 1
            if statuses % every:
                return self.highs.getModelStatus()
            return _core.HighsModelStatus.kNotset

        def clearSolver(self):
            nonlocal cleared
            cleared += 1
            return self.highs.clearSolver()

    init = cones._HighsLp.__init__

    def refusing_init(self, *args):
        init(self, *args)
        self.highs = Refusing(self.highs)

    monkeypatch.setattr(cones._HighsLp, "__init__", refusing_init)
    answers = (derive_classical_cone(g).to_json(), derive_independence_cone(g).to_json())
    assert answers == expected
    assert cleared == statuses // every > 0


@pytest.mark.parametrize("make", [bell_gdag, triangle_gdag], ids=["bell", "triangle"])
def test_refused_feasibility_solve_switches_to_bounded_form(make, monkeypatch):
    """A pass whose first feasibility LP ends neither optimal nor
    infeasible tests that row and every later one in the bounded form,
    max r_j.y  s.t.  r_j.y <= 1, on the same model, and keeps the same
    rows."""
    pytest.importorskip("scipy.optimize")
    from scipy.optimize._highspy import _core

    g = make()
    expected = (derive_classical_cone(g).to_json(), derive_independence_cone(g).to_json())
    models = []

    class FirstRefused:
        """A HiGHS model whose first status is kUnknown."""

        def __init__(self, highs):
            self.highs, self.statuses = highs, 0

        def __getattr__(self, name):
            return getattr(self.highs, name)

        def getModelStatus(self):
            self.statuses += 1
            if self.statuses == 1:
                return _core.HighsModelStatus.kUnknown
            return self.highs.getModelStatus()

    init, solve = cones._HighsLp.__init__, cones._HighsLp.solve

    def refusing_init(self, *args):
        init(self, *args)
        self.highs = FirstRefused(self.highs)
        models.append([])

    def spy(self, j):
        bounded = self.bounded
        solved = solve(self, j)
        models[-1].append((bounded, self.bounded, solved is not None))
        return solved

    monkeypatch.setattr(cones._HighsLp, "__init__", refusing_init)
    monkeypatch.setattr(cones._HighsLp, "solve", spy)
    answers = (derive_classical_cone(g).to_json(), derive_independence_cone(g).to_json())
    assert answers == expected
    assert models
    for solves in models:
        # the first test switches and is answered on the bounded form
        assert solves[0] == (False, True, True)
        assert all(before and after for before, after, _ in solves[1:])


@pytest.mark.parametrize("make", [one_sided_bell_gdag, instrumental_gdag])
def test_cones_without_scipy_match(make, monkeypatch):
    """With scipy.optimize hidden the exact simplex decides every check,
    and the cones and implication answers equal the SciPy run's."""
    with_scipy = _cone_answers(make())
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    with pytest.raises(ImportError):
        import scipy.optimize  # noqa: F401
    assert _cone_answers(make()) == with_scipy


def test_bindings_without_dual_ray_take_exact_route(monkeypatch):
    """HiGHS bindings that cannot return a dual ray are not used: the
    exact simplex decides, and the answers equal the SciPy run's."""
    pytest.importorskip("scipy.optimize")
    from scipy.optimize._highspy import _core

    with_scipy = _cone_answers(one_sided_bell_gdag())
    monkeypatch.setattr(_core, "_Highs", type("_Highs", (), {}))
    assert cones._numpy() is None
    assert _cone_answers(one_sided_bell_gdag()) == with_scipy


def test_triangle_implications_without_scipy_match(monkeypatch):
    """The triangle's E_C and E_I, derived with SciPy, get the same
    ``implied_by`` answers both ways with scipy.optimize hidden, where
    the exact simplex decides each pass: E_I implies every row of E_C
    but 7, E_C implies all of E_I, and the monogamy row follows from E_C
    but not from E_I."""
    pytest.importorskip("scipy.optimize")
    g = triangle_gdag()
    ec, ei = derive_classical_cone(g), derive_independence_cone(g)

    def answers():
        return (
            [implied_by(i, ei) for i in ec.ineqs()],
            [implied_by(i, ec) for i in ei.ineqs()],
        )

    with_scipy = answers()
    assert with_scipy[0].count(False) == 7
    assert all(with_scipy[1])
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    assert cones._numpy() is None
    assert answers() == with_scipy
    assert implied_by(MONOGAMY, ec)
    assert not implied_by(MONOGAMY, ei)


@pytest.mark.long_run
def test_seven_node_classical_cone_pinned(monkeypatch):
    """E_C of the extended Bell graph without its sink C (seven nodes,
    three latent; 6-9 s with SciPy 1.17.1 on a shared 2-vCPU x86-64
    host).  With SciPy, at most 250 checks fall back to an exact solve
    (197 with SciPy 1.17.1): a feasibility LP that HiGHS gives up on
    must hand its pass to the bounded form, or the fallbacks double."""
    exact = cones._exact_implies
    fallbacks = []

    def counted(rows, target):
        fallbacks.append(target)
        return exact(rows, target)

    monkeypatch.setattr(cones, "_exact_implies", counted)
    g = extended_bell_gdag().without_nodes(["C"])
    ec = derive_classical_cone(g, allow_large=True)
    assert sha256(ec.to_json().encode()).hexdigest() == (
        "0987c3791a9d877503359771fb89949301a5511e703c177b1a66b8f0c6f258e9"
    )
    assert cones._numpy() is None or len(fallbacks) <= 250


# -- rows carried across Fourier-Motzkin steps ---------------------------


@pytest.mark.parametrize("make", [bell_gdag, one_sided_bell_gdag, instrumental_gdag])
def test_carried_rows_match_full_minimisation(make, monkeypatch):
    """Minimising every row at every step, carried ones included, gives
    the same rows in the same order."""
    carried = derive_classical_cone(make())
    full = cones._minimize
    monkeypatch.setattr(
        cones, "_minimize", lambda rows, irredundant=(), pool=None: full(rows)
    )
    assert derive_classical_cone(make()).rows == carried.rows


@pytest.mark.parametrize("make", [one_sided_bell_gdag, instrumental_gdag])
def test_carried_rows_not_implied(make, monkeypatch):
    """Every row a step keeps without an LP is, exactly, not implied by
    the other rows of that step."""
    steps = []
    full = cones._minimize

    def spy(rows, irredundant=(), pool=None):
        steps.append((rows, irredundant))
        return full(rows, irredundant, pool)

    monkeypatch.setattr(cones, "_minimize", spy)
    derive_classical_cone(make())
    checked = 0
    for rows, irredundant in steps:
        for r in set(rows) & set(irredundant):
            assert not cones._exact_implies([q for q in rows if q != r], r)
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("make", [bell_gdag, one_sided_bell_gdag, instrumental_gdag])
def test_pooled_witness_rows_not_implied(make, monkeypatch):
    """Every row kept by a Farkas vector pooled from an earlier step is,
    exactly, not implied by the rows it was checked against."""
    kept = []
    witnessed = cones._FloatRows.witnessed

    def spy(self, j):
        hit = witnessed(self, j)
        if hit:
            rest = [r for i, r in enumerate(self.rows) if self.live[i] and i != j]
            kept.append((self.rows[j], rest))
        return hit

    monkeypatch.setattr(cones._FloatRows, "witnessed", spy)
    derive_classical_cone(make())
    assert kept
    for r, rest in kept:
        assert not cones._exact_implies(rest, r)
