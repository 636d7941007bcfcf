import hashlib
import math
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gdag_lab.catalog import bell_gdag, chain, collider, one_sided_bell_gdag
from gdag_lab.graph import GDag, NodeKind
from gdag_lab.models import (
    _numerators,
    _parse_frac,
    ClassicalGmcModel,
    ConditionalDistribution,
    Distribution,
    Kernel,
    ModelError,
    conditional_mutual_information,
    entropy,
    is_conditionally_independent,
    mutual_information,
    observed_from_classical_gmc,
    satisfies_I,
)

from generators import (
    random_classical_gmc,
    random_gdag,
    random_markov_model,
    random_prob_row,
    random_triangle_distribution,
)
from oracles import ci_oracle, marginal_oracle, observed_oracle

OBS = NodeKind.OBSERVED
UNOBS = NodeKind.UNOBSERVED

H = Fraction(1, 2)
Q = Fraction(1, 4)


def uniform2(*names):
    k = len(names)
    return Distribution(
        tuple((n, 2) for n in names), (Fraction(1, 2 ** k),) * 2 ** k
    )


def test_distribution_validation():
    with pytest.raises(ModelError):
        Distribution((("A", 2),), (H,))
    with pytest.raises(ModelError):
        Distribution((("A", 2),), (H, Q))
    with pytest.raises(ModelError):
        Distribution((("A", 2),), (Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ModelError):
        Distribution((("A", 0),), ())


def test_duplicate_variables_rejected():
    with pytest.raises(ModelError, match="duplicate variable 'A'"):
        Distribution((("A", 2), ("A", 2), ("B", 2)), (H, 0, 0, 0, 0, 0, 0, H))
    with pytest.raises(ModelError, match="duplicate variable 'Y'"):
        ConditionalDistribution((("A", 2), ("Y", 2)), (("Y", 2),), (H, 0, 0, H) * 2)
    with pytest.raises(ModelError, match="duplicate variable 'Y'"):
        ConditionalDistribution((("A", 2),), (("Y", 2), ("Y", 2)), (H, H) * 4)


def test_marginal_and_prob():
    p = Distribution((("A", 2), ("B", 2)), (H, Q, Q, Fraction(0)))
    assert p.prob((0, 1)) == Q
    m = p.marginal(["B"])
    assert m.probs == (Fraction(3, 4), Q)
    # marginalizing in a different order permutes variables, not mass
    assert p.marginal(["B", "A"]).prob((1, 0)) == Q


def test_prob_and_slice_reject_wrong_length():
    """A short or long outcome is an error, not a silent truncation."""
    p = Distribution((("A", 2), ("B", 2)), (H, Q, Q, Fraction(0)))
    c = ConditionalDistribution((("A", 2),), (("Y", 2), ("Z", 2)), (H, H) * 4)
    for bad in [(1,), (0, 1, 0)]:
        with pytest.raises(ModelError, match="expected 2 values"):
            p.prob(bad)
        with pytest.raises(ModelError, match="expected 2 values"):
            c.slice(bad)


def test_distribution_json_round_trip():
    p = Distribution((("A", 2), ("B", 3)), (H, Q, Q, 0, 0, 0))
    assert Distribution.from_json(p.to_json()) == p
    with pytest.raises(ModelError):
        Distribution.from_json("{}")


def test_conditional_distribution():
    c = ConditionalDistribution(
        (("A", 2),), (("Y", 2),), (H, H, Fraction(1), Fraction(0))
    )
    assert c.slice((1,)).prob((0,)) == 1
    assert ConditionalDistribution.from_json(c.to_json()) == c
    with pytest.raises(ModelError):
        ConditionalDistribution((("A", 2),), (("Y", 2),), (H, H, H, Q))


# (row, ok): ``ok`` is whether the row sums to exactly 1.  Each row that
# does not misses 1 by 1/d², d the least common denominator of the row
# it was made from; most mix denominators.
SUM_CASES = {
    "exact-mixed": ((H, Fraction(1, 3), Fraction(1, 6)), True),
    "int-and-fraction": ((1, 0, Fraction(0)), True),
    "over-by-1/d2": ((H, Fraction(1, 3), Fraction(1, 6) + Fraction(1, 36)), False),
    "under-by-1/d2": ((H, Fraction(1, 3), Fraction(1, 6) - Fraction(1, 36)), False),
    "large-d": ((Fraction(1, 3 ** 40), Fraction(3 ** 40 - 1, 3 ** 40), Fraction(1, 9 ** 40)), False),
    "mixed-over": ((Fraction(1, 7), Fraction(4, 5), Fraction(2, 35) + Fraction(1, 35 ** 2)), False),
}


@pytest.mark.parametrize("case", SUM_CASES)
def test_sum_check_exact(case):
    """Every constructor accepts a table that sums to exactly 1 and
    rejects one that misses it by 1/d²."""
    row, ok = SUM_CASES[case]
    tables = [
        lambda: Distribution((("A", 3),), row),
        lambda: ConditionalDistribution((("A", 3),), (("Y", 2),), (H, H, 0) + row),
        lambda: Kernel("A", 3, (("Y", 2),), (), (), {(0,): row, (1,): (1, 0, 0)}),
    ]
    for make in tables:
        if ok:
            make()
        else:
            with pytest.raises(ModelError, match="sum"):
                make()


def test_kernel_validation():
    with pytest.raises(ModelError):
        Kernel("A", 2, (), (), (), {(): (H, Q)})
    with pytest.raises(ModelError):
        Kernel("A", 2, (("B", 2),), (), (), {(0,): (H, H)})


@pytest.mark.parametrize("entry", [0.5, True, "1/2", None], ids=repr)
def test_inexact_entries_rejected(entry):
    """Only a Fraction or a non-bool int is an exact probability."""
    other = 1 - entry if isinstance(entry, (float, bool)) else H
    with pytest.raises(ModelError, match="is not a Fraction or an int"):
        Kernel("A", 2, (), (), (), {(): (entry, other)})
    with pytest.raises(ModelError, match="is not a Fraction or an int"):
        Distribution((("A", 2),), (entry, other))
    with pytest.raises(ModelError, match="is not a Fraction or an int"):
        ConditionalDistribution((("A", 2),), (("Y", 1),), (entry, other))


@pytest.mark.parametrize(
    "text, value",
    [("2", 2), ("-3/4", Fraction(-3, 4)), ("0.25", Fraction(1, 4)), ("-0.5", Fraction(-1, 2)),
     ("2/1", 2), ("007", 7), (5, 5)],
    ids=repr,
)
def test_parse_frac_accepts(text, value):
    assert _parse_frac(text) == value


@pytest.mark.parametrize(
    "text",
    ["1_000", " 1/2 ", "1/2\n", "+3", "\u0661", "1.5/2", "1/-2", ".5", "5.", "1e3", "",
     "1/0", "1" * 5000, "nan", 0.5, True, None],
    ids=lambda v: repr(v) if len(repr(v)) < 20 else "5000-digits",
)
def test_parse_frac_refuses(text):
    """Only ASCII -?D, -?D/D and -?D.D strings and JSON integers are read."""
    with pytest.raises(ModelError):
        _parse_frac(text)


def chain_model(table) -> ClassicalGmcModel:
    """X -> Z -> Y with X uniform and ``table`` at Z and Y."""
    kernels = {
        "X": Kernel("X", 2, (), (), (), {(): (H, H)}),
        "Z": Kernel("Z", 2, (("X", 2),), (), (), table),
        "Y": Kernel("Y", 2, (("Z", 2),), (), (), table),
    }
    return ClassicalGmcModel(chain(), {}, kernels)


def test_all_observed_chain():
    flip = {(0,): (H, H), (1,): (H, H)}
    p = observed_from_classical_gmc(chain_model(flip))
    assert p == uniform2("X", "Z", "Y")


def test_all_observed_deterministic_copy():
    copy = {(0,): (Fraction(1), Fraction(0)), (1,): (Fraction(0), Fraction(1))}
    p = observed_from_classical_gmc(chain_model(copy))
    assert p.prob((0, 0, 0)) == H
    assert p.prob((1, 1, 1)) == H
    assert p.prob((0, 1, 0)) == 0


def shared_coin_model():
    """One-sided Bell with a perfectly correlated latent coin."""
    g = one_sided_bell_gdag()
    copy = {(0,): (Fraction(1), Fraction(0)), (1,): (Fraction(0), Fraction(1))}
    ea, eb = ("L", "A"), ("L", "B")
    kernels = {
        "X": Kernel("X", 2, (), (), (), {(): (H, H)}),
        "L": Kernel(
            "L", 1, (), (), ((ea, 2), (eb, 2)),
            {(): (H, Fraction(0), Fraction(0), H)},
        ),
        "A": Kernel(
            "A", 2, (("X", 2),), ((ea, 2),), (),
            {(x, m): copy[(m,)] for x in range(2) for m in range(2)},
        ),
        "B": Kernel("B", 2, (), ((eb, 2),), (), copy),
    }
    return ClassicalGmcModel(g, {ea: 2, eb: 2}, kernels)


def test_classical_gmc_shared_coin():
    p = observed_from_classical_gmc(shared_coin_model())
    assert p.names == ("X", "A", "B")
    assert p.prob((0, 0, 0)) == Q
    assert p.prob((0, 0, 1)) == 0
    assert p.prob((1, 1, 1)) == Q
    rep = satisfies_I(one_sided_bell_gdag(), p)
    assert rep.holds


def test_classical_gmc_validation():
    m = shared_coin_model()
    with pytest.raises(ModelError):
        ClassicalGmcModel(m.gdag, {}, m.kernels)
    bad = dict(m.kernels)
    bad["B"] = Kernel(
        "B", 2, (), ((("L", "B"), 2),), ((("L", "A"), 2),),
        {(0,): (Q, Q, Q, Q), (1,): (Q, Q, Q, Q)},
    )
    with pytest.raises(ModelError):
        ClassicalGmcModel(m.gdag, m.edge_cards, bad)
    with pytest.raises(ModelError):  # one kernel for a three-node graph
        ClassicalGmcModel(chain(), {}, {"X": Kernel("X", 2, (), (), (), {(): (H, H)})})


def _with_kernel(name: str, kernel: Kernel) -> ClassicalGmcModel:
    """The shared-coin model with ``kernel`` filed under ``name``."""
    m = shared_coin_model()
    return ClassicalGmcModel(m.gdag, m.edge_cards, {**m.kernels, name: kernel})


_EA, _EB = ("L", "A"), ("L", "B")
_P = Distribution((("A", 2), ("B", 2)), (H, Q, Q, Fraction(0)))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Kernel("A", 2, (), (), (), {(): (H, Q, Q)}),
         "kernel row () has wrong length"),
        (lambda: _with_kernel("X", Kernel("Z", 2, (), (), (), {(): (H, H)})),
         "kernel node mismatch at 'X'"),
        (lambda: _with_kernel("A", Kernel(
            "A", 2, (), ((_EA, 2),), (), {(m,): (H, H) for m in range(2)})),
         "kernel observed parents mismatch at 'A'"),
        (lambda: _with_kernel("B", Kernel("B", 2, (), (), (), {(): (H, H)})),
         "kernel in-edges mismatch at 'B'"),
        (lambda: _with_kernel("L", Kernel("L", 1, (), (), ((_EA, 2),), {(): (H, H)})),
         "kernel out-edges mismatch at 'L'"),
        (lambda: _with_kernel("L", Kernel(
            "L", 2, (), (), ((_EA, 2), (_EB, 2)), {(): (Fraction(1, 8),) * 8})),
         "unobserved node 'L' must have 1-valued output"),
        (lambda: _P.prob((0, 2)), "value 2 out of range for 'B'"),
        (lambda: _P.marginal(["Z"]), "unknown variable 'Z'"),
        (lambda: _P.card("Z"), "unknown variable 'Z'"),
        (lambda: mutual_information(_P, {"A"}, {"A", "B"}), "overlapping variable sets"),
        (lambda: conditional_mutual_information(_P, {"A"}, {"B"}, {"B"}),
         "overlapping variable sets"),
    ],
    ids=[
        "row-length", "filed-elsewhere", "observed-parents", "in-edges",
        "out-edges", "latent-output", "prob-range", "marginal", "card",
        "I-overlap", "I-given-overlap",
    ],
)
def test_model_input_checks(make, message):
    """Each malformed model or query is refused with a message naming
    what is wrong."""
    with pytest.raises(ModelError) as e:
        make()
    assert str(e.value) == message


@pytest.mark.parametrize("declared", [1, 3])
def test_kernel_parent_cardinality_must_match(declared):
    """A kernel's observed-parent cardinality must equal that parent's
    output cardinality (2 for X here)."""
    m = shared_coin_model()
    kernels = dict(m.kernels)
    kernels["A"] = Kernel(
        "A", 2, (("X", declared),), ((("L", "A"), 2),), (),
        {(x, msg): (H, H) for x in range(declared) for msg in range(2)},
    )
    with pytest.raises(ModelError):
        ClassicalGmcModel(m.gdag, m.edge_cards, kernels)


def test_is_conditionally_independent():
    p = uniform2("A", "B")
    assert is_conditionally_independent(p, {"A"}, {"B"}, set())
    corr = Distribution((("A", 2), ("B", 2)), (H, 0, 0, H))
    assert not is_conditionally_independent(corr, {"A"}, {"B"}, set())
    with pytest.raises(ModelError):
        is_conditionally_independent(p, {"A"}, {"A"}, set())
    with pytest.raises(ModelError):
        is_conditionally_independent(p, {"A"}, {"C"}, set())


def _rows(rng, count, k):
    """``count`` random probability rows of length k, each over its own
    denominator, so entries have mixed denominators and some are 0."""
    return [random_prob_row(rng, k, rng.choice([2, 3, 4, 5, 6, 12])) for _ in range(count)]


def _index(values, cards):
    i = 0
    for v, c in zip(values, cards):
        i = i * c + v
    return i


def random_ci_case(rng, kind):
    """(p, x, y, z) on 1-5 variables of cardinality 1-3, x, y and z
    disjoint, x and y each holding one of the first two variables.

    p is a random table for ``kind`` "random"; for "product" it is
    P(z) P(x|z) P(y|z) P(w|x,y,z), so x is independent of y given z; for
    "perturbed" it is such a product with part of one nonzero entry moved
    to another entry.  Entries equal to 0 or 1 are ints."""
    n = rng.randint(1, 5)
    names = rng.sample("ABCDE", n)
    cards = [rng.randint(1, 3) for _ in names]
    part = [0, 1, *(rng.randrange(4) for _ in names[2:])][:n]  # x, y, z or the rest
    x, y, z = (frozenset(v for v, q in zip(names, part) if q == k) for k in range(3))
    size = math.prod(cards)
    if kind == "random":
        probs = list(_rows(rng, 1, size)[0])
    else:
        pc = [[c for c, q in zip(cards, part) if q == k] for k in range(4)]
        cx, cy, cz, cw = (math.prod(c) for c in pc)
        pz = _rows(rng, 1, cz)[0]
        px, py = _rows(rng, cz, cx), _rows(rng, cz, cy)
        pw = _rows(rng, cx * cy * cz, cw)
        probs = []
        for outcome in product(*(range(c) for c in cards)):
            xi, yi, zi, wi = (
                _index([v for v, q in zip(outcome, part) if q == k], pc[k])
                for k in range(4)
            )
            probs.append(pz[zi] * px[zi][xi] * py[zi][yi] * pw[(xi * cy + yi) * cz + zi][wi])
        if kind == "perturbed" and size > 1:
            i = rng.choice([k for k in range(size) if probs[k]])
            j = rng.choice([k for k in range(size) if k != i])
            moved = probs[i] / rng.choice([2, 3, 5])
            probs[i] -= moved
            probs[j] += moved
    probs = [int(q) if q.denominator == 1 else q for q in probs]
    return Distribution(tuple(zip(names, cards)), tuple(probs)), x, y, z


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from(["random", "product", "perturbed"]))
def test_ci_and_marginal_match_fraction_oracle(seed, kind):
    rng = Random(seed)
    p, x, y, z = random_ci_case(rng, kind)
    verdict = is_conditionally_independent(p, x, y, z)
    assert verdict == ci_oracle(p, x, y, z)
    if kind == "product":
        assert verdict
    keep = rng.sample(p.names, rng.randint(0, len(p.names)))
    assert p.marginal(keep).to_json() == marginal_oracle(p, keep).to_json()


def test_perturbed_products_break_ci():
    """The perturbed products of ``random_ci_case`` reach both verdicts,
    so the oracle comparison sees broken independences too."""
    rng = Random(13)
    verdicts = [
        is_conditionally_independent(*random_ci_case(rng, "perturbed")) for _ in range(200)
    ]
    assert verdicts.count(False) >= 40 and verdicts.count(True) >= 40


class _CountingZero(Fraction):
    """A zero entry that counts reads of its numerator."""

    reads = 0

    @property
    def numerator(self):
        _CountingZero.reads += 1
        return super().numerator


def test_marginal_kernel_skips_zero_entries():
    """The marginal pass never scales a zero entry: a sparse table costs
    its nonzero entries only."""
    zero = _CountingZero(0)
    p = Distribution((("A", 2), ("B", 3)), (H, zero, zero, zero, zero, H))
    _CountingZero.reads = 0
    assert _numerators(p, ["B"]) == ([1, 0, 1], 2)
    assert _CountingZero.reads == 0


def test_satisfies_I_reports_violation():
    g = collider()
    corr = Distribution(
        (("X", 2), ("Z", 2), ("Y", 2)),
        (H, 0, 0, 0, 0, 0, 0, H),
    )
    rep = satisfies_I(g, corr)
    assert not rep.holds
    assert any(s.z == frozenset() for s in rep.violated)
    with pytest.raises(ModelError):
        satisfies_I(bell_gdag(), corr)


def test_entropy_values():
    p = uniform2("A", "B")
    assert entropy(p, {"A"}) == pytest.approx(1.0)
    assert entropy(p, {"A", "B"}) == pytest.approx(2.0)
    assert mutual_information(p, {"A"}, {"B"}) == pytest.approx(0.0)
    corr = Distribution((("A", 2), ("B", 2)), (H, 0, 0, H))
    assert mutual_information(corr, {"A"}, {"B"}) == pytest.approx(1.0)
    spiked = Distribution((("A", 2),), (Fraction(1), Fraction(0)))
    assert entropy(spiked, {"A"}) == 0.0


@pytest.mark.parametrize(
    "quantity",
    [
        lambda p: entropy(p, {"Z"}),
        lambda p: entropy(p, {"A", "Z"}),
        lambda p: mutual_information(p, {"A"}, {"Z"}),
        lambda p: conditional_mutual_information(p, {"A"}, {"B"}, {"Z"}),
    ],
    ids=["H", "H-joint", "I", "I-given"],
)
def test_unknown_variable_rejected(quantity):
    with pytest.raises(ModelError, match="unknown variable 'Z'"):
        quantity(uniform2("A", "B"))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_random_prob_row_sums_to_one(seed):
    rng = Random(seed)
    row = random_prob_row(rng, rng.randint(1, 6))
    assert sum(row) == 1
    assert all(p >= 0 for p in row)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_markov_joint_satisfies_graph_cis(seed):
    rng = Random(seed)
    g = random_gdag(rng, max_nodes=4, p_unobserved=0.0)
    p = observed_from_classical_gmc(random_markov_model(rng, g))
    assert satisfies_I(g, p).holds


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_classical_gmc_satisfies_graph_cis(seed):
    rng = Random(seed)
    m = random_classical_gmc(rng, random_gdag(rng, max_nodes=5))
    if m is None:
        return
    p = observed_from_classical_gmc(m)
    assert sum(p.probs) == 1
    assert satisfies_I(m.gdag, p).holds


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_strong_subadditivity_random(seed):
    rng = Random(seed)
    g = random_gdag(rng, max_nodes=4, p_unobserved=0.0)
    if len(g.names) < 3:
        return
    p = observed_from_classical_gmc(random_markov_model(rng, g))
    a, b, *rest = p.names
    assert conditional_mutual_information(p, {a}, {b}, set(rest)) >= -1e-9
    assert mutual_information(p, {a}, {b}) >= -1e-9


# -- the evaluator against the brute-force oracle ------------------------


def test_observed_matches_oracle_on_random_models():
    rng = Random(20261018)
    checked = latent_to_latent = 0
    while checked < 300:
        g = random_gdag(rng, max_nodes=6)
        m = random_classical_gmc(rng, g)
        if m is None:
            continue
        assert observed_from_classical_gmc(m).to_json() == observed_oracle(m).to_json()
        latent_to_latent += any(
            not g.is_observed(a) and not g.is_observed(b) for a, b in g.edges
        )
        checked += 1
    assert latent_to_latent >= 30


def model_on(rng, g, edge_cards, out_cards, zero_every=0):
    """A classical model on ``g`` with the given cardinalities; with
    ``zero_every`` = k, each kernel entry after a row's first is, with
    chance 1/k, moved onto that first entry, so rows contain zeros."""
    kernels = {}
    for name in g.names:
        obs_pa = tuple(
            (p, out_cards[p]) for p in g.names if p in g.parents(name) and g.is_observed(p)
        )
        in_e = tuple((e, edge_cards[e]) for e in g.edges if e[1] == name and e in edge_cards)
        out_e = () if g.is_observed(name) else tuple(
            (e, edge_cards[e]) for e in g.edges if e[0] == name
        )
        width = out_cards[name] * math.prod(c for _, c in out_e)
        table = {}
        for key in product(*(range(c) for _, c in obs_pa + in_e)):
            row = list(random_prob_row(rng, width))
            for i in range(1, width):
                if zero_every and rng.randrange(zero_every) == 0:
                    row[0], row[i] = row[0] + row[i], Fraction(0)
            table[key] = tuple(row)
        kernels[name] = Kernel(name, out_cards[name], obs_pa, in_e, out_e, table)
    return ClassicalGmcModel(g, edge_cards, kernels)


def _latent_edge_cards(g, card):
    return {e: card for e in g.edges if not g.is_observed(e[0])}


EDGE_CASES = {
    # no latent edge at all: a Bayesian network on X -> Z -> Y
    "no-latent-edge": (chain(), 2, {"X": 2, "Z": 3, "Y": 2}, 0),
    # a latent node with an observed parent: X -> L -> {A, B}
    "latent-with-observed-parent": (
        GDag([("X", OBS), ("L", UNOBS), ("A", OBS), ("B", OBS)],
             [("X", "L"), ("L", "A"), ("L", "B"), ("X", "A")]),
        3, {"X": 2, "L": 1, "A": 2, "B": 3}, 0,
    ),
    # latent -> latent: L1 -> L2 -> {A, B}, L1 -> {B, C}
    "latent-to-latent": (
        GDag([("L1", UNOBS), ("L2", UNOBS), ("A", OBS), ("B", OBS), ("C", OBS)],
             [("L1", "L2"), ("L2", "A"), ("L2", "B"), ("L1", "B"), ("L1", "C"), ("A", "C")]),
        2, {"L1": 1, "L2": 1, "A": 2, "B": 2, "C": 3}, 0,
    ),
    # observed outputs of cardinality 1, one of them a parent
    "output-cardinality-1": (
        GDag([("L", UNOBS), ("A", OBS), ("B", OBS), ("C", OBS)],
             [("L", "A"), ("L", "B"), ("A", "C"), ("B", "C")]),
        3, {"L": 1, "A": 1, "B": 2, "C": 1}, 0,
    ),
    # kernel rows with zeros, on the triangle
    "rows-with-zeros": (
        GDag([("A", OBS), ("B", OBS), ("C", OBS),
              ("LAB", UNOBS), ("LAC", UNOBS), ("LBC", UNOBS)],
             [("LAB", "A"), ("LAB", "B"), ("LAC", "A"), ("LAC", "C"),
              ("LBC", "B"), ("LBC", "C")]),
        3, {"A": 2, "B": 3, "C": 2, "LAB": 1, "LAC": 1, "LBC": 1}, 2,
    ),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_observed_matches_oracle_on_edge_cases(case):
    g, card, out_cards, zero_every = EDGE_CASES[case]
    rng = Random(case)
    for _ in range(5):
        m = model_on(rng, g, _latent_edge_cards(g, card), out_cards, zero_every)
        p = observed_from_classical_gmc(m)
        assert p.to_json() == observed_oracle(m).to_json()
        assert satisfies_I(g, p).holds
    if zero_every:
        assert any(x == 0 for k in m.kernels.values() for row in k.table.values() for x in row)


def _digest(dists) -> str:
    return hashlib.sha256("".join(p.to_json() + "\n" for p in dists).encode()).hexdigest()


def test_pinned_digest_of_random_gdag_models():
    """The first 1,000 models drawn as ``test_classical_models_satisfy_I``
    draws them; the digest was taken with the brute-force evaluator."""
    rng = Random(20260826)
    dists = []
    while len(dists) < 1000:
        g = random_gdag(rng, max_nodes=6)
        m = random_classical_gmc(rng, g, max_card=3)
        if m is not None:
            dists.append(observed_from_classical_gmc(m))
    assert _digest(dists) == "672e8a7af581709617a690c5530c389032e1395467c471a467661cfc344fe2f0"


def test_pinned_digest_of_random_triangle_distributions():
    """50 triangle draws from one stream; the digest was taken with the
    brute-force evaluator."""
    rng = Random(7)
    dists = [random_triangle_distribution(rng, max_latent_card=4) for _ in range(50)]
    assert _digest(dists) == "e901bce9636859d4cccf4bf251e6382da3935a21023a9f77d5e772ca1ac272f9"
