import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gdag_lab.catalog import bell_gdag, chain, collider, one_sided_bell_gdag
from gdag_lab.graph import GDag, NodeKind
from gdag_lab.models import (
    ClassicalGmcModel,
    ConditionalDistribution,
    Distribution,
    Kernel,
    ModelError,
    conditional_mutual_information,
    entropy,
    information_quantity,
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
)

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


def test_kernel_validation():
    with pytest.raises(ModelError):
        Kernel("A", 2, (), (), (), {(): (H, Q)})
    with pytest.raises(ModelError):
        Kernel("A", 2, (("B", 2),), (), (), {(0,): (H, H)})


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
        lambda p: information_quantity(p, ("H", {"Z"})),
    ],
    ids=["H", "H-joint", "I", "I-given", "query"],
)
def test_unknown_variable_rejected(quantity):
    with pytest.raises(ModelError, match="unknown variable 'Z'"):
        quantity(uniform2("A", "B"))


def test_information_quantity_dispatch():
    p = uniform2("A", "B")
    assert information_quantity(p, ("H", {"A"})) == pytest.approx(1.0)
    assert information_quantity(p, ("I", {"A"}, {"B"})) == pytest.approx(0.0)
    assert information_quantity(p, ("I", {"A"}, {"B"}, set())) == pytest.approx(0.0)
    with pytest.raises(ModelError):
        information_quantity(p, ("X", {"A"}))


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
