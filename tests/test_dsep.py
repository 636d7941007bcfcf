import hashlib
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gdag_lab.catalog import (
    bell_gdag,
    chain,
    collider,
    extended_bell_gdag,
    fork,
    instrumental_gdag,
    one_sided_bell_gdag,
    triangle_gdag,
)
from gdag_lab.dsep import (
    CIStatement,
    CISet,
    _observed_triples,
    d_separated,
    d_separated_via_partition,
    observable_ci_set,
)
from gdag_lab.classify import ci_subset
from gdag_lab.graph import GDag, GraphError, NodeKind

from generators import random_gdag
from oracles import (
    all_observed_triples,
    ci_subset_oracle,
    dsep_moral_oracle,
    dsep_path_oracle,
)


def test_chain_fork_collider():
    assert not d_separated(chain(), {"X"}, {"Y"}, set())
    assert d_separated(chain(), {"X"}, {"Y"}, {"Z"})
    assert not d_separated(fork(), {"X"}, {"Y"}, set())
    assert d_separated(fork(), {"X"}, {"Y"}, {"Z"})
    assert d_separated(collider(), {"X"}, {"Y"}, set())
    assert not d_separated(collider(), {"X"}, {"Y"}, {"Z"})


def test_bell_statements():
    g = bell_gdag()
    assert d_separated(g, {"X"}, {"Y"}, set())
    assert d_separated(g, {"A"}, {"Y"}, {"X"})
    assert d_separated(g, {"B"}, {"X"}, {"Y"})
    assert not d_separated(g, {"A"}, {"B"}, {"X", "Y"})
    assert not d_separated(g, {"A"}, {"Y"}, {"X", "B"})


def test_instrumental_statements():
    g = instrumental_gdag()
    assert d_separated(g, {"Y"}, {"A"}, {"B", "U"})
    assert not d_separated(g, {"Y"}, {"A"}, {"B"})
    assert not d_separated(g, {"Y"}, {"A"}, set())


def test_triangle_pairwise_marginals():
    g = triangle_gdag()
    assert not d_separated(g, {"A"}, {"B"}, set())
    assert d_separated(g, {"LAB"}, {"C"}, set())
    assert not d_separated(g, {"LAB"}, {"C"}, {"A"})


def test_rejects_overlapping_sets():
    with pytest.raises(GraphError):
        d_separated(chain(), {"X"}, {"X"}, set())
    with pytest.raises(GraphError):
        d_separated(chain(), {"X"}, {"Y"}, {"X"})


def test_exogenous_remainder():
    g = extended_bell_gdag()
    assert d_separated_via_partition(g, {"A", "D"}, {"F"}, set()).w == frozenset(
        {"B", "C"}
    )


def test_extended_bell_witness():
    g = extended_bell_gdag()
    w = d_separated_via_partition(g, {"A", "D"}, {"F"}, set())
    assert w is not None
    assert w.u == frozenset({"A", "D", "E", "H"})
    assert w.v == frozenset({"F", "J"})
    assert w.z == frozenset()
    assert w.w == frozenset({"B", "C"})


def _witness_is_valid(g: GDag, w) -> None:
    parts = [w.u, w.v, w.z, w.w]
    # a partition of the nodes
    assert frozenset().union(*parts) == frozenset(g.names)
    assert sum(len(p) for p in parts) == len(g.names)
    # W has no outgoing edge into U | V | Z, and U/V are not adjacent
    for a, b in g.edges:
        assert not (a in w.w and b not in w.w)
        assert not (a in w.u and b in w.v)
        assert not (a in w.v and b in w.u)
    # no common child of U and V outside W
    for n in g.names:
        if n in w.w:
            continue
        pa = g.parents(n)
        assert not (pa & w.u and pa & w.v)


def test_ci_statement_canonical():
    s = CIStatement(frozenset({"B"}), frozenset({"A"}), frozenset())
    c = s.canonical()
    assert c.x == frozenset({"A"})
    assert s in CISet([c])
    with pytest.raises(ValueError):
        CIStatement(frozenset(), frozenset({"A"}), frozenset())
    with pytest.raises(ValueError):
        CIStatement(frozenset({"A"}), frozenset({"A"}), frozenset())


def test_observable_ci_set_bell():
    g = bell_gdag()
    s = observable_ci_set(g)
    assert CIStatement(frozenset({"X"}), frozenset({"Y"}), frozenset()) in s
    assert (
        CIStatement(frozenset({"A"}), frozenset({"Y"}), frozenset({"X"})) in s
    )
    assert (
        CIStatement(frozenset({"A"}), frozenset({"B"}), frozenset({"X", "Y"}))
        not in s
    )
    # latent node never appears
    assert all("L" not in stmt.x | stmt.y | stmt.z for stmt in s)


def test_ci_set_json_sorted():
    import json

    s = observable_ci_set(one_sided_bell_gdag())
    rows = json.loads(s.to_json())
    assert rows == sorted(rows, key=lambda r: (r["x"], r["y"], r["z"]))


def test_ci_subset():
    g = bell_gdag()
    assert ci_subset(g, g)
    # removing an edge only adds independences
    assert ci_subset(g, g.without_edge("X", "A"))
    assert not ci_subset(g.without_edge("X", "A"), g)
    with pytest.raises(GraphError):
        ci_subset(g, triangle_gdag())


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from([0.3, 0.6, 0.9]))
def test_local_markov_ci_subset_matches_triple_scan(seed, p_edge):
    """An all-observed graph on ``g``'s observed nodes, declared in an
    order unrelated to its edges and to ``g``'s indices: its local-Markov
    check agrees with the scan of every observed triple."""
    rng = Random(seed)
    g = random_gdag(rng, max_nodes=8)
    obs = list(g.observed_nodes())
    rng.shuffle(obs)
    edges = [
        (obs[i], obs[j])
        for i in range(len(obs))
        for j in range(i + 1, len(obs))
        if rng.random() < p_edge
    ]
    decl = list(obs)
    rng.shuffle(decl)
    h = GDag([(n, NodeKind.OBSERVED) for n in decl], edges)
    assert ci_subset(h, g) == ci_subset_oracle(h, g)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_ci_subset_with_latents_matches_triple_scan(seed):
    """A graph with latents against itself minus one edge, both ways:
    the comparison of observable CI sets agrees with the triple scan."""
    rng = Random(seed)
    g = random_gdag(rng, max_nodes=7, p_unobserved=0.5)
    if not g.edges or g.observed_mask == g.all_mask:
        return
    h = g.without_edge(*rng.choice(g.edges))
    assert ci_subset(h, g) == ci_subset_oracle(h, g)
    assert ci_subset(g, h) == ci_subset_oracle(g, h)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(0, 2 ** 7 - 1))
def test_observed_triples_each_once(seed, observed):
    """The submask walk yields every triple of the brute-force oracle
    exactly once, with the lowest node of x | y in x."""
    g = random_gdag(Random(seed), max_nodes=7)
    g = GDag(
        [(n, NodeKind.OBSERVED if observed >> i & 1 else NodeKind.UNOBSERVED)
         for i, n in enumerate(g.names)],
        g.edges,
    )
    k = len(g.observed_nodes())
    triples = list(_observed_triples(g))
    assert len(triples) == (4 ** k - 2 * 3 ** k + 2 ** k) // 2
    for xm, ym, _ in triples:
        assert (xm | ym) & -(xm | ym) & xm
    walked = {
        (frozenset({g.names_of(xm), g.names_of(ym)}), g.names_of(zm))
        for xm, ym, zm in triples
    }
    assert len(walked) == len(triples)
    assert walked == {(frozenset({x, y}), z) for x, y, z in all_observed_triples(g)}


def test_extended_bell_ci_set_digest():
    """The CI set of the extended Bell graph, byte for byte as pinned in
    the benchmark's answers."""
    text = observable_ci_set(extended_bell_gdag()).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9227b0d05faaa13f56c56a80ebe3ad2f8b4fd98266ba21722a6803ab84fdb17d"
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(0, 10 ** 6))
def test_random_triples_match_oracles(seed, pick):
    g = random_gdag(Random(seed))
    triples = list(all_observed_triples(g))
    if not triples:
        return
    x, y, z = triples[pick % len(triples)]
    expect = dsep_path_oracle(g, x, y, z)
    assert dsep_moral_oracle(g, x, y, z) == expect
    assert d_separated(g, x, y, z) == expect
    w = d_separated_via_partition(g, x, y, z)
    assert (w is not None) == expect
    if w is not None:
        _witness_is_valid(g, w)
        assert frozenset(x) <= w.u
        assert frozenset(y) <= w.v
        assert frozenset(z) == w.z


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_observable_ci_monotone_under_edge_removal(seed):
    rng = Random(seed)
    g = random_gdag(rng, max_nodes=5)
    if not g.edges:
        return
    e = rng.choice(g.edges)
    assert observable_ci_set(g) <= observable_ci_set(g.without_edge(*e))
