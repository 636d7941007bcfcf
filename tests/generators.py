"""Seeded random generators for graphs and exact-rational models."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from random import Random

from gdag_lab.graph import GDag, NodeKind
from gdag_lab.models import (
    ClassicalGmcModel,
    ConditionalDistribution,
    Distribution,
    Kernel,
    observed_from_classical_gmc,
)
from gdag_lab.catalog import instrumental_gdag, triangle_gdag

_NAMES = "ABCDEFGH"


def random_prob_row(rng: Random, k: int, denom: int = 24) -> tuple[Fraction, ...]:
    """A random length-k probability vector with denominator ``denom``."""
    cuts = sorted(rng.randint(0, denom) for _ in range(k - 1))
    bounds = [0] + cuts + [denom]
    return tuple(
        Fraction(bounds[i + 1] - bounds[i], denom) for i in range(k)
    )


def random_gdag(
    rng: Random,
    max_nodes: int = 6,
    p_edge: float = 0.45,
    p_unobserved: float = 0.35,
) -> GDag:
    n = rng.randint(1, max_nodes)
    names = list(_NAMES[:n])
    kinds = [
        NodeKind.UNOBSERVED if rng.random() < p_unobserved else NodeKind.OBSERVED
        for _ in range(n)
    ]
    if all(k is NodeKind.UNOBSERVED for k in kinds):
        kinds[rng.randrange(n)] = NodeKind.OBSERVED
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p_edge
    ]
    return GDag(list(zip(names, kinds)), edges)


def latent_chain(k: int, observed_links: bool) -> GDag:
    """Observed O0..O{k-1}; latent L{i} feeds O{i} and O{i+1}; with
    ``observed_links`` the observed nodes also form a directed chain.
    Both families fail the C = I condition."""
    nodes = [(f"O{i}", NodeKind.OBSERVED) for i in range(k)]
    nodes += [(f"L{i}", NodeKind.UNOBSERVED) for i in range(k - 1)]
    edges = []
    for i in range(k - 1):
        edges += [(f"L{i}", f"O{i}"), (f"L{i}", f"O{i + 1}")]
        if observed_links:
            edges.append((f"O{i}", f"O{i + 1}"))
    return GDag(nodes, edges)


def random_classical_gmc(
    rng: Random,
    g: GDag,
    max_card: int = 3,
    max_msg_space: int = 128,
    max_outcome_space: int = 108,
) -> ClassicalGmcModel | None:
    """A random exact-rational classical model on g, or None when the
    joint would be too large to sum quickly."""
    latent_edges = [e for e in g.edges if not g.is_observed(e[0])]
    edge_cards = {e: rng.randint(2, max_card) for e in latent_edges}
    if math.prod(edge_cards.values()) > max_msg_space:
        return None
    out_cards = {
        n: (rng.randint(2, max_card) if g.is_observed(n) else 1)
        for n in g.names
    }
    if math.prod(out_cards[n] for n in g.observed_nodes()) > max_outcome_space:
        return None

    kernels = {}
    for name in g.names:
        obs_pa = tuple(
            (p, out_cards[p])
            for p in g.names
            if p in g.parents(name) and g.is_observed(p)
        )
        in_e = tuple(
            (e, edge_cards[e])
            for e in g.edges
            if e[1] == name and not g.is_observed(e[0])
        )
        out_e = (
            ()
            if g.is_observed(name)
            else tuple((e, edge_cards[e]) for e in g.edges if e[0] == name)
        )
        width = out_cards[name] * math.prod(c for _, c in out_e)
        cond_cards = [c for _, c in obs_pa] + [c for _, c in in_e]
        table = {
            key: random_prob_row(rng, width)
            for key in product(*(range(c) for c in cond_cards))
        }
        kernels[name] = Kernel(
            name, out_cards[name], obs_pa, in_e, out_e, table
        )
    return ClassicalGmcModel(g, edge_cards, kernels)


def random_markov_model(
    rng: Random, g: GDag, max_card: int = 3
) -> ClassicalGmcModel:
    """A random classical model of an all-observed DAG (a Bayesian network)."""
    cards = {n: rng.randint(2, max_card) for n in g.names}
    kernels = {}
    for name in g.names:
        given = tuple(
            (p, cards[p]) for p in g.names if p in g.parents(name)
        )
        table = {
            key: random_prob_row(rng, cards[name])
            for key in product(*(range(c) for _, c in given))
        }
        kernels[name] = Kernel(name, cards[name], given, (), (), table)
    return ClassicalGmcModel(g, {}, kernels)


def random_triangle_distribution(
    rng: Random, max_latent_card: int = 4, max_msg_space: int = 256
) -> Distribution:
    """Observed joint of a random classical model on the triangle."""
    g = triangle_gdag()
    while True:
        latent_edges = [e for e in g.edges if not g.is_observed(e[0])]
        edge_cards = {
            e: rng.randint(2, max_latent_card) for e in latent_edges
        }
        if math.prod(edge_cards.values()) <= max_msg_space:
            break
    out_cards = {n: (rng.randint(2, 3) if g.is_observed(n) else 1) for n in g.names}
    kernels = {}
    for name in g.names:
        in_e = tuple(
            (e, edge_cards[e])
            for e in g.edges
            if e[1] == name and not g.is_observed(e[0])
        )
        out_e = (
            ()
            if g.is_observed(name)
            else tuple((e, edge_cards[e]) for e in g.edges if e[0] == name)
        )
        width = out_cards[name] * math.prod(c for _, c in out_e)
        table = {
            key: random_prob_row(rng, width)
            for key in product(*(range(c) for _, c in in_e))
        }
        kernels[name] = Kernel(name, out_cards[name], (), in_e, out_e, table)
    model = ClassicalGmcModel(g, edge_cards, kernels)
    return observed_from_classical_gmc(model)


def random_instrumental_conditional(
    rng: Random, max_latent_card: int = 4
) -> ConditionalDistribution:
    """P(A,B | Y) from a random classical model on the instrumental GDAG
    with Y uniform."""
    g = instrumental_gdag()
    edge_cards = {
        e: rng.randint(2, max_latent_card)
        for e in g.edges
        if not g.is_observed(e[0])
    }
    out_cards = {"Y": 2, "B": 2, "A": 2, "U": 1}
    kernels = {}
    for name in g.names:
        obs_pa = tuple(
            (p, out_cards[p])
            for p in g.names
            if p in g.parents(name) and g.is_observed(p)
        )
        in_e = tuple(
            (e, edge_cards[e])
            for e in g.edges
            if e[1] == name and not g.is_observed(e[0])
        )
        out_e = (
            ()
            if g.is_observed(name)
            else tuple((e, edge_cards[e]) for e in g.edges if e[0] == name)
        )
        width = out_cards[name] * math.prod(c for _, c in out_e)
        cond_cards = [c for _, c in obs_pa] + [c for _, c in in_e]
        if name == "Y":  # uniform so conditioning on Y is well defined
            table = {(): (Fraction(1, 2), Fraction(1, 2))}
        else:
            table = {
                key: random_prob_row(rng, width)
                for key in product(*(range(c) for c in cond_cards))
            }
        kernels[name] = Kernel(name, out_cards[name], obs_pa, in_e, out_e, table)
    model = ClassicalGmcModel(g, edge_cards, kernels)

    joint = observed_from_classical_gmc(model)  # variables (Y, B, A)
    names = [n for n, _ in joint.variables]
    cards = dict(joint.variables)
    y_card, a_card, b_card = cards["Y"], cards["A"], cards["B"]
    rows = []
    for y in range(y_card):
        py = sum(
            (
                joint.prob(out)
                for out in product(*(range(cards[n]) for n in names))
                if out[names.index("Y")] == y
            ),
            Fraction(0),
        )
        for a in range(a_card):
            for b in range(b_card):
                outcome = [0] * len(names)
                outcome[names.index("Y")] = y
                outcome[names.index("A")] = a
                outcome[names.index("B")] = b
                rows.append(joint.prob(outcome) / py)
    return ConditionalDistribution(
        (("A", a_card), ("B", b_card)), (("Y", y_card),), tuple(rows)
    )
