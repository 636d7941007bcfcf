"""Seeded input generation for the benchmark workloads.

The benchmark builds its own inputs instead of importing the test
generators, so that editing a test cannot silently change a workload.
Every generator takes a ``random.Random`` and returns library objects;
the same seed always gives the same inputs.  Model shapes (graphs and
cardinalities) and probability tables take separate streams, so a
workload can fix the shapes, which set the cost, and draw the tables
from the seed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from random import Random

from gdag_lab.catalog import instrumental_gdag, triangle_gdag
from gdag_lab.graph import GDag, NodeKind
from gdag_lab.models import (
    ClassicalGmcModel,
    ConditionalDistribution,
    Distribution,
    Kernel,
)

OBS = NodeKind.OBSERVED
UNOBS = NodeKind.UNOBSERVED

#: Probability tables use this common denominator.
DENOM = 24


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def latent_chain(k: int, observed_links: bool) -> GDag:
    """Observed O0..O{k-1}; latent L{i} feeds O{i} and O{i+1}.

    With ``observed_links`` the observed nodes also form a directed
    chain.  Both families fail the sufficient condition, so the
    certificate search is exhaustive: k! orderings of the tricky nodes.
    """
    nodes = [(f"O{i}", OBS) for i in range(k)] + [(f"L{i}", UNOBS) for i in range(k - 1)]
    edges = []
    for i in range(k - 1):
        edges += [(f"L{i}", f"O{i}"), (f"L{i}", f"O{i + 1}")]
        if observed_links:
            edges.append((f"O{i}", f"O{i + 1}"))
    return GDag(nodes, edges)


def branch_bound(g: GDag) -> int:
    """Upper bound on the branches the certificate search can try:
    (tricky nodes)! times the product of each tricky node's root choices.

    A tricky node is an observed node with an unobserved parent; its root
    choices are the unobserved nodes without unobserved parents that
    reach it through unobserved nodes only.
    """
    unobs = g.all_mask & ~g.observed_mask
    reach = {}
    for u in _bits(unobs):
        r = g.child_mask[u]
        frontier = r & unobs
        while frontier:
            new = 0
            for i in _bits(frontier):
                new |= g.child_mask[i]
            frontier = new & unobs & ~r
            r |= new
        reach[u] = r
    roots = [u for u in _bits(unobs) if not g.parent_mask[u] & unobs]
    tricky = [t for t in _bits(g.observed_mask) if g.parent_mask[t] & unobs]
    bound = math.factorial(len(tricky))
    for t in tricky:
        bound *= sum(1 for r in roots if (reach[r] >> t) & 1)
    return bound


def random_gdag(rng: Random, n_obs: int, n_lat: int, p_edge: float) -> GDag:
    """A random DAG with exactly ``n_obs`` observed and ``n_lat``
    unobserved nodes; edges run from lower to higher index."""
    n = n_obs + n_lat
    names = [chr(ord("A") + i) for i in range(n)]
    kinds = [OBS] * n_obs + [UNOBS] * n_lat
    rng.shuffle(kinds)
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p_edge
    ]
    return GDag(list(zip(names, kinds)), edges)


def bounded_gdag(rng: Random, n_obs: int, n_lat: int, p_edge: float, max_branches: int) -> GDag:
    """``random_gdag`` redrawn until its branch bound is at most
    ``max_branches``, which keeps one search from dominating a run."""
    while True:
        g = random_gdag(rng, n_obs, n_lat, p_edge)
        if branch_bound(g) <= max_branches:
            return g


def relabelled(rng: Random, g: GDag) -> GDag:
    """An isomorphic copy of ``g`` with its nodes declared in a random
    order and renamed A, B, ... in that order."""
    order = list(range(len(g.names)))
    rng.shuffle(order)
    name = {g.names[old]: chr(ord("A") + new) for new, old in enumerate(order)}
    nodes = [(name[g.names[old]], g.kinds[old]) for old in order]
    return GDag(nodes, sorted((name[a], name[b]) for a, b in g.edges))


def small_gdag(rng: Random, max_nodes: int) -> GDag:
    """A random GDAG with 1..max_nodes nodes, at least one observed."""
    n = rng.randint(1, max_nodes)
    n_lat = sum(1 for _ in range(n) if rng.random() < 0.35)
    n_lat = min(n_lat, n - 1)
    return random_gdag(rng, n - n_lat, n_lat, 0.45)


def prob_row(rng: Random, k: int) -> tuple[Fraction, ...]:
    """A random length-k probability vector over denominator DENOM."""
    cuts = sorted(rng.randint(0, DENOM) for _ in range(k - 1))
    bounds = [0, *cuts, DENOM]
    return tuple(Fraction(bounds[i + 1] - bounds[i], DENOM) for i in range(k))


def classical_model(
    rng: Random,
    g: GDag,
    edge_cards: dict[tuple[str, str], int],
    out_cards: dict[str, int],
    fixed_rows: dict[str, tuple[Fraction, ...]] | None = None,
) -> ClassicalGmcModel:
    """A classical model on ``g`` with the given message and outcome
    cardinalities and random kernel rows; ``fixed_rows`` pins the row of
    a parentless node."""
    fixed_rows = fixed_rows or {}
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
        keys = product(*(range(c) for c in [c for _, c in obs_pa] + [c for _, c in in_e]))
        table = {
            key: fixed_rows[name] if name in fixed_rows else prob_row(rng, width)
            for key in keys
        }
        kernels[name] = Kernel(name, out_cards[name], obs_pa, in_e, out_e, table)
    return ClassicalGmcModel(g, edge_cards, kernels)


def _latent_edges(g: GDag) -> list[tuple[str, str]]:
    return [e for e in g.edges if not g.is_observed(e[0])]


def triangle_sizes(rng: Random, count: int) -> list[tuple[GDag, dict, dict]]:
    """``count`` triangle shapes: message cardinalities 2-4 with at most
    256 joint messages, outcome cardinalities 2-3."""
    g = triangle_gdag()
    sizes = []
    while len(sizes) < count:
        edge_cards = {e: rng.randint(2, 4) for e in _latent_edges(g)}
        if math.prod(edge_cards.values()) > 256:
            continue
        out_cards = {n: rng.randint(2, 3) if g.is_observed(n) else 1 for n in g.names}
        sizes.append((g, edge_cards, out_cards))
    return sizes


def gdag_sizes(rng: Random, count: int, max_nodes: int = 6) -> list[tuple[GDag, dict, dict]]:
    """``count`` random GDAGs of at most ``max_nodes`` nodes with message
    and outcome cardinalities 2-3, redrawn until at most 128 joint
    messages and 108 observed outcomes."""
    sizes = []
    while len(sizes) < count:
        g = small_gdag(rng, max_nodes)
        edge_cards = {e: rng.randint(2, 3) for e in _latent_edges(g)}
        out_cards = {n: rng.randint(2, 3) if g.is_observed(n) else 1 for n in g.names}
        if math.prod(edge_cards.values()) > 128:
            continue
        if math.prod(out_cards[n] for n in g.observed_nodes()) > 108:
            continue
        sizes.append((g, edge_cards, out_cards))
    return sizes


def instrumental_sizes(rng: Random, count: int) -> list[tuple[GDag, dict, dict]]:
    """``count`` instrumental shapes: binary observed variables and
    confounder messages of cardinality 2-4."""
    g = instrumental_gdag()
    out_cards = {"Y": 2, "B": 2, "A": 2, "U": 1}
    return [
        (g, {e: rng.randint(2, 4) for e in _latent_edges(g)}, out_cards)
        for _ in range(count)
    ]


#: The instrument Y is uniform, so conditioning on it is well defined.
UNIFORM_INSTRUMENT = {"Y": (Fraction(1, 2), Fraction(1, 2))}


def instrumental_family(joint: Distribution) -> ConditionalDistribution:
    """P(A, B | Y) from the joint of an instrumental model with binary
    variables and P(Y) uniform."""
    pos = {n: i for i, n in enumerate(joint.names)}
    rows = []
    for y in range(2):
        for a in range(2):
            for b in range(2):
                outcome = [0] * 3
                outcome[pos["Y"]], outcome[pos["A"]], outcome[pos["B"]] = y, a, b
                rows.append(joint.prob(outcome) * 2)
    return ConditionalDistribution((("A", 2), ("B", 2)), (("Y", 2),), tuple(rows))
