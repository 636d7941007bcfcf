"""Enumeration of GDAGs up to kind-preserving isomorphism and the
classification census over all small GDAGs.

The census evaluates the C = I sufficient condition on every isomorphism
class.  Survivors are the condition-failing graphs from which no strictly
smaller condition-failing graph can be reached by reduction rules; the
one-outcome observed-node removal rule participates in that search
because restricting any observed variable to a single outcome never
enlarges the classical set.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterator, Optional, Sequence

from .graph import GDag, NodeKind, _bits
from .classify import applicable_reductions, apply_reduction, sufficient_condition_holds

#: Node names used for generated graphs, shortest first.
_NAMES = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _key_of_masks(kinds: Sequence[int], child_mask: Sequence[int]) -> tuple:
    """Canonical key of the graph with node kinds ``kinds`` (0 observed,
    1 unobserved) and children ``child_mask[v]`` of each node v.

    The key is the minimum, over node relabellings, of the pair (kind
    vector, adjacency bits read row-major).  Kinds lead the pair, so only
    relabellings that put every observed node before every unobserved one
    reach the minimal kind vector; the search tries just those.  Each
    candidate is scored as one int holding the bits most significant
    first, which orders candidates as the bits tuples do.
    """
    n = len(kinds)
    observed = [v for v in range(n) if not kinds[v]]
    unobserved = [v for v in range(n) if kinds[v]]
    edges = [(v, w) for v in range(n) for w in _bits(child_mask[v])]
    top = n * n - 1
    k = len(observed)
    at = [0] * n
    best: Optional[int] = None
    for obs_at in permutations(range(k)):
        for v, a in zip(observed, obs_at):
            at[v] = a
        for unobs_at in permutations(range(k, n)):
            for v, a in zip(unobserved, unobs_at):
                at[v] = a
            score = 0
            for v, w in edges:
                score |= 1 << (top - n * at[v] - at[w])
            if best is None or score < best:
                best = score
    return (0,) * k + (1,) * (n - k), tuple(
        (best >> (top - i)) & 1 for i in range(n * n)
    )


def canonical_key(g: GDag) -> tuple:
    """A total invariant of kind-preserving isomorphism.

    The minimum, over all node permutations, of the pair (kind vector,
    adjacency bits read row-major).  Only the permutations that sort
    observed nodes before unobserved ones can reach the minimal kind
    vector, so only those are searched; the key is the same as over all
    n! permutations.
    """
    return _key_of_masks(
        [0 if k is NodeKind.OBSERVED else 1 for k in g.kinds], g.child_mask
    )


def _graph_of_key(key: tuple) -> GDag:
    """The graph a canonical key encodes, on the names of _NAMES."""
    kv, bits = key
    n = len(kv)
    nodes = [
        (_NAMES[i], NodeKind.OBSERVED if kv[i] == 0 else NodeKind.UNOBSERVED)
        for i in range(n)
    ]
    edges = [
        (_NAMES[i], _NAMES[j])
        for i in range(n)
        for j in range(n)
        if bits[i * n + j]
    ]
    return GDag(nodes, edges)


def canonical_form(g: GDag) -> GDag:
    """Canonical representative of the kind-preserving isomorphism class."""
    return _graph_of_key(canonical_key(g))


def isomorphic(g: GDag, h: GDag) -> bool:
    return len(g.names) == len(h.names) and canonical_key(g) == canonical_key(h)


def _enumerate_classes(n: int) -> Iterator[tuple[tuple, GDag]]:
    """(canonical key, canonical form) of every n-node isomorphism class.

    Every DAG relabels to one with upper-triangular adjacency, so the
    enumeration ranges over edge subsets of the triangle crossed with all
    kind vectors, deduplicated by canonical key.  Keys are computed from
    child masks; a GDag is built only for each class yielded.
    """
    if n < 1:
        raise ValueError("n must be positive")
    pairs = list(combinations(range(n), 2))
    seen: set[tuple] = set()
    for edge_bits in range(1 << len(pairs)):
        child_mask = [0] * n
        for k, (i, j) in enumerate(pairs):
            if (edge_bits >> k) & 1:
                child_mask[i] |= 1 << j
        for kind_bits in range(1 << n):
            kinds = [(kind_bits >> i) & 1 for i in range(n)]
            key = _key_of_masks(kinds, child_mask)
            if key not in seen:
                seen.add(key)
                yield key, _graph_of_key(key)


def enumerate_gdags(n: int) -> Iterator[GDag]:
    """All GDAGs on n nodes, one per kind-preserving isomorphism class."""
    for _, g in _enumerate_classes(n):
        yield g


def _holds(cond: dict[tuple, bool], key: tuple, g: GDag) -> bool:
    """Does the sufficient condition hold for g, whose canonical key is
    key?  Answers are memoised in ``cond``."""
    v = cond.get(key)
    if v is None:
        v = cond[key] = sufficient_condition_holds(g) is not None
    return v


def _elimination_moves(g: GDag) -> Iterator[GDag]:
    """Successor graphs for the survivor search.

    Besides the reduction rules (with the one-outcome observed-node
    removal enabled), an edge into an observed node whose parents are
    all observed may be dropped unconditionally: any distribution
    satisfying the smaller graph's independences has X independent of
    the removed parent given the remaining ones, so a classical model
    using the edge converts to one without it.  Like the one-outcome
    rule this transfer runs in one direction only, which is all the
    elimination argument needs.
    """
    for rule in applicable_reductions(g, include_one_outcome=True):
        yield apply_reduction(g, rule)
    for x in g.observed_nodes():
        pa = g.parents(x)
        if pa and all(g.is_observed(p) for p in pa):
            for y in sorted(pa, key=g.index.__getitem__):
                yield g.without_edge(y, x)


def _reducible_to_smaller_failure(
    key: tuple, g: GDag, cond: dict[tuple, bool]
) -> bool:
    """Search reduction sequences from g, whose canonical key is key, for
    a strictly smaller condition-failing graph (fewer nodes, or equal
    nodes and fewer edges)."""
    start = (len(g.names), len(g.edges))
    seen = {key}
    queue = [g]
    while queue:
        cur = queue.pop()
        for nxt in _elimination_moves(cur):
            if not nxt.names:
                continue
            key = canonical_key(nxt)
            if key in seen:
                continue
            seen.add(key)
            if (len(nxt.names), len(nxt.edges)) < start and not _holds(cond, key, nxt):
                return True
            queue.append(nxt)
    return False


@dataclass(frozen=True)
class CensusReport:
    n: int
    total: int
    condition_holds: int
    survivors: tuple[GDag, ...]

    def csv_row(self) -> str:
        return f"{self.n},{self.total},{self.condition_holds},{len(self.survivors)}"


def classification_census(n: int, progress: bool = False) -> CensusReport:
    """Classify every n-node GDAG up to isomorphism.

    ``total`` counts isomorphism classes, ``condition_holds`` those
    passing the C = I sufficient condition, and ``survivors`` the failing
    graphs not reducible to a strictly smaller failing graph.
    """
    cond: dict[tuple, bool] = {}
    total = 0
    holds = 0
    failures: list[tuple[tuple, GDag]] = []
    for i, (key, g) in enumerate(_enumerate_classes(n)):
        if progress and i and i % 2000 == 0:
            print(f"  examined {i} classes", file=sys.stderr)
        total += 1
        if _holds(cond, key, g):
            holds += 1
        else:
            failures.append((key, g))
    survivors = tuple(
        g for key, g in failures if not _reducible_to_smaller_failure(key, g, cond)
    )
    return CensusReport(n, total, holds, survivors)
