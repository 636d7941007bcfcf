"""Enumeration of GDAGs up to kind-preserving isomorphism and the
classification census over all small GDAGs.

The n-node classes are built by sink extension: every (n-1)-node class
plus a new sink of either kind with every parent set, deduplicated by
canonical key (the first step of isomorph-free generation by canonical
augmentation, McKay 1998).  Classes therefore come in sink-extension
order, not in the order of a scan over labelled graphs.

The census evaluates the C = I sufficient condition on every isomorphism
class.  Survivors are the condition-failing graphs from which no strictly
smaller condition-failing graph can be reached by reduction rules; the
one-outcome observed-node removal rule participates in that search
because restricting any observed variable to a single outcome never
enlarges the classical set.  Survivors are listed in the order their
classes first occur in the labelled scan (see ``_scan_rank``).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations
from typing import Iterator, Optional, Sequence

from .graph import GDag, NodeKind, _bits
from .classify import applicable_reductions, apply_reduction, sufficient_condition_holds

#: The largest census that finishes: n = 6 takes minutes, while n = 7
#: would key about 46M sink extensions of up to 7! relabellings each.
CENSUS_MAX_N = 6

#: Node names used for generated graphs, shortest first.
_NAMES = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _code_of_masks(kinds: Sequence[int], child_mask: Sequence[int]) -> int:
    """Canonical code of the graph with node kinds ``kinds`` (0 observed,
    1 unobserved) and children ``child_mask[v]`` of each node v: the
    canonical key of ``_key_of_masks`` packed into one int, the observed
    count above the n*n adjacency bits.

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
    return k << (n * n) | best


@cache
def _kind_vector(n: int, k: int) -> tuple[int, ...]:
    """k observed then n - k unobserved kinds, as one tuple shared by
    every key with that kind vector: a census holds one key per class."""
    return (0,) * k + (1,) * (n - k)


def _key_of_code(n: int, code: int) -> tuple:
    """The canonical key an n-node code packs."""
    top = n * n - 1
    return _kind_vector(n, code >> (n * n)), tuple(
        (code >> (top - i)) & 1 for i in range(n * n)
    )


def _key_of_masks(kinds: Sequence[int], child_mask: Sequence[int]) -> tuple:
    """Canonical key (kind vector, adjacency bits read row-major) of the
    graph with node kinds ``kinds`` and children ``child_mask[v]``; see
    ``_code_of_masks``."""
    return _key_of_code(len(kinds), _code_of_masks(kinds, child_mask))


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


def _sink_extensions(m: int, base: int) -> Iterator[tuple[list[int], list[int]]]:
    """(kinds, child masks) of every graph made from the m-node class
    with code ``base`` by adding node m as a sink: first observed, then
    unobserved, and for each kind every parent set, as the bitmask
    ``parents`` counts up from 0."""
    k = base >> (m * m)
    top = m * m - 1
    base_mask = [
        sum(1 << j for j in range(m) if (base >> (top - m * i - j)) & 1)
        for i in range(m)
    ]
    for kind in (0, 1):
        kinds = [0] * k + [1] * (m - k) + [kind]
        for parents in range(1 << m):
            child_mask = [
                c | (((parents >> v) & 1) << m) for v, c in enumerate(base_mask)
            ]
            child_mask.append(0)
            yield kinds, child_mask


def _class_codes(n: int) -> Iterator[int]:
    """The code (see ``_code_of_masks``) of every n-node isomorphism
    class, each once.

    Every DAG has a sink, and deleting it leaves an (n-1)-node DAG, so
    every n-node class is an (n-1)-node class plus a new sink of either
    kind with some parent set.  Only the (n-1)-node codes are held as a
    list; every extension of each is keyed, and the n-node codes are
    yielded as they are first seen.  The recursion starts from the one
    empty graph.
    """
    if n == 0:
        yield 0
        return
    seen: set[int] = set()
    for base in list(_class_codes(n - 1)):
        for kinds, child_mask in _sink_extensions(n - 1, base):
            code = _code_of_masks(kinds, child_mask)
            if code not in seen:
                seen.add(code)
                yield code


def _enumerate_classes(n: int) -> Iterator[tuple[tuple, GDag]]:
    """(canonical key, canonical form) of every n-node isomorphism class,
    built by sink extension from the (n-1)-node classes (see
    ``_class_codes``).  A GDag is built only for each class yielded.

    The classes do not come in the order of a scan over labelled
    graphs; ``classification_census`` restores that order for its
    survivors with ``_scan_rank``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    for code in _class_codes(n):
        key = _key_of_code(n, code)
        yield key, _graph_of_key(key)


def enumerate_gdags(n: int) -> Iterator[GDag]:
    """All GDAGs on n nodes, one per kind-preserving isomorphism class,
    in sink-extension order (see ``_class_codes``)."""
    for _, g in _enumerate_classes(n):
        yield g


def _scan_rank(g: GDag) -> tuple[int, int]:
    """Where g's class first occurs in the scan over labelled graphs:
    upper-triangular edge subsets ``edge_bits`` (bit k for the k-th pair
    of ``combinations(range(n), 2)``), each crossed with every kind
    vector ``kind_bits`` (bit i for node i unobserved).  The rank is the
    least (edge_bits, kind_bits) over the relabellings of g that put
    every edge forward."""
    n = len(g.names)
    pair_bit = {p: 1 << k for k, p in enumerate(combinations(range(n), 2))}
    unobserved = [v for v in range(n) if g.kinds[v] is NodeKind.UNOBSERVED]
    edges = [(v, w) for v in range(n) for w in _bits(g.child_mask[v])]
    return min(
        (
            sum(pair_bit[at[v], at[w]] for v, w in edges),
            sum(1 << at[v] for v in unobserved),
        )
        for at in permutations(range(n))
        if all(at[v] < at[w] for v, w in edges)
    )


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
    graphs not reducible to a strictly smaller failing graph.  Classes
    are examined in sink-extension order; survivors are sorted by
    ``_scan_rank``, which keeps them in the order of the labelled scan.
    Sorting after the search gives the order sorting before it would,
    since the search answers each failure alone (``cond`` only memoises
    the condition).
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
    survivors = sorted(
        (g for key, g in failures if not _reducible_to_smaller_failure(key, g, cond)),
        key=_scan_rank,
    )
    return CensusReport(n, total, holds, tuple(survivors))
