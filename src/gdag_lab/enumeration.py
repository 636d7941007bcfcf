"""Enumeration of GDAGs up to kind-preserving isomorphism and the
classification census over all small GDAGs.

The n-node classes are built by sink extension: every (n-1)-node class
plus a new sink of either kind with every parent set, deduplicated by
canonical key (the first step of isomorph-free generation by canonical
augmentation, McKay 1998).  Classes therefore come in sink-extension
order, not in the order of a scan over labelled graphs.  A canonical key
is one int that also encodes the node count (see ``_code_of_masks``), so
keys of graphs of different sizes never collide.  The extensions of one
class share its masks and its relabelling sums (see ``_extensions``).

One level walk (see ``_levels``) builds the classes of 0, 1, ..., n
nodes; its memo over every level is its seen-set.  Enumeration reads
the n-node level's keys and searches nothing.  The census passes the
certificate search, which runs only when a class's new sink is
observed with an unobserved parent, on the masks of the extension that
first met it; any other class takes the smaller class's answer.
Survivors are the condition-failing graphs from which the survivor
search's moves reach no condition-failing graph: the reduction rules,
and removing an observed node (as if it took one outcome) or an edge
into an all-observed family, two one-way moves that are not rules (see
``_elimination_moves``).  Survivors are listed in the order their
classes first occur in the labelled scan (see ``_scan_rank``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, islice, permutations
from operator import add, itemgetter
from typing import Iterator, NamedTuple, Sequence

from .graph import GDag, NodeKind, _bits, _masks_of_children
from .classify import _winning_branch, applicable_reductions, apply_reduction
# perfbench/spans.py wraps enumeration.sufficient_condition_holds by
# name; the census itself asks only ``_winning_branch``.
from .classify import sufficient_condition_holds  # noqa: F401

#: The largest census: n = 6 takes about 10 s, while n = 7 would key
#: about 46M sink extensions against up to 7! relabellings each.  Key
#: tables (see ``_TABLES``) are kept up to this size.
CENSUS_MAX_N = 6

#: Node names used for generated graphs, shortest first.
_NAMES = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


#: Tables built on first use, each under a key that starts with its node
#: count n: relabelling rows under (n, k) (see ``_relabellings``) and bit
#: reversals under (n,).  Only tables for n <= CENSUS_MAX_N are kept; a
#: larger graph builds its table for the one call and drops it.
_TABLES: dict[tuple[int, ...], tuple] = {}


def _table(key: tuple[int, ...], build) -> tuple:
    table = _TABLES.get(key)
    if table is None:
        table = build(*key)
        if key[0] <= CENSUS_MAX_N:
            _TABLES[key] = table
    return table


def _relabellings(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """One row per relabelling of an n-node graph whose k observed nodes
    are 0..k-1 that keeps them first: entry ``n*v + w`` of the row is the
    key bit of the edge v -> w under that relabelling.  The rows share
    one list of the n*n powers of two."""
    top = n * n - 1
    power = [1 << b for b in range(n * n)]
    rows = []
    for obs_at in permutations(range(k)):
        for unobs_at in permutations(range(k, n)):
            at = obs_at + unobs_at
            rows.append(tuple([power[top - n * a - b] for a in at for b in at]))
    return tuple(rows)


def _code_of_masks(kinds: Sequence[int], child_mask: Sequence[int]) -> int:
    """Canonical key of the graph with node kinds ``kinds`` (0 observed,
    1 unobserved) and children ``child_mask[v]`` of each node v, packed
    into one int: ``(2 << n | k) << n*n | bits`` for n nodes, k of them
    observed.  The leading 1 (bit n*n + n + 1) makes keys of different
    sizes distinct.

    ``bits`` is the minimum, over relabellings that put every observed
    node before every unobserved one, of the adjacency bits read
    row-major, most significant first: bit ``n*n - 1 - (n*i + j)`` is the
    edge i -> j.  This is the minimum over all n! relabellings of the
    pair (kind vector, adjacency bits), since only those relabellings
    reach the minimal kind vector.

    The nodes are numbered observed first, in order; each edge becomes a
    slot of the rows of ``_relabellings``, and the sum of a row's slots
    is that relabelling's bits, so one ``min`` scores every relabelling.
    """
    n = len(kinds)
    order = [v for v in range(n) if not kinds[v]]
    k = len(order)
    order += [v for v in range(n) if kinds[v]]
    at = [0] * n
    for i, v in enumerate(order):
        at[v] = i
    head = (2 << n | k) << (n * n)
    slots = [n * at[v] + at[w] for v in range(n) for w in _bits(child_mask[v])]
    if not slots:
        return head
    # With no observed node, as with no latent one, every relabelling
    # keeps the observed nodes first: both use the table of all n!.
    rows = _table((n, k or n), _relabellings)
    if len(slots) == 1:
        return head | min(map(itemgetter(slots[0]), rows))
    return head | min(map(sum, map(itemgetter(*slots), rows)))


def _reversals(n: int) -> tuple[int, ...]:
    """Entry m is the n-bit field m with its bits in reverse order."""
    return tuple([int(format(m, f"0{n}b")[::-1], 2) for m in range(1 << n)])


def _observed_count(n: int, code: int) -> int:
    """The number k of observed nodes of the n-node class whose key is
    ``code``; its canonical form numbers them 0..k-1."""
    return (code >> (n * n)) ^ (2 << n)


def _masks_of_code(n: int, code: int) -> tuple[list[int], list[int]]:
    """(kinds, child masks) of the canonical form of the n-node class
    whose key is ``code``: its observed nodes first.  Row i of the
    adjacency bits is the n-bit field at bit n*(n-1-i), edge i -> j at
    its bit n-1-j, so reversing the field gives i's child mask."""
    k = _observed_count(n, code)
    field = (1 << n) - 1
    reverse = _table((n,), _reversals)
    child_mask = [reverse[(code >> (n * (n - 1 - i))) & field] for i in range(n)]
    return [0] * k + [1] * (n - k), child_mask


def canonical_key(g: GDag) -> int:
    """A total invariant of kind-preserving isomorphism: the packed int
    of ``_code_of_masks``."""
    return _code_of_masks(
        [0 if k is NodeKind.OBSERVED else 1 for k in g.kinds], g.child_mask
    )


def _graph_of_key(n: int, key: int) -> GDag:
    """The n-node graph a canonical key encodes, on the names of _NAMES."""
    kinds, child_mask = _masks_of_code(n, key)
    return GDag(
        [
            (_NAMES[v], NodeKind.UNOBSERVED if kinds[v] else NodeKind.OBSERVED)
            for v in range(n)
        ],
        [(_NAMES[v], _NAMES[w]) for v in range(n) for w in _bits(child_mask[v])],
    )


def isomorphic(g: GDag, h: GDag) -> bool:
    return canonical_key(g) == canonical_key(h)


class _ClassMasks(NamedTuple):
    """The masks of one labelling of a class that ``_winning_branch``
    reads, each equal to the same attribute of the GDag with these nodes
    and edges, at a fraction of its cost."""

    names: tuple[str, ...]
    all_mask: int
    observed_mask: int
    parent_mask: tuple[int, ...]
    child_mask: tuple[int, ...]
    anc_mask: tuple[int, ...]


def _extensions(
    m: int, base: int
) -> Iterator[tuple[int, list[int], partial[_ClassMasks]]]:
    """The graphs made from the m-node class with key ``base`` by adding
    node m as a sink: per sink kind (0 observed, then 1 unobserved), the
    kind, their keys by parent set p = 0, 1, ..., 2**m - 1 and a function
    of p giving their masks.

    Each kind numbers the nodes observed first as ``_code_of_masks``
    does and sums each relabelling row over the base's edge slots once;
    p's sums are those of ``p ^ low`` plus the column of the edge from
    p's lowest parent ``low``, and ``head | min(sums)`` is the int
    ``_code_of_masks`` gives.  The masks are the base's canonical form
    plus the sink, whose ancestors are built from ``p ^ low`` alike.
    """
    n = m + 1
    kinds, child = _masks_of_code(m, base)
    k = kinds.count(0)
    parent, anc = _masks_of_children(child)
    sink = 1 << m
    sink_anc = [sink]
    for p in range(1, sink):
        low = p & -p
        sink_anc.append(sink_anc[p ^ low] | anc[low.bit_length() - 1])
    names, all_mask = tuple(_NAMES[:n]), (1 << n) - 1

    def masks(kind: int, p: int) -> _ClassMasks:
        observed = (1 << k) - 1 if kind else (1 << k) - 1 | sink
        ext = [c | (p >> v & 1) << m for v, c in enumerate(child)] + [0]
        return _ClassMasks(
            names, all_mask, observed, parent + (p,), tuple(ext), anc + (sink_anc[p],)
        )

    for kind in (0, 1):
        # An observed sink is numbered k, and the base's latents move up.
        at = list(range(n)) if kind else [*range(k), *range(k + 1, n), k]
        obs = k + 1 - kind
        head = (2 << n | obs) << (n * n)
        rows = _table((n, obs or n), _relabellings)
        total = [0] * len(rows)
        for s in [n * at[v] + at[w] for v in range(m) for w in _bits(child[v])]:
            total = list(map(add, total, map(itemgetter(s), rows)))
        column = [list(map(itemgetter(n * at[v] + at[m]), rows)) for v in range(m)]
        # stack[j] holds the sums of the last parent set with j parents,
        # so after truncation to p.bit_count() entries its top is p ^ low.
        stack = [total]
        keys = [head | min(total)]
        for p in range(1, sink):
            low = p & -p
            del stack[p.bit_count():]
            stack.append(list(map(add, stack[-1], column[low.bit_length() - 1])))
            keys.append(head | min(stack[-1]))
        yield kind, keys, partial(masks, kind)


def _levels(n: int, search) -> tuple[dict[int, bool], int]:
    """The classes of 0, 1, ..., n nodes, level by level, as a memo from
    each class's canonical key to an answer, in the order the classes are
    first met, and the index in it where the n-node level starts.

    Every DAG has a sink, and deleting it leaves a DAG one node smaller,
    so every m-node class is an (m-1)-node class plus a new sink of
    either kind with some parent set.  Level 0 is the empty graph; each
    later level is every extension (see ``_extensions``) of the last
    level's classes, and a key gets its answer only when the memo does
    not hold it yet, so the memo is also the seen-set.

    The empty graph, and a class first met through an observed sink with
    an unobserved parent, with parent set p, get ``search(masks, p)``:
    ``masks(p)`` builds that extension's masks (see ``_ClassMasks``), so
    a search that never reads them builds none.  Any other class takes
    the answer of the class it extends.  For the certificate search that
    is the class's own answer: a childless sink is never tricky nor a
    candidate root, so the search runs as on the base, and each final
    graph's test is the base's plus, for an observed sink, the sink's
    own local-Markov statement, which holds (see the README).  Whether a winning branch exists does not depend
    on the labelling, so the first extension's masks decide the class.
    """
    empty = _ClassMasks((), 0, 0, (), (), ())
    memo = {_code_of_masks([], []): search(lambda p: empty, 0)}
    start = 0
    for m in range(n):
        bases = list(islice(memo.items(), start, None))
        start = len(memo)
        for base, held in bases:
            # The base's canonical form numbers its unobserved nodes k..m-1.
            k = _observed_count(m, base)
            for kind, keys, masks in _extensions(m, base):
                for p, key in enumerate(keys):
                    if key not in memo:
                        memo[key] = held if kind or not p >> k else search(masks, p)
    return memo, start


def _class_codes(n: int) -> Iterator[int]:
    """The canonical key (see ``_code_of_masks``) of every n-node
    isomorphism class, each once, in the order the level walk (see
    ``_levels``) first meets them; its search reads no masks."""
    memo, start = _levels(n, lambda masks, p: True)
    return islice(memo, start, None)


def enumerate_gdags(n: int) -> Iterator[GDag]:
    """All GDAGs on n nodes, 1 <= n <= CENSUS_MAX_N, one per
    kind-preserving isomorphism class, in sink-extension order (see
    ``_class_codes``)."""
    if not 1 <= n <= CENSUS_MAX_N:
        raise ValueError(f"census supports 1 <= n <= {CENSUS_MAX_N}")
    return (_graph_of_key(n, key) for key in _class_codes(n))


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


def _elimination_moves(g: GDag) -> Iterator[GDag]:
    """Successor graphs for the survivor search: those of the default
    reduction rules, g without each observed node, and g without each
    edge into an observed node whose parents are all observed.

    The last two moves preserve neither C nor I, but each carries a
    separation back to g, which is all the elimination argument needs:
    a distribution that satisfies I(h) of the smaller graph h but lies
    outside C(h) does the same on g.  With x removed, extend it by a
    constant x: a constant adds no dependence, and a classical model on
    g whose x is constant is one on h.  With y -> x removed, I(h) makes
    x independent of y given its other parents, so a classical model on
    g is turned into one on h by giving x that conditional.
    """
    for rule in applicable_reductions(g):
        yield apply_reduction(g, rule)
    for x in g.observed_nodes():
        yield g.without_nodes([x])
        pa = g.parents(x)
        if pa and all(g.is_observed(p) for p in pa):
            for y in sorted(pa, key=g.index.__getitem__):
                yield g.without_edge(y, x)


def _reducible_to_smaller_failure(
    key: int, g: GDag, cond: dict[int, bool]
) -> bool:
    """Search the graphs reachable from g, whose canonical key is key, by
    ``_elimination_moves`` for a condition-failing one.  Every move
    removes a node, or keeps the nodes and removes an edge, so each such
    graph is strictly smaller than g, and whether one fails does not
    depend on the order the moves are tried in.  ``cond`` holds the
    answer of every class of at most g's size, the empty graph's too; a
    key missing from it raises KeyError."""
    seen = {key}
    queue = [g]
    while queue:
        for nxt in _elimination_moves(queue.pop()):
            key = canonical_key(nxt)
            if key in seen:
                continue
            seen.add(key)
            if not cond[key]:
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


def classification_census(n: int) -> CensusReport:
    """Classify every n-node GDAG up to isomorphism, 1 <= n <=
    CENSUS_MAX_N; ValueError for any other n, before a key is computed.

    ``total`` counts isomorphism classes, ``condition_holds`` those
    passing the C = I sufficient condition, and ``survivors`` the failing
    graphs not reducible to a strictly smaller failing graph.  Classes
    are examined in sink-extension order; survivors are sorted by
    ``_scan_rank``, which keeps them in the order of the labelled scan.
    Sorting after the search gives the order sorting before it would,
    since the search answers each failure alone (``cond`` only memoises
    the condition).

    ``cond`` is the level walk's memo (see ``_levels``), whose search is
    the certificate search on the masks of the extension that first
    meets a class.  Counts and failures are read off its n-node level.
    A class that passes costs no GDag and no certificate.  Failures are
    held as keys, not graphs, and each graph is rebuilt for its search:
    a GDag takes about 1.2 KB, and n = 6 has 10,181 failures.
    """
    if not 1 <= n <= CENSUS_MAX_N:
        raise ValueError(f"census supports 1 <= n <= {CENSUS_MAX_N}")
    cond, start = _levels(n, lambda masks, p: _winning_branch(masks(p)) is not None)
    failures = [key for key, v in islice(cond.items(), start, None) if not v]
    total = len(cond) - start
    survivors = []
    for key in failures:
        g = _graph_of_key(n, key)
        if not _reducible_to_smaller_failure(key, g, cond):
            survivors.append(g)
    survivors.sort(key=_scan_rank)
    return CensusReport(n, total, total - len(failures), tuple(survivors))
