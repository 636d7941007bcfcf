"""Directed acyclic graphs whose nodes carry an observed/unobserved tag.

Graphs are immutable after construction.  All structural queries are
precomputed as bitmasks over the node indices (declaration order), which
keeps the d-separation and census machinery fast without any compiled
dependencies.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Raised for malformed graphs: cycles, dangling edges, duplicates."""


class NodeKind(Enum):
    OBSERVED = "observed"
    UNOBSERVED = "unobserved"


def _is_node_id(n: object) -> bool:
    """True for a nonempty string with no whitespace and no ",": cone
    JSON keys and the CLI's id lists join ids with ","."""
    return isinstance(n, str) and n.split() == [n] and "," not in n


def _not_str(names: Iterable[str]) -> Iterable[str]:
    """``names``; GraphError for a bare string, read as its characters."""
    if isinstance(names, str):
        raise GraphError(f"expected a collection of node ids, got {names!r}")
    return names


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _ready_order(parent_mask: Sequence[int], todo: int) -> Iterator[int]:
    """The nodes of the mask ``todo`` in topological order, lowest ready
    index first: a node is ready once none of its parents
    (``parent_mask[i]``) is left in todo.  The scan over todo is
    ``_bits`` written out: a generator per step cost more than twice as
    much over the n = 5 classes."""
    while todo:
        m = todo
        while m:
            low = m & -m
            i = low.bit_length() - 1
            if not parent_mask[i] & todo:
                break
            m ^= low
        else:
            raise GraphError("cycle detected")
        todo ^= low
        yield i


def _masks_of_children(
    child_mask: Sequence[int],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(parent masks, ancestor masks) of the graph whose node v has the
    children ``child_mask[v]``; GraphError on a cycle.  Node i's ancestor
    mask includes i."""
    n = len(child_mask)
    parent_mask = [0] * n
    for v, c in enumerate(child_mask):
        bit = 1 << v
        for w in _bits(c):
            parent_mask[w] |= bit
    anc = [0] * n
    for i in _ready_order(parent_mask, (1 << n) - 1):
        m = 1 << i
        for p in _bits(parent_mask[i]):
            m |= anc[p]
        anc[i] = m
    # Tuples are built from lists: ``tuple(genexpr)`` starts at 10
    # slots and resizes, so its tuples come from fresh memory yet die
    # onto CPython's per-size free lists, which never shrink.
    return tuple(parent_mask), tuple(anc)


class GDag:
    """A DAG with observed/unobserved node kinds.

    ``nodes`` is an ordered sequence of ``(name, kind)`` pairs; ``edges``
    an ordered sequence of ``(parent, child)`` name pairs.  Declaration
    order is significant: it drives topological tie-breaking, canonical
    search seeds and serialization, so two equal graphs serialize to the
    same bytes.
    """

    __slots__ = (
        "nodes", "edges", "names", "kinds", "index",
        "parent_mask", "child_mask", "anc_mask", "all_mask", "observed_mask",
    )

    def __init__(
        self,
        nodes: Sequence[tuple[str, NodeKind]],
        edges: Iterable[tuple[str, str]] = (),
    ):
        # Tuples are built from lists, as in ``_masks_of_children``.
        try:
            self.nodes: tuple[tuple[str, NodeKind], ...] = tuple(
                [(n, k if type(k) is NodeKind else NodeKind(k)) for n, k in nodes]
            )
        except ValueError as e:
            raise GraphError(f"bad node entry: {e}") from None
        names = tuple([n for n, _ in self.nodes])
        for n in names:
            if not _is_node_id(n):
                raise GraphError(f"bad node id {n!r}")
        index = {n: i for i, n in enumerate(names)}
        if len(index) != len(names):
            raise GraphError("duplicate node id")
        self.names = names
        self.kinds = tuple([k for _, k in self.nodes])
        self.index = index

        n = len(names)
        self.all_mask = (1 << n) - 1
        self.observed_mask = 0
        for i, k in enumerate(self.kinds):
            if k is NodeKind.OBSERVED:
                self.observed_mask |= 1 << i

        child_mask = [0] * n
        checked = []
        for a, b in edges:
            ia, ib = index.get(a), index.get(b)
            if ia is None or ib is None:
                raise GraphError(f"edge ({a!r}, {b!r}) references unknown node")
            if ia == ib:
                raise GraphError(f"self-loop on {a!r}")
            if (child_mask[ia] >> ib) & 1:
                raise GraphError(f"duplicate edge ({a!r}, {b!r})")
            child_mask[ia] |= 1 << ib
            checked.append((a, b))
        self.edges: tuple[tuple[str, str], ...] = tuple(checked)
        self.child_mask = tuple(child_mask)
        self.parent_mask, self.anc_mask = _masks_of_children(child_mask)

    # -- identity ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GDag):
            return NotImplemented
        return self.nodes == other.nodes and frozenset(self.edges) == frozenset(
            other.edges
        )

    def __hash__(self) -> int:
        return hash((self.nodes, frozenset(self.edges)))

    def __repr__(self) -> str:
        return f"GDag(nodes={self.nodes!r}, edges={self.edges!r})"

    # -- mask helpers --------------------------------------------------

    def mask_of(self, names: Iterable[str]) -> int:
        m = 0
        for n in _not_str(names):
            try:
                m |= 1 << self.index[n]
            except KeyError:
                raise GraphError(f"unknown node id {n!r}") from None
        return m

    def names_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.names[i] for i in _bits(mask))

    # -- structural queries --------------------------------------------

    def is_observed(self, name: str) -> bool:
        return self.kinds[self.index[name]] is NodeKind.OBSERVED

    def observed_nodes(self) -> tuple[str, ...]:
        return tuple(
            n for n, k in self.nodes if k is NodeKind.OBSERVED
        )

    def unobserved_nodes(self) -> tuple[str, ...]:
        return tuple(
            n for n, k in self.nodes if k is NodeKind.UNOBSERVED
        )

    def parents(self, name: str) -> frozenset[str]:
        return self.names_of(self.parent_mask[self.index[name]])

    def children(self, name: str) -> frozenset[str]:
        return self.names_of(self.child_mask[self.index[name]])

    def has_edge(self, a: str, b: str) -> bool:
        return (a, b) in self.edges

    # -- derived graphs ------------------------------------------------

    def with_edge(self, a: str, b: str) -> "GDag":
        return GDag(self.nodes, self.edges + ((a, b),))

    def without_edge(self, a: str, b: str) -> "GDag":
        if (a, b) not in self.edges:
            raise GraphError(f"no edge ({a!r}, {b!r})")
        return GDag(self.nodes, tuple([e for e in self.edges if e != (a, b)]))

    def without_nodes(self, drop: Iterable[str]) -> "GDag":
        gone = set(_not_str(drop))
        return GDag(
            tuple([nk for nk in self.nodes if nk[0] not in gone]),
            tuple([e for e in self.edges if e[0] not in gone and e[1] not in gone]),
        )

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        obj = {
            "nodes": [{"id": n, "kind": k.value} for n, k in self.nodes],
            "edges": [[a, b] for a, b in self.edges],
        }
        return json.dumps(obj)


def parse_gdag(text: str) -> GDag:
    """Parse the JSON graph format; raises GraphError on invalid input."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise GraphError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict) or "nodes" not in obj or "edges" not in obj:
        raise GraphError("expected object with 'nodes' and 'edges'")
    edges = obj["edges"]
    if type(obj["nodes"]) is not list or type(edges) is not list:
        raise GraphError("expected arrays for 'nodes' and 'edges'")
    try:
        nodes = [(d["id"], NodeKind(d["kind"])) for d in obj["nodes"]]
    except (TypeError, KeyError, ValueError) as e:
        raise GraphError(f"malformed node or edge entry: {e}") from None
    for n, _ in nodes:
        if not isinstance(n, str):
            raise GraphError(f"node id {n!r} is not a string")
    for e in edges:
        if type(e) is not list or len(e) != 2 or not all(type(v) is str for v in e):
            raise GraphError(f"edge {e!r} is not a pair of node ids")
    return GDag(nodes, [(a, b) for a, b in edges])
