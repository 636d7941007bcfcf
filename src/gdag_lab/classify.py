"""Classification machinery: classicality-preserving transformations, the
search for the C = I sufficient condition, and reduction rules.

The sufficient condition holds for a GDAG when some sequence of the four
transformations reaches an all-observed DAG requiring no extra observable
conditional independences.  The search places the "tricky" observed nodes
(those with unobserved parents) one at a time, each with a root
unobserved node feeding it; every ordering paired with every root choice
is complete for the condition.  The certificate is the first winning
branch of that loop, found in one depth-first search over ordering
prefixes that follows each placement state, which many branches share,
once, and drops a state as soon as the observed nodes whose parents it
has fixed fail a local-Markov statement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from .graph import GDag, NodeKind, _bits
from .dsep import _dsep_mask, ci_subset


class TransformError(ValueError):
    """A transformation or reduction precondition failed."""


# -- the four classicality-preserving transformations -------------------


@dataclass(frozen=True)
class RemoveEdge:
    a: str
    b: str


@dataclass(frozen=True)
class RemoveIsolatedUnobserved:
    n: str


@dataclass(frozen=True)
class AddEdgeUnobservedPath:
    """Add a -> b where a directed path a to b through unobserved
    intermediates already exists."""

    a: str
    b: str


@dataclass(frozen=True)
class AddEdgeParentSubset:
    """Add a -> b where Pa(a) is a subset of Pa(b) and contains an
    unobserved node."""

    a: str
    b: str


Transformation = Union[
    RemoveEdge, RemoveIsolatedUnobserved, AddEdgeUnobservedPath, AddEdgeParentSubset
]

_EDGE_OPS = {
    RemoveEdge: "remove-edge",
    AddEdgeUnobservedPath: "add-edge-unobserved-path",
    AddEdgeParentSubset: "add-edge-parent-subset",
}


def _unobs_reachable(g: GDag, a: int) -> int:
    """Nodes b with a directed path a -> ... -> b whose intermediate
    nodes are all unobserved (mask; direct children included)."""
    unobs = g.all_mask & ~g.observed_mask
    reach = g.child_mask[a]
    frontier = reach & unobs
    while frontier:
        new = 0
        for i in _bits(frontier):
            new |= g.child_mask[i]
        frontier = new & unobs & ~reach
        reach |= new
    return reach


def apply_transformation(g: GDag, t: Transformation) -> GDag:
    """Apply one transformation, checking its precondition."""
    for n in getattr(t, "__dict__", {}).values():
        if n not in g.index:
            raise TransformError(f"unknown node {n!r}")
    if isinstance(t, RemoveEdge):
        if (t.a, t.b) not in g.edges:
            raise TransformError(f"no edge ({t.a!r}, {t.b!r}) to remove")
        return g.without_edge(t.a, t.b)

    if isinstance(t, RemoveIsolatedUnobserved):
        if g.is_observed(t.n):
            raise TransformError(f"{t.n!r} is observed")
        if g.parents(t.n) or g.children(t.n):
            raise TransformError(f"{t.n!r} is not isolated")
        return g.without_nodes([t.n])

    if isinstance(t, AddEdgeUnobservedPath):
        ia, ib = g.index[t.a], g.index[t.b]
        if (t.a, t.b) in g.edges:
            raise TransformError(f"edge ({t.a!r}, {t.b!r}) already present")
        if not (_unobs_reachable(g, ia) >> ib) & 1:
            raise TransformError(
                f"no directed path {t.a!r} to {t.b!r} through unobserved nodes"
            )
        return g.with_edge(t.a, t.b)

    if isinstance(t, AddEdgeParentSubset):
        ia, ib = g.index[t.a], g.index[t.b]
        if (t.a, t.b) in g.edges:
            raise TransformError(f"edge ({t.a!r}, {t.b!r}) already present")
        pa, pb = g.parent_mask[ia], g.parent_mask[ib]
        if pa & ~pb:
            raise TransformError(f"Pa({t.a!r}) is not a subset of Pa({t.b!r})")
        if not pa & ~g.observed_mask:
            raise TransformError(f"Pa({t.a!r}) contains no unobserved node")
        # Pa(a) within Pa(b) rules out b ~> a for a != b: that path's last
        # edge p -> a gives p -> b, a self-loop or a cycle b ~> p -> b.
        if t.a == t.b:
            raise TransformError(f"adding ({t.a!r}, {t.b!r}) would create a cycle")
        return g.with_edge(t.a, t.b)

    raise TransformError(f"unknown transformation {t!r}")


@dataclass(frozen=True)
class Certificate:
    """A transformation sequence from ``source`` to an all-observed DAG
    that needs no extra observable independences; proves C = I."""

    source: GDag
    steps: tuple[Transformation, ...]

    @property
    def final(self) -> GDag:
        """The graph the steps reach, replayed and checked on every read."""
        g = self.source
        for t in self.steps:
            g = apply_transformation(g, t)
        return g

    def verify(self) -> bool:
        try:
            final = self.final
        except TransformError:
            return False
        if any(k is NodeKind.UNOBSERVED for k in final.kinds):
            return False
        return ci_subset(final, self.source)

    def to_json(self) -> str:
        steps = [
            {"op": "remove-isolated-unobserved", "node": t.n}
            if isinstance(t, RemoveIsolatedUnobserved)
            else {"op": _EDGE_OPS[type(t)], "a": t.a, "b": t.b}
            for t in self.steps
        ]
        obj = {"steps": steps, "final": json.loads(self.final.to_json())}
        return json.dumps(obj)


# -- the certificate search over orderings and root assignments ---------


def _closure(g: GDag) -> list[int]:
    """Maximal application of the unobserved-path edge addition: the
    closed parent masks.  One pass suffices, as an added a -> b changes
    no node's reach through unobserved nodes."""
    par = list(g.parent_mask)
    for a in range(len(g.names)):
        for b in _bits(_unobs_reachable(g, a) & ~g.child_mask[a]):
            par[b] |= 1 << a
    return par


def _place(
    par: list[int], t: int, root: int, later: Sequence[int], unobs: int
) -> None:
    """Place tricky node ``t`` with its chosen ``root``, updating the
    parent masks ``par`` in place; ``later`` lists the tricky nodes not
    yet placed.

    ``t`` loses every parent in ``later`` and every unobserved parent but
    ``root``.  Then each ``j`` in ``later``, in the given order, gains the
    edge t -> j when Pa(t) is a subset of Pa(j); the rule's unobserved
    parent is ``root``.  No acyclicity test is needed: were j an ancestor
    of t, the last edge p -> t of that path would put p in Pa(t), a
    subset of Pa(j), giving a self-loop (p = j) or a cycle j ~> p -> j.
    Only the masks of ``t`` and of ``later`` change.
    """
    later_mask = 0
    for j in later:
        later_mask |= 1 << j
    pt = par[t] = par[t] & ~(later_mask | (unobs & ~(1 << root)))
    for j in later:
        if (par[j] >> t) & 1 or pt & ~par[j]:
            continue
        par[j] |= 1 << t


def _settle(g: GDag, par: list[int], done: int, settled: int, memo: dict) -> Optional[int]:
    """Grow ``done``, a set of observed nodes closed under observed
    parents, to the largest such subset of ``settled`` (observed nodes
    whose masks in ``par`` are final), testing each added node's ordered
    local-Markov statement in ``g`` in ``_ready_order``; the grown set,
    or None when one fails.  ``memo`` maps (node, rest, parents) to the
    statement's answer."""
    obs = g.observed_mask
    m = settled & ~done
    while m:
        low = m & -m
        m ^= low
        pa = par[low.bit_length() - 1] & obs
        if pa & ~done:
            continue
        rest = done & ~pa
        if rest:
            key = (low, rest, pa)
            if key not in memo:
                memo[key] = _dsep_mask(g, low, rest, pa)
            if not memo[key]:
                return None
        done |= low
        m = settled & ~done
    return done


def _first_win(
    g: GDag, order: tuple[int, ...], left: int,
    states: dict[int, tuple[list[int], tuple[int, ...], int]],
    tricky: list[int], candidates: dict[int, list[int]],
    failed: set[int], memo: dict[tuple[int, int, int], bool],
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The first winning branch (ordering, roots) extending ``order`` in
    the loop over orderings and then root tuples, or None.

    ``states`` maps each placement state ``order`` reaches (keyed by the
    unplaced tricky set ``left`` packed with the tricky masks) to its
    parent masks, the first root tuple reaching it and the settled set
    of the state it came from, in that tuple's order.  A state is
    settled when it is expanded, over the observed nodes outside
    ``left``, and joins ``failed`` if a statement fails; with ``left``
    empty every observed node is settled, so the first state that passes
    is the loop's first winner.  A state whose subtree has no winner
    joins ``failed`` and is never expanded again."""
    live, settled = [], g.observed_mask & ~left
    for key, (par, roots, done) in states.items():
        done = _settle(g, par, done, settled, memo)
        if done is None:
            failed.add(key)
        elif not left:
            return order, roots
        else:
            live.append((par, roots, done))
    n = len(g.names)
    unobs = g.all_mask & ~g.observed_mask
    for t in _bits(left):
        rest = left & ~(1 << t)
        later = tuple(_bits(rest))
        nxt: dict[int, tuple[list[int], tuple[int, ...], int]] = {}
        for par, roots, done in live:
            for r in candidates[t]:
                p = list(par)
                _place(p, t, r, later, unobs)
                key, shift = rest, n
                for u in tricky:
                    key |= p[u] << shift
                    shift += n
                if key not in failed and key not in nxt:
                    nxt[key] = p, roots + (r,), done
        if nxt:
            win = _first_win(
                g, order + (t,), rest, nxt, tricky, candidates, failed, memo
            )
            if win:
                return win
    failed.update(states)
    return None


def _winning_branch(g) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The first winning branch (ordering, roots) of the loop over every
    ordering of the tricky nodes and then every root assignment, or None
    when the condition is not established.

    One depth-first search over ordering prefixes finds it: each prefix
    carries the distinct placement states it reaches, so branches that
    meet in a state are followed once.  The parent masks of placed tricky
    and of non-tricky observed nodes are final, so the largest set A of
    these closed under observed parents is ancestral in every final
    graph below a state, with the same d-separations in each: a failing
    statement of A's ordered local-Markov list fails them all, and the
    state is dropped.  Only subtrees with no winner are cut, in the same
    order, so the first winner is the loop's.  No graph is built.  ``g``
    is read only through its node count (``len(g.names)``), ``all_mask``,
    ``observed_mask``, ``parent_mask``, ``child_mask`` and ``anc_mask``,
    so the census passes the masks of each class's first sink extension
    instead of a GDag.
    """
    par = _closure(g)
    unobs = g.all_mask & ~g.observed_mask
    tricky = [
        i
        for i in range(len(g.names))
        if (g.observed_mask >> i) & 1 and par[i] & unobs
    ]
    root_set = [
        i
        for i in range(len(g.names))
        if not (g.observed_mask >> i) & 1 and not par[i] & unobs
    ]
    candidates = {t: [r for r in root_set if (par[t] >> r) & 1] for t in tricky}

    left = sum(1 << t for t in tricky)
    # The start state is never looked up, so any key serves.
    return _first_win(g, (), left, {-1: (par, (), 0)}, tricky, candidates, set(), {})


def sufficient_condition_holds(g: GDag) -> Optional[Certificate]:
    """Return a certificate for the C = I condition, or None.

    The certificate is the first winning branch (see ``_winning_branch``)
    written out as steps read off the parent masks before and after the
    closure and each placement, then the removal of every edge touching a
    latent and of every latent node.
    """
    win = _winning_branch(g)
    if win is None:
        return None
    order, roots = win
    names = g.names
    unobs = g.all_mask & ~g.observed_mask
    par = _closure(g)
    steps: list[Transformation] = [
        AddEdgeUnobservedPath(names[a], names[b])
        for a in range(len(names)) for b in range(len(names))
        if ((par[b] & ~g.parent_mask[b]) >> a) & 1
    ]
    for i, t in enumerate(order):
        before = list(par)
        _place(par, t, roots[i], order[i + 1:], unobs)
        steps.extend(RemoveEdge(names[p], names[t]) for p in _bits(before[t] & ~par[t]))
        steps.extend(
            AddEdgeParentSubset(names[t], names[j])
            for j in order[i + 1:] if par[j] != before[j]
        )
    for c, pm in enumerate(par):
        if not (unobs >> c) & 1:
            pm &= unobs
        steps.extend(RemoveEdge(names[p], names[c]) for p in _bits(pm))
    steps.extend(RemoveIsolatedUnobserved(names[n]) for n in _bits(unobs))
    return Certificate(g, tuple(steps))


# -- reduction rules ----------------------------------------------------


@dataclass(frozen=True)
class DropDisconnectedComponent:
    node: str  # identifies the weakly connected component to remove


@dataclass(frozen=True)
class DropChildlessUnobserved:
    node: str


@dataclass(frozen=True)
class MergeUnobservedIntoUnobservedParent:
    node: str


@dataclass(frozen=True)
class AbsorbDominatedUnobserved:
    node: str
    into: str


@dataclass(frozen=True)
class MergeUnobservedIntoSoleChild:
    node: str


@dataclass(frozen=True)
class MergeObservedIntoParentlessUnobservedParent:
    node: str  # the observed node being merged upward


ReductionRule = Union[
    DropDisconnectedComponent,
    DropChildlessUnobserved,
    MergeUnobservedIntoUnobservedParent,
    AbsorbDominatedUnobserved,
    MergeUnobservedIntoSoleChild,
    MergeObservedIntoParentlessUnobservedParent,
]

#: Rules valid only for theories able to transmit classical information
#: perfectly (includes the classical and quantum theories).
CARDINALITY_ASSUMING_RULES = (
    MergeUnobservedIntoSoleChild,
    MergeObservedIntoParentlessUnobservedParent,
)


def _component_of(g: GDag, n: str) -> frozenset[str]:
    i = g.index[n]
    seen = 1 << i
    frontier = seen
    while frontier:
        new = 0
        for k in _bits(frontier):
            new |= g.parent_mask[k] | g.child_mask[k]
        frontier = new & ~seen
        seen |= frontier
    return g.names_of(seen)


def _refusal(g: GDag, r: ReductionRule) -> Optional[str]:
    """Why rule instance ``r`` does not apply to ``g``, or None when it
    does; every node ``r`` names is a node of ``g``."""
    if isinstance(r, DropDisconnectedComponent):
        if len(_component_of(g, r.node)) == len(g.names):
            return "graph is connected"

    elif isinstance(r, DropChildlessUnobserved):
        if g.is_observed(r.node):
            return f"{r.node!r} is observed"
        if g.children(r.node):
            return f"{r.node!r} has children"

    elif isinstance(r, MergeUnobservedIntoUnobservedParent):
        n = r.node
        if g.is_observed(n):
            return f"{n!r} is observed"
        pa = g.parents(n)
        if len(pa) != 1:
            return f"{n!r} does not have exactly one parent"
        (p,) = pa
        if g.is_observed(p):
            return f"parent {p!r} is observed"

    elif isinstance(r, AbsorbDominatedUnobserved):
        n, m = r.node, r.into
        if n == m:
            return "node cannot absorb itself"
        if g.is_observed(n) or g.is_observed(m):
            return "both nodes must be unobserved"
        if not (g.parents(n) <= g.parents(m) and g.children(n) <= g.children(m)):
            return f"{n!r} is not dominated by {m!r}"

    elif isinstance(r, MergeUnobservedIntoSoleChild):
        if g.is_observed(r.node):
            return f"{r.node!r} is observed"
        if len(g.children(r.node)) != 1:
            return f"{r.node!r} does not have exactly one child"

    elif isinstance(r, MergeObservedIntoParentlessUnobservedParent):
        y = r.node
        if not g.is_observed(y):
            return f"{y!r} is not observed"
        pa = g.parents(y)
        if len(pa) != 1:
            return f"{y!r} must have exactly one parent"
        (x,) = pa
        if g.is_observed(x):
            return f"parent {x!r} is observed"
        if g.parents(x):
            return f"parent {x!r} is not parentless"
        if len(g.children(x)) != 2:
            return f"{x!r} must have exactly two children"

    else:
        return f"unknown reduction {r!r}"
    return None


def _merge(g: GDag, n: str, edges: Iterable[tuple[str, str]]) -> GDag:
    """``g`` without node ``n``, plus each of ``edges`` it lacks, in order."""
    h = g.without_nodes([n])
    for a, b in edges:
        if not h.has_edge(a, b):
            h = h.with_edge(a, b)
    return h


def apply_reduction(g: GDag, r: ReductionRule) -> GDag:
    """Apply one reduction rule, checking its precondition."""
    for n in getattr(r, "__dict__", {}).values():
        if n not in g.index:
            raise TransformError(f"unknown node {n!r}")
    why = _refusal(g, r)
    if why is not None:
        raise TransformError(why)
    n = r.node
    by_index = g.index.__getitem__
    if isinstance(r, DropDisconnectedComponent):
        return g.without_nodes(_component_of(g, n))
    if isinstance(r, MergeUnobservedIntoUnobservedParent):
        (p,) = g.parents(n)
        return _merge(g, n, ((p, c) for c in sorted(g.children(n), key=by_index)))
    if isinstance(r, MergeUnobservedIntoSoleChild):
        (c,) = g.children(n)
        return _merge(g, n, ((p, c) for p in sorted(g.parents(n), key=by_index)))
    if isinstance(r, MergeObservedIntoParentlessUnobservedParent):
        (x,) = g.parents(n)
        (z,) = g.children(x) - {n}
        return _merge(g, x, [(n, z)])
    # DropChildlessUnobserved, AbsorbDominatedUnobserved
    return g.without_nodes([n])


def applicable_reductions(g: GDag) -> Iterator[ReductionRule]:
    """Yield applicable rule instances in the fixed priority order."""
    comps: list[frozenset[str]] = []
    placed: set[str] = set()
    for n in g.names:
        if n not in placed:
            comp = _component_of(g, n)
            comps.append(comp)
            placed |= comp
    if len(comps) > 1:
        # remove the smallest component; keep the earliest-declared on ties
        drop = max(
            comps, key=lambda c: (-len(c), min(g.index[n] for n in c))
        )
        yield DropDisconnectedComponent(
            min(drop, key=g.index.__getitem__)
        )

    rules = (
        DropChildlessUnobserved,
        MergeUnobservedIntoUnobservedParent,
        AbsorbDominatedUnobserved,
        MergeUnobservedIntoSoleChild,
        MergeObservedIntoParentlessUnobservedParent,
    )
    for rule in rules:
        if rule is AbsorbDominatedUnobserved:
            candidates = (rule(n, m) for n in g.names for m in g.names)
        else:
            candidates = (rule(n) for n in g.names)
        yield from (r for r in candidates if _refusal(g, r) is None)


def reduce(g: GDag) -> GDag:
    """Apply reduction rules to a fixed point in priority order."""
    while True:
        rule = next(applicable_reductions(g), None)
        if rule is None:
            return g
        g = apply_reduction(g, rule)
