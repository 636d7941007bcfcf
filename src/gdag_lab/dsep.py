"""d-separation queries and observable conditional-independence sets.

Two equivalent formulations are provided: reachability in the
pseudo-adjacency relation (two nodes linked when adjacent or sharing a
child outside the exogenous remainder W), and the four-set partition
{U, V, Z, W} witness form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .graph import GDag, GraphError, _bits, _ready_order


@dataclass(frozen=True)
class CIStatement:
    """A conditional-independence triple (x independent of y given z).

    Stored in a canonical orientation: the lexicographically smaller of
    the two sides is ``x``, so the x/y symmetry collapses.
    """

    x: frozenset[str]
    y: frozenset[str]
    z: frozenset[str]

    def __post_init__(self):
        if not self.x or not self.y:
            raise ValueError("x and y must be nonempty")
        if self.x & self.y or self.x & self.z or self.y & self.z:
            raise ValueError("x, y, z must be pairwise disjoint")

    def canonical(self) -> "CIStatement":
        if sorted(self.y) < sorted(self.x):
            return CIStatement(self.y, self.x, self.z)
        return self

    def sort_key(self) -> tuple:
        return (sorted(self.x), sorted(self.y), sorted(self.z))


class CISet:
    """A set of CI statements, closed under the x/y symmetry."""

    def __init__(self, statements: Iterable[CIStatement] = ()):
        self._stmts = frozenset(s.canonical() for s in statements)

    def __contains__(self, s: CIStatement) -> bool:
        return s.canonical() in self._stmts

    def __iter__(self) -> Iterator[CIStatement]:
        return iter(sorted(self._stmts, key=CIStatement.sort_key))

    def __le__(self, other: "CISet") -> bool:
        return self._stmts <= other._stmts

    def to_json(self) -> str:
        rows = [
            {"x": sorted(s.x), "y": sorted(s.y), "z": sorted(s.z)}
            for s in self
        ]
        return json.dumps(rows)


@dataclass(frozen=True)
class DsepWitness:
    """A partition {u, v, z, w} of the nodes certifying d-separation."""

    u: frozenset[str]
    v: frozenset[str]
    z: frozenset[str]
    w: frozenset[str]


def _check_disjoint(g: GDag, x, y, z) -> tuple[int, int, int]:
    xm, ym, zm = g.mask_of(x), g.mask_of(y), g.mask_of(z)
    if xm & ym or xm & zm or ym & zm:
        raise GraphError("x, y, z must be pairwise disjoint")
    return xm, ym, zm


def _w_mask(g: GDag, xm: int, ym: int, zm: int) -> int:
    anc = 0
    for i in _bits(xm | ym | zm):
        anc |= g.anc_mask[i]
    return g.all_mask & ~anc


def _pseudo_closure(g: GDag, seed: int, w: int, blocked: int) -> int:
    """Nodes reachable from ``seed`` along pseudo-paths avoiding ``blocked``.

    Two live nodes are linked when they are joined by an edge in either
    direction or share a child outside W.
    """
    live = g.all_mask & ~w & ~blocked
    reach = seed & live
    frontier = reach
    ch = g.child_mask
    pa = g.parent_mask
    not_w = ~w
    while frontier:
        new = 0
        for i in _bits(frontier):
            new |= ch[i] | pa[i]
            for c in _bits(ch[i] & not_w):
                new |= pa[c]
        frontier = new & live & ~reach
        reach |= frontier
    return reach


def _dsep_mask(g: GDag, xm: int, ym: int, zm: int) -> bool:
    w = _w_mask(g, xm, ym, zm)
    return not (_pseudo_closure(g, xm, w, zm) & ym)


def d_separated(g: GDag, x, y, z) -> bool:
    """True iff every pseudo-path from x to y passes through z."""
    xm, ym, zm = _check_disjoint(g, x, y, z)
    return _dsep_mask(g, xm, ym, zm)


def d_separated_via_partition(g: GDag, x, y, z) -> Optional[DsepWitness]:
    """Return a {U, V, Z, W} witness partition, or None if not separated.

    U is the pseudo-path closure of x avoiding z; V is everything else.
    """
    xm, ym, zm = _check_disjoint(g, x, y, z)
    w = _w_mask(g, xm, ym, zm)
    um = _pseudo_closure(g, xm, w, zm)
    if um & ym:
        return None
    vm = g.all_mask & ~(um | w | zm)
    return DsepWitness(
        u=g.names_of(um), v=g.names_of(vm), z=g.names_of(zm), w=g.names_of(w)
    )


def _observed_triples(g: GDag) -> Iterator[tuple[int, int, int]]:
    """All canonically-oriented disjoint (x, y, z) observed-subset
    triples, each once.

    Canonical orientation: the lowest-index node of x | y lies in x.
    Each nonempty xy is split by y, a nonempty submask of xy without its
    lowest node, and z runs over the submasks of the observed rest.
    """
    obs = xy = g.observed_mask
    while xy:
        y = high = xy & (xy - 1)
        while y:
            z = rest = obs ^ xy
            while True:
                yield xy ^ y, y, z
                if not z:
                    break
                z = (z - 1) & rest
            y = (y - 1) & high
        xy = (xy - 1) & obs


def observable_ci_set(g: GDag) -> CISet:
    """All d-separation statements over disjoint observed-node subsets."""
    stmts = []
    for xm, ym, zm in _observed_triples(g):
        if _dsep_mask(g, xm, ym, zm):
            stmts.append(
                CIStatement(g.names_of(xm), g.names_of(ym), g.names_of(zm))
            )
    return CISet(stmts)


def _markov_holds(g: GDag, par: dict[int, int]) -> bool:
    """True iff every d-separation of the DAG with parent masks ``par``
    (node to parent mask, both in ``g``'s indices) holds in ``g``.

    Its ordered local-Markov list suffices: each node i is independent
    of its predecessors in a topological order (here lowest ready index
    first) given its parents.  d-separation in ``g`` is a semi-graphoid,
    and the semi-graphoid closure of that list is every d-separation of
    the DAG, for any topological order (Verma & Pearl 1988; Lauritzen,
    Dawid, Larsen & Leimer 1990), so one test per node decides it.
    """
    done = 0
    for i in _ready_order(par, sum(1 << i for i in par)):
        rest = done & ~par[i]
        if rest and not _dsep_mask(g, 1 << i, rest, par[i]):
            return False
        done |= 1 << i
    return True


def ci_subset(g_new: GDag, g_old: GDag) -> bool:
    """True iff every observable CI of ``g_new`` already holds in
    ``g_old``: by the local-Markov list when ``g_new`` is all-observed,
    else as the inclusion of CI sets
    ``observable_ci_set(g_new) <= observable_ci_set(g_old)``."""
    if set(g_new.observed_nodes()) != set(g_old.observed_nodes()):
        raise GraphError("observed node sets differ")
    if g_new.observed_mask == g_new.all_mask:
        return _markov_holds(g_old, {
            g_old.index[n]: g_old.mask_of(g_new.parents(n)) for n in g_new.names
        })
    return observable_ci_set(g_new) <= observable_ci_set(g_old)
