"""Independent reference implementations used only by the tests."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import comb, factorial, gcd, prod
from typing import Iterator, Mapping, Optional, Sequence

from gdag_lab.classify import (
    AbsorbDominatedUnobserved,
    AddEdgeParentSubset,
    AddEdgeUnobservedPath,
    Certificate,
    DropChildlessUnobserved,
    DropDisconnectedComponent,
    MergeObservedIntoParentlessUnobservedParent,
    MergeUnobservedIntoSoleChild,
    MergeUnobservedIntoUnobservedParent,
    RemoveEdge,
    RemoveIsolatedUnobserved,
    TransformError,
    _component_of,
    apply_transformation,
)
from gdag_lab.dsep import _dsep_mask, _observed_triples
from gdag_lab.graph import GDag, GraphError, NodeKind, _bits
from gdag_lab.models import ClassicalGmcModel, Distribution, Kernel


def canonical_key_oracle(g: GDag) -> int:
    """Kind-preserving canonical key by brute force: the minimum, over
    all n! node permutations, of the pair (kind vector, adjacency bits
    read row-major), packed as ``(2 << n | k) << n*n | bits`` with k the
    observed count and the bits most significant first."""
    n = len(g.names)
    kinds = tuple(0 if k is NodeKind.OBSERVED else 1 for k in g.kinds)
    adj = g.child_mask
    kind_vector, bits = min(
        (
            tuple(kinds[p] for p in perm),
            tuple((adj[perm[i]] >> perm[j]) & 1 for i in range(n) for j in range(n)),
        )
        for perm in permutations(range(n))
    )
    packed = 2 << n | kind_vector.count(0)
    for b in bits:
        packed = packed << 1 | b
    return packed


def labelled_scan_oracle(n: int) -> Iterator[tuple[list[int], list[int]]]:
    """(kinds, child masks) of every labelled n-node graph whose edges
    all point from a lower to a higher node index: the edge subsets
    ``edge_bits`` of the upper triangle (bit k for the k-th pair of
    ``combinations(range(n), 2)``), each crossed with every kind vector
    ``kind_bits`` (bit i set when node i is unobserved).  Every DAG relabels
    to one of them, so the scan meets every isomorphism class; the
    reference for the sink-extension enumeration."""
    pairs = list(combinations(range(n), 2))
    for edge_bits in range(1 << len(pairs)):
        child_mask = [0] * n
        for k, (i, j) in enumerate(pairs):
            if (edge_bits >> k) & 1:
                child_mask[i] |= 1 << j
        for kind_bits in range(1 << n):
            yield [(kind_bits >> i) & 1 for i in range(n)], child_mask


def _partitions(n: int, most: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n into parts of at most ``most``, largest first."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, most), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


@cache
def fixed_dag_count(cycles: tuple[int, ...]) -> int:
    """The number of labelled DAGs on the nodes of a permutation sigma
    whose cycle lengths are ``cycles`` (sorted) that sigma maps to
    themselves.

    The sinks of such a DAG are a union of sigma's cycles.  By
    inclusion-exclusion over the nonempty unions S of cycles that are
    all sinks, f(V) = sum (-1)^(c(S)+1) * 2^o(S) * f(V minus S), where
    c(S) counts S's cycles and o(S) the sigma-orbits of the possible
    edges from V minus S into S: gcd(a, b) per pair of an a-cycle
    outside S and a b-cycle in S.  No edge joins two nodes of S, nor
    two nodes of one cycle, which would close a directed cycle."""
    if not cycles:
        return 1
    lengths = sorted(set(cycles))
    counts = [cycles.count(a) for a in lengths]
    total = 0
    for picks in product(*(range(c + 1) for c in counts)):
        if not any(picks):
            continue
        sinks = [a for a, j in zip(lengths, picks) for _ in range(j)]
        rest = tuple(a for a, c, j in zip(lengths, counts, picks) for _ in range(c - j))
        ways = prod(comb(c, j) for c, j in zip(counts, picks))
        orbits = sum(gcd(a, b) for a in rest for b in sinks)
        sign = 1 if len(sinks) % 2 else -1
        total += sign * ways * 2 ** orbits * fixed_dag_count(rest)
    return total


def _centraliser(cycles: tuple[int, ...]) -> int:
    """How many permutations commute with one of cycle type ``cycles``:
    the product of a**m * m! over lengths a occurring m times."""
    return prod(a ** cycles.count(a) * factorial(cycles.count(a)) for a in set(cycles))


def class_counts(n: int) -> list[int]:
    """Entry k is the number of n-node GDAGs with k observed nodes up to
    kind-preserving isomorphism, by Burnside's lemma: the classes are the
    orbits of S_k x S_(n-k) on labelled DAGs whose first k nodes are
    observed, so their number is the average of ``fixed_dag_count`` over
    that group, in which n!/z permutations have a cycle type whose
    ``_centraliser`` is z.  Shares no code with the sink-extension walk."""
    counts = []
    for k in range(n + 1):
        total = sum(
            fixed_dag_count(tuple(sorted(obs + unobs)))
            * (factorial(k) // _centraliser(obs))
            * (factorial(n - k) // _centraliser(unobs))
            for obs in _partitions(k, k)
            for unobs in _partitions(n - k, n - k)
        )
        counts.append(total // (factorial(k) * factorial(n - k)))
    return counts


def dsep_moral_oracle(g: GDag, x, y, z) -> bool:
    """d-separation via the ancestral moral graph.

    X and Y are d-separated by Z iff X and Y are disconnected after
    removing Z in the moralized induced subgraph on the inclusive
    ancestors of X | Y | Z.  Entirely different algorithm family from
    the pseudo-path implementation under test.
    """
    x, y, z = set(x), set(y), set(z)
    anc = set()
    stack = list(x | y | z)
    while stack:
        v = stack.pop()
        if v in anc:
            continue
        anc.add(v)
        stack.extend(g.parents(v))

    neigh = {v: set() for v in anc}
    for a, b in g.edges:
        if a in anc and b in anc:
            neigh[a].add(b)
            neigh[b].add(a)
    for v in anc:
        parents = [p for p in g.parents(v) if p in anc]
        for i, p in enumerate(parents):
            for q in parents[i + 1:]:
                neigh[p].add(q)
                neigh[q].add(p)

    seen = set(x) - z
    stack = list(seen)
    while stack:
        v = stack.pop()
        if v in y:
            return False
        for u in neigh[v]:
            if u not in seen and u not in z:
                seen.add(u)
                stack.append(u)
    return True


def dsep_path_oracle(g: GDag, x, y, z) -> bool:
    """d-separation by brute-force path blocking: enumerate every
    undirected simple path, applying the chain/fork/collider rules with
    the collider-descendant-in-Z condition.  Exponential; small graphs
    only."""
    x, y, z = set(x), set(y), set(z)

    desc: dict[str, set] = {}
    for v in g.names:
        out = set()
        stack = [v]
        while stack:
            u = stack.pop()
            for c in g.children(u):
                if c not in out:
                    out.add(c)
                    stack.append(c)
        desc[v] = out

    def blocked(path: list[str]) -> bool:
        for i in range(1, len(path) - 1):
            prev, v, nxt = path[i - 1], path[i], path[i + 1]
            collider = g.has_edge(prev, v) and g.has_edge(nxt, v)
            if collider:
                if v not in z and not (desc[v] & z):
                    return True
            elif v in z:
                return True
        return False

    def extend(path: list[str]) -> bool:
        v = path[-1]
        if v in y:
            return not blocked(path)
        for u in sorted(g.parents(v) | g.children(v)):
            if u not in path:
                if extend(path + [u]):
                    return True
        return False

    for s in sorted(x):
        if extend([s]):
            return False
    return True


def closure_oracle(g: GDag) -> tuple[GDag, list[AddEdgeUnobservedPath]]:
    """Add a -> b wherever a directed path a to b through unobserved
    intermediates exists, sweeping the nodes in declaration order until
    a sweep adds nothing; one ``GDag`` per added edge.  The reference for
    the one-pass mask closure of the certificate search."""

    def reach(g: GDag, a: str) -> set[str]:
        seen: set[str] = set()
        stack = [a]
        while stack:
            for c in g.children(stack.pop()):
                if c not in seen:
                    seen.add(c)
                    if not g.is_observed(c):
                        stack.append(c)
        return seen

    steps: list[AddEdgeUnobservedPath] = []
    changed = True
    while changed:
        changed = False
        for a in g.names:
            for b in sorted(reach(g, a) - g.children(a), key=g.index.__getitem__):
                t = AddEdgeUnobservedPath(a, b)
                g = apply_transformation(g, t)
                steps.append(t)
                changed = True
    return g, steps


def ci_subset_oracle(g_new: GDag, g_old: GDag) -> bool:
    """Every observable CI of ``g_new`` holds in ``g_old``, by testing
    each canonical observed triple of ``g_new``: the reference for
    ``classify.ci_subset``, whose all-observed route is the certificate
    search's ordered local-Markov test ``classify._settle``."""
    if set(g_new.observed_nodes()) != set(g_old.observed_nodes()):
        raise GraphError("observed node sets differ")
    for xm, ym, zm in _observed_triples(g_new):
        if _dsep_mask(g_new, xm, ym, zm):
            xo = g_old.mask_of(g_new.names_of(xm))
            yo = g_old.mask_of(g_new.names_of(ym))
            zo = g_old.mask_of(g_new.names_of(zm))
            if not _dsep_mask(g_old, xo, yo, zo):
                return False
    return True


def _branch_oracle(g, par, order, roots, steps=None):
    """One ordering/root-assignment branch on the closed parent masks,
    with an ancestor walk per candidate edge; returns the final observed
    parent masks and appends the steps when ``steps`` is given."""
    names = g.names
    par = list(par)
    unobs = g.all_mask & ~g.observed_mask
    for i, t in enumerate(order):
        later = 0
        for j in order[i + 1:]:
            later |= 1 << j
        drop = par[t] & (later | (unobs & ~(1 << roots[i])))
        par[t] &= ~drop
        if steps is not None:
            steps.extend(RemoveEdge(names[p], names[t]) for p in _bits(drop))
        for j in order[i + 1:]:
            if (par[j] >> t) & 1 or par[t] & ~par[j] or not par[t] & unobs:
                continue
            seen = 1 << t
            frontier = par[t]
            hit = False
            while frontier:
                if (frontier >> j) & 1:
                    hit = True
                    break
                seen |= frontier
                new = 0
                for k in _bits(frontier):
                    new |= par[k]
                frontier = new & ~seen
            if hit:
                continue
            par[j] |= 1 << t
            if steps is not None:
                steps.append(AddEdgeParentSubset(names[t], names[j]))
    if steps is not None:
        for c, pm in enumerate(par):
            if not (unobs >> c) & 1:
                pm &= unobs
            steps.extend(RemoveEdge(names[p], names[c]) for p in _bits(pm))
        steps.extend(RemoveIsolatedUnobserved(names[n]) for n in _bits(unobs))
    return tuple(par[i] & g.observed_mask for i in _bits(g.observed_mask))


def search_oracle(g: GDag) -> Optional[Certificate]:
    """The certificate search by brute force: every ordering of the
    tricky nodes times every root assignment, in that order, each final
    graph tested with the triple scan; the first winner or None.  The
    reference for the state search of ``sufficient_condition_holds``."""
    closed, step1 = closure_oracle(g)
    par = list(closed.parent_mask)
    unobs = g.all_mask & ~g.observed_mask
    n = len(g.names)
    tricky = [i for i in range(n) if (g.observed_mask >> i) & 1 and par[i] & unobs]
    roots = [i for i in range(n) if (unobs >> i) & 1 and not par[i] & unobs]
    observed = [(name, NodeKind.OBSERVED) for name in g.observed_nodes()]
    for order in permutations(tricky):
        pools = [[r for r in roots if (par[t] >> r) & 1] for t in order]
        for choice in product(*pools):
            final_par = _branch_oracle(g, par, order, choice)
            h = GDag(observed, [
                (g.names[p], name)
                for (name, _), pm in zip(observed, final_par)
                for p in _bits(pm)
            ])
            if ci_subset_oracle(h, g):
                steps = list(step1)
                _branch_oracle(g, par, order, choice, steps)
                return Certificate(g, tuple(steps))
    return None


def apply_reduction_oracle(g: GDag, r) -> GDag:
    """One reduction rule with its precondition written inline, branch
    by branch: the reference for ``classify.apply_reduction``."""
    for n in getattr(r, "__dict__", {}).values():
        if n not in g.index:
            raise TransformError(f"unknown node {n!r}")
    if isinstance(r, DropDisconnectedComponent):
        comp = _component_of(g, r.node)
        if len(comp) == len(g.names):
            raise TransformError("graph is connected")
        return g.without_nodes(comp)

    if isinstance(r, DropChildlessUnobserved):
        if g.is_observed(r.node):
            raise TransformError(f"{r.node!r} is observed")
        if g.children(r.node):
            raise TransformError(f"{r.node!r} has children")
        return g.without_nodes([r.node])

    if isinstance(r, MergeUnobservedIntoUnobservedParent):
        n = r.node
        if g.is_observed(n):
            raise TransformError(f"{n!r} is observed")
        pa = g.parents(n)
        if len(pa) != 1:
            raise TransformError(f"{n!r} does not have exactly one parent")
        (p,) = pa
        if g.is_observed(p):
            raise TransformError(f"parent {p!r} is observed")
        h = g.without_nodes([n])
        for c in sorted(g.children(n), key=g.index.__getitem__):
            if not h.has_edge(p, c):
                h = h.with_edge(p, c)
        return h

    if isinstance(r, AbsorbDominatedUnobserved):
        n, m = r.node, r.into
        if n == m:
            raise TransformError("node cannot absorb itself")
        if g.is_observed(n) or g.is_observed(m):
            raise TransformError("both nodes must be unobserved")
        if not (g.parents(n) <= g.parents(m) and g.children(n) <= g.children(m)):
            raise TransformError(f"{n!r} is not dominated by {m!r}")
        return g.without_nodes([n])

    if isinstance(r, MergeUnobservedIntoSoleChild):
        n = r.node
        if g.is_observed(n):
            raise TransformError(f"{n!r} is observed")
        ch = g.children(n)
        if len(ch) != 1:
            raise TransformError(f"{n!r} does not have exactly one child")
        (c,) = ch
        h = g.without_nodes([n])
        for p in sorted(g.parents(n), key=g.index.__getitem__):
            if not h.has_edge(p, c):
                h = h.with_edge(p, c)
        return h

    if isinstance(r, MergeObservedIntoParentlessUnobservedParent):
        y = r.node
        if not g.is_observed(y):
            raise TransformError(f"{y!r} is not observed")
        pa = g.parents(y)
        if len(pa) != 1:
            raise TransformError(f"{y!r} must have exactly one parent")
        (x,) = pa
        if g.is_observed(x):
            raise TransformError(f"parent {x!r} is observed")
        if g.parents(x):
            raise TransformError(f"parent {x!r} is not parentless")
        ch = g.children(x)
        if len(ch) != 2:
            raise TransformError(f"{x!r} must have exactly two children")
        (z,) = ch - {y}
        h = g.without_nodes([x])
        if not h.has_edge(y, z):
            h = h.with_edge(y, z)
        return h

    raise TransformError(f"unknown reduction {r!r}")


def applicable_reductions_oracle(g: GDag) -> Iterator:
    """Applicable rule instances in priority order, each rule's condition
    written as its own loop: the reference for
    ``classify.applicable_reductions``."""
    comps: list[frozenset[str]] = []
    placed: set[str] = set()
    for n in g.names:
        if n not in placed:
            comp = _component_of(g, n)
            comps.append(comp)
            placed |= comp
    if len(comps) > 1:
        drop = max(comps, key=lambda c: (-len(c), min(g.index[n] for n in c)))
        yield DropDisconnectedComponent(min(drop, key=g.index.__getitem__))

    for n in g.unobserved_nodes():
        if not g.children(n):
            yield DropChildlessUnobserved(n)

    for n in g.unobserved_nodes():
        pa = g.parents(n)
        if len(pa) == 1 and not g.is_observed(next(iter(pa))):
            yield MergeUnobservedIntoUnobservedParent(n)

    for n in g.unobserved_nodes():
        for m in g.unobserved_nodes():
            if n != m and g.parents(n) <= g.parents(m) and g.children(n) <= g.children(m):
                yield AbsorbDominatedUnobserved(n, m)

    for n in g.unobserved_nodes():
        if len(g.children(n)) == 1:
            yield MergeUnobservedIntoSoleChild(n)

    for y in g.observed_nodes():
        pa = g.parents(y)
        if len(pa) != 1:
            continue
        (x,) = pa
        if g.is_observed(x) or g.parents(x) or len(g.children(x)) != 2:
            continue
        yield MergeObservedIntoParentlessUnobservedParent(y)


def all_observed_triples(g: GDag):
    """Every canonical disjoint triple (x, y, z) of observed-node sets
    with x and y nonempty, by brute force."""
    obs = list(g.observed_nodes())
    for assign in product(range(4), repeat=len(obs)):
        x = frozenset(n for n, a in zip(obs, assign) if a == 1)
        y = frozenset(n for n, a in zip(obs, assign) if a == 2)
        z = frozenset(n for n, a in zip(obs, assign) if a == 3)
        if x and y and sorted(x) < sorted(y):
            yield x, y, z


@dataclass(frozen=True)
class Constraint:
    """sum(coeffs[v] * x[v]) REL rhs with REL one of '>=' or '=='."""

    coeffs: Mapping[str, Fraction]
    relation: str
    rhs: Fraction = Fraction(0)

    def __post_init__(self):
        if self.relation not in (">=", "=="):
            raise ValueError(f"bad relation {self.relation!r}")


def lp_feasible(
    constraints: Sequence[Constraint],
) -> Optional[dict[str, Fraction]]:
    """A rational point satisfying all constraints, or None.

    Variables are free; each is split into a difference of nonnegative
    parts, and each inequality gets a slack variable.  The projection
    tests use it as an exact reference for Fourier-Motzkin elimination.
    """
    names: list[str] = []
    seen = set()
    for c in constraints:
        for v in c.coeffs:
            if v not in seen:
                seen.add(v)
                names.append(v)
    col = {v: 2 * i for i, v in enumerate(names)}  # v+ at col, v- at col+1
    n_slack = sum(1 for c in constraints if c.relation == ">=")
    width = 2 * len(names) + n_slack

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    slack_at = 2 * len(names)
    for c in constraints:
        row = [Fraction(0)] * width
        for v, a in c.coeffs.items():
            a = Fraction(a)
            row[col[v]] += a
            row[col[v] + 1] -= a
        if c.relation == ">=":
            row[slack_at] = Fraction(-1)
            slack_at += 1
        rows.append(row)
        rhs.append(Fraction(c.rhs))

    x = phase1_oracle(rows, rhs) if rows else []
    if x is None:
        return None
    return {v: x[col[v]] - x[col[v] + 1] for v in names}


def phase1_oracle(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> Optional[list[Fraction]]:
    """Find x >= 0 with A x = b, or None, on a dense ``Fraction`` tableau
    with Bland's rule: the reference for the integer tableau of
    ``linprog._phase1``, which must make the same pivots."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    A = [list(r) for r in rows]
    b = list(rhs)
    for i in range(m):
        if b[i] < 0:
            A[i] = [-a for a in A[i]]
            b[i] = -b[i]

    # tableau columns: n structural + m artificial
    width = n + m
    T = [A[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]

    # objective: minimize sum of artificials; reduced cost row
    cost = [Fraction(0)] * (width + 1)
    for i in range(m):
        for j in range(width + 1):
            cost[j] -= T[i][j]
    # artificial columns have cost 1; cancel them back
    for i in range(m):
        cost[n + i] += 1

    while True:
        # Bland: entering = lowest-index column with negative reduced cost
        enter = -1
        for j in range(width):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        # ratio test, Bland tie-break on lowest basis index
        leave = -1
        best: Optional[Fraction] = None
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                r = T[i][width] / a
                if best is None or r < best or (r == best and basis[i] < basis[leave]):
                    best = r
                    leave = i
        if leave < 0:
            # unbounded phase-1 objective cannot happen (bounded below by 0)
            raise RuntimeError("phase-1 unbounded")
        piv = T[leave][enter]
        T[leave] = [v / piv for v in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter]:
                f = T[i][enter]
                T[i] = [v - f * w for v, w in zip(T[i], T[leave])]
        if cost[enter]:
            f = cost[enter]
            cost = [v - f * w for v, w in zip(cost, T[leave])]
        basis[leave] = enter

    if -cost[width] != 0:
        return None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = T[i][width]
    return x


def _kernel_prob(
    k: Kernel, output: int, out_msgs: Sequence[int], cond: Sequence[int]
) -> Fraction:
    idx = output
    for (_, card), v in zip(k.out_edges, out_msgs):
        idx = idx * card + v
    return k.table[tuple(cond)][idx]


def observed_oracle(model: ClassicalGmcModel) -> Distribution:
    """The observed joint by brute force: for every observed outcome and
    every joint latent message, the product of every node's kernel entry
    as a ``Fraction``.  The reference for the integer sum-product of
    ``models.observed_from_classical_gmc``."""
    g = model.gdag
    obs = g.observed_nodes()
    variables = tuple((n, model.kernels[n].out_card) for n in obs)
    obs_pos = {n: i for i, n in enumerate(obs)}
    latent_edges = [e for e in g.edges if not g.is_observed(e[0])]
    edge_pos = {e: i for i, e in enumerate(latent_edges)}
    edge_ranges = [range(model.edge_cards[e]) for e in latent_edges]

    probs = []
    for outcome in product(*(range(c) for _, c in variables)):
        total = Fraction(0)
        for msgs in product(*edge_ranges):
            p = Fraction(1)
            for name in g.names:
                k = model.kernels[name]
                cond = tuple(
                    outcome[obs_pos[pn]] for pn, _ in k.obs_parents
                ) + tuple(msgs[edge_pos[e]] for e, _ in k.in_edges)
                if g.is_observed(name):
                    p *= _kernel_prob(k, outcome[obs_pos[name]], (), cond)
                else:
                    p *= _kernel_prob(
                        k, 0, tuple(msgs[edge_pos[e]] for e, _ in k.out_edges), cond
                    )
                if not p:
                    break
            total += p
        probs.append(total)
    return Distribution(variables, tuple(probs))


def marginal_oracle(p: Distribution, names: Sequence[str]) -> Distribution:
    """``p`` marginalised onto ``names``, in that order, by adding one
    ``Fraction`` per joint outcome into a dict keyed by the kept values.
    The reference for ``Distribution.marginal``."""
    keep = list(names)
    pos = {n: i for i, (n, _) in enumerate(p.variables)}
    kept_vars = tuple((n, p.card(n)) for n in keep)
    table: dict[tuple[int, ...], Fraction] = {}
    for outcome, q in zip(p.outcomes(), p.probs):
        key = tuple(outcome[pos[n]] for n in keep)
        table[key] = table.get(key, Fraction(0)) + q
    probs = tuple(
        table.get(o, Fraction(0)) for o in product(*(range(c) for _, c in kept_vars))
    )
    return Distribution(kept_vars, probs)


def ci_oracle(p: Distribution, x, y, z) -> bool:
    """P(x,y|z) = P(x|z) P(y|z), tested as P(x,y,z) P(z) = P(x,z) P(y,z)
    on the ``Fraction`` marginals of ``marginal_oracle``.  The reference
    for ``models.is_conditionally_independent``."""
    xs = [n for n in p.names if n in x]
    ys = [n for n in p.names if n in y]
    zs = [n for n in p.names if n in z]
    pxyz = marginal_oracle(p, xs + ys + zs)
    pz = marginal_oracle(p, zs)
    pxz = marginal_oracle(p, xs + zs)
    pyz = marginal_oracle(p, ys + zs)
    for outcome in pxyz.outcomes():
        xv = outcome[: len(xs)]
        yv = outcome[len(xs): len(xs) + len(ys)]
        zv = outcome[len(xs) + len(ys):]
        if pxyz.prob(outcome) * pz.prob(zv) != pxz.prob(xv + zv) * pyz.prob(yv + zv):
            return False
    return True
