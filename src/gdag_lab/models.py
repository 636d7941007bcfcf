"""Exact-rational probability tables, classical network evaluation and
information quantities.

All probabilities are exact rationals, ``fractions.Fraction`` or
``int``; conditional-independence checks are exact.  Entropies are the only floating-point quantities.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .graph import GDag
from . import dsep


class ModelError(ValueError):
    """Raised for malformed tables or graph/table mismatches."""


def _check_vars(variables: Iterable[tuple[str, int]]) -> None:
    """Variable ids are distinct strings, and every cardinality is at
    least 1."""
    seen: set[str] = set()
    for name, card in variables:
        if not isinstance(name, str):
            raise ModelError(f"variable id {name!r} is not a string")
        if name in seen:
            raise ModelError(f"duplicate variable {name!r}")
        if card < 1:
            raise ModelError(f"cardinality of {name!r} must be >= 1")
        seen.add(name)


def _not_str(names: Iterable[str]) -> Iterable[str]:
    """``names``; ModelError for a bare string, read as its characters."""
    if isinstance(names, str):
        raise ModelError(f"expected a collection of variable ids, got {names!r}")
    return names


def _check_probs(probs: Iterable) -> None:
    """Every entry is an exact nonnegative rational: a Fraction or a
    non-bool int."""
    for p in probs:
        if type(p) is bool or not isinstance(p, (Fraction, int)):
            raise ModelError(f"probability {p!r} is not a Fraction or an int")
        if p.numerator < 0:  # the sign of an int or a Fraction
            raise ModelError("negative probability")


def _sums_to_one(probs: Sequence) -> bool:
    """Whether the exact rationals ``probs`` sum to exactly 1: over d, the
    least common denominator, their integer numerators sum to d."""
    d = math.lcm(*{q.denominator for q in probs})
    return sum([q.numerator * (d // q.denominator) for q in probs]) == d


# ASCII digits only: ``Fraction`` would also take "1_000", " 1/2 ",
# "+3", non-ASCII digits and exponents of any size
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def _parse_frac(s) -> Fraction:
    """An exact rational from a JSON string of the form -?D, -?D/D or
    -?D.D, D one or more ASCII digits ("3/4", "-0.25", "2"), or from a
    non-bool JSON integer.  Anything else raises ``ModelError``."""
    if type(s) is int or (isinstance(s, str) and _RATIONAL.fullmatch(s)):
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ModelError(f"rational {s!r} has denominator 0") from None
        except ValueError as e:  # more digits than int() converts
            raise ModelError(f"bad rational: {e}") from None
    raise ModelError(f"expected a rational string D, D/D or D.D, got {s!r}")


def _array(obj, key: str) -> list:
    """``obj[key]``, which must be a JSON array."""
    value = obj[key]
    if type(value) is not list:
        raise ModelError(f"{key!r} is not an array")
    return value


def _parse_vars(entries) -> tuple[tuple[str, int], ...]:
    """(id, card) pairs from JSON variable entries; a card is a JSON
    integer, never a float, string or bool."""
    out = []
    for d in entries:
        card = d["card"]
        if type(card) is not int:
            raise ModelError(f"cardinality {card!r} is not an integer")
        out.append((d["id"], card))
    return tuple(out)


def _index(variables: Sequence[tuple[str, int]], values: Sequence[int]) -> int:
    """The row-major index of ``values``, one value per variable."""
    if len(values) != len(variables):
        raise ModelError(f"expected {len(variables)} values, got {len(values)}")
    idx = 0
    for (name, card), v in zip(variables, values):
        if not 0 <= v < card:
            raise ModelError(f"value {v} out of range for {name!r}")
        idx = idx * card + v
    return idx


def _numerators(p: Distribution, keep: Sequence[str]) -> tuple[list[int], int]:
    """The marginal of ``p`` on ``keep``, row-major in that order, as
    integer numerators over d, the least common denominator of p's
    entries: (numerators, d).

    Each variable of ``p`` gets its stride in the marginal's row-major
    index, 0 if it is summed out, so the cell of every joint outcome is a
    mixed-radix sum; one pass over the entries then adds each nonzero one
    to its cell."""
    card = dict(p.variables)
    stride = dict.fromkeys(card, 0)
    size = 1
    for n in reversed(keep):
        if n not in card:
            raise ModelError(f"unknown variable {n!r}")
        stride[n] = size
        size *= card[n]
    cells = [0]
    for n, c in p.variables:
        s = stride[n]
        cells = [i + v * s for i in cells for v in range(c)]
    d = math.lcm(*{q.denominator for q in p.probs})
    out = [0] * size
    for i, q in zip(cells, p.probs):
        if q:
            out[i] += q.numerator * (d // q.denominator)
    return out, d


@dataclass(frozen=True)
class Distribution:
    """Joint distribution over named finite variables, row-major order."""

    variables: tuple[tuple[str, int], ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        _check_vars(self.variables)
        size = math.prod(c for _, c in self.variables)
        if len(self.probs) != size:
            raise ModelError(
                f"expected {size} entries, got {len(self.probs)}"
            )
        _check_probs(self.probs)
        if not _sums_to_one(self.probs):
            raise ModelError("probabilities must sum to exactly 1")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

    def card(self, name: str) -> int:
        for n, c in self.variables:
            if n == name:
                return c
        raise ModelError(f"unknown variable {name!r}")

    def outcomes(self) -> Iterable[tuple[int, ...]]:
        return product(*(range(c) for _, c in self.variables))

    def prob(self, outcome: Sequence[int]) -> Fraction:
        return self.probs[_index(self.variables, outcome)]

    def marginal(self, names: Iterable[str]) -> "Distribution":
        keep = list(_not_str(names))
        numerators, d = _numerators(self, keep)
        # Tuples are built from lists: the dead tuples of ``tuple(genexpr)``,
        # which over-allocates and resizes, pile up on CPython's per-size
        # free lists and raise the process's peak memory.
        return Distribution(
            tuple([(n, self.card(n)) for n in keep]),
            tuple([Fraction(x, d) for x in numerators]),
        )

    def to_json(self) -> str:
        obj = {
            "variables": [{"id": n, "card": c} for n, c in self.variables],
            "probs": [str(p) for p in self.probs],
        }
        return json.dumps(obj)

    @staticmethod
    def from_json(text: str) -> "Distribution":
        try:
            obj = json.loads(text)
            variables = _parse_vars(_array(obj, "variables"))
            probs = tuple(_parse_frac(p) for p in _array(obj, "probs"))
        except (KeyError, TypeError, ValueError, RecursionError) as e:
            raise ModelError(f"bad distribution JSON: {e}") from None
        return Distribution(variables, probs)


@dataclass(frozen=True)
class ConditionalDistribution:
    """A family of joint distributions indexed by conditioning variables.

    ``probs`` is row-major over the ``given`` values (outer) followed by
    the ``variables`` values (inner); every conditioning slice sums to 1.
    """

    variables: tuple[tuple[str, int], ...]
    given: tuple[tuple[str, int], ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        _check_vars(self.variables + self.given)
        inner = math.prod(c for _, c in self.variables)
        outer = math.prod(c for _, c in self.given)
        if len(self.probs) != inner * outer:
            raise ModelError("wrong table size")
        _check_probs(self.probs)
        for k in range(outer):
            row = self.probs[k * inner:(k + 1) * inner]
            if not _sums_to_one(row):
                raise ModelError(f"conditioning slice {k} sums to {sum(row)}, not 1")

    def slice(self, given_values: Sequence[int]) -> Distribution:
        idx = _index(self.given, given_values)
        inner = math.prod(c for _, c in self.variables)
        return Distribution(
            self.variables, self.probs[idx * inner:(idx + 1) * inner]
        )

    def to_json(self) -> str:
        obj = {
            "variables": [{"id": n, "card": c} for n, c in self.variables],
            "given": [{"id": n, "card": c} for n, c in self.given],
            "probs": [str(p) for p in self.probs],
        }
        return json.dumps(obj)

    @staticmethod
    def from_json(text: str) -> "ConditionalDistribution":
        try:
            obj = json.loads(text)
            variables = _parse_vars(_array(obj, "variables"))
            given = _parse_vars(_array(obj, "given") if "given" in obj else [])
            probs = tuple(_parse_frac(p) for p in _array(obj, "probs"))
        except (KeyError, TypeError, ValueError, RecursionError) as e:
            raise ModelError(f"bad conditional distribution JSON: {e}") from None
        return ConditionalDistribution(variables, given, probs)


@dataclass(frozen=True)
class Kernel:
    """Classical test at one node of a GDAG.

    Conditioning is on the node's observed-parent values plus the latent
    messages on its incoming unobserved edges; the kernel emits the
    node's output together with messages on its outgoing unobserved
    edges (observed nodes emit none, unobserved nodes have a 1-valued
    output).  ``table`` maps each conditioning tuple (observed-parent
    values then in-edge messages) to a row-major row over
    (output, out-messages).
    """

    node: str
    out_card: int
    obs_parents: tuple[tuple[str, int], ...]
    in_edges: tuple[tuple[tuple[str, str], int], ...]
    out_edges: tuple[tuple[tuple[str, str], int], ...]
    table: Mapping[tuple[int, ...], tuple[Fraction, ...]]

    def __post_init__(self):
        cond_cards = [c for _, c in self.obs_parents] + [c for _, c in self.in_edges]
        keys = set(product(*(range(c) for c in cond_cards)))
        if set(self.table) != keys:
            raise ModelError(f"kernel for {self.node!r} has wrong key set")
        width = self.out_card * math.prod(c for _, c in self.out_edges)
        for k, row in self.table.items():
            if len(row) != width:
                raise ModelError(f"kernel row {k} has wrong length")
            _check_probs(row)
            if not _sums_to_one(row):
                raise ModelError(f"kernel row {k} does not sum to 1")


@dataclass(frozen=True)
class ClassicalGmcModel:
    """A classical realization of a GDAG: a kernel per node plus a finite
    message cardinality per unobserved edge.  On an all-observed DAG the
    kernels are the conditional probability tables of a Bayesian network."""

    gdag: GDag
    edge_cards: Mapping[tuple[str, str], int]
    kernels: Mapping[str, Kernel]

    def __post_init__(self):
        g = self.gdag
        latent_edges = [
            e for e in g.edges if not g.is_observed(e[0])
        ]
        if set(self.edge_cards) != set(latent_edges):
            raise ModelError("edge_cards must cover exactly the unobserved edges")
        if set(self.kernels) != set(g.names):
            raise ModelError("need exactly one kernel per node")
        for name in g.names:
            k = self.kernels[name]
            if k.node != name:
                raise ModelError(f"kernel node mismatch at {name!r}")
            obs_pa = tuple(
                p for p in g.names if p in g.parents(name) and g.is_observed(p)
            )
            if tuple(n for n, _ in k.obs_parents) != obs_pa:
                raise ModelError(f"kernel observed parents mismatch at {name!r}")
            for p, card in k.obs_parents:
                if card != self.kernels[p].out_card:
                    raise ModelError(
                        f"kernel at {name!r} gives {p!r} cardinality {card}, "
                        f"not {self.kernels[p].out_card}"
                    )
            in_e = tuple(
                (e, self.edge_cards[e])
                for e in g.edges
                if e[1] == name and not g.is_observed(e[0])
            )
            if k.in_edges != in_e:
                raise ModelError(f"kernel in-edges mismatch at {name!r}")
            if g.is_observed(name):
                if k.out_edges:
                    raise ModelError(
                        f"observed node {name!r} must not emit messages"
                    )
            else:
                if k.out_card != 1:
                    raise ModelError(
                        f"unobserved node {name!r} must have 1-valued output"
                    )
                out_e = tuple(
                    (e, self.edge_cards[e]) for e in g.edges if e[0] == name
                )
                if k.out_edges != out_e:
                    raise ModelError(f"kernel out-edges mismatch at {name!r}")


#: An integer factor: a scope of variables (observed node names and latent
#: edges) and a table from assignments over that scope to numerators.
_Factor = tuple[tuple, dict[tuple, int]]


def _kernel_factor(model: ClassicalGmcModel, name: str) -> tuple[tuple, dict, int]:
    """Node ``name``'s kernel as an integer factor: (scope, table, L).

    The scope is the observed parents and in-edge messages, then the
    output: the node itself if observed, its out-edge messages if latent.
    The table maps each assignment with a nonzero entry to its numerator
    over L, the least common denominator of the kernel's entries."""
    k = model.kernels[name]
    if model.gdag.is_observed(name):
        outputs, out_cards = (name,), (k.out_card,)
    else:
        outputs = tuple(e for e, _ in k.out_edges)
        out_cards = tuple(c for _, c in k.out_edges)
    scope = tuple(n for n, _ in k.obs_parents) + tuple(e for e, _ in k.in_edges) + outputs
    lcm = math.lcm(*{p.denominator for row in k.table.values() for p in row})
    out_values = list(product(*(range(c) for c in out_cards)))
    table = {}
    for cond, row in k.table.items():
        for out, p in zip(out_values, row):
            if p:
                table[cond + out] = p.numerator * (lcm // p.denominator)
    return scope, table, lcm


#: The zero cell of every evaluated table, built once: with deterministic
#: kernels most cells are 0.
_ZERO = Fraction(0)


def _getter(pos: Sequence[int]):
    """The function from a tuple to the tuple of its entries at ``pos``;
    ``itemgetter`` alone returns a bare entry for one position and takes
    no empty list."""
    if len(pos) > 1:
        return itemgetter(*pos)
    return itemgetter(slice(pos[0], pos[0] + 1) if pos else slice(0))


def _multiply(f: _Factor, g: _Factor) -> _Factor:
    """The product of two integer factors, over f's scope then the rest
    of g's."""
    f_scope, f_table = f
    g_scope, g_table = g
    f_pos = {v: i for i, v in enumerate(f_scope)}
    shared = [i for i, v in enumerate(g_scope) if v in f_pos]
    rest = [i for i, v in enumerate(g_scope) if v not in f_pos]
    g_shared, g_rest = _getter(shared), _getter(rest)
    by_shared: dict[tuple, list] = {}
    for b, y in g_table.items():
        by_shared.setdefault(g_shared(b), []).append((g_rest(b), y))
    f_shared = _getter([f_pos[g_scope[i]] for i in shared])
    table = {}
    for a, x in f_table.items():
        for b, y in by_shared.get(f_shared(a), ()):
            table[a + b] = x * y
    return f_scope + tuple(g_scope[i] for i in rest), table


def _project(f: _Factor, keep: Sequence) -> _Factor:
    """f summed onto the variables ``keep``, in that order."""
    scope, table = f
    pick = _getter([scope.index(v) for v in keep])
    out: dict[tuple, int] = {}
    for a, x in table.items():
        key = pick(a)
        out[key] = out.get(key, 0) + x
    return tuple(keep), out


def _joined_size(factors: list[_Factor], v, card: Mapping) -> int:
    """The table size of the product of every factor that mentions v."""
    joined = {u for scope, _ in factors if v in scope for u in scope}
    return math.prod(card[u] for u in joined)


def observed_from_classical_gmc(model: ClassicalGmcModel) -> Distribution:
    """Sum the product of node kernels over all latent edge messages.

    Exact sum-product on integer tables: each kernel becomes a table of
    numerators over its own least common denominator, latent messages
    are summed out one at a time (the one whose joined table is smallest
    first), and the remaining product over the observed nodes is divided
    by the product D of the kernel denominators.  Integer sums and
    products are exact, so the result equals the plain sum over every
    joint message assignment."""
    g = model.gdag
    obs = g.observed_nodes()
    variables = tuple((n, model.kernels[n].out_card) for n in obs)
    card = dict(variables)
    card.update(model.edge_cards)

    factors = []
    denominator = 1
    for name in g.names:
        scope, table, lcm = _kernel_factor(model, name)
        factors.append((scope, table))
        denominator *= lcm

    pending = [e for e in g.edges if not g.is_observed(e[0])]
    size = {e: _joined_size(factors, e, card) for e in pending}
    while pending:
        e = min(pending, key=size.__getitem__)
        pending.remove(e)
        using = [f for f in factors if e in f[0]]
        factors = [f for f in factors if e not in f[0]]
        joined = using[0]
        for f in using[1:]:
            joined = _multiply(joined, f)
        factors.append(_project(joined, [v for v in joined[0] if v != e]))
        # only an edge in a merged factor has a new joined table
        for v in pending:
            if v in joined[0]:
                size[v] = _joined_size(factors, v, card)

    joint: _Factor = ((), {(): 1})
    for f in factors:
        joint = _multiply(joint, f)
    table = _project(joint, obs)[1]
    return Distribution(
        variables,
        tuple([
            Fraction(table[a], denominator) if a in table else _ZERO
            for a in product(*(range(c) for _, c in variables))
        ]),
    )


# -- conditional independence and information quantities ----------------


def is_conditionally_independent(p: Distribution, x, y, z) -> bool:
    """Exact test of P(x,y|z) = P(x|z) P(y|z).

    One marginal gives the numerators n over one denominator d of P(x,y,z);
    folding it gives those of P(x,z), P(y,z) and P(z).  The test is then
    n_xyz n_z == n_xz n_yz in every cell: each side is d² times the
    rational product, so d cancels."""
    x, y, z = frozenset(_not_str(x)), frozenset(_not_str(y)), frozenset(_not_str(z))
    if x & y or x & z or y & z:
        raise ModelError("x, y, z must be pairwise disjoint")
    names = p.names
    for n in x | y | z:
        if n not in names:
            raise ModelError(f"unknown variable {n!r}")
    xs = [n for n in names if n in x]
    ys = [n for n in names if n in y]
    zs = [n for n in names if n in z]
    nxyz, _ = _numerators(p, xs + ys + zs)
    card = dict(p.variables)
    cx = math.prod([card[n] for n in xs])
    cy = math.prod([card[n] for n in ys])
    cz = math.prod([card[n] for n in zs])
    nxz, nyz, nz = [0] * (cx * cz), [0] * (cy * cz), [0] * cz
    i = 0
    for a in range(cx):
        for b in range(cy):
            for c in range(cz):
                n = nxyz[i]
                nxz[a * cz + c] += n
                nyz[b * cz + c] += n
                nz[c] += n
                i += 1
    i = 0
    for a in range(cx):
        for b in range(cy):
            for c in range(cz):
                if nxyz[i] * nz[c] != nxz[a * cz + c] * nyz[b * cz + c]:
                    return False
                i += 1
    return True


@dataclass
class IndependenceReport:
    holds: bool
    violated: list[dsep.CIStatement] = field(default_factory=list)


def satisfies_I(g: GDag, p: Distribution) -> IndependenceReport:
    """Check every observable d-separation statement of ``g`` against ``p``."""
    if set(p.names) != set(g.observed_nodes()):
        raise ModelError("distribution variables must equal observed nodes")
    violated = [
        s
        for s in dsep.observable_ci_set(g)
        if not is_conditionally_independent(p, s.x, s.y, s.z)
    ]
    return IndependenceReport(holds=not violated, violated=violated)


def entropy(p: Distribution, s: Iterable[str]) -> float:
    """Shannon entropy of the variables ``s`` in bits, 0 log 0 = 0."""
    s = frozenset(_not_str(s))
    unknown = s.difference(p.names)
    if unknown:
        raise ModelError(f"unknown variable {min(unknown)!r}")
    numerators, d = _numerators(p, [n for n in p.names if n in s])
    h = 0.0
    for x in numerators:
        if x:
            q = x / d  # rounds as float(Fraction(x, d)) does
            h -= q * math.log2(q)
    return h


def mutual_information(p: Distribution, s, t) -> float:
    s, t = frozenset(_not_str(s)), frozenset(_not_str(t))
    if s & t:
        raise ModelError("overlapping variable sets")
    return entropy(p, s) + entropy(p, t) - entropy(p, s | t)


def conditional_mutual_information(p: Distribution, s, t, u) -> float:
    s, t, u = (frozenset(_not_str(v)) for v in (s, t, u))
    if s & t or s & u or t & u:
        raise ModelError("overlapping variable sets")
    return (
        entropy(p, s | u)
        + entropy(p, t | u)
        - entropy(p, s | t | u)
        - entropy(p, u)
    )

