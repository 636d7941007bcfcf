"""Entropic cones: the Shannon cone, entropic Markov constraints, exact
Fourier-Motzkin projection to obtain E_C, d-separation constraints for
E_I, and Farkas implication checks.

Rows are stored over the 2^n - 1 nonempty variable subsets, indexed by
bitmask minus one in the cone's variable order, as integer coefficient
tuples with gcd 1 (sign preserved: a row c means c . h >= 0).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Collection, Iterable, NamedTuple, Optional, Sequence

from .graph import GDag, _bits
from .dsep import observable_ci_set
from .linprog import nonneg_combination

MAX_CONE_NODES = 6


class _Routing(NamedTuple):
    tol: float
    max_denominator: int


#: Float thresholds of the HiGHS proposal in ``_rows_implies``: an LP
#: optimum above ``tol`` proposes a Farkas vector, rationalised with
#: denominators up to ``max_denominator``; otherwise row duals above
#: ``tol`` propose a support.  They only choose which exact check runs
#: and never decide an answer.
LP_ROUTING = _Routing(tol=1e-9, max_denominator=10**6)


class ConeError(ValueError):
    pass


def _normalize(row: Sequence[int | Fraction]) -> Optional[tuple[int, ...]]:
    """Scale a row of ints or Fractions to integers with gcd 1; None for
    the zero row."""
    denom = 1
    for c in row:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [c.numerator * (denom // c.denominator) for c in row]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    if g == 0:
        return None
    return tuple(c // g for c in ints)


def _mask(index: dict[str, int], names: Iterable[str]) -> int:
    """The subset mask of ``names``, where ``index`` gives each known
    name its bit."""
    mask = 0
    for v in names:
        if v not in index:
            raise ConeError(f"unknown variable {v!r}")
        mask |= 1 << index[v]
    return mask


@dataclass(frozen=True)
class LinIneq:
    """A homogeneous inequality sum(coeffs[S] * H(S)) >= 0."""

    coeffs: dict[frozenset[str], Fraction]

    def __post_init__(self):
        clean = {
            frozenset(s): Fraction(c) for s, c in self.coeffs.items() if c
        }
        if not clean:
            raise ConeError("inequality has no nonzero coefficient")
        if any(not s for s in clean):
            raise ConeError("empty subset in inequality")
        object.__setattr__(self, "coeffs", clean)

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __eq__(self, other):
        return isinstance(other, LinIneq) and self.coeffs == other.coeffs

    def value(self, h: dict[frozenset[str], float]) -> float:
        return sum(float(c) * h[s] for s, c in self.coeffs.items())


@dataclass(frozen=True)
class Cone:
    variables: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ConeError(f"repeated cone variable in {list(self.variables)}")
        size = (1 << len(self.variables)) - 1
        for r in self.rows:
            if len(r) != size:
                raise ConeError("row length does not match variable count")

    def _subset(self, mask: int) -> frozenset[str]:
        return frozenset(self.variables[i] for i in _bits(mask))

    def ineqs(self) -> tuple[LinIneq, ...]:
        return tuple(
            LinIneq(
                {
                    self._subset(m): Fraction(c)
                    for m, c in enumerate(r, start=1)
                    if c
                }
            )
            for r in self.rows
        )

    def row_of(self, ineq: LinIneq) -> tuple[int, ...]:
        """ineq expressed in this cone's coordinates."""
        index = {v: i for i, v in enumerate(self.variables)}
        row = [Fraction(0)] * ((1 << len(self.variables)) - 1)
        for s, c in ineq.coeffs.items():
            row[_mask(index, s) - 1] = c
        norm = _normalize(row)
        if norm is None:
            raise ConeError("zero inequality")
        return norm

    def to_json(self) -> str:
        ineqs = []
        for r in sorted(self.rows):
            coeffs = {
                ",".join(sorted(self._subset(m))): f"{c}/1"
                for m, c in enumerate(r, start=1)
                if c
            }
            ineqs.append({"coeffs": coeffs})
        return json.dumps({"variables": list(self.variables), "ineqs": ineqs})

    @staticmethod
    def from_json(text: str) -> "Cone":
        try:
            obj = json.loads(text)
            cone = Cone(tuple(obj["variables"]), ())
            rows = tuple(
                cone.row_of(LinIneq({
                    frozenset(key.split(",")): Fraction(val)
                    for key, val in item["coeffs"].items()
                }))
                for item in obj["ineqs"]
            )
        except (
            json.JSONDecodeError, KeyError, TypeError, ValueError, ZeroDivisionError
        ) as e:
            raise ConeError(f"bad cone JSON: {e}") from None
        return Cone(cone.variables, rows)


def _dedupe(rows: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    seen = set()
    out = []
    for r in rows:
        if r not in seen:
            seen.add(r)
            out.append(r)
    return out


def elemental_inequalities(variables: Sequence[str]) -> Cone:
    """The elemental generating set of the Shannon cone."""
    n = len(variables)
    if n < 1:
        raise ConeError("need at least one variable")
    if n > 8:
        raise ConeError("too many variables")
    size = (1 << n) - 1
    rows: list[tuple[int, ...]] = []

    def row(*terms: tuple[int, int]) -> tuple[int, ...]:
        r = [0] * size
        for mask, c in terms:
            if mask:
                r[mask - 1] += c
        return tuple(r)

    full = size
    for i in range(n):
        rows.append(row((full, 1), (full & ~(1 << i), -1)))
    for i in range(n):
        for j in range(i + 1, n):
            rest = full & ~(1 << i) & ~(1 << j)
            k = rest
            while True:
                rows.append(
                    row(
                        ((1 << i) | k, 1),
                        ((1 << j) | k, 1),
                        ((1 << i) | (1 << j) | k, -1),
                        (k, -1),
                    )
                )
                if k == 0:
                    break
                k = (k - 1) & rest
    return Cone(tuple(variables), tuple(_dedupe(rows)))


def _cmi_row(
    size: int, x: int, y: int, z: int, sign: int
) -> tuple[int, ...]:
    """sign * I(x ; y | z) expanded to entropy coordinates."""
    r = [0] * size
    for mask, c in ((x | z, 1), (y | z, 1), (x | y | z, -1), (z, -1)):
        if mask:
            r[mask - 1] += sign * c
    return tuple(r)


def _markov_rows(g: GDag) -> list[tuple[int, ...]]:
    """-I(X ; ND(X) | Pa(X)) >= 0 for each node with nondescendants, as
    rows over g's subsets.  Each has entries 0 or +-1 on four distinct
    masks, so gcd 1 already."""
    size = g.all_mask  # one coordinate per nonempty subset
    rows = []
    for i in range(len(g.names)):
        x = 1 << i
        pa = g.parent_mask[i]
        nd = g.all_mask & ~g.desc_mask[i] & ~x & ~pa
        if nd:
            rows.append(_cmi_row(size, x, nd, pa, -1))
    return rows


def markov_constraint_rows(g: GDag) -> list[LinIneq]:
    """-I(X ; ND(X) | Pa(X)) >= 0 for each node with nondescendants."""
    return list(Cone(g.names, tuple(_markov_rows(g))).ineqs())


def _active_coords(
    rows: Sequence[tuple[int, ...]], target: tuple[int, ...]
) -> list[int]:
    return [k for k, col in enumerate(zip(target, *rows)) if any(col)]


def _exact_implies(
    rows: Sequence[tuple[int, ...]], target: tuple[int, ...]
) -> bool:
    coords = _active_coords(rows, target)
    lam = nonneg_combination(
        [target[k] for k in coords], [[r[k] for k in coords] for r in rows]
    )
    return lam is not None


def _float_proposal(
    rows: Sequence[tuple[int, ...]], target: tuple[int, ...]
) -> Optional[bool]:
    """Ask HiGHS for  max target.y  s.t.  r.y <= 0 for every row,
    -1 <= y <= 1.  An optimum of 0 proposes the support of the row duals,
    a positive optimum proposes y as a Farkas vector.  Returns the answer
    once an exact check confirms the proposal, else None."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    coords = _active_coords(rows, target)
    res = linprog(
        c=[-float(target[k]) for k in coords],
        A_ub=[[float(r[k]) for k in coords] for r in rows],
        b_ub=[0.0] * len(rows),
        bounds=(-1, 1),
        method="highs",
    )
    if res.status != 0:
        return None
    if -res.fun > LP_ROUTING.tol:
        # y rationalised and scaled to integers must refute exactly; a
        # vertex repeats few values, so each is rationalised once
        x = res.x.tolist()
        exact = {
            v: Fraction(v).limit_denominator(LP_ROUTING.max_denominator)
            for v in set(x)
        }
        y = _normalize([exact[v] for v in x])
        if y is None:
            return None
        ks = [coords[i] for i, c in enumerate(y) if c]
        cs = [c for c in y if c]

        def dot(r: tuple[int, ...]) -> int:
            return sum(map(mul, map(r.__getitem__, ks), cs))

        refuted = dot(target) > 0 and all(dot(r) <= 0 for r in rows)
        return False if refuted else None
    support = [
        rows[j]
        for j, d in enumerate(res.ineqlin.marginals)
        if -d > LP_ROUTING.tol
    ]
    return True if support and _exact_implies(support, target) else None


def _rows_implies(
    rows: Sequence[tuple[int, ...]], target: tuple[int, ...]
) -> bool:
    """Is target a nonnegative combination of rows?

    A float LP, when SciPy is installed, only proposes a certificate:
    "implied" needs an exact solve on the proposed support, "not implied"
    an exact integer Farkas check.  Without SciPy, or when the proposal
    does not verify, the exact simplex decides.
    """
    if not rows or not any(target):
        return not any(target)
    answer = _float_proposal(rows, target)
    return _exact_implies(rows, target) if answer is None else answer


def _minimize(
    rows: list[tuple[int, ...]], irredundant: Collection[tuple[int, ...]] = ()
) -> list[tuple[int, ...]]:
    """Drop rows implied by the remaining ones (greedy, deterministic).

    Rows in ``irredundant`` are kept without an LP.  After a
    Fourier-Motzkin step these are the rows the step carried from an
    already minimised set: every other new row is a nonnegative
    combination of that set without r, so the Farkas vector that
    refuted r there still refutes it, and the greedy would keep r too.
    """
    rows = sorted(_dedupe(rows))
    keep = list(rows)
    for r in rows:
        if r in irredundant:
            continue
        rest = [q for q in keep if q != r]
        if rest and _rows_implies(rest, r):
            keep = rest
    return keep


def _eliminate_coord(
    rows: list[tuple[int, ...]], k: int
) -> list[tuple[int, ...]]:
    """Fourier-Motzkin elimination of coordinate index k."""
    zero, pos, neg = [], [], []
    for r in rows:
        c = r[k]
        if c == 0:
            zero.append(r)
        elif c > 0:
            pos.append(r)
        else:
            neg.append(r)
    out = list(zero)
    for p in pos:
        for q in neg:
            norm = _normalize([-q[k] * a + p[k] * b for a, b in zip(p, q)])
            if norm is not None:
                out.append(norm)
    return _dedupe(out)


def fourier_motzkin_eliminate(c: Cone, coord: Iterable[str]) -> Cone:
    """Project out one entropy coordinate, then remove redundant rows."""
    mask = _mask({v: i for i, v in enumerate(c.variables)}, coord)
    if mask == 0:
        raise ConeError("empty coordinate")
    rows = _eliminate_coord(list(c.rows), mask - 1)
    return Cone(c.variables, tuple(_minimize(rows)))


def _restrict(
    rows: Iterable[tuple[int, ...]], keep: int
) -> list[tuple[int, ...]]:
    """Re-coordinate rows that only mention subsets of the bits of
    ``keep`` onto the subsets of those bits, renumbered in order."""
    bits = list(_bits(keep))
    size = (1 << len(bits)) - 1
    out = []
    for r in rows:
        new = [0] * size
        for m, coef in enumerate(r, start=1):
            if not coef:
                continue
            if m & ~keep:
                raise ConeError("row mentions an eliminated coordinate")
            new[sum(1 << j for j, i in enumerate(bits) if m >> i & 1) - 1] = coef
        out.append(tuple(new))
    return _dedupe(out)


def _check_size(g: GDag, allow_large: bool) -> None:
    if len(g.names) > MAX_CONE_NODES and not allow_large:
        raise ConeError(
            f"graph has {len(g.names)} nodes; cones above {MAX_CONE_NODES} "
            "require the long-run flag"
        )


def derive_classical_cone(
    g: GDag, allow_large: bool = False, progress: bool = False
) -> Cone:
    """E_C: Shannon cone over all nodes plus entropic Markov rows,
    projected onto observed-subset coordinates."""
    _check_size(g, allow_large)
    cone = elemental_inequalities(g.names)
    # the elemental set is already irredundant; skip the initial pass
    rows = _dedupe(list(cone.rows) + _markov_rows(g))

    unobs_mask = g.all_mask & ~g.observed_mask
    latent_coords = [m for m in range(1, g.all_mask + 1) if m & unobs_mask]
    latent_coords.sort(key=lambda m: (bin(m).count("1"), m))
    # rows already proved irredundant; the first step's input never was
    kept: frozenset[tuple[int, ...]] = frozenset()
    for step, m in enumerate(latent_coords):
        rows = _eliminate_coord(rows, m - 1)
        rows = _minimize(rows, kept)
        kept = frozenset(rows)
        if progress:
            import sys

            print(
                f"  eliminated {step + 1}/{len(latent_coords)} coordinates, "
                f"{len(rows)} rows",
                file=sys.stderr,
            )
    projected = _restrict(rows, g.observed_mask)
    # restriction renames coordinates only, so kept rows stay irredundant
    kept = frozenset(projected) if latent_coords else frozenset()
    return Cone(g.observed_nodes(), tuple(_minimize(projected, kept)))


def derive_independence_cone(g: GDag, allow_large: bool = False) -> Cone:
    """E_I: observed Shannon cone plus -I(X;Y|Z) >= 0 for every
    observable d-separation statement."""
    _check_size(g, allow_large)
    obs = g.observed_nodes()
    if not obs:
        raise ConeError("graph has no observed nodes")
    cone = elemental_inequalities(obs)
    index = {v: i for i, v in enumerate(obs)}
    size = (1 << len(obs)) - 1
    # x and y are nonempty and disjoint from each other and from z: entries
    # 0 or +-1 on four distinct masks, so each row has gcd 1 already
    rows = list(cone.rows)
    for st in observable_ci_set(g):
        x, y, z = (_mask(index, s) for s in (st.x, st.y, st.z))
        rows.append(_cmi_row(size, x, y, z, -1))
    return Cone(tuple(obs), tuple(_minimize(rows)))


def implied_by(ineq: LinIneq, c: Cone) -> bool:
    """True iff ineq is a nonnegative rational combination of c's rows."""
    return _rows_implies(list(c.rows), c.row_of(ineq))
