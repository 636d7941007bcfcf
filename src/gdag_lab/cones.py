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
from itertools import chain, compress
from math import gcd, inf
from typing import Collection, Iterable, Optional, Sequence

from .graph import GDag, _bits, _is_node_id
from .dsep import observable_ci_set
from .linprog import nonneg_combination
from .models import _parse_frac

MAX_CONE_NODES = 6
# rows are dense over the 2^n - 1 subsets of n variables
_MAX_VARIABLES = 8


#: Float threshold of the HiGHS proposals in ``_FloatRows.confirm``: the
#: multipliers above it propose the target's support, and a smaller
#: exact solve; in the bounded form, an optimum above it proposes a
#: Farkas vector.  Each proposed value is rationalised to the first
#: continued-fraction convergent within ``LP_TOL * max(1, |v|)``.  It
#: only chooses which exact check runs and never decides an answer.
LP_TOL = 1e-9


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
        if any(isinstance(s, str) for s in self.coeffs):
            raise ConeError("subset key is a string, not a set of names")
        if any(isinstance(c, (bool, float)) for c in self.coeffs.values()):
            raise ConeError("coefficient is a bool or float, not an int or Fraction")
        clean = {
            frozenset(s): Fraction(c) for s, c in self.coeffs.items() if c
        }
        if not clean:
            raise ConeError("inequality has no nonzero coefficient")
        if any(not s for s in clean):
            raise ConeError("empty subset in inequality")
        object.__setattr__(self, "coeffs", clean)


@dataclass(frozen=True)
class Cone:
    variables: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for v in self.variables:
            if not _is_node_id(v):
                raise ConeError(f"cone variable {v!r} is not a node id")
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
            if type(obj["variables"]) is not list or type(obj["ineqs"]) is not list:
                raise ConeError("expected arrays for 'variables' and 'ineqs'")
            cone = Cone(tuple(obj["variables"]), ())
            if len(cone.variables) > _MAX_VARIABLES:
                raise ConeError("too many variables")
            index = {v: i for i, v in enumerate(cone.variables)}
            rows = []
            for item in obj["ineqs"]:
                coeffs = {
                    frozenset(key.split(",")): _parse_frac(val)
                    for key, val in item["coeffs"].items()
                }
                # every name is known, also one whose coefficient is 0
                _mask(index, frozenset().union(*coeffs))
                rows.append(cone.row_of(LinIneq(coeffs)))
        except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as e:
            raise ConeError(f"bad cone JSON: {e}") from None
        return Cone(cone.variables, tuple(rows))


def elemental_inequalities(variables: Sequence[str]) -> Cone:
    """The elemental generating set of the Shannon cone."""
    n = len(variables)
    if n < 1:
        raise ConeError("need at least one variable")
    if n > _MAX_VARIABLES:
        raise ConeError("too many variables")
    size = full = (1 << n) - 1
    # H(i | rest) = I(i ; i | rest), then I(i ; j | K) for every K
    rows = [_cmi_row(size, 1 << i, 1 << i, full & ~(1 << i), 1) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rest = full & ~(1 << i) & ~(1 << j)
            k = rest
            while True:
                rows.append(_cmi_row(size, 1 << i, 1 << j, k, 1))
                if k == 0:
                    break
                k = (k - 1) & rest
    return Cone(tuple(variables), tuple(dict.fromkeys(rows)))


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
        desc = sum(1 << j for j, a in enumerate(g.anc_mask) if (a >> i) & 1)
        nd = g.all_mask & ~desc & ~x & ~pa
        if nd:
            rows.append(_cmi_row(size, x, nd, pa, -1))
    return rows


def _exact_implies(
    rows: Sequence[tuple[int, ...]], target: tuple[int, ...]
) -> bool:
    coords = [k for k, col in enumerate(zip(target, *rows)) if any(col)]
    lam = nonneg_combination(
        [target[k] for k in coords], [[r[k] for k in coords] for r in rows]
    )
    return lam is not None


def _convergent(v: float) -> Fraction:
    """The first continued-fraction convergent of v within
    ``LP_TOL * max(1, |v|)`` of it: the simplest fraction that
    float noise of that size cannot tell from v."""
    bound = LP_TOL * max(1.0, abs(v))
    num, den = v.as_integer_ratio()
    p, q, p0, q0 = 1, 0, 0, 1
    while True:
        a, rem = divmod(num, den)
        p, q, p0, q0 = a * p + p0, a * q + q0, p, q
        if rem == 0 or abs(p / q - v) <= bound:
            return Fraction(p, q)
        num, den = den, rem


def _proposed(np, values) -> Optional[tuple[int, ...]]:
    """The values, each as its ``_convergent``, scaled by ``_normalize``.
    A value below 0.5 / LP_TOL in size and within ``LP_TOL * max(1, |v|)``
    of an integer has that integer as its convergent, so such a vector
    needs no Fraction; others repeat few values, each rationalised once."""
    v = np.asarray(values, dtype=float)
    near, size = np.rint(v), np.abs(v)
    if (size < 0.5 / LP_TOL).all() and (
        np.abs(v - near) <= LP_TOL * np.maximum(1.0, size)
    ).all():
        ints = near.astype(np.int64)
        g = np.gcd.reduce(ints)
        return tuple((ints // g).tolist()) if g else None
    exact = {x: _convergent(x) for x in set(v.tolist())}
    return _normalize([exact[x] for x in v.tolist()])


def _numpy():
    """NumPy when SciPy's HiGHS bindings load with it and can return a
    dual ray, else None.  They load on first use: ``gdag_lab`` imports
    this module."""
    try:
        import numpy
        # the package itself: a submodule already loaded would still
        # import with scipy.optimize hidden
        import scipy.optimize  # noqa: F401
        from scipy.optimize._highspy import _core
    except ImportError:
        return None
    return numpy if hasattr(_core._Highs, "getDualRay") else None


class _HighsLp:
    """r_j.y >= 1 for the tested row j and r.y <= 0 for every live row r
    of the float matrix ``a``, y free, no objective: one HiGHS model,
    re-solved from the last basis for each row.  Only bounds change, so
    every basis stays dual feasible; presolve is off so that it carries
    over.  A solve that ends neither optimal nor infeasible switches the
    model, for the rest of its pass, to the bounded form  max r_j.y
    s.t.  r_j.y <= 1, whose optimum is 0 (implied) or 1 (refuted)."""

    def __init__(self, np, a, live) -> None:
        from scipy.optimize._highspy import _core

        self.a, self.status = a, _core.HighsModelStatus
        self.bounded = False
        self.highs = highs = _core._Highs()
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("presolve", "off")
        m, n = a.shape
        lp = _core.HighsLp()
        lp.num_col_, lp.num_row_ = n, m
        lp.col_cost_ = np.zeros(n)
        lp.col_lower_ = np.full(n, -inf)
        lp.col_upper_ = np.full(n, inf)
        lp.row_lower_ = np.full(m, -inf)
        lp.row_upper_ = np.where(live, 0.0, inf)
        nonzero = a != 0
        matrix = lp.a_matrix_
        matrix.format_ = _core.MatrixFormat.kRowwise
        matrix.num_col_, matrix.num_row_ = n, m
        matrix.start_ = np.concatenate(([0], np.cumsum(nonzero.sum(axis=1))))
        matrix.index_ = np.nonzero(nonzero)[1]
        matrix.value_ = a[nonzero]
        highs.passModel(lp)
        self.cols = np.arange(n, dtype=np.int32)

    def cap(self, i: int, upper: float) -> None:
        """Set row i's bound to r.y <= upper: 0 for a live row, inf for a
        dropped one, which no longer constrains y."""
        self.highs.changeRowBounds(i, -inf, upper)

    def solve(self, j: int) -> Optional[tuple[bool, list[float]]]:
        """Row j against the live rows: (True, y) proposes a Farkas vector
        y, (False, lam) the multipliers lam of r_j, one per row; None when
        HiGHS proposes neither, and then the next solve starts from no
        basis.  An infeasible feasibility LP's dual ray, scaled to -1 at
        row j, is lam."""
        highs = self.highs
        if not self.bounded:
            highs.changeRowBounds(j, 1.0, inf)
            highs.run()
            status = highs.getModelStatus()
            if status == self.status.kOptimal:
                return True, highs.getSolution().col_value
            if status == self.status.kInfeasible:
                _, has_ray, ray = highs.getDualRay()
                if has_ray and ray[j]:
                    return False, ray / -ray[j]
            highs.clearSolver()
            self.bounded = True
        highs.changeRowBounds(j, -inf, 1.0)
        highs.changeColsCost(len(self.cols), self.cols, -self.a[j])
        highs.run()
        if highs.getModelStatus() != self.status.kOptimal:
            highs.clearSolver()
            return None
        solution = highs.getSolution()
        if -highs.getObjectiveValue() > LP_TOL:
            return True, solution.col_value
        return False, [-d for d in solution.row_dual]


def _exact_dtype(np, peak: int, weight: int):
    """The dtype of an exact product of integers at most ``peak`` in size
    with multipliers whose sizes sum to ``weight``: int64 when
    peak * weight < 2**63, so that no partial sum can overflow, else
    object (Python ints)."""
    return np.int64 if peak * weight < 1 << 63 else object


def _rows_implies(
    rows: Sequence[tuple[int, ...]], target: tuple[int, ...]
) -> bool:
    """Is target a nonnegative combination of rows?  A ``_minimize``
    pass in which every row but target is irredundant tests target alone,
    against all the rows, and drops it exactly when it is implied.  A
    zero target, which that pass would keep with no rows, and a copy of a
    row, which its deduplication would keep, are implied outright."""
    return (
        not any(target)
        or target in rows
        or target not in _minimize([*rows, target], frozenset(rows))
    )


class _Pool:
    """Integer Farkas vectors over a cone's subsets, confirmed at earlier
    Fourier-Motzkin steps: the rows ``ys`` of one append-only matrix,
    int64 unless some vector's sizes sum to 2**63 (``_exact_dtype``).
    ``weight`` is the largest such sum."""

    def __init__(self) -> None:
        self.ys, self.weight = None, 0

    def add(self, np, y: tuple[int, ...]) -> None:
        self.weight = max(self.weight, sum(map(abs, y)))
        new = np.array([y], dtype=_exact_dtype(np, 1, self.weight))
        self.ys = new if self.ys is None else np.concatenate((self.ys, new))


class _FloatRows:
    """One ``_minimize`` pass on the coordinates its rows mention: the
    rows' integer matrix, which decides every check, and one HiGHS model
    of its float copy, built at the first proposal, which only proposes.
    A row is live until it is tested, and again once it is kept.

    ``pool``'s vectors, in full coordinates, are multiplied by the rows
    once, exactly, when the pass starts; vectors the pass adds cannot
    refute another of its rows, since each refutes a row that the pass
    keeps."""

    def __init__(self, np, rows: list[tuple[int, ...]], pool) -> None:
        self.np = np
        self.rows = rows
        self.pool = pool
        # at least 1, so that peak * weight also bounds each multiplier
        self.peak = max(1, max(map(abs, chain.from_iterable(rows))))
        ints = np.array(rows, dtype=_exact_dtype(np, self.peak, 1))
        self.coords = np.flatnonzero((ints != 0).any(axis=0))
        self.ints = ints[:, self.coords]
        self.lp = None
        self.live = np.ones(len(rows), dtype=bool)
        self.positive = None
        if pool is not None and pool.ys is not None:
            ints, dtype = self._exact(pool.weight)
            ys = pool.ys[:, self.coords].astype(dtype)
            self.positive = ys @ ints.T > 0
            # per vector, the live rows it is positive on; a vector
            # refutes row j only if j is the one
            self.live_positive = self.positive.sum(axis=1)

    def _exact(self, weight: int):
        """The integer matrix in the dtype in which its products with
        multipliers whose sizes sum to ``weight`` are exact, and that
        dtype."""
        dtype = _exact_dtype(self.np, self.peak, weight)
        return self.ints.astype(dtype, copy=False), dtype

    def witnessed(self, j: int) -> bool:
        """Is a pooled vector positive on row j and on no other live
        row?  Then it refutes row j (Farkas's lemma)."""
        if self.positive is None:
            return False
        return bool((self.positive[:, j] & (self.live_positive == 1)).any())

    def proposal(self, j: int) -> Optional[bool]:
        """Row j against the other live rows: test it on the model and
        ``confirm`` what HiGHS proposes."""
        self.live[j] = False
        if self.lp is None:
            self.lp = _HighsLp(self.np, self.ints.astype(float), self.live)
        solved = self.lp.solve(j)
        return None if solved is None else self.confirm(j, *solved)

    def confirm(self, j: int, refutes: bool, values) -> Optional[bool]:
        """Check what HiGHS proposes for row j against the live rows.

        A Farkas vector y (``refutes``) on the pass's coordinates: one
        product of the integer matrix with y must be positive on row j
        and on no live row.  A confirmed vector joins the pool.
        Multipliers, one per row: the product of those above LP_TOL with
        their live rows must be a positive multiple of row j, and
        failing that an exact solve on their support decides.  Returns
        the answer once an exact check confirms a proposal, else None."""
        np = self.np
        if refutes:
            y = _proposed(np, values)
            if y is None:
                return None
            ints, dtype = self._exact(sum(map(abs, y)))
            v = ints @ np.array(y, dtype=dtype)
            if v[j] <= 0 or (v[self.live] > 0).any():
                return None
            if self.pool is not None:
                full = [0] * len(self.rows[j])
                for k, c in zip(self.coords.tolist(), y):
                    full[k] = c
                self.pool.add(np, tuple(full))
            return False
        values = np.asarray(values)
        support = np.flatnonzero(values > LP_TOL)
        support = support[self.live[support]]
        if not support.size:
            return None
        lam = _proposed(np, values[support])
        if lam is not None:
            # the weight also bounds the cross products with row j
            ints, dtype = self._exact(sum(lam) * self.peak)
            combined = np.array(lam, dtype=dtype) @ ints[support]
            target = ints[j]
            i = target.nonzero()[0][0]
            if combined[i] * target[i] > 0 and (
                combined * target[i] == target * combined[i]
            ).all():
                return True
        used = [self.rows[i] for i in support.tolist()]
        return True if _exact_implies(used, self.rows[j]) else None

    def settle(self, j: int, kept: bool) -> None:
        """Row j's verdict: a kept row is live, its bound r_j.y <= 0
        restored; a dropped one is freed and leaves the witness counts."""
        if self.lp is not None:
            self.lp.cap(j, 0.0 if kept else inf)
        if not kept and self.positive is not None:
            self.live_positive -= self.positive[:, j]
        self.live[j] = kept


def _minimize(
    rows: list[tuple[int, ...]],
    irredundant: Collection[tuple[int, ...]] = (),
    pool: Optional[_Pool] = None,
) -> list[tuple[int, ...]]:
    """Drop rows implied by the remaining ones (greedy, deterministic).

    Rows in ``irredundant`` are kept without an LP.  After a
    Fourier-Motzkin step these are the rows the step carried from an
    already minimised set: every other new row is a nonnegative
    combination of that set without r, so the Farkas vector that
    refuted r there still refutes it, and the greedy would keep r too.

    ``pool`` holds integer Farkas vectors over the rows' coordinates
    from earlier passes.  One that refutes r against the remaining rows
    keeps r without an LP (Farkas's lemma), and every Farkas vector this
    pass confirms joins the pool.  A new row is a positive combination
    of two rows of the previous step, and the vector that refuted one
    of them often still refutes it.  Every answer, whatever its route,
    is exact, so the greedy keeps the same rows.
    """
    rows = sorted(set(rows))
    keep = [True] * len(rows)
    np = _numpy() if any(r not in irredundant for r in rows) else None
    floats = _FloatRows(np, rows, pool) if np is not None else None
    for j, r in enumerate(rows):
        if r in irredundant:
            continue
        keep[j] = False
        if not any(keep) or floats and floats.witnessed(j):
            keep[j] = True
        elif any(r):
            answer = floats.proposal(j) if floats else None
            if answer is None:
                answer = _exact_implies(list(compress(rows, keep)), r)
            keep[j] = not answer
        if floats:
            floats.settle(j, keep[j])
    return list(compress(rows, keep))


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
    return list(dict.fromkeys(out))


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
    return list(dict.fromkeys(out))


def _check_size(n: int, what: str, allow_large: bool) -> None:
    if n > MAX_CONE_NODES and not allow_large:
        raise ConeError(
            f"graph has {n} {what}; cones above {MAX_CONE_NODES} "
            "require the long-run flag"
        )


def derive_classical_cone(g: GDag, allow_large: bool = False) -> Cone:
    """E_C: Shannon cone over all nodes plus entropic Markov rows,
    projected onto observed-subset coordinates."""
    _check_size(len(g.names), "nodes", allow_large)
    cone = elemental_inequalities(g.names)
    # the elemental set is already irredundant; skip the initial pass
    rows = list(dict.fromkeys([*cone.rows, *_markov_rows(g)]))

    unobs_mask = g.all_mask & ~g.observed_mask
    latent_coords = [m for m in range(1, g.all_mask + 1) if m & unobs_mask]
    latent_coords.sort(key=lambda m: (bin(m).count("1"), m))
    # rows already proved irredundant; the first step's input never was
    kept: frozenset[tuple[int, ...]] = frozenset()
    # Farkas vectors confirmed at every step, over g's subsets
    pool = _Pool()
    for m in latent_coords:
        rows = _eliminate_coord(rows, m - 1)
        rows = _minimize(rows, kept, pool)
        kept = frozenset(rows)
    projected = _restrict(rows, g.observed_mask)
    # restriction renames coordinates only, so kept rows stay irredundant
    kept = frozenset(projected) if latent_coords else frozenset()
    return Cone(g.observed_nodes(), tuple(_minimize(projected, kept)))


def derive_independence_cone(g: GDag, allow_large: bool = False) -> Cone:
    """E_I: observed Shannon cone plus -I(X;Y|Z) >= 0 for every observable
    d-separation statement; the size guard counts the observed nodes only."""
    obs = g.observed_nodes()
    _check_size(len(obs), "observed nodes", allow_large)
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


def _not_implied(c: Cone, by: Cone) -> Cone:
    """The cone of c's rows that ``by`` does not imply, in c's order."""
    return Cone(c.variables, tuple(
        r for r, ineq in zip(c.rows, c.ineqs()) if not implied_by(ineq, by)
    ))
