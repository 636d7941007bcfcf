"""The four benchmark workloads: their inputs, operations and checks.

Each workload builds its inputs from the seed in ``__init__`` (set-up)
and runs every operation once per call of ``round``.  An operation is
one call into the library's public API, made through ``runner.op`` with
a check on its answer.  Functions are looked up on their module at call
time, so the wrappers of a traced round see every call.

Checks never depend on the seed.  Answers that the library cannot
re-check by itself (a search that finds no certificate, an exact
projection) are pinned to values that hold for every seed.
"""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The library is imported from the checkout under test, never from an
# installed copy, so a tree without ``src/`` fails here.
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import gdag_lab  # noqa: E402
from gdag_lab import catalog, classify, cones, dsep, enumeration, inequalities, models  # noqa: E402
from gdag_lab.cones import LinIneq  # noqa: E402

import inputs  # noqa: E402

if not Path(gdag_lab.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"gdag_lab imported from {gdag_lab.__file__}, not from {SRC}")

#: Inputs depend on the seed only through ``Random(f"{workload}:{seed}")``.
DEFAULT_SEED = 1
#: sha256 over every answer of one round, pinned for DEFAULT_SEED only.
FINGERPRINTS = {
    "census": "d8a7c74c5b92453d045cd6d447752f13fcd19ec59d7a65f8cd947075ad89efd9",
    "classify": "77431857a1be044b2f14e5dc344d79ef17844f8a716b7846311ab1537c1fd59f",
    "cones": "0dfdb819ecc12ca3bfff76fd7e12fbf48819140c4510eb3fda39e94183dcc35d",
    "models": "fbbf33adda5ca54b2fdb118fb397bd079bf68ac9b8b1a138154a5aaf6b3f2522",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- census -------------------------------------------------------------

#: n -> (CSV row, sha256 of the survivors' JSON joined by newlines).
CENSUS = {
    4: ("4,420,419,1", "305db36b59e33e62d038247d4159eeb96da73f73a67754469509e6f9eca1cbf3"),
    5: ("5,8628,8532,2", "8ade3b17fed0e2c63c60b08fa37482a42af23b1f207e49be0b9a91c975ef1600"),
}

CENSUS_4_REPEATS = 5


def survivors_digest(report) -> str:
    return sha256("\n".join(g.to_json() for g in report.survivors))


class Census:
    """The paper's census for n = 4 and 5.  No LP, cone or model code
    runs here, so LP and model changes should leave it unchanged.  The
    n = 4 census runs CENSUS_4_REPEATS times so that op_p50_ms is a
    median of several short operations rather than a single reading."""

    def __init__(self, seed: int) -> None:
        self.sizes = [4] * CENSUS_4_REPEATS + [5]

    def round(self, runner) -> None:
        for n in self.sizes:
            row, digest = CENSUS[n]
            runner.op(
                "classification_census",
                lambda n=n: enumeration.classification_census(n),
                check=lambda r, row=row, digest=digest: (
                    r.csv_row() == row and survivors_digest(r) == digest
                ),
            )


# -- classify -----------------------------------------------------------

#: Random certificate-search inputs: 9 nodes, 6 of them observed.
CLASSIFY_GRAPHS = 150
CLASSIFY_MAX_BRANCHES = 48
#: The graphs come from this fixed stream; the seed only relabels them.
#: Whether a certificate exists does not depend on labels, so it is
#: pinned: bit i is set when graph i has one (126 of 150).
CLASSIFY_SHAPE_STREAM = "classify:shapes"
CLASSIFY_CERTIFICATES = 0x3EFF77B1BEEEEF5FF7FFE77FFFDFDBEFFFFFAF
#: sha256 of CISet.to_json() for observable_ci_set(extended_bell_gdag()).
EXTENDED_BELL_CI = "9227b0d05faaa13f56c56a80ebe3ad2f8b4fd98266ba21722a6803ab84fdb17d"


def certificate_ok(g, cert, expected: bool) -> bool:
    """A certificate is found exactly when one is expected, and verifies."""
    if cert is None:
        return not expected
    return expected and cert.source == g and cert.verify()


class Classify:
    """The certificate search beyond the census's n <= 5 branch space:
    two latent-chain families searched exhaustively, seeded 9-node
    GDAGs, and one observable CI set."""

    def __init__(self, seed: int) -> None:
        shapes = Random(CLASSIFY_SHAPE_STREAM)
        labels = Random(f"classify:{seed}")
        self.chains = [
            inputs.latent_chain(k, links) for links in (False, True) for k in (5, 6, 7)
        ]
        self.graphs = [
            inputs.relabelled(labels, inputs.bounded_gdag(shapes, 6, 3, 0.45, CLASSIFY_MAX_BRANCHES))
            for _ in range(CLASSIFY_GRAPHS)
        ]
        self.extended_bell = catalog.extended_bell_gdag()

    def round(self, runner) -> None:
        for g in self.chains:
            runner.op(
                "sufficient_condition_holds",
                lambda g=g: classify.sufficient_condition_holds(g),
                check=lambda cert: cert is None,
            )
        for i, g in enumerate(self.graphs):
            expected = bool(CLASSIFY_CERTIFICATES >> i & 1)
            runner.op(
                "sufficient_condition_holds",
                lambda g=g: classify.sufficient_condition_holds(g),
                check=lambda cert, g=g, expected=expected: certificate_ok(g, cert, expected),
            )
        g = self.extended_bell
        runner.op(
            "observable_ci_set",
            lambda: dsep.observable_ci_set(g),
            check=lambda s: sha256(s.to_json()) == EXTENDED_BELL_CI and all(
                dsep.d_separated_via_partition(g, st.x, st.y, st.z) is not None for st in s
            ),
        )


# -- cones --------------------------------------------------------------

#: sha256 of Cone.to_json() for each scenario and cone.
CONE_JSON = {
    ("bell", "E_C"): "708315ae94d7d6fe4144b409f909a770f309bdb56e4aff3fe9cd286f65a9958c",
    ("bell", "E_I"): "cd16f9a31fbea41886f3f65cb4314ccb7744b6f23ca2f990f482ad3704e9ba64",
    ("triangle", "E_C"): "0de3a05e0544d85d6dca94470ab93c3f64cd88387e8ae5b736cb8415dfe93158",
    ("triangle", "E_I"): "136476b1d39ca2fa9da7398ecfb35061080194719e7e137f27d570aaee70c98e",
}
#: E_C rows not implied by E_I, per scenario (coordinates as in Cone.rows).
CLASSICAL_ONLY = {
    "bell": frozenset(),
    "triangle": frozenset({
        (-5, -5, 4, -5, 4, 4, -2),
        (-3, -3, 2, -3, 2, 3, -1),
        (-3, -3, 2, -3, 3, 2, -1),
        (-3, -3, 3, -3, 2, 2, -1),
        (-1, -1, 0, -1, 1, 1, 0),
        (-1, -1, 1, -1, 0, 1, 0),
        (-1, -1, 1, -1, 1, 0, 0),
    }),
}
#: Row counts of E_C and E_I, so a failed derivation still yields the
#: same number of implication operations.
CONE_ROWS = {("bell", "E_C"): 17, ("bell", "E_I"): 17, ("triangle", "E_C"): 16, ("triangle", "E_I"): 9}
#: Triangle monogamy I(A:B) + I(B:C) <= H(B), as H(AB) + H(BC) - H(A) - H(B) - H(C) >= 0.
MONOGAMY = LinIneq({
    frozenset("A"): -1, frozenset("B"): -1, frozenset("C"): -1,
    frozenset("AB"): 1, frozenset("BC"): 1,
})


def _ineqs(cone, count: int) -> list:
    """The cone's inequalities with their rows, padded with None to
    ``count`` so that every expected implication is attempted."""
    pairs = list(zip(cone.rows, cone.ineqs())) if isinstance(cone, cones.Cone) else []
    return (pairs + [(None, None)] * count)[:count]


class Cones:
    """Fourier-Motzkin projection plus redundancy LPs (exact and HiGHS)
    for Bell and the triangle, then Farkas implication both ways.  The
    only workload that imports SciPy."""

    def __init__(self, seed: int) -> None:
        try:
            import scipy.optimize  # noqa: F401  (loaded lazily by cones; paid in set-up)
        except ImportError:
            pass
        self.scenarios = [("bell", catalog.bell_gdag()), ("triangle", catalog.triangle_gdag())]

    def round(self, runner) -> None:
        for name, g in self.scenarios:
            ec = runner.op(
                "derive_classical_cone",
                lambda g=g: cones.derive_classical_cone(g),
                check=lambda c, name=name: sha256(c.to_json()) == CONE_JSON[name, "E_C"],
            )
            ei = runner.op(
                "derive_independence_cone",
                lambda g=g: cones.derive_independence_cone(g),
                check=lambda c, name=name: sha256(c.to_json()) == CONE_JSON[name, "E_I"],
            )
            for row, ineq in _ineqs(ec, CONE_ROWS[name, "E_C"]):
                runner.op(
                    "implied_by",
                    lambda ineq=ineq: cones.implied_by(ineq, ei),
                    check=lambda r, row=row, name=name: r is (row not in CLASSICAL_ONLY[name]),
                )
            for _, ineq in _ineqs(ei, CONE_ROWS[name, "E_I"]):
                runner.op(
                    "implied_by",
                    lambda ineq=ineq: cones.implied_by(ineq, ec),
                    check=lambda r: r is True,
                )
            if name == "triangle":
                runner.op(
                    "implied_by", lambda: cones.implied_by(MONOGAMY, ec), check=lambda r: r is True
                )
                runner.op(
                    "implied_by", lambda: cones.implied_by(MONOGAMY, ei), check=lambda r: r is False
                )


# -- models -------------------------------------------------------------

TRIANGLE_MODELS = 40
GDAG_MODELS = 100
INSTRUMENTAL_MODELS = 100
#: Margin threshold of the monogamy check, in bits.
MARGIN_TOL = 1e-9
#: Model shapes (graphs, message and outcome cardinalities) come from this
#: fixed stream, not from the seed: evaluation cost grows with them, and a
#: fixed shape mix keeps the work per run the same for every seed.  The
#: seed draws every probability table.
SHAPE_STREAM = "models:shapes"


def triangle_op(model):
    p = models.observed_from_classical_gmc(model)
    return p, inequalities.triangle_monogamy_margin(p), inequalities.triangle_gpt_feasible(p)


def gdag_op(model):
    p = models.observed_from_classical_gmc(model)
    return p, models.satisfies_I(model.gdag, p)


def instrumental_op(model):
    p = models.observed_from_classical_gmc(model)
    return p, inequalities.instrumental_value(inputs.instrumental_family(p))


def normalised(p) -> bool:
    return sum(p.probs, Fraction(0)) == 1


class Models:
    """Classical model evaluation followed by exact CI tests, entropies
    and the triangle marginal LP, or the instrumental inequality.  The
    marginal LP is one always-feasible LP per model, unlike the many
    small Farkas checks of the cones workload."""

    def __init__(self, seed: int) -> None:
        shapes = Random(SHAPE_STREAM)
        tables = Random(f"models:{seed}")
        plan = [
            (triangle_op, inputs.triangle_sizes(shapes, TRIANGLE_MODELS), None),
            (gdag_op, inputs.gdag_sizes(shapes, GDAG_MODELS), None),
            (instrumental_op, inputs.instrumental_sizes(shapes, INSTRUMENTAL_MODELS),
             inputs.UNIFORM_INSTRUMENT),
        ]
        self.models = []
        for op, sizes, fixed in plan:
            for g, edge_cards, out_cards in sizes:
                model = inputs.classical_model(tables, g, edge_cards, out_cards, fixed)
                self.models.append((op, model))

    def round(self, runner) -> None:
        checks = {
            triangle_op: lambda r: normalised(r[0]) and r[1] <= MARGIN_TOL and r[2] is True,
            gdag_op: lambda r: normalised(r[0]) and r[1].holds,
            instrumental_op: lambda r: normalised(r[0]) and r[1] <= 1,
        }
        for op, model in self.models:
            runner.op(op.__name__, lambda op=op, model=model: op(model), check=checks[op])


WORKLOADS = {"census": Census, "classify": Classify, "cones": Cones, "models": Models}
