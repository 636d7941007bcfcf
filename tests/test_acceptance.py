"""End-to-end acceptance criteria.

Each test states its tolerance inline; everything not explicitly a
float comparison is exact integer or rational arithmetic.
"""

from fractions import Fraction
from hashlib import sha256
from random import Random

import pytest

from gdag_lab.catalog import bell_gdag, instrumental_gdag, triangle_gdag
from gdag_lab.classify import reduce, sufficient_condition_holds
from gdag_lab.cones import (
    Cone,
    LinIneq,
    derive_classical_cone,
    derive_independence_cone,
    implied_by,
)
from gdag_lab.dsep import d_separated, d_separated_via_partition
from gdag_lab.enumeration import (
    canonical_key,
    classification_census,
    enumerate_gdags,
    isomorphic,
)
from gdag_lab.graph import GDag, NodeKind
from gdag_lab.inequalities import (
    instrumental_value,
    triangle_gpt_feasible,
    triangle_monogamy_margin,
)
from gdag_lab.models import (
    ConditionalDistribution,
    Distribution,
    observed_from_classical_gmc,
    satisfies_I,
)

from generators import (
    random_classical_gmc,
    random_gdag,
    random_instrumental_conditional,
    random_triangle_distribution,
)
from oracles import all_observed_triples, dsep_path_oracle

F = Fraction
H = F(1, 2)


# -- 1 & 2: census totals, condition counts and survivors ---------------


def test_census_table_and_survivors():
    expected = {
        1: (2, 2, 0),
        2: (7, 7, 0),
        3: (40, 40, 0),
        4: (420, 419, 1),
        5: (8628, 8532, 2),
    }
    reports = {n: classification_census(n) for n in range(1, 6)}
    for n, (total, holds, nsurv) in expected.items():
        r = reports[n]
        assert (r.total, r.condition_holds, len(r.survivors)) == (
            total,
            holds,
            nsurv,
        ), f"census mismatch at n={n}"
    # the n=4 survivor is the instrumental scenario
    assert isomorphic(reports[4].survivors[0], instrumental_gdag())
    # the n=5 survivors include the Bell scenario
    keys5 = {canonical_key(s) for s in reports[5].survivors}
    assert canonical_key(bell_gdag()) in keys5
    # the survivors byte for byte: canonical forms, node names, edge order
    digests = {
        4: "305db36b59e33e62d038247d4159eeb96da73f73a67754469509e6f9eca1cbf3",
        5: "8ade3b17fed0e2c63c60b08fa37482a42af23b1f207e49be0b9a91c975ef1600",
    }
    for n, digest in digests.items():
        lines = "\n".join(g.to_json() for g in reports[n].survivors)
        assert sha256(lines.encode()).hexdigest() == digest, f"survivors changed at n={n}"


# -- 3: exhaustive d-separation triple agreement ------------------------


def test_dsep_triple_agreement_exhaustive():
    for n in range(1, 6):
        for g in enumerate_gdags(n):
            for x, y, z in all_observed_triples(g):
                expect = dsep_path_oracle(g, x, y, z)
                assert d_separated(g, x, y, z) == expect, (g, x, y, z)
                w = d_separated_via_partition(g, x, y, z)
                assert (w is not None) == expect, (g, x, y, z)


# -- 4: classical models satisfy every observable CI exactly ------------


def test_classical_models_satisfy_I():
    rng = Random(20260826)
    checked = 0
    while checked < 1000:
        g = random_gdag(rng, max_nodes=6)
        m = random_classical_gmc(rng, g, max_card=3)
        if m is None:
            continue
        p = observed_from_classical_gmc(m)
        assert sum(p.probs) == 1  # exact normalization
        report = satisfies_I(g, p)
        assert report.holds, (g, report.violated)
        checked += 1


# -- 5: triangle inequalities -------------------------------------------


def test_triangle_ghz_violates():
    ghz = Distribution(
        (("A", 2), ("B", 2), ("C", 2)), (H, 0, 0, 0, 0, 0, 0, H)
    )
    margin = triangle_monogamy_margin(ghz)
    assert margin == pytest.approx(1.0, abs=1e-12)
    assert margin > 0
    assert not triangle_gpt_feasible(ghz)


def test_triangle_random_models_compatible():
    rng = Random(7)
    for _ in range(500):
        p = random_triangle_distribution(rng, max_latent_card=4)
        assert triangle_monogamy_margin(p) <= 1e-9
        assert triangle_gpt_feasible(p)


# -- 6: instrumental inequality -----------------------------------------


def test_instrumental_deterministic_violation():
    # a = y, b = 0, instrument uniform
    rows = []
    for y in range(2):
        for a in range(2):
            for b in range(2):
                rows.append(F(1) if (b == 0 and a == y) else F(0))
    fam = ConditionalDistribution(
        (("A", 2), ("B", 2)), (("Y", 2),), tuple(rows)
    )
    assert instrumental_value(fam) == 2

    # the corresponding joint satisfies I (the observable CI set is empty)
    probs = []
    for y in range(2):
        for b in range(2):
            for a in range(2):
                probs.append(H if (b == 0 and a == y) else F(0))
    joint = Distribution((("Y", 2), ("B", 2), ("A", 2)), tuple(probs))
    assert satisfies_I(instrumental_gdag(), joint).holds


def test_instrumental_random_models_bounded():
    rng = Random(11)
    for _ in range(500):
        fam = random_instrumental_conditional(rng, max_latent_card=4)
        assert instrumental_value(fam) <= 1  # exact rational comparison


# -- 7: Bell entropic cones coincide ------------------------------------


@pytest.fixture(scope="module")
def derived_cones() -> dict[str, tuple[Cone, Cone]]:
    """E_C and E_I of Bell and the triangle, derived once for the module."""
    return {
        name: (derive_classical_cone(make()), derive_independence_cone(make()))
        for name, make in (("bell", bell_gdag), ("triangle", triangle_gdag))
    }


#: sha256 of ``Cone.to_json()`` of E_C and E_I; the same bytes are pinned
#: by the benchmark's cones workload.
CONE_JSON = {
    ("bell", 0): "708315ae94d7d6fe4144b409f909a770f309bdb56e4aff3fe9cd286f65a9958c",
    ("bell", 1): "cd16f9a31fbea41886f3f65cb4314ccb7744b6f23ca2f990f482ad3704e9ba64",
    ("triangle", 0): "0de3a05e0544d85d6dca94470ab93c3f64cd88387e8ae5b736cb8415dfe93158",
    ("triangle", 1): "136476b1d39ca2fa9da7398ecfb35061080194719e7e137f27d570aaee70c98e",
}


def test_cone_json_pinned(derived_cones):
    for (name, which), digest in CONE_JSON.items():
        text = derived_cones[name][which].to_json()
        assert sha256(text.encode()).hexdigest() == digest, (name, which)


def test_bell_entropic_equality(derived_cones):
    ec, ei = derived_cones["bell"]
    assert all(implied_by(i, ei) for i in ec.ineqs())
    assert all(implied_by(i, ec) for i in ei.ineqs())


# -- 8: triangle monogamy is entropic-classical but not independence ----


def test_triangle_entropic_monogamy(derived_cones):
    mono = LinIneq(
        {
            frozenset({"A"}): F(-1),
            frozenset({"B"}): F(-1),
            frozenset({"C"}): F(-1),
            frozenset({"A", "B"}): F(1),
            frozenset({"B", "C"}): F(1),
        }
    )
    ec, ei = derived_cones["triangle"]
    assert implied_by(mono, ec)
    assert not implied_by(mono, ei)


# -- 9: cross-module invariants -----------------------------------------


def test_certificates_replay_and_verify():
    rng = Random(3)
    found = 0
    while found < 50:
        g = random_gdag(rng, max_nodes=5)
        cert = sufficient_condition_holds(g)
        if cert is None:
            continue
        assert cert.verify()
        assert all(k is NodeKind.OBSERVED for k in cert.final.kinds)
        found += 1


def test_reduction_idempotent():
    rng = Random(5)
    for _ in range(100):
        g = random_gdag(rng, max_nodes=5)
        r = reduce(g)
        assert reduce(r) == r


def test_derived_cone_rows_irredundant(derived_cones):
    for c in (derived_cones["bell"][1], derived_cones["triangle"][1]):
        rows = list(c.rows)
        ineqs = c.ineqs()
        for i in range(len(rows)):
            rest = Cone(c.variables, tuple(rows[:i] + rows[i + 1:]))
            assert not implied_by(ineqs[i], rest)
