from collections import Counter
from hashlib import sha256
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gdag_lab import enumeration
from gdag_lab.catalog import bell_gdag, instrumental_gdag, triangle_gdag
from gdag_lab.enumeration import (
    CensusReport,
    _class_codes,
    _enumerate_classes,
    _graph_of_key,
    _holds,
    _key_of_code,
    _key_of_masks,
    _reducible_to_smaller_failure,
    _scan_rank,
    _sink_extensions,
    canonical_form,
    canonical_key,
    classification_census,
    enumerate_gdags,
    isomorphic,
)
from gdag_lab.graph import GDag, NodeKind

from generators import random_gdag
from oracles import canonical_key_oracle, labelled_scan_oracle

OBS = NodeKind.OBSERVED
UNOBS = NodeKind.UNOBSERVED


def _permuted(g: GDag, rng: Random) -> GDag:
    names = list(g.names)
    new = names[:]
    rng.shuffle(new)
    rename = dict(zip(names, new))
    order = sorted(range(len(names)), key=lambda i: new[i])
    nodes = [(new[i], g.kinds[i]) for i in order]
    edges = [(rename[a], rename[b]) for a, b in g.edges]
    return GDag(nodes, edges)


def _kind(bit: int) -> NodeKind:
    return UNOBS if bit else OBS


def test_canonical_key_small_pinned():
    assert canonical_key(GDag([])) == ((), ())
    assert canonical_key(GDag([("A", OBS)])) == ((0,), (0,))
    assert canonical_key(GDag([("A", UNOBS)])) == ((1,), (0,))


def _graph_of_masks(kinds: list[int], child_mask: list[int]) -> GDag:
    names = "ABCDEF"[: len(kinds)]
    return GDag(
        [(names[v], _kind(b)) for v, b in enumerate(kinds)],
        [(names[v], names[w]) for v in range(len(kinds)) for w in range(len(kinds))
         if (child_mask[v] >> w) & 1],
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_canonical_key_matches_oracle_on_labelled_scan(n):
    """Every labelled graph of the scan over upper-triangular edge subsets
    and kind vectors gets the brute-force key; sink extension finds
    exactly the scan's classes, each once; and ``_scan_rank`` sorts them
    into the scan's first-occurrence order."""
    first_seen: dict[tuple, None] = {}
    for kinds, child_mask in labelled_scan_oracle(n):
        g = _graph_of_masks(kinds, child_mask)
        expected = canonical_key_oracle(g)
        assert canonical_key(g) == expected
        assert _key_of_masks(kinds, child_mask) == expected
        first_seen.setdefault(expected, None)
    classes = list(_enumerate_classes(n))
    assert len(classes) == len(first_seen)
    assert {key for key, _ in classes} == set(first_seen)
    ranked = sorted(classes, key=lambda kg: _scan_rank(kg[1]))
    assert [key for key, _ in ranked] == list(first_seen)


def test_sink_extension_keys_match_oracle_at_n6():
    """A seeded sample of 6-node sink extensions (5-node class, kind of
    the new sink, parent set): the extended masks are the class's
    canonical form plus that sink, and they get the brute-force key."""
    rng = Random(20261018)
    codes = list(_class_codes(5))
    for _ in range(300):
        base = rng.choice(codes)
        kind, parents = rng.randrange(2), rng.randrange(1 << 5)
        kinds, child_mask = list(_sink_extensions(5, base))[kind << 5 | parents]
        g5 = _graph_of_key(_key_of_code(5, base))
        g = GDag(
            [*zip(g5.names, g5.kinds), ("F", _kind(kind))],
            [*g5.edges, *((g5.names[v], "F") for v in range(5) if (parents >> v) & 1)],
        )
        assert kinds == [0 if k is OBS else 1 for k in g.kinds]
        assert tuple(child_mask) == g.child_mask
        assert _key_of_masks(kinds, child_mask) == canonical_key_oracle(g)


@pytest.mark.parametrize("n", [4, 5])
def test_census_survivors_in_scan_order(n, monkeypatch):
    """The survivors are the failing classes of the labelled scan, in
    first-occurrence order, that the survivor search keeps, whatever
    order the classes are enumerated in."""
    first_seen = dict.fromkeys(
        _key_of_masks(kinds, child_mask)
        for kinds, child_mask in labelled_scan_oracle(n)
    )
    cond: dict[tuple, bool] = {}
    expected = []
    for key in first_seen:
        g = _graph_of_key(key)
        if not _holds(cond, key, g) and not _reducible_to_smaller_failure(key, g, cond):
            expected.append(g)
    assert classification_census(n).survivors == tuple(expected)
    classes = list(_enumerate_classes(n))
    monkeypatch.setattr(enumeration, "_enumerate_classes", lambda n: reversed(classes))
    assert classification_census(n).survivors == tuple(expected)


@st.composite
def _gdag_and_relabelling(draw):
    n = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pairs = list(combinations(range(n), 2))
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    names = "ABCDEF"[:n]
    edges = [(names[i], names[j]) for (i, j), f in zip(pairs, flags) if f]
    g = GDag([(names[i], _kind(kinds[i])) for i in range(n)], edges)
    order = draw(st.permutations(range(n)))
    rename = {names[old]: "uvwxyz"[new] for new, old in enumerate(order)}
    h = GDag(
        [(rename[names[old]], _kind(kinds[old])) for old in order],
        [(rename[a], rename[b]) for a, b in edges],
    )
    return g, h


@settings(max_examples=150, deadline=None)
@given(_gdag_and_relabelling())
def test_canonical_key_matches_oracle_random(pair):
    g, h = pair
    expected = canonical_key_oracle(g)
    assert canonical_key(g) == expected
    assert canonical_key_oracle(h) == expected
    assert canonical_key(h) == expected


def test_isomorphic_basics():
    a = GDag([("A", OBS), ("B", OBS)], [("A", "B")])
    b = GDag([("A", OBS), ("B", OBS)], [("B", "A")])
    assert isomorphic(a, b)
    c = GDag([("A", OBS), ("B", UNOBS)], [("A", "B")])
    d = GDag([("A", UNOBS), ("B", OBS)], [("A", "B")])
    assert not isomorphic(a, c)
    # kind vector must follow the node through the permutation
    assert not isomorphic(c, d)
    assert isomorphic(
        c, GDag([("A", UNOBS), ("B", OBS)], [("B", "A")])
    )


def test_canonical_form_is_canonical():
    g = bell_gdag()
    cf = canonical_form(g)
    assert isomorphic(g, cf)
    assert canonical_form(cf) == cf
    assert canonical_key(g) == canonical_key(cf)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_canonical_key_permutation_invariant(seed):
    rng = Random(seed)
    g = random_gdag(rng, max_nodes=5)
    h = _permuted(g, rng)
    assert isomorphic(g, h)
    assert canonical_key(g) == canonical_key(h)
    assert canonical_form(g) == canonical_form(h)


def test_enumeration_counts_small():
    assert len(list(enumerate_gdags(1))) == 2
    assert len(list(enumerate_gdags(2))) == 7
    assert len(list(enumerate_gdags(3))) == 40


def test_enumeration_count_four():
    assert len(list(enumerate_gdags(4))) == 420


def test_enumeration_yields_canonical_distinct():
    seen = set()
    for g in enumerate_gdags(3):
        k = canonical_key(g)
        assert k not in seen
        seen.add(k)
        assert canonical_form(g) == g


def test_enumeration_covers_catalog():
    keys4 = {canonical_key(g) for g in enumerate_gdags(4)}
    assert canonical_key(instrumental_gdag()) in keys4


@pytest.fixture(scope="module")
def latent_histograms():
    """For n = 1..5, the number of classes by count of unobserved nodes."""
    hists = {}
    for n in range(1, 6):
        counts = Counter(len(g.unobserved_nodes()) for g in enumerate_gdags(n))
        hists[n] = [counts[k] for k in range(n + 1)]
    return hists


def test_all_observed_slice_is_oeis_a003087(latent_histograms):
    # unlabelled DAGs on n nodes
    assert [latent_histograms[n][0] for n in range(1, 6)] == [1, 2, 6, 31, 302]


def test_latent_histogram_kind_swap_symmetric(latent_histograms):
    assert latent_histograms[5] == [302, 1372, 2640, 2640, 1372, 302]
    for n, hist in latent_histograms.items():
        assert sum(hist) == [2, 7, 40, 420, 8628][n - 1]
        assert hist == hist[::-1]


def test_census_n1_n2():
    r1 = classification_census(1)
    assert (r1.total, r1.condition_holds, len(r1.survivors)) == (2, 2, 0)
    r2 = classification_census(2)
    assert r2.total == 7
    assert r2.condition_holds == 7
    assert r2.survivors == ()


def test_census_n3():
    r = classification_census(3)
    assert r.total == 40
    assert r.condition_holds == 40
    assert r.survivors == ()


def test_census_n4():
    r = classification_census(4)
    assert r.total == 420
    assert r.condition_holds == 419
    assert len(r.survivors) == 1
    assert isomorphic(r.survivors[0], instrumental_gdag())


def test_census_csv_row():
    r = CensusReport(2, 7, 7, ())
    assert r.csv_row() == "2,7,7,0"


@pytest.mark.long_run
def test_census_n6():
    """The six-node census (minutes): its row, the class count by number
    of latent nodes, and the survivors in scan order."""
    r = classification_census(6)
    assert r.csv_row() == "6,357468,347287,19"
    lines = "".join(g.to_json() + "\n" for g in r.survivors)
    assert sha256(lines.encode()).hexdigest() == (
        "6aa007dee5143dafe6a20d959a1c3ea45ed6ab62fc7c9abf277b5041a465c1a9"
    )
    latent = Counter(6 - (code >> 36) for code in _class_codes(6))
    assert [latent[u] for u in range(7)] == [
        5984, 34206, 83396, 110296, 83396, 34206, 5984
    ]
