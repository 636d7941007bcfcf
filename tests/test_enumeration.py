from collections import Counter
from hashlib import sha256
from itertools import combinations, permutations, product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gdag_lab import enumeration
from gdag_lab.catalog import bell_gdag, instrumental_gdag, triangle_gdag
from gdag_lab.classify import _winning_branch, sufficient_condition_holds
from gdag_lab.enumeration import (
    CENSUS_MAX_N,
    CensusReport,
    _class_codes,
    _code_of_masks,
    _extensions,
    _graph_of_key,
    _masks_of_code,
    _observed_count,
    _reducible_to_smaller_failure,
    _scan_rank,
    canonical_key,
    classification_census,
    enumerate_gdags,
    isomorphic,
)
from gdag_lab.graph import GDag, NodeKind, _masks_of_children

from generators import random_gdag
from oracles import (
    applicable_reductions_oracle,
    apply_reduction_oracle,
    canonical_key_oracle,
    class_counts,
    fixed_dag_count,
    labelled_scan_oracle,
)

OBS = NodeKind.OBSERVED
UNOBS = NodeKind.UNOBSERVED


def _canonical_form(g: GDag) -> GDag:
    """The graph that g's canonical key encodes."""
    return _graph_of_key(len(g.names), canonical_key(g))


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
    """Keys carry the node count: graphs of different sizes never share
    one, even with no observed node and no edge."""
    assert canonical_key(GDag([])) == 2
    assert canonical_key(GDag([("A", OBS)])) == 10
    assert canonical_key(GDag([("A", UNOBS)])) == 8
    assert canonical_key(GDag([("A", UNOBS), ("B", UNOBS)], [("A", "B")])) == 130
    unlinked_latents = [
        canonical_key(GDag([(name, UNOBS) for name in "ABCD"[:n]])) for n in range(5)
    ]
    assert unlinked_latents == [2, 8, 128, 8192, 2097152]
    assert len(set(unlinked_latents)) == 5


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
    first_seen: dict[int, None] = {}
    for kinds, child_mask in labelled_scan_oracle(n):
        g = _graph_of_masks(kinds, child_mask)
        expected = canonical_key_oracle(g)
        assert canonical_key(g) == expected
        assert _code_of_masks(kinds, child_mask) == expected
        first_seen.setdefault(expected, None)
    codes = list(_class_codes(n))
    assert len(codes) == len(first_seen)
    assert set(codes) == set(first_seen)
    ranked = sorted(enumerate_gdags(n), key=_scan_rank)
    assert [canonical_key(g) for g in ranked] == list(first_seen)


def _kinds_of(masks) -> list[int]:
    return [0 if (masks.observed_mask >> v) & 1 else 1 for v in range(len(masks.names))]


def test_sink_extension_keys_match_oracle_at_n6():
    """A seeded sample of 6-node sink extensions (5-node class, kind of
    the new sink, parent set): the extended masks are the class's
    canonical form plus that sink, and they get the brute-force key."""
    rng = Random(20261018)
    codes = list(_class_codes(5))
    for _ in range(300):
        base = rng.choice(codes)
        kind, parents = rng.randrange(2), rng.randrange(1 << 5)
        yielded, keys, masks = list(_extensions(5, base))[kind]
        assert yielded == kind
        ext = masks(parents)
        g5 = _graph_of_key(5, base)
        g = GDag(
            [*zip(g5.names, g5.kinds), ("F", _kind(kind))],
            [*g5.edges, *((g5.names[v], "F") for v in range(5) if (parents >> v) & 1)],
        )
        assert _kinds_of(ext) == [0 if k is OBS else 1 for k in g.kinds]
        assert ext.child_mask == g.child_mask
        assert keys[parents] == canonical_key_oracle(g)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_extension_keys_match_code_of_masks(m):
    """Every extension of every m-node class, in order (observed sink,
    then latent, each yielded with its kind; parent sets counting up):
    its masks are the base's canonical form plus the sink, with the
    parents and ancestors of their child masks, and its key from the
    shared relabelling sums is ``_code_of_masks`` on them."""
    for base in _class_codes(m):
        base_kinds, base_child = _masks_of_code(m, base)
        extensions = list(_extensions(m, base))
        assert len(extensions) == 2
        for position, (kind, keys, masks) in enumerate(extensions):
            assert kind == position
            assert len(keys) == 1 << m
            for parents, key in enumerate(keys):
                ext = masks(parents)
                child_mask = [
                    c | (((parents >> v) & 1) << m) for v, c in enumerate(base_child)
                ]
                assert _kinds_of(ext) == base_kinds + [kind]
                child_mask.append(0)
                assert list(ext.child_mask) == child_mask
                assert (ext.parent_mask, ext.anc_mask) == _masks_of_children(child_mask)
                assert key == _code_of_masks(_kinds_of(ext), ext.child_mask)


@pytest.fixture(scope="module")
def condition_oracle() -> dict[int, bool]:
    """Whether ``sufficient_condition_holds`` finds a certificate, for
    every class of 0 to 5 nodes, by key: the survivor search reads every
    class of at most its graph's size, the empty graph's too."""
    return {
        key: sufficient_condition_holds(_graph_of_key(m, key)) is not None
        for m in range(6)
        for key in _class_codes(m)
    }


@pytest.mark.parametrize("n", [4, 5])
def test_census_survivors_in_scan_order(n, monkeypatch, condition_oracle):
    """The survivors are the failing classes of the labelled scan, in
    first-occurrence order, that the survivor search keeps, whatever
    order the level walk meets the classes in.  Swapping the two sink
    kinds of every extension reorders each level, so the next level's
    classes are first met from other bases, through other sink kinds,
    and the census still reads the same."""
    first_seen = dict.fromkeys(
        _code_of_masks(kinds, child_mask)
        for kinds, child_mask in labelled_scan_oracle(n)
    )
    cond = dict(condition_oracle)
    expected = []
    for key in first_seen:
        g = _graph_of_key(n, key)
        if not cond[key] and not _reducible_to_smaller_failure(key, g, cond):
            expected.append(g)
    r = classification_census(n)
    assert r.survivors == tuple(expected)
    extensions = enumeration._extensions
    monkeypatch.setattr(
        enumeration, "_extensions", lambda m, base: reversed(list(extensions(m, base)))
    )
    swapped = classification_census(n)
    assert swapped.csv_row() == r.csv_row()
    assert swapped.survivors == tuple(expected)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from([0.35, 0.6]))
def test_elimination_moves_shrink_and_match_oracle(seed, p_unobserved):
    """Every move of the survivor search removes a node, or keeps the
    nodes and removes an edge; and the moves reach, with multiplicity,
    the classes of the reference: each applicable reduction rule, each
    observed node removed, and each edge into an observed node whose
    parents are all observed removed."""
    g = random_gdag(Random(seed), max_nodes=7, p_unobserved=p_unobserved)
    moves = list(enumeration._elimination_moves(g))
    for h in moves:
        assert (len(h.names), len(h.edges)) < (len(g.names), len(g.edges))
    expected = [apply_reduction_oracle(g, r) for r in applicable_reductions_oracle(g)]
    expected += [g.without_nodes([x]) for x in g.observed_nodes()]
    expected += [
        g.without_edge(y, x)
        for x in g.observed_nodes()
        if g.parents(x) and all(g.is_observed(y) for y in g.parents(x))
        for y in g.parents(x)
    ]
    assert Counter(map(canonical_key, moves)) == Counter(map(canonical_key, expected))


@pytest.mark.parametrize("n", [4, 5])
def test_survivors_do_not_depend_on_move_order(n, monkeypatch):
    """The survivor search asks only whether some reachable graph fails,
    so trying each graph's moves in reverse leaves the census as it is."""
    r = classification_census(n)
    moves = enumeration._elimination_moves
    monkeypatch.setattr(
        enumeration, "_elimination_moves", lambda g: reversed(list(moves(g)))
    )
    reversed_moves = classification_census(n)
    assert reversed_moves.csv_row() == r.csv_row()
    assert reversed_moves.survivors == r.survivors


def _record_decisions(monkeypatch, n: int, record) -> None:
    """Call ``record(masks, holds)`` for every n-node graph the census
    hands to ``_winning_branch``, with the answer it gets."""
    winning_branch = enumeration._winning_branch

    def recorded(g):
        win = winning_branch(g)
        if len(g.names) == n:
            record(g, win is not None)
        return win

    monkeypatch.setattr(enumeration, "_winning_branch", recorded)


def _searched_sink(masks) -> bool:
    """Is the sink of an extension's masks (its last node) observed with
    an unobserved parent?"""
    sink = len(masks.names) - 1
    observed = masks.observed_mask
    return bool((observed >> sink) & 1 and masks.parent_mask[sink] & ~observed)


#: How many n-node classes the census searches: those first met through
#: an observed sink with an unobserved parent.
_SEARCHED = {1: 0, 2: 1, 3: 9, 4: 120, 5: 2813}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_masks_decide_as_graphs(n, monkeypatch, condition_oracle):
    """The census searches exactly the n-node classes first met, in the
    order of ``_class_codes``, through an observed sink with an
    unobserved parent, each once; the masks it decides on are that
    extension's, a labelling of the class with the parents and ancestors
    of its child masks; each answer is whether
    ``sufficient_condition_holds`` finds a certificate for the GDag of the
    class's key; and the counts equal that oracle's over every class."""
    first: dict[int, bool] = {}
    for base in _class_codes(n - 1):
        for _, keys, masks in _extensions(n - 1, base):
            for p, key in enumerate(keys):
                if key not in first:
                    first[key] = _searched_sink(masks(p))
    codes = list(_class_codes(n))
    assert list(first) == codes
    decided = []
    _record_decisions(monkeypatch, n, lambda masks, holds: decided.append((masks, holds)))
    r = classification_census(n)
    keys = [_code_of_masks(_kinds_of(masks), masks.child_mask) for masks, _ in decided]
    assert keys == [key for key, searched in first.items() if searched]
    assert len(keys) == _SEARCHED[n]
    for key, (masks, holds) in zip(keys, decided):
        assert masks.names == tuple("ABCDE"[:n])
        assert masks.all_mask == (1 << n) - 1
        parent_mask, anc_mask = _masks_of_children(masks.child_mask)
        assert masks.parent_mask == parent_mask
        assert masks.anc_mask == anc_mask
        assert holds == condition_oracle[key]
    assert r.total == len(codes)
    assert r.condition_holds == sum(condition_oracle[key] for key in codes)


def _with_sink(g: GDag, kind: NodeKind, parents) -> GDag:
    """g plus a new last node S of the given kind with the given parents."""
    return GDag(
        [*zip(g.names, g.kinds), ("S", kind)], [*g.edges, *((v, "S") for v in parents)]
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_sink_that_cannot_matter_keeps_the_answer(seed):
    """Beyond census sizes (up to 9 nodes): a new sink that is
    unobserved, with any parents, or observed, with observed parents
    only, leaves the certificate search's winning branch as it was, and
    any certificate found on the extension verifies."""
    rng = Random(seed)
    g = random_gdag(rng, max_nodes=8, p_unobserved=0.4)
    kind = rng.choice([OBS, UNOBS])
    pool = g.names if kind is UNOBS else g.observed_nodes()
    h = _with_sink(g, kind, [v for v in pool if rng.random() < 0.5])
    win = _winning_branch(g)
    assert _winning_branch(h) == win
    cert = sufficient_condition_holds(h)
    assert (cert is None) == (win is None)
    assert cert is None or cert.verify()


def test_observed_sink_with_unobserved_parent_can_fail():
    """The inheritance rule stops at observed sinks with an unobserved
    parent: the instrumental graph fails, yet it is the passing
    Y -> B <- U plus the observed sink A with parents B and U."""
    base = GDag([("Y", OBS), ("B", OBS), ("U", UNOBS)], [("Y", "B"), ("U", "B")])
    assert sufficient_condition_holds(base) is not None
    g = _with_sink(base, OBS, ["B", "U"])
    assert isomorphic(g, instrumental_gdag())
    assert sufficient_condition_holds(g) is None


def test_census_builds_a_graph_only_where_one_is_kept(monkeypatch):
    """Passing classes are decided on their extension's masks: an n = 5
    census builds GDags only for its 96 failures and their survivor
    searches (443 in all, against 9,071 if every class got one)."""
    built = 0
    init = GDag.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(GDag, "__init__", counted)
    assert classification_census(5).csv_row() == "5,8628,8532,2"
    assert built < 1000


@st.composite
def _gdag_and_relabelling(draw, sizes=st.integers(0, 6)):
    n = draw(sizes)
    kinds = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pairs = list(combinations(range(n), 2))
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    names = "ABCDEFG"[:n]
    edges = [(names[i], names[j]) for (i, j), f in zip(pairs, flags) if f]
    g = GDag([(names[i], _kind(kinds[i])) for i in range(n)], edges)
    order = draw(st.permutations(range(n)))
    rename = {names[old]: "tuvwxyz"[new] for new, old in enumerate(order)}
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


@settings(max_examples=20, deadline=None)
@given(_gdag_and_relabelling(st.just(CENSUS_MAX_N + 1)))
def test_canonical_key_matches_oracle_above_cached_sizes(pair):
    """Seven nodes, above every size whose relabelling table is kept:
    the table built for the one call gives the brute-force key."""
    g, h = pair
    expected = canonical_key_oracle(g)
    assert canonical_key(g) == expected
    assert canonical_key(h) == expected


def test_tables_above_census_sizes_are_not_kept():
    """Tables for census sizes are kept after a key; the 7-node tables
    of a key and a canonical form are not."""
    _canonical_form(bell_gdag())
    assert {(5, 4), (5,)} <= set(enumeration._TABLES)
    g = GDag([(name, OBS) for name in "ABCDEFG"], [("A", "B"), ("C", "G")])
    assert canonical_key(g) == canonical_key_oracle(g)
    assert canonical_key(_canonical_form(g)) == canonical_key(g)
    assert all(key[0] <= CENSUS_MAX_N for key in enumeration._TABLES)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_key_decoder_round_trips(n):
    """Every n-node class key decodes to masks that key back to it, and
    the decoder's field reversal agrees with reading the key bit by bit
    (edge i -> j at bit n*n - 1 - (n*i + j))."""
    top = n * n - 1
    for key in _class_codes(n):
        kinds, child_mask = _masks_of_code(n, key)
        assert _code_of_masks(kinds, child_mask) == key
        assert child_mask == [
            sum(1 << j for j in range(n) if (key >> (top - n * i - j)) & 1)
            for i in range(n)
        ]
        k = kinds.count(0)
        assert kinds == [0] * k + [1] * (n - k)
        assert key >> (n * n) == 2 << n | k


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
    cf = _canonical_form(g)
    assert isomorphic(g, cf)
    assert _canonical_form(cf) == cf
    assert canonical_key(g) == canonical_key(cf)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_canonical_key_permutation_invariant(seed):
    rng = Random(seed)
    g = random_gdag(rng, max_nodes=5)
    h = _permuted(g, rng)
    assert isomorphic(g, h)
    assert canonical_key(g) == canonical_key(h)
    assert _canonical_form(g) == _canonical_form(h)


def test_enumeration_counts_small():
    assert len(list(enumerate_gdags(1))) == 2
    assert len(list(enumerate_gdags(2))) == 7
    assert len(list(enumerate_gdags(3))) == 40


@pytest.mark.parametrize("n", [0, CENSUS_MAX_N + 1])
def test_census_sizes_are_checked_before_keying(n, monkeypatch):
    """Sizes outside 1..CENSUS_MAX_N are refused with a ValueError at
    the call, before any class is keyed: n = 7 would key about 46M sink
    extensions."""
    def no_keys(*args):
        raise AssertionError("a key was computed")

    for name in ("_levels", "_class_codes", "_extensions", "_code_of_masks"):
        monkeypatch.setattr(enumeration, name, no_keys)
    message = rf"census supports 1 <= n <= {CENSUS_MAX_N}"
    with pytest.raises(ValueError, match=message):
        classification_census(n)
    with pytest.raises(ValueError, match=message):
        enumerate_gdags(n)


def _is_acyclic(n: int, edges) -> bool:
    """Can the nodes be removed one by one, each with no edge into it
    from a node still left?"""
    left = set(range(n))
    while left:
        free = [w for w in left if not any(v in left for v, x in edges if x == w)]
        if not free:
            return False
        left.remove(free[0])
    return True


def _cycle_lengths(sigma) -> tuple[int, ...]:
    seen, lengths = set(), []
    for v in range(len(sigma)):
        length = 0
        while v not in seen:
            seen.add(v)
            v = sigma[v]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_fixed_dag_counts_match_brute_force(n):
    """For every permutation sigma of n nodes, the oracle's count of the
    labelled DAGs sigma fixes equals that of a scan over every labelled
    digraph without loops."""
    pairs = [(v, w) for v in range(n) for w in range(n) if v != w]
    dags = []
    for flags in product((0, 1), repeat=len(pairs)):
        edges = {e for e, f in zip(pairs, flags) if f}
        if _is_acyclic(n, edges):
            dags.append(edges)
    assert len(dags) == [1, 1, 3, 25, 543][n]
    for sigma in permutations(range(n)):
        fixed = sum({(sigma[v], sigma[w]) for v, w in edges} == edges for edges in dags)
        assert fixed_dag_count(_cycle_lengths(sigma)) == fixed


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_class_counts_match_burnside_oracle(n):
    """The level walk's n-node classes by observed count, and the
    census's total, equal the Burnside count, which shares no code with
    them."""
    counts = Counter(_observed_count(n, key) for key in _class_codes(n))
    assert [counts[k] for k in range(n + 1)] == class_counts(n)
    if n:
        assert classification_census(n).total == sum(class_counts(n))


def test_enumeration_count_four():
    assert len(list(enumerate_gdags(4))) == 420


def test_enumeration_yields_canonical_distinct():
    seen = set()
    for g in enumerate_gdags(3):
        k = canonical_key(g)
        assert k not in seen
        seen.add(k)
        assert _canonical_form(g) == g


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
def test_census_n6(monkeypatch):
    """The six-node census (about 11 s; see the README for measured
    times): its row, the class count by number of latent nodes, and the
    survivors in scan order.  It searches only the 126,210 classes first
    met through an observed sink with an unobserved parent; the latent
    counts are read from the keys of its own six-node level, and the
    searched masks are counted, not held."""
    searched = 0

    def count(masks, holds):
        nonlocal searched
        assert _searched_sink(masks)
        searched += 1

    _record_decisions(monkeypatch, 6, count)
    memo = []
    reducible = enumeration._reducible_to_smaller_failure

    def spied(key, g, cond):
        if not memo:
            memo.append(cond)
        return reducible(key, g, cond)

    monkeypatch.setattr(enumeration, "_reducible_to_smaller_failure", spied)
    r = classification_census(6)
    assert r.csv_row() == "6,357468,347287,19"
    assert searched == 126210
    # A six-node key's leading 1 is bit 6*6 + 6 + 1.
    latent = Counter(
        6 - _observed_count(6, key) for key in memo[0] if key.bit_length() == 44
    )
    assert sum(latent.values()) == 357468
    lines = "".join(g.to_json() + "\n" for g in r.survivors)
    assert sha256(lines.encode()).hexdigest() == (
        "6aa007dee5143dafe6a20d959a1c3ea45ed6ab62fc7c9abf277b5041a465c1a9"
    )
    assert [latent[6 - k] for k in range(7)] == class_counts(6)
