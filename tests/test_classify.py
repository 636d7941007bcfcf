import gc
import typing
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gdag_lab.catalog import (
    bell_gdag,
    chain,
    collider,
    instrumental_gdag,
    one_sided_bell_gdag,
    triangle_gdag,
)
from gdag_lab import classify
from gdag_lab.classify import (
    CARDINALITY_ASSUMING_RULES,
    AbsorbDominatedUnobserved,
    AddEdgeParentSubset,
    AddEdgeUnobservedPath,
    Certificate,
    DropChildlessUnobserved,
    DropDisconnectedComponent,
    MergeObservedIntoParentlessUnobservedParent,
    MergeUnobservedIntoSoleChild,
    MergeUnobservedIntoUnobservedParent,
    ReductionRule,
    RemoveEdge,
    RemoveIsolatedUnobserved,
    TransformError,
    _closure,
    _place,
    _winning_branch,
    apply_reduction,
    apply_transformation,
    applicable_reductions,
    reduce,
    sufficient_condition_holds,
)
from gdag_lab.dsep import ci_subset, d_separated, observable_ci_set
from gdag_lab.enumeration import enumerate_gdags
from gdag_lab.graph import GDag, NodeKind, _bits, _ready_order

from generators import latent_chain, random_gdag
from oracles import (
    applicable_reductions_oracle,
    apply_reduction_oracle,
    closure_oracle,
    search_oracle,
)

OBS = NodeKind.OBSERVED
UNOBS = NodeKind.UNOBSERVED


# -- transformations ----------------------------------------------------


def test_remove_edge():
    g = bell_gdag()
    h = apply_transformation(g, RemoveEdge("X", "A"))
    assert not h.has_edge("X", "A")
    with pytest.raises(TransformError):
        apply_transformation(g, RemoveEdge("A", "X"))


def test_remove_isolated_unobserved():
    g = GDag([("A", OBS), ("L", UNOBS)])
    h = apply_transformation(g, RemoveIsolatedUnobserved("L"))
    assert h.names == ("A",)
    with pytest.raises(TransformError):
        apply_transformation(g, RemoveIsolatedUnobserved("A"))
    g2 = GDag([("A", OBS), ("L", UNOBS)], [("L", "A")])
    with pytest.raises(TransformError):
        apply_transformation(g2, RemoveIsolatedUnobserved("L"))


def test_add_edge_unobserved_path():
    g = GDag(
        [("A", OBS), ("M", UNOBS), ("B", OBS)], [("A", "M"), ("M", "B")]
    )
    h = apply_transformation(g, AddEdgeUnobservedPath("A", "B"))
    assert h.has_edge("A", "B")
    # path through an observed intermediate does not qualify
    g2 = GDag(
        [("A", OBS), ("M", OBS), ("B", OBS)], [("A", "M"), ("M", "B")]
    )
    with pytest.raises(TransformError):
        apply_transformation(g2, AddEdgeUnobservedPath("A", "B"))
    with pytest.raises(TransformError):
        apply_transformation(h, AddEdgeUnobservedPath("A", "B"))


def test_add_edge_parent_subset():
    g = GDag(
        [("L", UNOBS), ("A", OBS), ("B", OBS)], [("L", "A"), ("L", "B")]
    )
    h = apply_transformation(g, AddEdgeParentSubset("A", "B"))
    assert h.has_edge("A", "B")
    # no unobserved parent: rule does not apply
    g2 = GDag(
        [("L", OBS), ("A", OBS), ("B", OBS)], [("L", "A"), ("L", "B")]
    )
    with pytest.raises(TransformError):
        apply_transformation(g2, AddEdgeParentSubset("A", "B"))
    # parents not a subset
    g3 = GDag(
        [("L", UNOBS), ("K", UNOBS), ("A", OBS), ("B", OBS)],
        [("L", "A"), ("K", "A"), ("L", "B")],
    )
    with pytest.raises(TransformError):
        apply_transformation(g3, AddEdgeParentSubset("A", "B"))
    # b ~> a would close a cycle, but then b is a parent of a and not
    # of b itself, so the subset test refuses it first
    g4 = GDag(
        [("L", UNOBS), ("A", OBS), ("B", OBS)],
        [("L", "A"), ("L", "B"), ("B", "A")],
    )
    with pytest.raises(TransformError, match="is not a subset"):
        apply_transformation(g4, AddEdgeParentSubset("A", "B"))
    # Pa(a) ⊆ Pa(b) rules out b ~> a for a != b, so only a self-loop
    # reaches the cycle test
    with pytest.raises(TransformError, match="would create a cycle"):
        apply_transformation(g, AddEdgeParentSubset("A", "A"))
    with pytest.raises(TransformError) as e:
        apply_transformation(h, AddEdgeParentSubset("A", "B"))
    assert str(e.value) == "edge ('A', 'B') already present"


# -- the sufficient condition ------------------------------------------


def test_condition_holds_all_observed():
    for g in (chain(), collider()):
        cert = sufficient_condition_holds(g)
        assert cert is not None
        assert cert.verify()
        assert cert.final == g


def test_condition_holds_one_sided_bell():
    cert = sufficient_condition_holds(one_sided_bell_gdag())
    assert cert is not None
    assert cert.verify()
    assert all(k is OBS for k in cert.final.kinds)
    assert ci_subset(cert.final, one_sided_bell_gdag())


def test_condition_fails_on_known_gaps():
    assert sufficient_condition_holds(bell_gdag()) is None
    assert sufficient_condition_holds(triangle_gdag()) is None
    assert sufficient_condition_holds(instrumental_gdag()) is None


def test_certificate_tampering_detected():
    cert = sufficient_condition_holds(one_sided_bell_gdag())
    bad = Certificate(cert.source, cert.steps[:-1])
    assert not bad.verify()


def test_verify_false_on_inapplicable_step():
    cert = sufficient_condition_holds(one_sided_bell_gdag())
    bad = Certificate(cert.source, tuple(t for t in cert.steps if t != RemoveEdge("L", "A")))
    with pytest.raises(TransformError, match="not isolated"):
        bad.final
    assert bad.verify() is False


@pytest.mark.parametrize(
    "g",
    [
        one_sided_bell_gdag(),
        GDag([("A", OBS), ("M", UNOBS), ("B", OBS)], [("A", "M"), ("M", "B")]),
        GDag(
            [("L", UNOBS), ("M", UNOBS), ("A", OBS), ("B", OBS), ("C", OBS)],
            [("L", "M"), ("L", "A"), ("M", "B"), ("M", "C"), ("A", "C")],
        ),
    ],
    ids=["one-sided-bell", "latent-mediator", "latent-chain"],
)
def test_search_applies_no_transformation(g, monkeypatch):
    """The search builds its steps on parent masks; the graphs they reach
    are built only when a certificate's final graph is read."""

    def refuse(g, t):
        raise AssertionError(f"apply_transformation({t!r}) during the search")

    with monkeypatch.context() as m:
        m.setattr(classify, "apply_transformation", refuse)
        cert = sufficient_condition_holds(g)
    assert cert is not None
    assert cert.verify()
    assert set(cert.final.names) == set(g.observed_nodes())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from([0.35, 0.6]))
def test_closure_matches_fixpoint_oracle(seed, p_unobserved):
    g = random_gdag(Random(seed), max_nodes=7, p_unobserved=p_unobserved)
    closed, _ = closure_oracle(g)
    assert tuple(_closure(g)) == closed.parent_mask


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_place_keeps_parent_masks_acyclic(seed):
    """A parent-subset edge t -> j never closes a cycle, so placements
    with no acyclicity test keep the closed parent masks a DAG."""
    rng = Random(seed)
    g = random_gdag(rng, max_nodes=8, p_unobserved=0.4)
    n = len(g.names)
    unobs = g.all_mask & ~g.observed_mask
    par = _closure(g)
    for _ in range(3):
        t = rng.randrange(n)
        later = [j for j in range(n) if j != t and rng.random() < 0.5]
        rng.shuffle(later)
        before = list(par)
        _place(par, t, rng.randrange(n), later, unobs)
        list(_ready_order(par, g.all_mask))
        for j in range(n):
            if j != t and j not in later:
                assert par[j] == before[j]
        for j in later:
            assert par[j] & ~before[j] in (0, 1 << t)


def test_single_latent_common_cause():
    # L -> A, L -> B: classic confounder, condition holds
    g = GDag(
        [("A", OBS), ("B", OBS), ("L", UNOBS)], [("L", "A"), ("L", "B")]
    )
    cert = sufficient_condition_holds(g)
    assert cert is not None and cert.verify()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_condition_certificates_verify_random(seed):
    g = random_gdag(Random(seed), max_nodes=5)
    cert = sufficient_condition_holds(g)
    if cert is None:
        return
    assert cert.source == g
    assert cert.verify()
    assert all(k is OBS for k in cert.final.kinds)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from([0.35, 0.5]))
def test_search_matches_exhaustive_oracle(seed, p_unobserved):
    """The state search finds a certificate exactly when some branch of
    the exhaustive loop does, and the first one in the loop's order."""
    g = random_gdag(Random(seed), max_nodes=8, p_unobserved=p_unobserved)
    cert, expect = sufficient_condition_holds(g), search_oracle(g)
    assert (cert is None) == (expect is None)
    if cert is not None:
        assert cert.to_json() == expect.to_json()


@st.composite
def _latent_gdags(draw):
    """GDAGs on 2 to 6 nodes with at least one latent and one observed
    node, every edge forward in declaration order."""
    n = draw(st.integers(2, 6))
    latent = draw(
        st.lists(st.booleans(), min_size=n, max_size=n).filter(
            lambda ks: any(ks) and not all(ks)
        )
    )
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    names = "ABCDEF"[:n]
    return GDag(
        [(names[i], UNOBS if latent[i] else OBS) for i in range(n)],
        [(names[i], names[j]) for (i, j), f in zip(pairs, flags) if f],
    )


@settings(max_examples=300, deadline=None)
@given(_latent_gdags())
def test_decision_matches_exhaustive_oracle(g):
    """The decision the census asks finds a winning branch exactly when
    the exhaustive loop does, and every certificate written from one
    verifies."""
    found = _winning_branch(g) is not None
    assert found == (search_oracle(g) is not None)
    cert = sufficient_condition_holds(g)
    assert found == (cert is not None)
    if cert is not None:
        assert cert.verify()


def _pruned_states(g: GDag) -> list[tuple[int, list[int], int]]:
    """Run the search on ``g`` and return, for each state it drops, the
    settled mask, the parent masks and the set the failing statement
    ranges over (node, rest and parents): the prefix of A's list that
    already fails.  The failing statement is found by settling the
    state again with a fresh memo, so that every statement is tested."""
    settle, dsep_mask = classify._settle, classify._dsep_mask
    calls = []

    def recording(h, xm, ym, zm):
        calls.append((xm | ym | zm, dsep_mask(h, xm, ym, zm)))
        return calls[-1][1]

    pruned = []

    def spy(h, par, done, settled, memo):
        out = settle(h, par, done, settled, memo)
        if out is None:
            calls.clear()
            assert settle(h, par, done, settled, {}) is None
            a, ok = calls[-1]
            assert not ok
            pruned.append((settled, list(par), a))
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(classify, "_settle", spy)
        m.setattr(classify, "_dsep_mask", recording)
        _winning_branch(g)
    return pruned


def _check_pruned(g: GDag, pruned) -> None:
    """Each dropped state's failing set A holds settled nodes only, is
    closed under observed parents, and its induced all-observed DAG has
    an observable independence (by the triple scan) that ``g`` lacks, so
    no completion of the state can pass."""
    obs = g.observed_mask
    seen = set()
    for settled, par, a in pruned:
        assert not a & ~settled and not settled & ~obs
        fam = tuple(par[i] & obs for i in _bits(a))
        assert all(not pa & ~a for pa in fam)
        if (a, fam) in seen:
            continue
        seen.add((a, fam))
        h = GDag(
            [(g.names[i], OBS) for i in _bits(a)],
            [(g.names[p], g.names[i]) for i, pa in zip(_bits(a), fam) for p in _bits(pa)],
        )
        assert any(not d_separated(g, s.x, s.y, s.z) for s in observable_ci_set(h))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.integers(0, 10 ** 9).map(
        lambda seed: random_gdag(Random(seed), max_nodes=8, p_unobserved=0.5)
    ),
    _latent_gdags(),
))
def test_pruned_states_fail_in_every_completion(g):
    """The search drops a placement state only when a prefix of an
    ancestral set's local-Markov list fails in g."""
    _check_pruned(g, _pruned_states(g))


@pytest.mark.parametrize("links", [False, True], ids=["chain", "linked"])
def test_latent_chain_pruning_reasons(links):
    """Both chain families drop states before their orderings complete,
    each for a failing ancestral prefix."""
    pruned = _pruned_states(latent_chain(6, links))
    assert pruned
    _check_pruned(latent_chain(6, links), pruned)


@pytest.mark.parametrize("links", [False, True], ids=["chain", "linked"])
def test_latent_chains_fail(links):
    """Exhaustive searches: the oracle agrees up to 5 observed nodes, and
    8 and 9 observed nodes (9! orderings) and the 12-observed linked chain
    are decided on placement states, most dropped early."""
    for k in (4, 5):
        assert search_oracle(latent_chain(k, links)) is None
        assert sufficient_condition_holds(latent_chain(k, links)) is None
    for k in (8, 9) + ((12,) if links else ()):
        assert sufficient_condition_holds(latent_chain(k, links)) is None


@pytest.mark.parametrize(
    "g, found",
    [
        (one_sided_bell_gdag(), True),
        (bell_gdag(), False),
        (triangle_gdag(), False),
        (latent_chain(5, True), False),
    ],
    ids=["one-sided-bell", "bell", "triangle", "latent-chain-5"],
)
def test_search_builds_no_graph(g, found, monkeypatch):
    """Final graphs are tested on parent masks: the search constructs no
    GDag, whether or not it finds a certificate."""
    built = []
    init = GDag.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GDag, "__init__", counting_init)
    cert = sufficient_condition_holds(g)
    monkeypatch.undo()
    assert (cert is not None) == found
    assert not built
    if found:
        assert cert.verify()


@pytest.mark.parametrize("g", [latent_chain(6, True), one_sided_bell_gdag()], ids=["fail", "win"])
def test_search_leaves_no_reference_cycle(g):
    """The failed-state set dies with the call, not at the next full
    collection."""
    gc.collect()
    gc.disable()
    try:
        sufficient_condition_holds(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- reduction rules ----------------------------------------------------


UNKNOWN_NODE_TRANSFORMATIONS = [
    RemoveEdge("nope", "A"),
    RemoveEdge("X", "nope"),
    RemoveIsolatedUnobserved("nope"),
    AddEdgeUnobservedPath("nope", "A"),
    AddEdgeUnobservedPath("A", "nope"),
    AddEdgeParentSubset("nope", "A"),
    AddEdgeParentSubset("A", "nope"),
]
UNKNOWN_NODE_RULES = [
    DropDisconnectedComponent("nope"),
    DropChildlessUnobserved("nope"),
    MergeUnobservedIntoUnobservedParent("nope"),
    AbsorbDominatedUnobserved("nope", "L"),
    AbsorbDominatedUnobserved("L", "nope"),
    MergeUnobservedIntoSoleChild("nope"),
    MergeObservedIntoParentlessUnobservedParent("nope"),
]


@pytest.mark.parametrize("op", UNKNOWN_NODE_TRANSFORMATIONS + UNKNOWN_NODE_RULES, ids=repr)
def test_unknown_node_raises_transform_error(op):
    apply = apply_transformation if op in UNKNOWN_NODE_TRANSFORMATIONS else apply_reduction
    with pytest.raises(TransformError, match="unknown node 'nope'"):
        apply(one_sided_bell_gdag(), op)


def test_drop_disconnected_component():
    g = GDag([("A", OBS), ("B", OBS), ("L", UNOBS)], [("A", "B")])
    h = apply_reduction(g, DropDisconnectedComponent("L"))
    assert set(h.names) == {"A", "B"}
    with pytest.raises(TransformError):
        apply_reduction(h, DropDisconnectedComponent("A"))


def test_drop_childless_unobserved():
    g = GDag([("A", OBS), ("L", UNOBS)], [("A", "L")])
    h = apply_reduction(g, DropChildlessUnobserved("L"))
    assert h.names == ("A",)
    g2 = GDag([("A", OBS), ("L", UNOBS)], [("L", "A")])
    with pytest.raises(TransformError):
        apply_reduction(g2, DropChildlessUnobserved("L"))


def test_merge_unobserved_into_unobserved_parent():
    g = GDag(
        [("A", OBS), ("L", UNOBS), ("M", UNOBS)],
        [("L", "M"), ("M", "A")],
    )
    h = apply_reduction(g, MergeUnobservedIntoUnobservedParent("M"))
    assert set(h.names) == {"A", "L"}
    assert h.has_edge("L", "A")


def test_absorb_dominated_unobserved():
    g = GDag(
        [("A", OBS), ("B", OBS), ("L", UNOBS), ("M", UNOBS)],
        [("L", "A"), ("M", "A"), ("M", "B")],
    )
    assert AbsorbDominatedUnobserved("L", "M") in set(applicable_reductions(g))
    h = apply_reduction(g, AbsorbDominatedUnobserved("L", "M"))
    assert set(h.names) == {"A", "B", "M"}


def test_merge_unobserved_into_sole_child():
    g = GDag(
        [("A", OBS), ("L", UNOBS)], [("L", "A")]
    )
    h = apply_reduction(g, MergeUnobservedIntoSoleChild("L"))
    assert h.names == ("A",)
    assert isinstance(MergeUnobservedIntoSoleChild("L"), CARDINALITY_ASSUMING_RULES)
    assert not isinstance(DropChildlessUnobserved("L"), CARDINALITY_ASSUMING_RULES)


def test_merge_observed_into_parentless_unobserved_parent():
    g = GDag(
        [("X", OBS), ("A", OBS), ("L", UNOBS)],
        [("L", "X"), ("L", "A")],
    )
    rules = [
        r
        for r in applicable_reductions(g)
        if isinstance(r, MergeObservedIntoParentlessUnobservedParent)
    ]
    assert rules
    h = apply_reduction(g, rules[0])
    assert len(h.names) < len(g.names)
    assert isinstance(rules[0], CARDINALITY_ASSUMING_RULES)


def test_reduce_fixed_point():
    for g in (bell_gdag(), triangle_gdag(), instrumental_gdag()):
        r = reduce(g)
        assert reduce(r) == r


def test_reduce_strips_junk():
    g = GDag(
        [("A", OBS), ("B", OBS), ("L", UNOBS), ("M", UNOBS), ("K", UNOBS)],
        [("L", "A"), ("L", "B"), ("A", "M")],
    )
    r = reduce(g)
    # K is disconnected, M is childless; L -> A, L -> B then merges away
    assert len(r.names) <= 3


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_reduce_idempotent_random(seed):
    g = random_gdag(Random(seed), max_nodes=5)
    r = reduce(g)
    assert reduce(r) == r
    assert len(r.names) <= len(g.names)
    # reduction never invents new node names
    assert set(r.names) <= set(g.names)
    assert set(r.observed_nodes()) <= set(g.observed_nodes())


NODE_RULES = [
    DropDisconnectedComponent,
    DropChildlessUnobserved,
    MergeUnobservedIntoUnobservedParent,
    MergeUnobservedIntoSoleChild,
    MergeObservedIntoParentlessUnobservedParent,
]


def _outcome(apply, g, r) -> str:
    try:
        return apply(g, r).to_json()
    except TransformError as e:
        return f"TransformError: {e}"


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from([0.35, 0.6]))
def test_reductions_match_oracle(seed, p_unobserved):
    """Each rule's precondition, written once, selects the same instances
    and refuses with the same message as the rule-by-rule reference."""
    g = random_gdag(Random(seed), max_nodes=6, p_unobserved=p_unobserved)
    assert list(applicable_reductions(g)) == list(applicable_reductions_oracle(g))
    rules = [rule(n) for rule in NODE_RULES for n in g.names]
    rules += [AbsorbDominatedUnobserved(n, m) for n in g.names for m in g.names]
    rules.append(RemoveEdge(g.names[0], g.names[-1]))  # not a reduction rule
    for r in rules:
        assert _outcome(apply_reduction, g, r) == _outcome(apply_reduction_oracle, g, r)


def test_every_rule_fires_on_a_small_class():
    """Every reduction rule applies to some class of at most three nodes,
    so none is dead code."""
    fired = {
        type(r)
        for n in (1, 2, 3)
        for g in enumerate_gdags(n)
        for r in applicable_reductions(g)
    }
    assert fired == set(typing.get_args(ReductionRule))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_dropping_an_edge_into_an_observed_family_adds_a_ci(seed):
    """Removing y -> x, where x and all its parents are observed, always
    adds x independent of y given Pa(x) - {y}: the local Markov property
    of the smaller graph.  x and y are adjacent in g, so g lacks it, and
    no such removal keeps the observable independences."""
    g = random_gdag(Random(seed), max_nodes=6)
    for x in g.observed_nodes():
        pa = g.parents(x)
        if not all(g.is_observed(p) for p in pa):
            continue
        for y in pa:
            h = g.without_edge(y, x)
            assert d_separated(h, {x}, {y}, pa - {y})
            assert g.has_edge(y, x) and not d_separated(g, {x}, {y}, pa - {y})
            assert not ci_subset(h, g)
