import json

import pytest
from hypothesis import given, settings, strategies as st

from gdag_lab.graph import GDag, GraphError, NodeKind, parse_gdag
from gdag_lab.catalog import bell_gdag

from generators import random_gdag
from random import Random

OBS = NodeKind.OBSERVED
UNOBS = NodeKind.UNOBSERVED


def test_basic_construction():
    g = GDag([("A", OBS), ("B", UNOBS)], [("A", "B")])
    assert g.names == ("A", "B")
    assert g.observed_nodes() == ("A",)
    assert g.unobserved_nodes() == ("B",)
    assert g.parents("B") == frozenset({"A"})
    assert g.children("A") == frozenset({"B"})
    assert g.has_edge("A", "B")
    assert not g.has_edge("B", "A")


def test_rejects_cycle():
    with pytest.raises(GraphError):
        GDag([("A", OBS), ("B", OBS)], [("A", "B"), ("B", "A")])


def test_rejects_self_loop():
    with pytest.raises(GraphError):
        GDag([("A", OBS)], [("A", "A")])


def test_rejects_duplicate_node():
    with pytest.raises(GraphError):
        GDag([("A", OBS), ("A", OBS)])


def test_rejects_duplicate_edge():
    with pytest.raises(GraphError):
        GDag([("A", OBS), ("B", OBS)], [("A", "B"), ("A", "B")])


def test_rejects_unknown_edge_endpoint():
    with pytest.raises(GraphError):
        GDag([("A", OBS)], [("A", "B")])


def test_rejects_bad_node_id():
    with pytest.raises(GraphError):
        GDag([("a b", OBS)])
    with pytest.raises(GraphError):
        GDag([("", OBS)])
    with pytest.raises(GraphError, match="^bad node id 1$"):
        GDag([(1, OBS)])
    with pytest.raises(GraphError, match=r"^bad node id \['A'\]$"):
        GDag([(["A"], OBS)])


@pytest.mark.parametrize("bad", ["A,B", "A B"])
def test_node_id_has_no_comma_or_whitespace(bad):
    """Id lists join ids with ",", so a node id holds neither "," nor
    whitespace, in GDag and in parse_gdag alike."""
    with pytest.raises(GraphError, match=f"^bad node id {bad!r}$"):
        GDag([(bad, OBS), ("C", OBS)])
    text = json.dumps({"nodes": [{"id": bad, "kind": "observed"}], "edges": []})
    with pytest.raises(GraphError, match=f"^bad node id {bad!r}$"):
        parse_gdag(text)


def test_masks_and_sets_agree():
    g = bell_gdag()
    for name in g.names:
        i = g.index[name]
        assert g.names_of(g.parent_mask[i]) == g.parents(name)
        assert g.names_of(g.child_mask[i]) == g.children(name)
        assert name in g.names_of(g.anc_mask[i])


def test_ancestors_of_bell():
    g = bell_gdag()
    a, b = (g.anc_mask[g.index[v]] for v in "AB")
    assert g.names_of(a) == frozenset({"A", "X", "L"})
    assert g.names_of(a | b) == frozenset({"A", "B", "X", "Y", "L"})
    assert g.children("L") == frozenset({"A", "B"})


def test_equality_ignores_edge_order():
    a = GDag([("A", OBS), ("B", OBS), ("C", OBS)], [("A", "B"), ("A", "C")])
    b = GDag([("A", OBS), ("B", OBS), ("C", OBS)], [("A", "C"), ("A", "B")])
    assert a == b
    assert hash(a) == hash(b)


def test_equality_respects_kinds():
    a = GDag([("A", OBS), ("B", OBS)], [("A", "B")])
    b = GDag([("A", OBS), ("B", UNOBS)], [("A", "B")])
    assert a != b


def test_derived_graphs():
    g = bell_gdag()
    g2 = g.with_edge("X", "Y")
    assert g2.has_edge("X", "Y")
    assert g2.without_edge("X", "Y") == g
    with pytest.raises(GraphError):
        g.without_edge("A", "B")
    g3 = g.without_nodes({"L"})
    assert set(g3.names) == {"X", "Y", "A", "B"}
    assert g3.edges == (("X", "A"), ("Y", "B"))


def test_json_round_trip_fixed():
    g = bell_gdag()
    assert parse_gdag(g.to_json()) == g


def test_parse_rejects_garbage():
    a, b = '{"id": "A", "kind": "observed"}', '{"id": "B", "kind": "observed"}'
    for bad in [
        "not json", "[]", '{"nodes": []}', '{"nodes": [{"id": "A"}], "edges": []}',
        # an edge is a two-element list of node ids
        f'{{"nodes": [{a}, {b}], "edges": ["AB"]}}',
        f'{{"nodes": [{a}, {b}], "edges": "AB"}}',
        f'{{"nodes": [{a}, {b}], "edges": [["A", "B", "A"]]}}',
        f'{{"nodes": [{a}, {b}], "edges": [["A", 1]]}}',
        # a node id is a string, never stringified
        '{"nodes": [{"id": null, "kind": "observed"}], "edges": []}',
        '{"nodes": [{"id": true, "kind": "observed"}], "edges": []}',
        '{"nodes": [{"id": 1, "kind": "observed"}, {"id": "1", "kind": "observed"}], "edges": []}',
    ]:
        with pytest.raises(GraphError, match="invalid JSON|expected|malformed|not a"):
            parse_gdag(bad)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_json_round_trip_random(seed):
    g = random_gdag(Random(seed))
    assert parse_gdag(g.to_json()) == g


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_ancestor_masks_random(seed):
    g = random_gdag(Random(seed))
    for i, anc in enumerate(g.anc_mask):
        assert anc >> i & 1
        # fixed point: ancestors of ancestors add nothing
        for j in range(len(g.names)):
            if anc >> j & 1:
                assert g.anc_mask[j] | anc == anc
        assert g.parent_mask[i] | anc == anc
