"""Fuzzing of the four JSON readers: whatever the text, each returns its
object or raises its own typed error, and does so within two seconds; a
string, an object or a number where an array belongs is refused."""

import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from gdag_lab.cones import Cone, ConeError
from gdag_lab.graph import GraphError, parse_gdag
from gdag_lab.models import ConditionalDistribution, Distribution, ModelError

READERS = [
    (parse_gdag, GraphError),
    (Distribution.from_json, ModelError),
    (ConditionalDistribution.from_json, ModelError),
    (Cone.from_json, ConeError),
]

# Leaves that json.dumps cannot write are drawn as marker strings and
# spliced into the text afterwards.
SPLICED = {
    '"<huge-int>"': "1" * 5000,
    '"<deep>"': "[" * 100_000,
}

NAMES = st.sampled_from(["A", "B", "C", "X", "Y", "A,B", "", "observed", "unobserved"])
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10 ** 4000), 10 ** 4000)
    | st.floats(allow_nan=True, allow_infinity=True)
    | NAMES
    | st.sampled_from([
        "1", "0", "1/2", "1/0", "0.1", "-1", "1e999999999", "1E5", "2e-3",
        "nan", "inf", "1_000", " 1/2 ", "<huge-int>", "<deep>",
    ])
)
VALUES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=6)
    | st.dictionaries(NAMES | st.sampled_from(["id", "card", "kind"]), kids, max_size=4),
    max_leaves=20,
)
VARIABLE = st.fixed_dictionaries({"id": NAMES | VALUES, "card": st.integers(-1, 3) | VALUES})


def _shaped(fields):
    """Objects with the reader's own keys, each holding any value."""
    return st.fixed_dictionaries({}, optional={k: v | VALUES for k, v in fields.items()})


# One valid document per reader, and the fields that must be JSON arrays.
VALID = {
    parse_gdag: (
        {"nodes": [{"id": "A", "kind": "observed"}, {"id": "B", "kind": "observed"}],
         "edges": [["A", "B"]]},
        ("nodes", "edges"),
    ),
    Distribution.from_json: (
        {"variables": [{"id": "A", "card": 2}], "probs": ["0", "1"]},
        ("variables", "probs"),
    ),
    ConditionalDistribution.from_json: (
        {"variables": [{"id": "A", "card": 2}], "given": [{"id": "Y", "card": 1}],
         "probs": ["1/2", "1/2"]},
        ("variables", "given", "probs"),
    ),
    Cone.from_json: (
        {"variables": ["A", "B"], "ineqs": [{"coeffs": {"A": "1"}}]},
        ("variables", "ineqs"),
    ),
}
NOT_ARRAYS = (
    st.text(max_size=6)
    | st.sampled_from(["01", "10", "AB", "", "1/2"])
    | st.dictionaries(NAMES | st.sampled_from(["0", "1", "1/2"]), LEAVES, max_size=3)
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def _not_array_field(draw, doc, fields):
    """``doc`` with one of its array fields holding a string, an object
    or a number."""
    out = dict(doc)
    out[draw(st.sampled_from(fields))] = draw(NOT_ARRAYS)
    return out


DOCUMENTS = st.one_of(
    VALUES,
    *(_not_array_field(doc, fields) for doc, fields in VALID.values()),
    _shaped({
        "nodes": st.lists(st.fixed_dictionaries({"id": NAMES, "kind": NAMES}), max_size=4),
        "edges": st.lists(st.lists(NAMES, max_size=3), max_size=4),
    }),
    _shaped({
        "variables": st.lists(VARIABLE, max_size=3),
        "given": st.lists(VARIABLE, max_size=2),
        "probs": st.lists(LEAVES, max_size=9),
    }),
    _shaped({
        "variables": st.lists(NAMES, max_size=4),
        "ineqs": st.lists(
            st.fixed_dictionaries({"coeffs": st.dictionaries(NAMES, LEAVES, max_size=3)}),
            max_size=3,
        ),
    }),
)


def _text(doc) -> str:
    text = json.dumps(doc)
    for marker, raw in SPLICED.items():
        text = text.replace(marker, raw)
    return text


@pytest.mark.parametrize("read, error", READERS, ids=lambda r: getattr(r, "__qualname__", ""))
@settings(max_examples=300, deadline=None)
@given(DOCUMENTS)
def test_reader_raises_only_its_error(read, error, doc):
    text = _text(doc)
    start = time.perf_counter()
    try:
        read(text)
    except error:
        pass
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("read, error", READERS, ids=lambda r: getattr(r, "__qualname__", ""))
def test_reader_accepts_valid_document(read, error):
    doc, _ = VALID[read]
    read(json.dumps(doc))


@pytest.mark.parametrize("read, error", READERS, ids=lambda r: getattr(r, "__qualname__", ""))
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_reader_requires_arrays(read, error, data):
    """A valid document with a string, an object or a number in place of
    one of its arrays is refused with the reader's own error."""
    doc = data.draw(_not_array_field(*VALID[read]))
    with pytest.raises(error):
        read(json.dumps(doc))
