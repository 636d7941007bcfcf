"""Fuzzing of the four JSON readers: whatever the text, each returns its
object or raises its own typed error, and does so within two seconds."""

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


DOCUMENTS = st.one_of(
    VALUES,
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
