"""The canonical JSON writer against its definition, json.dumps(indent=1)."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drcontracts.formatting import json_text


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


# Text the writer's ", " split must not touch, and what the escaper must handle.
TRICKY = [", ", "[", "{", '"', "\\", "\x00\n\x1f", "é, ü 中", "a, [b], {c}", '", "']
strings = st.one_of(st.text(max_size=8), st.sampled_from(TRICKY))
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
integers = st.one_of(st.integers(), st.integers(min_value=10**30, max_value=10**40))
leaves = st.one_of(st.none(), st.booleans(), integers, floats, strings)
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(strings, children, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_json_text_is_json_dumps_with_indent_1(obj):
    assert json_text(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        [[]],
        [{}],
        {"a": [], "b": {}, "c": [[], {}]},
        [1.0, 2.5, -0.0],
        [True, None, 1, 2.0, math.nan, -math.inf],
        [1.0, "a, b"],
        [1, [2, 3]],
        [1, []],
        [0.5, {"k": [1, 2]}],
        (3, (4.0, ())),
        {"z": 1, "a, b": [0.1, 0.2], "[": {"{": "}"}},
        {3: "int", 2.5: "float", -math.inf: "infinite"},
        {True: 1, False: 0},
        {None: []},
        np.arange(3.0).tolist(),
    ],
)
def test_json_text_on_edge_shapes(obj):
    assert json_text(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj",
    [
        object(),
        np.int64(1),
        np.bool_(True),
        {1, 2},
        [1.0, np.int64(1)],
        [1.0, [2.0, object()]],
        {"a": {"b": np.int64(1)}},
        {(1,): 2},
        {"a": 1, 2: 3},
    ],
)
def test_unserializable_input_raises_json_dumps_type_error(obj):
    with pytest.raises(TypeError) as expected:
        reference(obj)
    with pytest.raises(TypeError, match=re.escape(str(expected.value))):
        json_text(obj)
