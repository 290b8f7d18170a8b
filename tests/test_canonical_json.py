"""canonical_json writes the bytes of the plain recursive writer."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkz.cli import canonical_json


def recursive_json(obj) -> str:
    """The writer before ints in lists skipped the recursion."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return float_str(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(recursive_json, obj)) + "]"
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"non-string JSON key {key!r}")
            items.append(json.dumps(key) + ":" + recursive_json(obj[key]))
        return "{" + ",".join(items) + "}"
    if isinstance(obj, Fraction):
        return float_str(float(obj))
    if isinstance(obj, complex):
        return recursive_json([obj.real, obj.imag])
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if hasattr(obj, "to_json"):
        return recursive_json(obj.to_json())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def float_str(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError("non-finite float in report")
    return "%.15e" % v


FINITE = st.floats(allow_nan=False, allow_infinity=False)
LEAVES = (
    st.integers(-10**20, 10**20)
    | st.booleans()
    | st.none()
    | FINITE
    | st.fractions(max_denominator=1000)
    | st.complex_numbers(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
DOCS = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=6)
    | st.lists(inner, max_size=6).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=120, deadline=None)
@given(DOCS)
def test_same_bytes_as_the_recursive_writer(doc):
    assert canonical_json(doc) == recursive_json(doc)


def test_bools_and_ints_in_lists():
    doc = [True, 1, False, 0, None, [1, True], (2, 3)]
    assert canonical_json(doc) == recursive_json(doc) == "[true,1,false,0,null,[1,true],[2,3]]"


@pytest.mark.parametrize("key", ["plain", "caf\u00e9", 'quote"', "tab\t", "\u2603", "\ud83d\ude00", ""])
def test_keys_are_escaped_as_json_dumps_does(key):
    assert canonical_json({key: [key]}) == recursive_json({key: [key]})
    assert canonical_json({key: 1}).startswith("{" + json.dumps(key) + ":")


@pytest.mark.parametrize("doc", [{1: 2}, [{"a": {(1,): 0}}], ({"x": [1, {None: 1}]},)])
def test_non_string_keys_raise(doc):
    with pytest.raises(TypeError, match="non-string JSON key"):
        canonical_json(doc)
