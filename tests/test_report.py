"""The structured writer: ``Report.to_json`` against the stdlib encoder.

``to_json`` must return exactly ``json.dumps(doc, sort_keys=True, indent=2)``
for every document it accepts, and refuse (TypeError) every value it does not
write itself.
"""

import enum
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsglab.report import Report

SPECIAL_FLOATS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e16, 1e-7,
    1.7976931348623157e308, 0.1, -2.5,
]
BIG_INTS = [2**64, 2**64 + 1, -(2**64), 2**100 + 7, -1, 0]
# ASCII controls, escapes, Latin-1, BMP and astral code points.
TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('\x00\x01\x07\x08\t\n\x0c\r\x1f\x7f"\\/ aZ'),
        st.characters(min_codepoint=0x80, max_codepoint=0x10FFFF,
                      blacklist_categories=("Cs",)),
    ),
    max_size=8,
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(BIG_INTS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIAL_FLOATS),
    TEXT,
)
# Lists of ints with a stray bool or None, which the int fast path must not take.
mostly_ints = st.builds(
    lambda ints, odd, at: ints[:at] + [odd] + ints[at:],
    st.lists(st.integers(), max_size=6),
    st.sampled_from([True, False, None]),
    st.integers(0, 6),
)
documents = st.recursive(
    st.one_of(scalars, mostly_ints, st.lists(st.integers(), max_size=6)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=25,
)


def stdlib(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def to_json(doc) -> str:
    return Report(command="c", payload=doc, provenance={}).to_json()


def report_doc(doc) -> dict:
    return {"command": "c", "payload": doc, "provenance": {}, "timing": {}}


@settings(max_examples=150, deadline=None)
@given(documents)
def test_writer_equals_stdlib(doc):
    assert to_json(doc) == stdlib(report_doc(doc))


@pytest.mark.parametrize("doc", [
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[{}]]],
    {"a": {"b": {"c": [[], ()]}}},
    SPECIAL_FLOATS,
    BIG_INTS,
    [1, True, 2], [False, 0], [0, None], (1, 2, 3), (7,),
    {"\x00\né \U0001f600": "\x1f\"\\ÿ\U0010ffff"},
    {"b": 1, "a": 2, "B": 3, "é": 4, "": 5},
], ids=[
    "list", "dict", "tuple", "list-list", "list-dict", "dict-list", "dict-dict",
    "mixed-empties", "deep-empties", "special-floats", "big-ints",
    "int-bool-int", "bool-int", "int-none", "int-tuple", "one-tuple",
    "escaped-text", "key-order",
])
def test_writer_equals_stdlib_on_corner_cases(doc):
    assert to_json(doc) == stdlib(report_doc(doc))


class Width(enum.IntEnum):
    ONE = 1


class Log2(float):
    pass


@pytest.mark.parametrize("value", [
    {1, 2}, frozenset(), Width.ONE, [Width.ONE], [1, Width.ONE], Log2(1.5),
    {"a": Log2(0.5)}, b"bytes", {1: "int key"}, object(),
], ids=[
    "set", "frozenset", "int-enum", "int-enum-in-list", "int-enum-after-int",
    "float-subclass", "float-subclass-value", "bytes", "int-key", "object",
])
def test_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        to_json(value)


def test_provenance_python_version_is_platforms():
    # The report reads the version off sys.version, so that no command
    # loads platform; the two agree on every supported Python.
    import platform

    from fsglab.report import make_provenance

    assert sys.version.split()[0] == platform.python_version()
    assert make_provenance(None, None)["python_version"] == platform.python_version()
