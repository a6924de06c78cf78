"""The report and presentation writer: ``json_text(doc)`` is the text of
``json.dumps(doc, indent=2)``, byte for byte."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from homcolor.reports import json_text

# Strings with escapes, control characters, non-ASCII and astral characters.
TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)) | st.sampled_from('"\\/\b\f\n\r\t\x00\x7f'))
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | TEXT
)
DOCS = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(DOCS)
def test_matches_json_dumps(doc):
    assert json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    {}, [], "", 0, -1, True, None, {"a": {}}, {"a": []}, [[], {}, [[]]],
    {"é": [" ", "\U0001f600", "tab\there"]},
    [0.1, -0.0, 1e300, 5e-324, 10**400],
])
def test_edge_documents(doc):
    assert json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("value", [{1}, ("e1", "e2")])
def test_other_values_are_refused(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        json_text({"a": value})
