"""Fuzzing the loader through ``homcolor check``: mutated fixture documents
either load and get a verdict or are refused with exit code 3 and an
``error:`` line that names a field; they never raise.

Mutations act on the parsed JSON tree of a fixture (or of a fixture with a
regular-bundle ``module`` block): drop a field, swap a node for a value of
another type, give a basis element a bad grade, put a huge integer or a
deeply nested scalar string in a node, or declare dependent radicands.
"""

import contextlib
import copy
import io
import json
import pathlib
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import homcolor as hc
from homcolor.cli import BIMODULE_KINDS, STRUCTURE_KINDS, main
from homcolor.serialize import dump_matrix, dump_presentation, load_presentation_file

from tests.conftest import FIXTURES

KINDS = sorted(STRUCTURE_KINDS) + sorted(BIMODULE_KINDS) + ["gi"]

# A JSON number this long exceeds int()'s default digit limit; json.dumps
# cannot write it, so a placeholder string is swapped for it in the text.
HUGE_TOKEN = "__huge_integer__"
HUGE_DIGITS = "9" * 5000


def _with_module(name: str) -> dict:
    A, _ = load_presentation_file(FIXTURES / name)
    bundle = hc.regular_bundle(A, hc.BimoduleKind.HNP_BIMODULE)
    doc = dump_presentation(A)
    doc["module"] = {
        "basis": [{"name": f"v{i}", "deg": list(d)} for i, d in enumerate(A.space.degrees)],
        "beta": dump_matrix(A.alpha),
        "actions": {
            role: {A.names[i]: dump_matrix(op) for i, op in enumerate(family)}
            for role, family in bundle.actions.items()
        },
    }
    return doc


BASES = [
    json.loads(path.read_text())
    for path in sorted(FIXTURES.glob("*.json"))
    if path.name != "manifest.json"
] + [_with_module("hnp_4dim.json")]


def _paths(node, prefix=()):
    """Every position in a JSON tree, as a tuple of keys and indices."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


def _replace(doc, path, value):
    value = copy.deepcopy(value)  # later mutations must not edit a strategy's constant
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


def _drop(doc, path):
    if not path:
        return {}
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    del parent[path[-1]]
    return doc


_OTHER_TYPES = st.sampled_from(
    [None, True, False, 1.5, -0.0, 0, 3, -1, "", "e1", "x", [], [[]], {}, {"e1": 1}, [1, 2], "1/0"]
)
_DEEP = st.integers(min_value=1, max_value=3000).flatmap(
    lambda k: st.sampled_from(["(" * k + "1" + ")" * k, "-" * k + "1", "-(" * k + "1" + ")" * k])
)
_HUGE = st.sampled_from([10**4000, -(10**4000), str(10**4000), "9" * 5000, HUGE_TOKEN])
_BAD_GRADES = st.sampled_from([[99], [-3], [0, 0, 0], [], ["1"], [1.5], [True], None, 10**4000])
_DEPENDENT_ROOTS = st.sampled_from(
    [{"r": 4}, {"r": "1/4"}, {"r": 2, "s": 8}, {"r": 2, "s": 3, "t": 6}, {"r": 0}, {"r": -2}, {"r": "2"}]
)


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        paths = list(_paths(doc))
        path = draw(st.sampled_from(paths))
        mutation = draw(st.sampled_from(["drop", "type", "grade", "huge", "deep", "roots"]))
        if mutation == "drop":
            doc = _drop(doc, path)
        elif mutation == "type":
            doc = _replace(doc, path, draw(_OTHER_TYPES))
        elif mutation == "huge":
            doc = _replace(doc, path, draw(_HUGE))
        elif mutation == "deep":
            doc = _replace(doc, path, draw(_DEEP))
        elif mutation == "grade" and isinstance(doc, dict) and isinstance(doc.get("basis"), list):
            items = [item for item in doc["basis"] if isinstance(item, dict)]
            if items:
                draw(st.sampled_from(items))["deg"] = copy.deepcopy(draw(_BAD_GRADES))
        elif mutation == "roots" and isinstance(doc, dict):
            doc["roots"] = copy.deepcopy(draw(_DEPENDENT_ROOTS))
        if not isinstance(doc, (dict, list)):
            break
    return doc


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as name:
        yield pathlib.Path(name)


@settings(max_examples=120)
@given(doc=mutated_documents(), kind=st.sampled_from(KINDS))
def test_check_exits_with_a_code_and_never_raises(workdir, doc, kind):
    path = workdir / "mutated.json"
    path.write_text(json.dumps(doc).replace(json.dumps(HUGE_TOKEN), HUGE_DIGITS))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path), "--kind", kind])
    assert code in (0, 1, 2, 3)
    if code == 3:
        lines = err.getvalue().splitlines()
        assert any(line.startswith("error: ") for line in lines)
        assert not any(line.startswith("error: :") for line in lines)  # a field is named
