"""The full text of every loader refusal, one single-value mutation at a time.

Each row of ``REFUSALS`` changes one value of a valid document (or drops one
field) and names the exact ``LoadError`` message the loader must give.  The
documents are a presentation with a twist and a ``module`` block, a
matched-pair document (also with an action object that lists no operator)
and a ``--map`` file over the presentation.
"""

import copy
import json

import pytest

from homcolor.serialize import (
    LoadError,
    load_linear_map,
    load_matched_pair_file,
    load_presentation_file,
)

DROP = object()  # a mutation that deletes the field instead of replacing it

# Z2 x Z with eps(g0, g0) = -1; e2 and v2 are odd.
PRESENTATION = {
    "format": 1,
    "group": {"torsion": [2], "free": 1},
    "bichar": [[-1, 1], [1, 1]],
    "basis": [
        {"name": "e1", "deg": [0, 0]},
        {"name": "e2", "deg": [1, 0]},
        {"name": "e3", "deg": [0, 1]},
    ],
    "products": {
        "dot": [["e1", "e2", [["e2", "lambda1"]]], ["e2", "e2", [["e1", "sqrt2"], ["e1", 1]]]],
    },
    "alpha": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "-1"]],
    "params": ["lambda1"],
    "roots": {"sqrt2": 2},
    "module": {
        "basis": [{"name": "v1", "deg": [0, 0]}, {"name": "v2", "deg": [1, 0]}],
        "beta": [["1", "0"], ["0", "1"]],
        "actions": {"s": {"e1": [["1", "0"], ["0", "lambda1"]], "e2": [["0", "1"], ["1", "0"]]}},
    },
}

_SIDE_A = {
    "format": 1,
    "group": {"torsion": [2], "free": 0},
    "bichar": [[-1]],
    "basis": [{"name": "x1", "deg": [0]}, {"name": "x2", "deg": [1]}],
    "products": {"dot": [["x1", "x2", [["x2", "1"]]]]},
}
_SIDE_B = {
    "format": 1,
    "group": {"torsion": [2], "free": 0},
    "bichar": [[-1]],
    "basis": [{"name": "y1", "deg": [0]}],
    "products": {"dot": [["y1", "y1", [["y1", "3"]]]]},
}
MATCHED_PAIR = {
    "a": _SIDE_A,
    "b": _SIDE_B,
    "actions_a_on_b": {"s": {"x1": [["2"]]}},
    "actions_b_on_a": {"s": {"y1": [["1", "0"], ["0", "-1"]]}},
}

# Sides b over another grading context than a's Z2 with eps(g, g) = -1.
_SIDE_B_Z2_SQUARED = {
    **_SIDE_B, "group": {"torsion": [], "free": 2}, "bichar": [[1, 1], [1, 1]],
    "basis": [{"name": "y1", "deg": [0, 0]}],
}
_SIDE_B_Z3 = {**_SIDE_B, "group": {"torsion": [3], "free": 0}, "bichar": [[1]]}
MATCHED_PAIR_UNLISTED = {**MATCHED_PAIR, "actions_a_on_b": {"s": {}}}
OTHER_CONTEXT = "matched pair sides use different grading contexts"

MAP = {"map": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "5"]]}

NOT_GRADED = "products.dot: product is not graded: e1 o e2 has a component on e1"

REFUSALS = [
    # The header, the group and the factor.
    ("presentation", ("format",), 99, "format: unsupported version 99"),
    ("presentation", ("group",), [2], "group: expected an object"),
    ("presentation", ("group",), DROP, "missing field group"),
    ("presentation", ("group", "torsion"), 2, "group.torsion: expected a list"),
    ("presentation", ("group", "torsion", 0), 1.5, "group.torsion[0]: expected an integer, got 1.5"),
    ("presentation", ("group", "torsion", 0), True, "group.torsion[0]: expected an integer, got True"),
    ("presentation", ("group", "torsion", 0), 0, "group: torsion moduli must be integers >= 2, got (0,)"),
    ("presentation", ("group", "free"), True, "group.free: expected an integer, got True"),
    ("presentation", ("group", "free"), "1", "group.free: expected an integer, got '1'"),
    ("presentation", ("bichar",), DROP, "missing field bichar"),
    ("presentation", ("bichar",), {}, "bichar: expected a list"),
    ("presentation", ("bichar", 1), 1, "bichar[1]: expected a list"),
    ("presentation", ("bichar", 0, 1), 1.0, "bichar[0][1]: expected an integer, got 1.0"),
    ("presentation", ("bichar", 1, 1), None, "bichar[1][1]: expected an integer, got None"),
    ("presentation", ("bichar", 1, 1), 2, "bichar: generator matrix entries must be +1 or -1, got 2"),
    ("presentation", ("bichar", 1), [1], "bichar: generator matrix must be 2x2"),
    ("presentation", ("bichar", 1), [1.5], "bichar[1][0]: expected an integer, got 1.5"),
    ("presentation", ("params",), "lambda1", "params: expected a list"),
    ("presentation", ("params", 0), 7, "params[0]: expected a name, got 7"),
    ("presentation", ("roots", "sqrt2"), 2.0, "roots.sqrt2: expected an integer or a rational string"),
    # The basis.
    ("presentation", ("basis",), DROP, "missing field basis"),
    ("presentation", ("basis",), [], "basis: expected a non-empty list"),
    ("presentation", ("basis", 1), "e2", "basis[1]: expected an object"),
    ("presentation", ("basis", 1, "name"), DROP, "missing field basis[1].name"),
    ("presentation", ("basis", 1, "name"), 7, "basis[1].name: expected a basis name, got 7"),
    ("presentation", ("basis", 1, "name"), "e1", "basis: basis names must be unique"),
    ("presentation", ("basis", 1, "name"), "2e", "basis: invalid basis name: '2e'"),
    ("presentation", ("basis", 1, "deg"), DROP, "missing field basis[1].deg"),
    ("presentation", ("basis", 1), {}, "missing field basis[1].name"),
    ("presentation", ("basis", 1), {"name": 2}, "basis[1].name: expected a basis name, got 2"),
    ("presentation", ("basis", 1, "deg"), 1, "basis[1].deg: expected a list"),
    ("presentation", ("basis", 2, "deg", 1), "1", "basis[2].deg[1]: expected an integer, got '1'"),
    ("presentation", ("basis", 2, "deg", 0), False, "basis[2].deg[0]: expected an integer, got False"),
    ("presentation", ("basis", 2, "deg"), [0], "basis: element needs 2 coordinates, got 1"),
    # Product rules and their components.
    ("presentation", ("products",), DROP, "missing field products"),
    ("presentation", ("products",), [], "products: expected an object"),
    ("presentation", ("products", "dot"), {}, "products.dot: expected a list of rules"),
    ("presentation", ("products", "dot", 1), ["e2", "e2"],
     "products.dot[1]: expected [left, right, [[name, scalar], ...]]"),
    ("presentation", ("products", "dot", 1, 2), "e1",
     "products.dot[1]: expected [left, right, [[name, scalar], ...]]"),
    ("presentation", ("products", "dot", 1, 0), 2, "products.dot[1]: expected a basis name, got 2"),
    ("presentation", ("products", "dot", 1, 1), "e9", "products.dot[1]: unknown basis element 'e9'"),
    ("presentation", ("products", "dot", 1), ["e8", "e9", []], "products.dot[1]: unknown basis element 'e8'"),
    ("presentation", ("products", "dot", 1, 2, 1), ["e9", 1.5], "products.dot[1] component 1: unknown basis element 'e9'"),
    ("presentation", ("products", "dot", 1, 2, 1), ["e1"], "products.dot[1] component 1: expected [name, scalar]"),
    ("presentation", ("products", "dot", 1, 2, 1, 0), None,
     "products.dot[1] component 1: expected a basis name, got None"),
    ("presentation", ("products", "dot", 1, 2, 1, 0), "e9",
     "products.dot[1] component 1: unknown basis element 'e9'"),
    ("presentation", ("products", "dot", 1, 2, 1, 1), 1.5,
     "products.dot[1] component 1: expected an integer or a scalar string, got 1.5"),
    ("presentation", ("products", "dot", 1, 2, 1, 1), "mu",
     "products.dot[1] component 1: undeclared name 'mu' at position 0"),
    ("presentation", ("products", "dot", 1, 2, 1, 1), "1/0",
     "products.dot[1] component 1: zero denominator"),
    ("presentation", ("products", "dot", 0, 2, 0, 0), "e1", NOT_GRADED),
    # The twist: entries, shape and homogeneity.
    ("presentation", ("alpha",), 1, "alpha: expected a row-major matrix"),
    ("presentation", ("alpha", 1), "0", "alpha: expected a row-major matrix"),
    ("presentation", ("alpha", 1, 1), 2.0, "alpha[1][1]: expected an integer or a scalar string, got 2.0"),
    ("presentation", ("alpha", 2, 0), True, "alpha[2][0]: expected an integer or a scalar string, got True"),
    ("presentation", ("alpha", 0, 2), "1 +", "alpha[0][2]: unexpected end of input in '1 +'"),
    ("presentation", ("alpha", 2), ["0", "0"], "alpha: matrix must be 3x3 row-major"),
    ("presentation", ("alpha", 1), ["0", "1"], "alpha: matrix must be 3x3 row-major"),
    ("presentation", ("alpha", 1), ["0", "1", "0", "x"], "alpha[1][3]: undeclared name 'x' at position 0"),
    ("presentation", ("alpha",), [["1"], ["0", 0.0]], "alpha[1][1]: expected an integer or a scalar string, got 0.0"),
    ("presentation", ("alpha", 2), ["0", "0", "1", "0"], "alpha: matrix must be 3x3 row-major"),
    ("presentation", ("alpha",), [["1", "0", "0"], ["0", "1", "0"]], "alpha: matrix must be 3x3 row-major"),
    ("presentation", ("alpha", 1, 0), "sqrt2", "alpha: map is not homogeneous of degree (0, 0): e1 -> e2"),
    # The module block.
    ("presentation", ("module",), [], "module: expected an object"),
    ("presentation", ("module", "basis"), DROP, "missing field module.basis"),
    ("presentation", ("module", "basis", 0, "name"), DROP, "missing field module.basis[0].name"),
    ("presentation", ("module", "basis", 1, "deg", 0), 1.5, "module.basis[1].deg[0]: expected an integer, got 1.5"),
    ("presentation", ("module", "beta"), DROP, "missing field module.beta"),
    ("presentation", ("module", "beta", 0, 0), "x", "module.beta[0][0]: undeclared name 'x' at position 0"),
    ("presentation", ("module", "beta", 1), ["0"], "module.beta: matrix must be 2x2 row-major"),
    ("presentation", ("module", "actions"), DROP, "missing field module.actions"),
    ("presentation", ("module", "actions"), [], "module.actions: expected an object"),
    ("presentation", ("module", "actions", "q"), {}, "module.actions.q: unknown action role"),
    ("presentation", ("module", "actions", "s"), [], "module.actions.s: expected an object"),
    ("presentation", ("module", "actions", "s", "e1", 1, 1), None,
     "module.actions.s.e1[1][1]: expected an integer or a scalar string, got None"),
    ("presentation", ("module", "actions", "s", "e2", 0), ["1"], "module.actions.s.e2: matrix must be 2x2 row-major"),
    ("presentation", ("module", "actions", "s", "e2", 0, 0), "-3",
     "module.actions.s.e2: map is not homogeneous of degree (1, 0): v1 -> v1"),
    ("presentation", ("module", "actions", "s", "e1", 1, 0), "1",
     "module.actions.s.e1: map is not homogeneous of degree (0, 0): v1 -> v2"),
    # Both sides of a matched pair and its action objects.
    ("matched_pair", ("a",), DROP, "missing field a"),
    ("matched_pair", ("a", "format"), 2, "a.format: unsupported version 2"),
    ("matched_pair", ("a", "bichar", 0, 0), 1.5, "a.bichar[0][0]: expected an integer, got 1.5"),
    ("matched_pair", ("a", "basis", 1, "deg", 0), "1", "a.basis[1].deg[0]: expected an integer, got '1'"),
    ("matched_pair", ("a", "products", "dot", 0, 1), "y1", "a.products.dot[0]: unknown basis element 'y1'"),
    ("matched_pair", ("b", "group", "free"), None, "b.group.free: expected an integer, got None"),
    ("matched_pair", ("b", "basis", 0, "name"), 3, "b.basis[0].name: expected a basis name, got 3"),
    ("matched_pair", ("b", "products", "dot", 0, 2, 0), "y1", "b.products.dot[0] component 0: expected [name, scalar]"),
    ("matched_pair", ("b", "products", "dot", 0, 2, 0, 1), "z",
     "b.products.dot[0] component 0: undeclared name 'z' at position 0"),
    ("matched_pair", ("actions_a_on_b",), DROP, "missing field actions_a_on_b"),
    ("matched_pair", ("actions_a_on_b", "s", "x1", 0, 0), 2.5,
     "actions_a_on_b.s.x1[0][0]: expected an integer or a scalar string, got 2.5"),
    ("matched_pair", ("actions_a_on_b", "s", "x2"), [["1"]],
     "actions_a_on_b.s.x2: map is not homogeneous of degree (1,): y1 -> y1"),
    ("matched_pair", ("actions_b_on_a", "s", "y1"), [["1", "0"]], "actions_b_on_a.s.y1: matrix must be 2x2 row-major"),
    ("matched_pair", ("actions_b_on_a", "s", "y1", 1, 0), "4",
     "actions_b_on_a.s.y1: map is not homogeneous of degree (0,): x1 -> x2"),
    ("matched_pair", ("actions_b_on_a", "q"), {}, "actions_b_on_a.q: unknown action role"),
    # Sides over different grading contexts, refused before any action is read.
    ("matched_pair_unlisted", ("b",), _SIDE_B_Z2_SQUARED, OTHER_CONTEXT),
    ("matched_pair", ("b",), _SIDE_B_Z2_SQUARED, OTHER_CONTEXT),
    ("matched_pair", ("b",), _SIDE_B_Z3, OTHER_CONTEXT),
    ("matched_pair", ("b", "bichar", 0, 0), 1, OTHER_CONTEXT),
    # A --map file over the presentation.
    ("map", (), [], "document: expected an object"),
    ("map", ("map",), DROP, "missing field map"),
    ("map", ("map",), {}, "map: expected a row-major matrix"),
    ("map", ("map", 0, 0), [1], "map[0][0]: expected an integer or a scalar string, got [1]"),
    ("map", ("map", 2, 2), "lambda1 *", "map[2][2]: unexpected end of input in 'lambda1 *'"),
    ("map", ("map", 0), ["1", "0"], "map: matrix must be 3x3 row-major"),
    ("map", ("map", 1, 0), "1", "map: map is not homogeneous of degree (0, 0): e1 -> e2"),
]


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _load(kind, doc, tmp_path):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    if kind == "presentation":
        return load_presentation_file(path)
    if kind.startswith("matched_pair"):
        return load_matched_pair_file(path)
    base = tmp_path / "base.json"
    base.write_text(json.dumps(PRESENTATION))
    presentation, _ = load_presentation_file(base)
    return load_linear_map(path, presentation)


BASES = {
    "presentation": PRESENTATION,
    "matched_pair": MATCHED_PAIR,
    "matched_pair_unlisted": MATCHED_PAIR_UNLISTED,
    "map": MAP,
}


@pytest.mark.parametrize("kind", sorted(BASES))
def test_unmutated_documents_load(kind, tmp_path):
    assert _load(kind, BASES[kind], tmp_path) is not None


@pytest.mark.parametrize(
    "kind, path, value, message",
    REFUSALS,
    ids=[f"{kind}:{'.'.join(map(str, path)) or 'root'}={'drop' if value is DROP else value!r}"
         for kind, path, value, _ in REFUSALS],
)
def test_refusal_text(kind, path, value, message, tmp_path):
    with pytest.raises(LoadError) as caught:
        _load(kind, _mutated(BASES[kind], path, value), tmp_path)
    assert str(caught.value) == message
