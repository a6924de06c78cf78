"""Input format: round trips, determinism, and error reporting."""

import json

import pytest

import homcolor as hc
from homcolor.serialize import (
    LoadError,
    dump_matrix,
    dump_presentation,
    dump_presentation_file,
    load_bundle,
    load_matched_pair_file,
    load_presentation,
    load_presentation_file,
    substitute_presentation,
)


ALL_FIXTURES = [
    "assoc_3dim.json",
    "novikov_3dim.json",
    "novikov_4dim.json",
    "hnp_4dim.json",
    "hnp_4dim_perturbed.json",
    "hnp_transposed_4dim.json",
    "hnp_admissible_4dim.json",
    "hnp_admissible_multiplicative_4dim.json",
    "hnp_admissible_mult_synth_4dim.json",
    "gd_4dim.json",
    "hnp_to_gd_4dim.json",
    "gd_multiplicative_4dim.json",
    "zero_2dim.json",
    "poly_deriv_3dim.json",
]


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_round_trip(name, fixtures_dir):
    A, _ = load_presentation_file(fixtures_dir / name)
    doc = dump_presentation(A)
    B = load_presentation(doc)
    assert A == B


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_dump_is_byte_deterministic(name, fixtures_dir, tmp_path):
    A, _ = load_presentation_file(fixtures_dir / name)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    dump_presentation_file(A, first)
    dump_presentation_file(A, second)
    assert first.read_bytes() == second.read_bytes()


def test_construct_output_round_trips(hnp_admissible_4dim, tmp_path):
    T = hc.tensor_product(hnp_admissible_4dim, hnp_admissible_4dim)
    path = tmp_path / "tensor.json"
    dump_presentation_file(T, path)
    back, _ = load_presentation_file(path)
    assert back == T


def test_verbatim_mult_table_is_rejected(fixtures_dir):
    with pytest.raises(LoadError, match="not graded"):
        load_presentation_file(fixtures_dir / "hnp_admissible_multiplicative_4dim_verbatim.json")


class TestErrors:
    def test_json_syntax_error_names_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"group": {\n  "torsion": [2\n}\n')
        with pytest.raises(LoadError, match="line"):
            load_presentation_file(path)

    def test_missing_field_named(self):
        with pytest.raises(LoadError, match="basis"):
            load_presentation({"group": {"torsion": [2]}, "bichar": [[-1]], "products": {}})

    def test_unknown_basis_name_in_products(self):
        doc = {
            "group": {"torsion": [2]},
            "bichar": [[-1]],
            "basis": [{"name": "e1", "deg": [0]}],
            "products": {"dot": [["e1", "e9", [["e1", "1"]]]]},
        }
        with pytest.raises(LoadError, match="products.dot"):
            load_presentation(doc)

    def test_bad_scalar_names_field(self):
        doc = {
            "group": {"torsion": [2]},
            "bichar": [[-1]],
            "basis": [{"name": "e1", "deg": [0]}],
            "products": {"dot": [["e1", "e1", [["e1", "lambda9"]]]]},
        }
        with pytest.raises(LoadError, match=r"products.dot\[0\]"):
            load_presentation(doc)

    def test_unsupported_format_version(self):
        with pytest.raises(LoadError, match="format"):
            load_presentation({"format": 99})

    def test_bad_alpha_matrix(self):
        doc = {
            "group": {"torsion": [2]},
            "bichar": [[-1]],
            "basis": [{"name": "e1", "deg": [0]}, {"name": "e2", "deg": [1]}],
            "products": {"dot": []},
            "alpha": [["0", "1"], ["1", "0"]],
        }
        with pytest.raises(LoadError, match="alpha"):
            load_presentation(doc)


def _small_doc(**overrides):
    doc = {
        "group": {"torsion": [2]},
        "bichar": [[-1]],
        "basis": [{"name": "e1", "deg": [0]}, {"name": "e2", "deg": [1]}],
        "products": {"dot": [["e1", "e2", [["e2", "2"]]]]},
    }
    doc.update(overrides)
    return doc


class TestRefusals:
    """Inputs the loader used to accept inexactly or to crash on: each is a
    LoadError whose message names the field."""

    @pytest.mark.parametrize("value", [1.5, 2.0, True, None, [1]])
    def test_scalar_must_be_an_integer_or_a_string(self, value):
        with pytest.raises(LoadError, match=r"products\.dot\[0\] component 0: expected an integer"):
            load_presentation(_small_doc(products={"dot": [["e1", "e2", [["e2", value]]]]}))
        with pytest.raises(LoadError, match=r"alpha\[1\]\[1\]: expected an integer"):
            load_presentation(_small_doc(alpha=[[1, 0], [0, value]]))

    def test_integer_and_string_scalars_still_load(self):
        A = load_presentation(_small_doc(products={"dot": [["e1", "e2", [["e2", 2]]]]}))
        assert A == load_presentation(_small_doc())

    @pytest.mark.parametrize(
        "doc, field",
        [
            ([_small_doc()], "document"),
            (_small_doc(products=[["e1", "e2", [["e2", "2"]]]]), "products"),
            (_small_doc(roots=[2]), "roots"),
            (_small_doc(params=3), "params"),
            (_small_doc(params=[3]), r"params\[0\]"),
            (_small_doc(products={"dot": [["e1", "e2", 5]]}), r"products\.dot\[0\]"),
            (_small_doc(products={"dot": [["e1", ["e2"], []]]}), r"products\.dot\[0\]"),
            (_small_doc(basis=[{"name": 7, "deg": [0]}]), r"basis\[0\]\.name"),
            (_small_doc(basis=[{"name": "e1", "deg": 0}]), r"basis\[0\]\.deg"),
            (_small_doc(basis=[{"name": "e1", "deg": [0.5]}]), r"basis\[0\]\.deg\[0\]"),
            (_small_doc(group={"torsion": [2], "free": True}), r"group\.free"),
            (_small_doc(group=[2]), "group"),
            (_small_doc(bichar=[[-1.0]]), r"bichar\[0\]\[0\]"),
            (_small_doc(bichar=[-1]), r"bichar\[0\]"),
            (_small_doc(alpha=[1, 0]), "alpha"),
        ],
    )
    def test_malformed_fields_are_named(self, doc, field):
        with pytest.raises(LoadError, match=field):
            load_presentation(doc)

    @pytest.mark.parametrize("text", ["(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1"])
    def test_deep_scalar_text_is_refused(self, text):
        doc = _small_doc(products={"dot": [["e1", "e2", [["e2", text]]]]})
        with pytest.raises(LoadError, match=r"products\.dot\[0\] component 0: nesting deeper"):
            load_presentation(doc)

    def test_commutation_factor_axiom_is_checked(self):
        doc = {
            "group": {"free": 2},
            "bichar": [[1, -1], [1, 1]],
            "basis": [{"name": "e1", "deg": [1, 0]}],
            "products": {},
        }
        with pytest.raises(LoadError, match=r"^bichar: not a commutation factor on generators \(g0, g1\)"):
            load_presentation(doc)

    def test_factor_is_refused_before_the_basis_is_read(self):
        # Neither the basis nor the products are valid: the factor is named.
        doc = {"group": {"torsion": [3]}, "bichar": [[-1]], "basis": 7, "products": []}
        with pytest.raises(LoadError, match=r"^bichar: not bimultiplicative on generators \(g0, g0\)"):
            load_presentation(doc)

    def test_empty_role_name_names_products(self):
        with pytest.raises(LoadError) as caught:
            load_presentation(_small_doc(products={"": []}))
        assert str(caught.value) == "products: invalid role name: ''"

    def test_undecodable_files_are_load_errors(self, tmp_path):
        huge = tmp_path / "huge.json"
        huge.write_text('{"format": ' + "9" * 5000 + "}")
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        binary = tmp_path / "binary.json"
        binary.write_bytes(b'{"group": "\xff\xfe"}')
        for path in (huge, deep, binary, tmp_path / "absent.json"):
            with pytest.raises(LoadError, match=path.name):
                load_presentation_file(path)

    def test_module_block_fields_are_named(self, hnp_4dim):
        with pytest.raises(LoadError, match="module"):
            load_bundle([], hnp_4dim)
        doc = {"basis": [{"name": "v1", "deg": [0]}], "beta": [["1"]], "actions": {"s": []}}
        with pytest.raises(LoadError, match=r"module\.actions\.s"):
            load_bundle(doc, hnp_4dim)


def test_module_block_loads_and_checks(hnp_4dim, fixtures_dir):
    A, _ = load_presentation_file(fixtures_dir / "hnp_4dim.json")
    doc = {
        "basis": [{"name": n, "deg": list(d)} for n, d in zip(A.names, A.space.degrees)],
        "beta": dump_matrix(A.alpha),
        "actions": {
            "s": {n: dump_matrix(hc.regular_bundle(A, hc.BimoduleKind.ASSOC_BIMODULE).actions["s"][i])
                  for i, n in enumerate(A.names)},
        },
    }
    bundle = load_bundle(doc, A)
    assert hc.check_bimodule(A, bundle, hc.BimoduleKind.ASSOC_BIMODULE).passed


def test_module_action_of_missing_basis_defaults_to_zero(hnp_4dim):
    A = hnp_4dim
    doc = {
        "basis": [{"name": "v1", "deg": [0]}],
        "beta": [["1"]],
        "actions": {"s": {}},
    }
    bundle = load_bundle(doc, A)
    assert all(op.columns == ((),) for op in bundle.actions["s"])


def test_unknown_action_role_rejected(hnp_4dim):
    doc = {
        "basis": [{"name": "v1", "deg": [0]}],
        "beta": [["1"]],
        "actions": {"q": {}},
    }
    with pytest.raises(LoadError, match="unknown action role"):
        load_bundle(doc, hnp_4dim)


@pytest.mark.parametrize("actions, message", [
    ({"s": {"e1": [["x"]]}}, "actions_a_on_b.s.e1[0][0]: undeclared name 'x' at position 0"),
    ({"q": {}}, "actions_a_on_b.q: unknown action role"),
    ([], "actions_a_on_b: expected an object"),
    ({"s": []}, "actions_a_on_b.s: expected an object"),
])
def test_matched_pair_action_errors_name_the_document_path(assoc_3dim, tmp_path, actions, message):
    doc_a = dump_presentation(assoc_3dim)
    doc_b = {
        "group": doc_a["group"],
        "bichar": doc_a["bichar"],
        "basis": [{"name": "f1", "deg": [0]}],
        "products": {"dot": []},
        "roots": doc_a.get("roots", {}),
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(
        {"a": doc_a, "b": doc_b, "actions_a_on_b": actions, "actions_b_on_a": {"s": {}}}
    ))
    with pytest.raises(LoadError) as caught:
        load_matched_pair_file(path)
    assert str(caught.value) == message
    # The same document with a well-formed action object loads.
    path.write_text(json.dumps(
        {"a": doc_a, "b": doc_b, "actions_a_on_b": {"s": {}}, "actions_b_on_a": {"s": {}}}
    ))
    assert load_matched_pair_file(path).ab.module == load_presentation(doc_b).space


def _pair_side(group, bichar, products):
    rank = len(group.get("torsion", [])) + group.get("free", 0)
    return {
        "group": group,
        "bichar": bichar,
        "basis": [{"name": "f1", "deg": [0] * rank}],
        "products": products,
    }


@pytest.mark.parametrize("side", ["a", "b"])
@pytest.mark.parametrize("group, bichar, products, message", [
    ({"free": 2}, [[1, -1], [1, 1]], {"dot": []},
     "bichar: not a commutation factor on generators (g0, g1): eps(g0, g1) * eps(g1, g0) = -1"),
    ({"torsion": [3]}, [[-1]], {"dot": []},
     "bichar: not bimultiplicative on generators (g0, g0): eps(g0, g0) = -1 "
     "involves g0 of odd order 3"),
    ({"torsion": [2]}, [[-1]], {"": []}, "products: invalid role name: ''"),
], ids=["asymmetric", "odd-order", "empty-role"])
def test_matched_pair_side_errors_name_the_side(tmp_path, side, group, bichar, products, message):
    good = _pair_side(group, [[1] * len(bichar)] * len(bichar), {"dot": []})
    doc = {"a": good, "b": good, "actions_a_on_b": {}, "actions_b_on_a": {}}
    doc[side] = _pair_side(group, bichar, products)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(LoadError) as caught:
        load_matched_pair_file(path)
    assert str(caught.value) == f"{side}.{message}"
    doc[side] = good
    path.write_text(json.dumps(doc))
    assert load_matched_pair_file(path).a == load_presentation(good)


def test_substitution_spot_check(hnp_4dim):
    A = hnp_4dim
    spot = substitute_presentation(A, {"lambda1": "3/2", "lambda2": 2, "mu2": 0, "mu3": 5, "mu4": -1})
    assert spot.mul_basis("dot", 1, 1) == {0: A.context.parse("3/2")}
    assert spot.mul_basis("diamond", 1, 3) == {}
    assert hc.run_suite(spot, hc.StructureKind.HNP).passed
