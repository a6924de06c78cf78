"""The evaluator forms kept on frozen objects: product rows, action rows,
twist images and sign tables.  Every check reads them and none mutates
them, so a check run twice on one loaded object gives equal reports, and
after the second run each form is the same object, with the same contents,
as after the first."""

import pytest

from homcolor.constructions import (
    MatchedPairData,
    MatchedPairKind,
    check_matched_pair,
    is_ideal,
    is_subalgebra,
)
from homcolor.identities import StructureKind, check_gi_identities, run_suite
from homcolor.representations import BimoduleKind, check_bimodule, regular_bundle
from homcolor.serialize import load_presentation_file
from tests.conftest import FIXTURES, load
from tests.test_golden_reports import applicable_pairs

POWERS = range(4)


def cached_forms(A, bundles=()) -> dict:
    """Every cached form that a check of ``A``, and of ``A`` acting through
    ``bundles``, can read, by a key naming it."""
    forms = {("rows", role): product.row_cells for role, product in A.products.items()}
    for b, bundle in enumerate(bundles):
        for name in bundle.actions:
            forms[("action rows", b, name)] = bundle.row_cells(name)
    for t, twist in enumerate([A.alpha] + [bundle.beta for bundle in bundles]):
        for p in POWERS:
            forms[("images", t, p)] = twist.images(p)
    spaces = [A.space] + [bundle.module for bundle in bundles]
    for r, rows in enumerate(spaces):
        for c, cols in enumerate(spaces):
            forms[("signs", r, c)] = A.bichar.table(rows.degrees, cols.degrees)
    forms["sign_table"] = A.sign_table()
    return forms


def thaw(form):
    """A copy of ``form`` made of new lists and dicts; scalars are immutable
    and are shared."""
    if isinstance(form, dict):
        return {key: thaw(value) for key, value in form.items()}
    if isinstance(form, tuple):
        return [thaw(value) for value in form]
    return form


def assert_rerun_shares_forms(build, check):
    """Run ``check(A, bundles)`` twice on one ``build()``; compare the forms
    after each run, and with those of a second ``build()`` that no check
    has read."""
    A, bundles = build()
    first = check(A, bundles).to_dict()
    forms = cached_forms(A, bundles)
    snapshot = thaw(forms)
    assert check(A, bundles).to_dict() == first
    again = cached_forms(A, bundles)
    unread = thaw(cached_forms(*build()))
    for key, form in forms.items():
        assert again[key] is form, key
        assert thaw(form) == snapshot[key] == unread[key], key


@pytest.mark.parametrize("name, kind", applicable_pairs())
def test_fixture_checks(name, kind):
    def build():
        return load_presentation_file(FIXTURES / name)[0], ()

    if kind == "gi":
        assert_rerun_shares_forms(build, lambda A, _: check_gi_identities(A))
    else:
        assert_rerun_shares_forms(build, lambda A, _: run_suite(A, StructureKind(kind)))


@pytest.mark.parametrize("name, kind", [
    ("hnp_4dim.json", BimoduleKind.HNP_BIMODULE),
    ("gd_4dim.json", BimoduleKind.GD_REP),
])
def test_regular_bundle_bimodule(name, kind):
    def build():
        A = load(name)
        return A, (regular_bundle(A, kind),)

    assert_rerun_shares_forms(build, lambda A, bundles: check_bimodule(A, *bundles, kind))


def test_self_matched_pair():
    def build():
        A = load("hnp_4dim.json")
        return A, tuple(regular_bundle(A, BimoduleKind.HNP_BIMODULE) for _ in "ab")

    def check(A, bundles):
        return check_matched_pair(MatchedPairData(A, A, *bundles), MatchedPairKind.HNP)

    assert_rerun_shares_forms(build, check)


@pytest.mark.parametrize("closure", [is_ideal, is_subalgebra])
@pytest.mark.parametrize("subset", [["e4"], ["e3"]])
def test_closures(closure, subset):
    def build():
        return load("hnp_admissible_multiplicative_4dim.json"), ()

    assert_rerun_shares_forms(build, lambda A, _: closure(A, subset))
