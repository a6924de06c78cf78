"""The evaluator forms kept on frozen objects: product rows, action rows,
twist images and sign tables.  Every check reads them and none mutates
them, so a check run twice on one loaded object gives equal reports, and
after the second run each form is the same object, with the same contents,
as after the first.  A bundle also keeps its semidirect sum with the
reports of the sum's suite, so checking it and then building the sum builds
and evaluates the sum once.
Each action is stored once, as rows: a regular bundle shares its product's
rows, and bundles, checks and sums build no operator per basis element."""

import pytest

from homcolor import core, representations
from homcolor.constructions import (
    MatchedPairData,
    MatchedPairKind,
    check_matched_pair,
    is_ideal,
    is_subalgebra,
    matched_pair_double,
    semidirect_sum,
)
from homcolor.core import AlgebraPresentation, LinearMap
from homcolor.identities import StructureKind, check_gi_identities, run_suite
from homcolor.reports import PreconditionError
from homcolor.representations import (
    BIMODULE_TABLE,
    SLOT_ACTIONS,
    ActionBundle,
    BimoduleKind,
    check_bimodule,
    pullback_bundle,
    regular_bundle,
)
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


# -- bimodule verdicts kept on the bundle ----------------------------------------


@pytest.fixture
def evaluations(monkeypatch):
    """The number of ``core.term_failures`` passes so far."""
    count = [0]
    inner = core.term_failures

    def counted(*args):
        count[0] += 1
        return inner(*args)

    monkeypatch.setattr(core, "term_failures", counted)
    return lambda: count[0]


def test_check_then_semidirect_evaluates_once(evaluations):
    A = load("hnp_4dim.json")
    bundle = regular_bundle(A, BimoduleKind.HNP_BIMODULE)
    report = check_bimodule(A, bundle, BimoduleKind.HNP_BIMODULE)
    assert report.passed and evaluations() == 1
    total = semidirect_sum(A, bundle, BimoduleKind.HNP_BIMODULE)
    assert total.dim == 2 * A.dim and evaluations() == 1
    assert check_bimodule(A, bundle, BimoduleKind.HNP_BIMODULE) == report
    assert evaluations() == 1


@pytest.mark.parametrize("other", ["equal presentation", "kind", "product roles"])
def test_other_presentation_kind_or_roles_evaluates_again(evaluations, other):
    A = load("hnp_4dim.json")
    kind = BimoduleKind.HNP_BIMODULE
    bundle = regular_bundle(A, kind)
    first = check_bimodule(A, bundle, kind)
    if other == "equal presentation":
        again = load("hnp_4dim.json")
        assert again == A and again is not A
        args = (again, bundle, kind)
    elif other == "kind":
        args = (A, bundle, BimoduleKind.ASSOC_BIMODULE)
    else:
        # The bundle's l and r act through diamond, renamed dot here.
        N = AlgebraPresentation(A.space, A.bichar, A.context, {"dot": A.products["diamond"]}, A.alpha)
        args = (N, bundle, BimoduleKind.NOVIKOV_BIMODULE)
    second = check_bimodule(*args)
    assert evaluations() == 2
    if other == "equal presentation":
        assert [c.to_dict() for c in second.checks] == [c.to_dict() for c in first.checks]
    assert check_bimodule(*args) == second
    assert evaluations() == 2


def test_failing_bundle_refusal_carries_the_checked_report(evaluations):
    P = load("poly_deriv_3dim.json")
    N = AlgebraPresentation(P.space, P.bichar, P.context, {"dot": P.products["diamond"]}, P.alpha)
    kind = BimoduleKind.NOVIKOV_BIMODULE
    bundle = regular_bundle(N, kind)
    doubled = dict(bundle.actions)
    doubled["r"] = tuple(
        LinearMap(N.space, N.space, N.context,
                  [{k: c + c for k, c in col} for col in op.columns], op.degree)
        for op in bundle.actions["r"]
    )
    bundle = ActionBundle(N.space, N.space, N.alpha, N.context, doubled)
    report = check_bimodule(N, bundle, kind)
    assert not report.passed
    with pytest.raises(PreconditionError) as refused:
        semidirect_sum(N, bundle, kind)
    assert refused.value.reports == (report,)
    assert evaluations() == 1


def test_separate_calls_return_separate_check_lists():
    A = load("gd_4dim.json")
    bundle = regular_bundle(A, BimoduleKind.GD_REP)
    first = check_bimodule(A, bundle, BimoduleKind.GD_REP)
    second = check_bimodule(A, bundle, BimoduleKind.GD_REP)
    assert first == second and first.checks is not second.checks
    kept = list(first.checks)
    first.checks.clear()
    assert second.checks == kept
    assert check_bimodule(A, bundle, BimoduleKind.GD_REP).checks == kept


# -- one stored form per action -------------------------------------------------

REGULAR = [
    (name, kind)
    for name in ("assoc_3dim.json", "novikov_3dim.json", "hnp_4dim.json", "gd_4dim.json")
    for kind in BimoduleKind
    if set(BIMODULE_TABLE[kind].slots.values()) <= set(load(name).roles)
]


@pytest.mark.parametrize("name, kind", REGULAR)
def test_regular_left_rows_are_the_product_rows(name, kind):
    A = load(name)
    bundle = regular_bundle(A, kind)
    for slot, role in BIMODULE_TABLE[kind].slots.items():
        assert bundle.row_cells(SLOT_ACTIONS[slot][0]) is A.product(role).row_cells


@pytest.fixture
def linear_maps(monkeypatch):
    """The number of ``LinearMap`` constructions so far, validated or
    frozen (graded by construction)."""
    count = [0]
    inner, frozen = LinearMap.__init__, LinearMap._frozen.__func__

    def counted(self, *args, **kwargs):
        count[0] += 1
        inner(self, *args, **kwargs)

    def counted_frozen(cls, *args, **kwargs):
        count[0] += 1
        return frozen(cls, *args, **kwargs)

    monkeypatch.setattr(LinearMap, "__init__", counted)
    monkeypatch.setattr(LinearMap, "_frozen", classmethod(counted_frozen))
    return lambda: count[0]


@pytest.fixture
def sum_calls(monkeypatch):
    """The arguments of each ``_direct_sum`` and ``run_suite`` call so far
    that builds or checks a semidirect sum or a double."""
    calls = {"_direct_sum": [], "run_suite": []}
    for fn, log in calls.items():
        inner = getattr(representations, fn)
        monkeypatch.setattr(representations, fn, lambda *a, inner=inner, log=log: log.append(a) or inner(*a))
    return calls


@pytest.mark.parametrize("name, kind", REGULAR)
def test_bundle_check_and_sum_build_no_operator(linear_maps, sum_calls, name, kind):
    # Check then sum builds the sum once and runs its suite once, for a
    # bundle that passes or one that fails (built with force); the one map
    # built per bundle is the sum's twist alpha (+) beta.
    A = load(name)
    f = LinearMap.identity(A.space, A.context)
    before = linear_maps()
    bundles = (regular_bundle(A, kind), pullback_bundle(f, A, A, kind))
    assert linear_maps() == before
    for n, bundle in enumerate(bundles, 1):
        report = check_bimodule(A, bundle, kind)
        total = semidirect_sum(A, bundle, kind, force=not report.passed)
        assert len(sum_calls["_direct_sum"]) == len(sum_calls["run_suite"]) == n
        assert sum_calls["run_suite"][-1][0] is total
        assert linear_maps() == before + n


def test_matched_pair_check_and_double_build_one_map_each(linear_maps):
    # Each builds the double once, and its one map is the double's twist.
    A = load("hnp_4dim.json")
    pair = MatchedPairData(A, A, *(regular_bundle(A, BimoduleKind.HNP_BIMODULE) for _ in "ab"))
    before = linear_maps()
    check_matched_pair(pair, MatchedPairKind.HNP)
    assert linear_maps() == before + 1
    matched_pair_double(pair, MatchedPairKind.HNP, force=True)
    assert linear_maps() == before + 2


@pytest.mark.parametrize("name, force", [
    ("hnp_4dim.json", False), ("hnp_4dim_perturbed.json", False), ("hnp_4dim_perturbed.json", True),
])
def test_double_is_built_once_and_checked_once(sum_calls, name, force):
    A = load(name)
    pair = MatchedPairData(A, A, *(regular_bundle(A, BimoduleKind.HNP_BIMODULE) for _ in "ab"))
    try:
        double = matched_pair_double(pair, MatchedPairKind.HNP, force=force)
    except PreconditionError as refused:
        assert refused.reports[0].kind == "matched_pair[hnp]"
        double = None
    assert (double is None) == (name == "hnp_4dim_perturbed.json" and not force)
    assert len(sum_calls["_direct_sum"]) == len(sum_calls["run_suite"]) == 1
    [(checked, _)] = sum_calls["run_suite"]
    assert double is None or checked is double
