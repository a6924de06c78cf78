"""Bimodules checked as their semidirect sums, and matched pairs as their
doubles.

A bimodule is a module whose semidirect sum is an algebra of the kind, and a
matched pair two algebras whose double is one, so ``check_bimodule`` and
``check_matched_pair`` are the kind's suite on the sum or double.  Four
trivially graded pairs pin verdicts that checks by side conditions got
wrong: a genuine Novikov split, a Novikov and an HNP pair whose doubles
fail an identity, and an assoc pair whose side fails its own suite.  The
bimodule twin of the last, a zero module over that same side, is refused
too.  Properties over random sides, with zero or drawn products, over
fixtures with a bumped structure constant, and over every fixture's
regular bundle and its identity pullback check that a verdict and its
witnesses are the suite's on the sum or double, and (but for the fixtures)
the dense oracle's.
"""

import json
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import homcolor as hc
from homcolor.constructions import (
    MATCHED_PAIR_TABLE,
    MatchedPairData,
    MatchedPairKind,
    double_suite_kind,
)
from homcolor.core import AlgebraPresentation, GradedSpace, LinearMap
from homcolor.grading import super_z2, z2xz2_sympl
from homcolor.reports import PreconditionError
from homcolor.representations import (
    BIMODULE_TABLE,
    ActionBundle,
    BimoduleKind,
    pullback_bundle,
    regular_bundle,
    slot_actions,
)
from homcolor.scalars import ScalarContext
from homcolor.serialize import LoadError, load_matched_pair_file, load_presentation_file

from tests.conftest import FIXTURES, load
from tests.dense_oracle import bimodule_references, matched_pair_references
from tests.test_compiled_conditions import _perturbed, assert_checks_match
from tests.util import graded_targets, perturb


def _presentation(names, products):
    return {
        "format": 1, "group": {"torsion": [], "free": 0}, "bichar": [],
        "basis": [{"name": n, "deg": []} for n in names], "products": products,
    }


# The four documents of the CI smoke step.  With A = span{x0}: a Novikov
# algebra split into two subalgebras (x0 a1 = x0 - 2 a0, a1 a1 = -a0 + a1),
# a Novikov pair whose double fails NOVIKOV_RCOMM at (a1, x0, a1), and an HNP
# pair with zero products whose double fails HNP_COMPAT_1 at (x0, x0, v0).
# With A = span{x0, x1}, x0.x1 = x1, and zero actions: an assoc pair whose
# side A, and so its double, fails EPS_COMM at (x0, x1).
DOCUMENTS = {
    "nov_split": {
        "a": _presentation(["x0"], {"dot": []}),
        "b": _presentation(["a0", "a1"], {"dot": [["a1", "a1", [["a0", "-1"], ["a1", "1"]]]]}),
        "actions_a_on_b": {"l": {"x0": [["0", "-2"], ["0", "0"]]}, "r": {}},
        "actions_b_on_a": {"l": {}, "r": {"a1": [["1"]]}},
    },
    "nov_rcomm": {
        "a": _presentation(["x0"], {"dot": []}),
        "b": _presentation(["a0", "a1"], {"dot": [["a1", "a1", [["a1", "1"]]]]}),
        "actions_a_on_b": {"l": {}, "r": {"x0": [["0", "2"], ["0", "0"]]}},
        "actions_b_on_a": {"l": {}, "r": {}},
    },
    "hnp_limit": {
        "a": _presentation(["x0"], {"dot": [], "diamond": []}),
        "b": _presentation(["v0", "v1"], {"dot": [], "diamond": []}),
        "actions_a_on_b": {
            "s": {"x0": [["0", "0"], ["-1", "0"]]}, "l": {"x0": [["2", "1"], ["0", "0"]]}, "r": {},
        },
        "actions_b_on_a": {"s": {}, "l": {}, "r": {}},
    },
    "assoc_side": {
        "a": _presentation(["x0", "x1"], {"dot": [["x0", "x1", [["x1", "1"]]]]}),
        "b": _presentation(["y0"], {"dot": []}),
        "actions_a_on_b": {"s": {}},
        "actions_b_on_a": {"s": {}},
    },
}


def _document(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(DOCUMENTS[name]))
    return load_matched_pair_file(path)


def _failed(report):
    return {c.check: (c.witness, c.defect) for c in report.checks if not c.passed}


def test_a_genuine_novikov_split_is_a_matched_pair(tmp_path):
    pair = _document(tmp_path, "nov_split")
    report = hc.check_matched_pair(pair, MatchedPairKind.NOVIKOV)
    assert report.passed, report.describe()
    double = hc.matched_pair_double(pair, MatchedPairKind.NOVIKOV)
    assert hc.run_suite(double, hc.StructureKind.HOM_NOVIKOV).passed


def test_a_novikov_pair_whose_double_fails_right_commutativity_is_refused(tmp_path):
    pair = _document(tmp_path, "nov_rcomm")
    report = hc.check_matched_pair(pair, MatchedPairKind.NOVIKOV)
    assert _failed(report) == {"NOVIKOV_RCOMM": (("a1", "x0", "a1"), (("a0", "-2"),))}
    with pytest.raises(PreconditionError, match="matched-pair conditions fail"):
        hc.matched_pair_double(pair, MatchedPairKind.NOVIKOV)


def test_an_hnp_pair_is_checked_under_the_whole_hnp_bimodule_kind(tmp_path):
    pair = _document(tmp_path, "hnp_limit")
    report = hc.check_matched_pair(pair, MatchedPairKind.HNP)
    assert _failed(report) == {
        "HNP_COMPAT_1": (("x0", "x0", "v0"), (("v1", "2"),)),
        "HNP_COMPAT_2": (("x0", "v0", "x0"), (("v0", "1"), ("v1", "-2"))),
    }
    with pytest.raises(PreconditionError, match="matched-pair conditions fail"):
        hc.matched_pair_double(pair, MatchedPairKind.HNP)


def test_a_pair_whose_side_fails_its_own_suite_is_refused(tmp_path):
    pair = _document(tmp_path, "assoc_side")
    assert not hc.run_suite(pair.a, hc.StructureKind.EPS_COMM_ASSOC).passed
    report = hc.check_matched_pair(pair, MatchedPairKind.ASSOC)
    assert _failed(report) == {
        "EPS_COMM": (("x0", "x1"), (("x1", "1"),)),
        "HOM_ASSOC": (("x0", "x0", "x1"), (("x1", "1"),)),
    }
    with pytest.raises(PreconditionError, match="matched-pair conditions fail"):
        hc.matched_pair_double(pair, MatchedPairKind.ASSOC)


# -- passes iff the sum or double passes ----------------------------------------

_GRADINGS = st.sampled_from([super_z2, z2xz2_sympl])
_entry = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 2])
_twist = st.sampled_from([1, -1, 2, 0])


@st.composite
def zero_side(draw, group, bichar, ctx, prefix, roles):
    """1 to 3 basis elements of drawn degrees, the zero product in every
    role, and a drawn diagonal twist."""
    n = draw(st.integers(1, 3))
    degrees = [[draw(st.integers(0, 1)) for _ in range(group.rank)] for _ in range(n)]
    space = GradedSpace(group, [f"{prefix}{i}" for i in range(n)], degrees)
    alpha = LinearMap(space, space, ctx, [
        {i: ctx.scalar(c)} if (c := draw(_twist)) else {} for i in range(n)
    ])
    products = {role: hc.BilinearProduct(space, ctx, {}) for role in roles}
    return AlgebraPresentation(space, bichar, ctx, products, alpha)


def _actions(draw, acting, module, ctx, names):
    """Per action name, one drawn graded operator per acting basis element;
    half the names act by zero, so that a few conditions hold while others
    fail."""
    out = {}
    for name in names:
        family = []
        zero = draw(st.booleans())
        for i in range(acting.dim):
            shift = acting.degree(i)
            columns = [{} for _ in range(module.dim)]
            for col, row in product(range(module.dim), repeat=2):
                if zero or module.degree(row) != module.group.add(module.degree(col), shift):
                    continue
                if c := draw(_entry):
                    columns[col][row] = ctx.scalar(c)
            family.append(LinearMap(module, module, ctx, columns, shift))
        out[name] = family
    return out


def _drawn_products(draw, side, roles):
    """``side`` with drawn graded structure constants in every role."""
    n, ctx = side.dim, side.context
    products = {}
    for role in roles:
        entries: dict = {}
        for i, j in product(range(n), repeat=2):
            for k in graded_targets(side, i, j):
                if c := draw(_entry):
                    entries.setdefault((i, j), {})[k] = ctx.scalar(c)
        products[role] = hc.BilinearProduct(side.space, ctx, entries)
    return side.with_products(products)


def assert_judged_by_the_double(pair, kind):
    """``check_matched_pair`` is the double's suite, and gives the dense
    oracle's verdict, witness and defect for every member."""
    report = hc.check_matched_pair(pair, kind)
    suite = hc.run_suite(hc.matched_pair_double(pair, kind, force=True), double_suite_kind(kind))
    assert report.kind == f"matched_pair[{kind.value}]"
    assert [c.to_dict() for c in report.checks] == [c.to_dict() for c in suite.checks]
    assert_checks_match(report, matched_pair_references(pair, kind))


@settings(max_examples=1000)
@given(grading=_GRADINGS, kind=st.sampled_from(list(MatchedPairKind)), payload=st.data())
def test_a_pair_passes_iff_its_double_does(grading, kind, payload):
    # Each side has the zero product or drawn products, which mostly fail
    # the side's own suite.
    draw = payload.draw
    group, bichar = grading()
    ctx = ScalarContext()
    slots = BIMODULE_TABLE[MATCHED_PAIR_TABLE[kind]].slots
    roles = sorted(set(slots.values()))
    a, b = (draw(zero_side(group, bichar, ctx, prefix, roles)) for prefix in "xy")
    a, b = (_drawn_products(draw, side, roles) if draw(st.booleans()) else side for side in (a, b))
    names = slot_actions(slots)
    ab = ActionBundle(a.space, b.space, b.alpha, ctx, _actions(draw, a.space, b.space, ctx, names))
    ba = ActionBundle(b.space, a.space, a.alpha, ctx, _actions(draw, b.space, a.space, ctx, names))
    assert_judged_by_the_double(MatchedPairData(a, b, ab, ba), kind)


# Algebras with nonzero products that pass their kind's suite.
PASSING = {
    BimoduleKind.ASSOC_BIMODULE: ("assoc_3dim.json",),
    BimoduleKind.NOVIKOV_BIMODULE: ("novikov_3dim.json", "novikov_4dim.json"),
    BimoduleKind.LIE_REP: ("gd_4dim.json", "gd_multiplicative_4dim.json"),
    BimoduleKind.HNP_BIMODULE: ("hnp_4dim.json", "poly_deriv_3dim.json"),
    BimoduleKind.GD_REP: ("gd_4dim.json", "gd_multiplicative_4dim.json"),
}


@settings(max_examples=100)
@given(kind=st.sampled_from(list(MatchedPairKind)), payload=st.data())
def test_a_pair_with_a_bumped_fixture_side_is_judged_by_its_double(kind, payload):
    # A fixture that passes its suite paired with itself, one side with one
    # structure constant bumped, acting on each other by their regular
    # actions (maybe perturbed) or by zero.
    draw = payload.draw
    bimodule = MATCHED_PAIR_TABLE[kind]
    A = load(draw(st.sampled_from(PASSING[bimodule])))
    role = draw(st.sampled_from(sorted(set(BIMODULE_TABLE[bimodule].slots.values()))))
    i, j = draw(st.integers(0, A.dim - 1)), draw(st.integers(0, A.dim - 1))
    k = draw(st.sampled_from(graded_targets(A, i, j)))
    bumped = perturb(A, role, i, j, k, draw(st.sampled_from([1, -1, 2, "1/2"])))
    a, b = (A, bumped) if draw(st.booleans()) else (bumped, A)
    bundles = []
    for _ in "ab":
        bundle = regular_bundle(A, bimodule)
        if draw(st.booleans()):
            bundle = _perturbed(draw, bundle, A.space, twist=False)
        elif draw(st.booleans()):
            bundle = ActionBundle(A.space, A.space, A.alpha, A.context, {
                name: [LinearMap.zero(A.space, A.space, A.context, d) for d in A.space.degrees]
                for name in bundle.actions
            })
        bundles.append(bundle)
    assert_judged_by_the_double(MatchedPairData(a, b, *bundles), kind)


def assert_judged_by_the_sum(A, bundle, kind):
    """``check_bimodule`` is the suite of the semidirect sum, and gives the
    dense oracle's verdict, witness and defect for every member."""
    report = hc.check_bimodule(A, bundle, kind)
    total = hc.run_suite(hc.semidirect_sum(A, bundle, kind, force=True), BIMODULE_TABLE[kind].suite)
    assert report.kind == kind.value
    assert [c.to_dict() for c in report.checks] == [c.to_dict() for c in total.checks]
    assert_checks_match(report, bimodule_references(A, bundle, kind))


@settings(max_examples=300)
@given(grading=_GRADINGS, kind=st.sampled_from(list(BimoduleKind)), payload=st.data())
def test_a_bundle_passes_iff_its_semidirect_sum_does(grading, kind, payload):
    # A has the zero product or drawn products, which mostly fail its suite.
    draw = payload.draw
    group, bichar = grading()
    ctx = ScalarContext()
    slots = BIMODULE_TABLE[kind].slots
    roles = sorted(set(slots.values()))
    A = draw(zero_side(group, bichar, ctx, "x", roles))
    A = _drawn_products(draw, A, roles) if draw(st.booleans()) else A
    V = draw(zero_side(group, bichar, ctx, "v", []))
    actions = _actions(draw, A.space, V.space, ctx, slot_actions(slots))
    assert_judged_by_the_sum(A, ActionBundle(A.space, V.space, V.alpha, ctx, actions), kind)


def _fixture_kinds():
    """Every loadable fixture with each bimodule kind whose products it has."""
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            A, _ = load_presentation_file(path)
        except LoadError:
            continue  # the manifest, and the fixture that must not load
        out += [(path.name, kind) for kind in BimoduleKind
                if set(BIMODULE_TABLE[kind].slots.values()) <= set(A.roles)]
    return out


@pytest.mark.parametrize("pullback", [False, True], ids=["regular", "pullback"])
@pytest.mark.parametrize("name, kind", _fixture_kinds())
def test_every_fixture_bundle_is_judged_by_its_sum(name, kind, pullback):
    # The regular bundle, and its pullback along the identity map.
    A = load(name)
    if pullback:
        bundle = pullback_bundle(LinearMap.identity(A.space, A.context), A, A, kind)
    else:
        bundle = regular_bundle(A, kind)
    report = hc.check_bimodule(A, bundle, kind)
    total = hc.run_suite(hc.semidirect_sum(A, bundle, kind, force=True), BIMODULE_TABLE[kind].suite)
    assert [c.to_dict() for c in report.checks] == [c.to_dict() for c in total.checks]


def test_a_bundle_over_an_algebra_failing_its_suite_is_refused():
    # A = span{x0, x1} with x0.x1 = x1 is not eps-commutative, so no bundle
    # over it is a bimodule, not even the zero one: A (+) V fails EPS_COMM
    # at (x0, x1).
    A = hc.load_presentation(_presentation(["x0", "x1"], {"dot": [["x0", "x1", [["x1", "1"]]]]}))
    V = GradedSpace(A.space.group, ["v0"], [[]])
    kind = BimoduleKind.ASSOC_BIMODULE
    bundle = ActionBundle(A.space, V, LinearMap.identity(V, A.context), A.context, {
        "s": [LinearMap.zero(V, V, A.context, d) for d in A.space.degrees],
    })
    report = hc.check_bimodule(A, bundle, kind)
    assert _failed(report)["EPS_COMM"] == (("x0", "x1"), (("x1", "1"),))
    with pytest.raises(PreconditionError, match="bundle fails the bimodule conditions"):
        hc.semidirect_sum(A, bundle, kind)
    assert_judged_by_the_sum(A, bundle, kind)
