"""Witness minimality of the scan checks that the dense oracle does not cover.

Each test gives failing inputs to a family of checks, pinned or drawn by
hypothesis, and compares every reported verdict, witness and defect with a
brute-force enumeration written here through the public ``mul`` and
``LinearMap.apply``: every failing tuple is built, then the smallest one is
taken.  A matched pair's check is the suite of its double, so its
enumeration is the dense oracle's on that double
(``tests/dense_oracle.matched_pair_references``).
"""

import json
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import homcolor as hc
from homcolor.constructions import MatchedPairData, MatchedPairKind
from homcolor.core import (
    AlgebraPresentation,
    BilinearProduct,
    GradedSpace,
    LinearMap,
    is_derivation,
    is_multiplicative,
    morphism_suite,
    vec_add,
    vec_sub,
)
from homcolor.grading import trivial_grading
from homcolor.representations import ActionBundle, BimoduleKind, regular_bundle
from homcolor.scalars import ScalarContext
from homcolor.serialize import load_presentation
from tests.conftest import FIXTURES
from tests.test_properties import GRADINGS, pattern_algebra
from tests.dense_oracle import matched_pair_references
from tests.util import assert_reports_failure, smallest_failure


def basis(A, i):
    return {i: A.context.one}


def signed(A, sign, vec):
    return vec if sign == 1 else {k: -s for k, s in vec.items()}


def diagonal(A, entries):
    n = A.dim
    return LinearMap.from_rows(
        A.space, A.space, A.context, [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )


def product_arm(f, A, B, role):
    """f(x o_A y) - f(x) o_B f(y) on basis pairs of A: a morphism's product
    arm, and multiplicativity of f when B is A."""
    def defect(t):
        i, j = t
        image = f.apply(A.mul(role, basis(A, i), basis(A, j)))
        return vec_sub(image, B.mul(role, f.apply(basis(A, i)), f.apply(basis(A, j))))

    return defect


def twist_arm(f, A, B):
    """f(alpha_A(x)) - alpha_B(f(x)) on basis elements of A."""
    def defect(t):
        (i,) = t
        return vec_sub(f.apply(A.alpha.apply(basis(A, i))), B.alpha.apply(f.apply(basis(A, i))))

    return defect


def leibniz(A, role, D):
    """D(x o y) - D(x) o y - eps(d, x) x o D(y) on basis pairs."""
    def defect(t):
        i, j = t
        sign = A.eps_deg(D.degree, A.space.degree(i))
        rhs = vec_add(
            A.mul(role, D.apply(basis(A, i)), basis(A, j)),
            signed(A, sign, A.mul(role, basis(A, i), D.apply(basis(A, j)))),
        )
        return vec_sub(D.apply(A.mul(role, basis(A, i), basis(A, j))), rhs)

    return defect


def assert_morphism_witnesses(f, A, B):
    """Every arm of ``morphism_suite`` against the references; returns the
    failures found, or None, in the suite's order."""
    suite = morphism_suite(f, A, B)
    assert [c.check for c in suite.checks] == [
        f"morphism:product[{role}]" for role in A.roles
    ] + ["morphism:twist"]
    expected = [smallest_failure((A.dim, A.dim), product_arm(f, A, B, role)) for role in A.roles]
    expected.append(smallest_failure((A.dim,), twist_arm(f, A, B)))
    for check, found in zip(suite.checks, expected):
        assert_reports_failure(check, found, A.names, B.space)
    return expected


def test_multiplicative_witness_on_the_ledger_fixture(hnp_mult_4dim):
    A = hnp_mult_4dim
    for role in A.roles:
        found = smallest_failure((A.dim, A.dim), product_arm(A.alpha, A, A, role))
        assert found is not None
        assert_reports_failure(is_multiplicative(A, role), found, A.names, A.space)


def test_derivation_witness(hnp_4dim):
    A = hnp_4dim
    D = diagonal(A, [1, 0, 0, 0])
    for role in A.roles:
        found = smallest_failure((A.dim, A.dim), leibniz(A, role, D))
        assert found is not None
        assert_reports_failure(is_derivation(A, role, D), found, A.names, A.space)


def test_morphism_product_and_twist_witnesses(hnp_4dim):
    A = hnp_4dim
    expected = assert_morphism_witnesses(diagonal(A, [1, 1, 2, 1]), A, A)
    assert None not in expected


def _closure_failure(A, subset, two_sided):
    """(detail, index tuple, leak) of the first failing stage, or None:
    twist closure first, then the products in role order."""
    inside = {A.space.index(name) for name in subset}

    def leak(vec):
        return {k: s for k, s in vec.items() if k not in inside}

    def twist(t):
        (i,) = t
        return leak(A.alpha.apply(basis(A, i))) if i in inside else {}

    stages = [("twist closure", (A.dim,), twist)]
    for role in A.roles:
        def product(t, role=role):
            i, j = t
            relevant = (i in inside or j in inside) if two_sided else (i in inside and j in inside)
            return leak(A.mul(role, basis(A, i), basis(A, j))) if relevant else {}

        stages.append((f"product[{role}] closure", (A.dim, A.dim), product))
    for detail, sizes, defect in stages:
        found = smallest_failure(sizes, defect)
        if found is not None:
            return detail, found
    return None


@pytest.mark.parametrize(
    "fixture,subset,check",
    [
        ("hnp_mult_4dim", ["e4"], "ideal"),
        ("hnp_mult_4dim", ["e4"], "subalgebra"),
        ("hnp_4dim", ["e2", "e4"], "ideal"),
        ("gd_4dim", ["e2"], "subalgebra"),
    ],
)
def test_closure_witnesses(fixture, subset, check, request):
    A = request.getfixturevalue(fixture)
    check_fn = hc.is_ideal if check == "ideal" else hc.is_subalgebra
    report = check_fn(A, subset)
    expected = _closure_failure(A, subset, two_sided=check == "ideal")
    assert expected is not None
    detail, found = expected
    assert report.check == check
    assert report.detail == detail
    assert_reports_failure(report, found, A.names, A.space)


@st.composite
def homogeneous_map(draw, source, target, context, degree=None):
    """A map ``source`` -> ``target`` homogeneous of ``degree`` (default 0)
    with entries in -2..2 wherever the degrees allow one."""
    group = source.group
    degree = group.zero if degree is None else degree
    columns = []
    for i in range(source.dim):
        want = group.add(source.degree(i), degree)
        column = {}
        for j in range(target.dim):
            c = draw(st.integers(-2, 2)) if target.degree(j) == want else 0
            if c:
                column[j] = context.scalar(c)
        columns.append(column)
    return LinearMap(source, target, context, columns, degree)


@settings(max_examples=60)
@given(data=pattern_algebra(), payload=st.data())
def test_multiplicative_witnesses_of_random_maps(data, payload):
    """A map m is multiplicative for a role when the ``morphism:product``
    arm of ``morphism_suite(m, A, A)`` for that role passes."""
    A, _ = data
    m = payload.draw(homogeneous_map(A.space, A.space, A.context))
    reports = {c.check: c for c in morphism_suite(m, A, A).checks}
    for role in A.roles:
        found = smallest_failure((A.dim, A.dim), product_arm(m, A, A, role))
        report = reports[f"morphism:product[{role}]"]
        assert_reports_failure(report, found, A.names, A.space)


@settings(max_examples=60)
@given(
    grading=st.sampled_from(["super", "z2sq", "sympl"]),
    payload=st.data(),
)
def test_derivation_witnesses_of_nonzero_degree(grading, payload):
    """Derivations of nonzero degree d on Z2- and super-graded algebras,
    where the Leibniz sign eps(d, x) is -1 on part of the basis.  Besides
    the drawn map, each of its columns alone is checked: a map nonzero on
    column c only fails first at some (x, c), often where the sign is -1,
    so the sign decides the reported defect."""
    A, _ = payload.draw(pattern_algebra(grading=GRADINGS[grading]()))
    group = A.space.group
    nonzero = [c for c in product((0, 1), repeat=group.rank) if any(c)]
    d = group.element(payload.draw(st.sampled_from(nonzero)))
    D = payload.draw(homogeneous_map(A.space, A.space, A.context, d))
    columns = [
        [D.image(i) if i == c else {} for i in range(A.dim)] for c in range(A.dim)
    ]
    for D in [D] + [LinearMap(A.space, A.space, A.context, cols, d) for cols in columns]:
        for role in A.roles:
            found = smallest_failure((A.dim, A.dim), leibniz(A, role, D))
            assert_reports_failure(is_derivation(A, role, D), found, A.names, A.space)


def projection(A, Q):
    """The quotient map A -> Q: basis elements Q keeps go to themselves,
    the others to zero."""
    one = A.context.one
    columns = [{Q.space.index(name): one} if name in Q.names else {} for name in A.names]
    return LinearMap(A.space, Q.space, A.context, columns)


def test_morphism_witnesses_onto_a_quotient(gd_4dim):
    A = gd_4dim
    Q = hc.quotient(A, ["e4"])
    pi = projection(A, Q)
    assert assert_morphism_witnesses(pi, A, Q) == [None] * (len(A.roles) + 1)
    assert hc.is_morphism(pi, A, Q).passed
    doubled = [{k: A.context.scalar(2) * s for k, s in pi.image(0).items()}]
    perturbed = LinearMap(A.space, Q.space, A.context, doubled + [pi.image(i) for i in range(1, 4)])
    expected = assert_morphism_witnesses(perturbed, A, Q)
    assert expected[:-1] != [None] * len(A.roles)
    assert not hc.is_morphism(perturbed, A, Q).passed


@settings(max_examples=60)
@given(data=pattern_algebra(), payload=st.data())
def test_morphism_witnesses_of_perturbed_projections(data, payload):
    """The projection onto the quotient by the u-span, plus a random even
    map from A to the quotient."""
    A, n_u = data
    Q = hc.quotient(A, A.names[:n_u])
    pi = projection(A, Q)
    assert assert_morphism_witnesses(pi, A, Q) == [None] * (len(A.roles) + 1)
    delta = payload.draw(homogeneous_map(A.space, Q.space, A.context))
    columns = [vec_add(pi.image(i), delta.image(i)) for i in range(A.dim)]
    assert_morphism_witnesses(LinearMap(A.space, Q.space, A.context, columns), A, Q)


@settings(max_examples=60)
@given(data=pattern_algebra(), payload=st.data())
def test_closure_witnesses_of_random_subsets(data, payload):
    A, _ = data
    if payload.draw(st.booleans()):
        twist = payload.draw(homogeneous_map(A.space, A.space, A.context))
        A = A.with_products(A.products, alpha=twist)
    subset = [name for name in A.names if payload.draw(st.booleans())]
    for check, check_fn in (("ideal", hc.is_ideal), ("subalgebra", hc.is_subalgebra)):
        report = check_fn(A, subset)
        expected = _closure_failure(A, subset, two_sided=check == "ideal")
        assert report.check == check
        if expected is None:
            assert report.passed, report.describe()
            continue
        detail, found = expected
        assert report.detail == detail
        assert_reports_failure(report, found, A.names, A.space)


def test_closure_stage_order_beats_tuple_order():
    """span{e1, e3}: the twist leaks at (e3,), the product at (e1, e1), a
    smaller tuple; the twist stage comes first, so it is reported."""
    group, bichar = trivial_grading()
    ctx = ScalarContext()
    one = ctx.one
    space = GradedSpace(group, ["e1", "e2", "e3"], [group.zero] * 3)
    dot = BilinearProduct(space, ctx, {(0, 0): {1: one}})
    alpha = LinearMap(space, space, ctx, [{0: one}, {1: one}, {1: one}])
    A = AlgebraPresentation(space, bichar, ctx, {"dot": dot}, alpha)
    for check_fn in (hc.is_ideal, hc.is_subalgebra):
        report = check_fn(A, ["e1", "e3"])
        assert report.describe().split(": ", 1)[1] == (
            "FAIL  witness=(e3)  defect={e2: 1}  twist closure"
        )
    without_twist = A.with_products(A.products, alpha=LinearMap.identity(space, ctx))
    assert hc.is_subalgebra(without_twist, ["e1", "e3"]).describe() == (
        "subalgebra: FAIL  witness=(e1, e1)  defect={e2: 1}  product[dot] closure"
    )


def _reversed_polynomial_algebra():
    """The dot product of poly_deriv_3dim on the basis (t2, t, one), so the
    unit comes last in the scan order."""
    doc = json.loads((FIXTURES / "poly_deriv_3dim.json").read_text())
    doc["basis"].reverse()
    del doc["products"]["diamond"]
    return load_presentation(doc)


def test_matched_pair_witnesses():
    A = _reversed_polynomial_algebra()
    reg = regular_bundle(A, BimoduleKind.ASSOC_BIMODULE)
    two = A.context.scalar(2)
    doubled = tuple(
        LinearMap(A.space, A.space, A.context,
                  [{k: two * s for k, s in op.image(c).items()} for c in range(A.dim)], op.degree)
        for op in reg.actions["s"]
    )
    ab = ActionBundle(A.space, A.space, A.alpha, A.context, dict(reg.actions))
    ba = ActionBundle(A.space, A.space, A.alpha, A.context, {"s": doubled})
    pair = MatchedPairData(A, A, ab, ba)
    report = hc.check_matched_pair(pair, MatchedPairKind.ASSOC)
    references = matched_pair_references(pair, MatchedPairKind.ASSOC)
    failures = []
    for check in report.checks:
        defect, sizes, names, space = references[check.check]
        found = smallest_failure(sizes, defect)
        assert_reports_failure(check, found, names, space)
        if found is not None:
            failures.append(check.check)
    assert [c.check for c in report.checks] == ["EPS_COMM", "HOM_ASSOC"]
    assert failures == ["HOM_ASSOC"]
    assert report.checks[1].witness == ("t2", "one", "one_b")
