"""Witness minimality of the scan checks that the dense oracle does not cover.

Each test gives one failing input to a family of checks and compares every
reported verdict, witness and defect with a brute-force enumeration written
here through the public ``mul``, ``LinearMap.apply`` and
``ActionBundle.act``: every failing tuple is built, then the smallest one
is taken.
"""

import json

import pytest

import homcolor as hc
from homcolor.constructions import MatchedPairData, MatchedPairKind
from homcolor.core import LinearMap, is_derivation, is_multiplicative, morphism_suite, vec_add, vec_sub
from homcolor.representations import ActionBundle, BimoduleKind, regular_bundle
from homcolor.serialize import load_presentation
from tests.conftest import FIXTURES
from tests.util import act_vec, assert_reports_failure, smallest_failure


def basis(A, i):
    return {i: A.context.one}


def signed(A, sign, vec):
    return vec if sign == 1 else {k: -s for k, s in vec.items()}


def diagonal(A, entries):
    n = A.dim
    return LinearMap.from_rows(
        A.space, A.space, A.context, [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )


def test_multiplicative_witness_on_the_ledger_fixture(hnp_mult_4dim):
    A = hnp_mult_4dim
    for role in A.roles:
        def defect(t):
            i, j = t
            image = A.alpha.apply(A.mul(role, basis(A, i), basis(A, j)))
            return vec_sub(image, A.mul(role, A.alpha.apply(basis(A, i)), A.alpha.apply(basis(A, j))))

        found = smallest_failure((A.dim, A.dim), defect)
        assert found is not None
        assert_reports_failure(is_multiplicative(A, role), found, (A.names, A.names), A.space)


def test_derivation_witness(hnp_4dim):
    A = hnp_4dim
    D = diagonal(A, [1, 0, 0, 0])
    for role in A.roles:
        def defect(t):
            i, j = t
            sign = A.eps_deg(D.degree, A.space.degree(i))
            rhs = vec_add(
                A.mul(role, D.apply(basis(A, i)), basis(A, j)),
                signed(A, sign, A.mul(role, basis(A, i), D.apply(basis(A, j)))),
            )
            return vec_sub(D.apply(A.mul(role, basis(A, i), basis(A, j))), rhs)

        found = smallest_failure((A.dim, A.dim), defect)
        assert found is not None
        assert_reports_failure(is_derivation(A, role, D), found, (A.names, A.names), A.space)


def test_morphism_product_and_twist_witnesses(hnp_4dim):
    A = hnp_4dim
    f = diagonal(A, [1, 1, 2, 1])
    suite = morphism_suite(f, A, A)
    assert [c.check for c in suite.checks] == [
        f"morphism:product[{role}]" for role in A.roles
    ] + ["morphism:twist"]
    for role, check in zip(A.roles, suite.checks):
        def defect(t):
            i, j = t
            image = f.apply(A.mul(role, basis(A, i), basis(A, j)))
            return vec_sub(image, A.mul(role, f.apply(basis(A, i)), f.apply(basis(A, j))))

        found = smallest_failure((A.dim, A.dim), defect)
        assert found is not None
        assert_reports_failure(check, found, (A.names, A.names), A.space)

    def twist_defect(t):
        (i,) = t
        return vec_sub(f.apply(A.alpha.apply(basis(A, i))), A.alpha.apply(f.apply(basis(A, i))))

    found = smallest_failure((A.dim,), twist_defect)
    assert found is not None
    assert_reports_failure(suite.checks[-1], found, (A.names,), A.space)


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
    assert_reports_failure(report, found, (A.names,) * len(found[0]), A.space)


def _reversed_polynomial_algebra():
    """The dot product of poly_deriv_3dim on the basis (t2, t, one), so the
    unit comes last in the scan order."""
    doc = json.loads((FIXTURES / "poly_deriv_3dim.json").read_text())
    doc["basis"].reverse()
    del doc["products"]["diamond"]
    return load_presentation(doc)


def _assoc_matched_pair_oracle(A, B, ab, ba):
    """ASSOC_BIMODULE, MP_ASSOC1 and MP_ASSOC2 for the actions of A on B,
    as maps from (x in A, a in B, b in B) to defects on B."""
    group = A.space.group
    eps = A.eps_deg

    def act_ab(x, v):
        return act_vec(ab, "s", x, v)

    def act_ba(y, v):
        return act_vec(ba, "s", y, v)

    def bimodule(t):
        x, y, v = t
        lhs = act_ab(A.mul("dot", basis(A, x), basis(A, y)), B.alpha.apply(basis(B, v)))
        return vec_sub(lhs, act_ab(A.alpha.apply(basis(A, x)), act_ab(basis(A, y), basis(B, v))))

    def mp(t, second):
        x, a, b = t
        dx, da, db = A.space.degree(x), B.space.degree(a), B.space.degree(b)
        ex, ea, eb = basis(A, x), basis(B, a), basis(B, b)
        beta_a, beta_b = B.alpha.apply(ea), B.alpha.apply(eb)
        t1 = B.mul("dot", beta_a, act_ab(ex, eb))
        t2 = act_ab(act_ba(eb, ex), beta_a)
        if not second:
            t1 = signed(A, eps(db, dx), t1)
            t2 = signed(A, eps(da, group.add(db, dx)), t2)
            t3 = signed(A, eps(group.add(da, db), dx), act_ab(A.alpha.apply(ex), B.mul("dot", ea, eb)))
            return vec_sub(vec_add(t1, t2), t3)
        t2 = signed(A, eps(da, group.add(dx, db)) * eps(dx, db), t2)
        t3 = signed(A, eps(da, dx), B.mul("dot", act_ab(ex, ea), beta_b))
        t4 = act_ab(act_ba(ea, ex), beta_b)
        return vec_sub(vec_add(t1, t2), vec_add(t3, t4))

    return {
        "ASSOC_BIMODULE": (bimodule, (A.names, A.names, B.names)),
        "MP_ASSOC1": (lambda t: mp(t, False), (A.names, B.names, B.names)),
        "MP_ASSOC2": (lambda t: mp(t, True), (A.names, B.names, B.names)),
    }


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
    report = hc.check_matched_pair(MatchedPairData(A, A, ab, ba), MatchedPairKind.ASSOC)
    oracles = {
        "ab": _assoc_matched_pair_oracle(A, A, ab, ba),
        "ba": _assoc_matched_pair_oracle(A, A, ba, ab),
    }
    failures = []
    for check in report.checks:
        direction, label = check.check.split(":")
        defect, axes = oracles[direction][label]
        found = smallest_failure(tuple(len(names) for names in axes), defect)
        assert_reports_failure(check, found, axes, A.space)
        if found is not None:
            failures.append(check.check)
    assert len(report.checks) == 6
    assert failures == ["ba:ASSOC_BIMODULE", "ab:MP_ASSOC1", "ba:MP_ASSOC1"]
