"""Action bundles: bimodule condition systems, regular and pullback bundles."""

import pytest

import homcolor as hc
from homcolor.core import AlgebraPresentation, LinearMap, vec_scale, vec_sub
from homcolor.representations import (
    BIMODULE_TABLE,
    ActionBundle,
    BimoduleKind,
    check_bimodule,
    regular_bundle,
    slot_actions,
)
from homcolor.reports import PreconditionError
from tests.util import act_vec, assert_reports_failure, operation_names, smallest_failure


def scale_action(A, ops, factor):
    s = A.context.scalar(factor)
    return tuple(
        LinearMap(A.space, A.space, A.context,
                  [{k: s * c for k, c in op.image(col).items()} for col in range(A.dim)],
                  op.degree)
        for op in ops
    )


def zero_bundle(A, module, beta, names):
    actions = {
        name: tuple(
            LinearMap.zero(module, module, A.context, A.space.degree(i))
            for i in range(A.dim)
        )
        for name in names
    }
    return ActionBundle(A.space, module, beta, A.context, actions)


REGULAR_CASES = [
    ("assoc_3dim", BimoduleKind.ASSOC_BIMODULE),
    ("novikov_3dim", BimoduleKind.NOVIKOV_BIMODULE),
    ("novikov_4dim", BimoduleKind.NOVIKOV_BIMODULE),
    ("hnp_4dim", BimoduleKind.HNP_BIMODULE),
    ("hnp_transposed_4dim", BimoduleKind.HNP_BIMODULE),
    ("poly_deriv_3dim", BimoduleKind.HNP_BIMODULE),
    ("gd_4dim", BimoduleKind.GD_REP),
    ("gd_mult_4dim", BimoduleKind.GD_REP),
]


@pytest.mark.parametrize("fixture_name,kind", REGULAR_CASES)
def test_regular_bundle_passes_matching_kind(fixture_name, kind, request):
    A = request.getfixturevalue(fixture_name)
    bundle = regular_bundle(A, kind)
    report = check_bimodule(A, bundle, kind)
    assert report.passed, report.describe()


def test_adjoint_representation_passes(novikov_3dim):
    lie = hc.commutator_bracket(novikov_3dim, "dot")
    adjoint = regular_bundle(lie, BimoduleKind.LIE_REP)
    assert check_bimodule(lie, adjoint, BimoduleKind.LIE_REP).passed


def test_zero_actions_pass_every_kind(hnp_4dim, gd_4dim):
    for A, kind, names in (
        (hnp_4dim, BimoduleKind.ASSOC_BIMODULE, ("s",)),
        (hnp_4dim, BimoduleKind.NOVIKOV_BIMODULE, ("l", "r")),
        (hnp_4dim, BimoduleKind.HNP_BIMODULE, ("s", "l", "r")),
        (gd_4dim, BimoduleKind.LIE_REP, ("rho",)),
        (gd_4dim, BimoduleKind.GD_REP, ("l", "r", "rho")),
    ):
        module = A.space
        bundle = zero_bundle(A, module, A.alpha, names)
        assert check_bimodule(A, bundle, kind).passed


def test_doubled_right_action_fails_cond2(poly_deriv_3dim):
    # frozen from a brute-force scan of the six conditions
    P = poly_deriv_3dim
    N = AlgebraPresentation(P.space, P.bichar, P.context, {"dot": P.products["diamond"]}, P.alpha)
    bundle = regular_bundle(N, BimoduleKind.NOVIKOV_BIMODULE)
    doubled = ActionBundle(
        N.space, N.space, N.alpha, N.context,
        {"l": bundle.actions["l"], "r": scale_action(N, bundle.actions["r"], 2)},
    )
    report = check_bimodule(N, doubled, BimoduleKind.NOVIKOV_BIMODULE)
    assert not report.passed
    by_name = {c.check: c for c in report.checks}
    assert not by_name["NOV_COND2"].passed
    assert by_name["NOV_COND2"].witness == ("t", "t", "one")
    assert by_name["NOV_COND2"].defect == (("t2", "-2"),)


def test_hnp_bimodule_subsumes_assoc_and_novikov(hnp_4dim):
    bundle = regular_bundle(hnp_4dim, BimoduleKind.HNP_BIMODULE)
    assert check_bimodule(hnp_4dim, bundle, BimoduleKind.HNP_BIMODULE).passed
    assert check_bimodule(hnp_4dim, bundle, BimoduleKind.ASSOC_BIMODULE).passed
    # Its l and r act through diamond: a Novikov bimodule of diamond renamed dot.
    A = hnp_4dim
    N = AlgebraPresentation(A.space, A.bichar, A.context, {"dot": A.products["diamond"]}, A.alpha)
    assert check_bimodule(N, bundle, BimoduleKind.NOVIKOV_BIMODULE).passed


def test_action_evenness_is_a_load_error(hnp_4dim):
    A = hnp_4dim
    # action of an even basis element must preserve module degrees
    bad = LinearMap.from_rows(A.space, A.space, A.context,
                              [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]],
                              degree=(1,))
    ops = [LinearMap.zero(A.space, A.space, A.context, A.space.degree(i)) for i in range(A.dim)]
    ops[1] = bad  # e2 is even, its action must have degree 0
    with pytest.raises(ValueError, match="shift module degrees"):
        ActionBundle(A.space, A.space, A.alpha, A.context, {"s": tuple(ops)})


def test_missing_action_role_rejected(hnp_4dim):
    bundle = regular_bundle(hnp_4dim, BimoduleKind.ASSOC_BIMODULE)
    with pytest.raises(ValueError, match="no action"):
        check_bimodule(hnp_4dim, bundle, BimoduleKind.HNP_BIMODULE)


def test_zero_algebra_regular_bundle_has_zero_actions(zero_2dim):
    bundle = regular_bundle(zero_2dim, BimoduleKind.HNP_BIMODULE)
    for family in bundle.actions.values():
        assert all(op.columns == ((), ()) for op in family)
    assert check_bimodule(zero_2dim, bundle, BimoduleKind.HNP_BIMODULE).passed


def _novikov_condition_oracle(N, M):
    """NOV_COND1..6 written out through the public product and actions:
    each maps (x, y, v) to its defect on the module."""
    one = N.context.one

    def e(i):
        return {i: one}

    def act(name, x, v):
        return act_vec(M, name, x, v)

    def eps_am(i, v):
        return N.eps_deg(N.space.degree(i), M.module.degree(v))

    def eps_ma(v, i):
        return N.eps_deg(M.module.degree(v), N.space.degree(i))

    def signed(sign, vec):
        return vec if sign == 1 else vec_scale(N.context.scalar(-1), vec)

    def parts(x, y, v):
        al, bv = N.alpha.apply, M.beta.apply(e(v))
        xy, yx = N.mul("dot", e(x), e(y)), N.mul("dot", e(y), e(x))
        return {
            "l(xy)b": act("l", xy, bv),
            "l(yx)b": act("l", yx, bv),
            "r(xy)b": act("r", xy, bv),
            "la(x)ly": act("l", al(e(x)), act("l", e(y), e(v))),
            "la(y)lx": act("l", al(e(y)), act("l", e(x), e(v))),
            "ra(y)lx": act("r", al(e(y)), act("l", e(x), e(v))),
            "la(x)ry": act("l", al(e(x)), act("r", e(y), e(v))),
            "ra(y)rx": act("r", al(e(y)), act("r", e(x), e(v))),
            "ra(x)ry": act("r", al(e(x)), act("r", e(y), e(v))),
        }

    def cond(number):
        def defect(t):
            x, y, v = t
            p = parts(x, y, v)
            if number == 1:
                lhs = vec_sub(p["l(xy)b"], p["la(x)ly"])
                return vec_sub(lhs, signed(N.eps(x, y), vec_sub(p["l(yx)b"], p["la(y)lx"])))
            if number == 2:
                lhs = vec_sub(p["ra(y)lx"], p["la(x)ry"])
                return vec_sub(lhs, signed(eps_am(x, v), vec_sub(p["ra(y)rx"], p["r(xy)b"])))
            if number == 3:
                lhs = vec_sub(p["ra(y)rx"], p["r(xy)b"])
                return vec_sub(lhs, signed(eps_ma(v, x), vec_sub(p["ra(y)lx"], p["la(x)ry"])))
            if number == 4:
                return vec_sub(p["l(xy)b"], signed(eps_am(y, v), p["ra(y)lx"]))
            if number == 5:
                return vec_sub(p["ra(y)lx"], signed(eps_ma(v, y), p["l(xy)b"]))
            return vec_sub(p["ra(y)rx"], signed(N.eps(x, y), p["ra(x)ry"]))

        return defect

    return {f"NOV_COND{k}": cond(k) for k in range(1, 7)}


def test_doubled_novikov_bundle_witnesses_are_minimal(poly_deriv_3dim):
    P = poly_deriv_3dim
    N = AlgebraPresentation(P.space, P.bichar, P.context, {"dot": P.products["diamond"]}, P.alpha)
    bundle = regular_bundle(N, BimoduleKind.NOVIKOV_BIMODULE)
    doubled = ActionBundle(
        N.space, N.space, N.alpha, N.context,
        {"l": bundle.actions["l"], "r": scale_action(N, bundle.actions["r"], 2)},
    )
    report = check_bimodule(N, doubled, BimoduleKind.NOVIKOV_BIMODULE)
    oracle = _novikov_condition_oracle(N, doubled)
    assert [c.check for c in report.checks] == list(oracle)
    axes = (N.names, N.names, doubled.module.names)
    failures = 0
    for check in report.checks:
        found = smallest_failure((N.dim, N.dim, doubled.module.dim), oracle[check.check])
        assert_reports_failure(check, found, axes, doubled.module)
        failures += found is not None
    assert failures == 4


class TestPullback:
    def test_identity_pullback_equals_regular(self, hnp_4dim):
        A = hnp_4dim
        ident = LinearMap.identity(A.space, A.context)
        pullback = hc.pullback_bundle(ident, A, A, BimoduleKind.HNP_BIMODULE)
        regular = regular_bundle(A, BimoduleKind.HNP_BIMODULE)
        assert pullback.actions == regular.actions
        assert pullback.beta == regular.beta

    def test_zero_map_into_zero_algebra(self, hnp_4dim):
        A = hnp_4dim
        from homcolor.core import BilinearProduct

        zero_products = {role: BilinearProduct(A.space, A.context, {}) for role in A.roles}
        Z = AlgebraPresentation(A.space, A.bichar, A.context, zero_products)
        zero_map = LinearMap.zero(A.space, A.space, A.context)
        bundle = hc.pullback_bundle(zero_map, A, Z, BimoduleKind.HNP_BIMODULE)
        for family in bundle.actions.values():
            assert all(op.columns == ((),) * A.dim for op in family)

    def test_morphism_twist_pullback_passes(self, gd_mult_4dim):
        A = gd_mult_4dim
        bundle = hc.pullback_bundle(A.alpha, A, A, BimoduleKind.GD_REP)
        assert check_bimodule(A, bundle, BimoduleKind.GD_REP).passed

    def test_hnp_pullback_through_multiplicative_twist(self, hnp_mult_synth_4dim):
        A = hnp_mult_synth_4dim
        assert hc.is_morphism(A.alpha, A, A).passed
        bundle = hc.pullback_bundle(A.alpha, A, A, BimoduleKind.HNP_BIMODULE)
        assert check_bimodule(A, bundle, BimoduleKind.HNP_BIMODULE).passed

    def test_nonmorphism_rejected_without_force(self, hnp_mult_4dim):
        A = hnp_mult_4dim
        with pytest.raises(PreconditionError):
            hc.pullback_bundle(A.alpha, A, A, BimoduleKind.HNP_BIMODULE)
        forced = hc.pullback_bundle(A.alpha, A, A, BimoduleKind.HNP_BIMODULE, force=True)
        assert set(forced.actions) == {"s", "l", "r"}


def test_dense_regular_bundles(poly_deriv_3dim):
    """The truncated-polynomial tables have no annihilator pattern, so every
    condition term is exercised with nonzero values."""
    P = poly_deriv_3dim
    bracket = hc.commutator_bracket(P, "diamond").products["bracket"]
    gd = AlgebraPresentation(
        P.space, P.bichar, P.context,
        {"dot": P.products["dot"], "bracket": bracket}, P.alpha,
    )
    assert hc.run_suite(gd, hc.StructureKind.HOM_GD).passed
    reg = regular_bundle(gd, BimoduleKind.GD_REP)
    assert check_bimodule(gd, reg, BimoduleKind.GD_REP).passed

    lie = AlgebraPresentation(P.space, P.bichar, P.context, {"bracket": bracket}, P.alpha)
    adjoint = regular_bundle(lie, BimoduleKind.LIE_REP)
    assert check_bimodule(lie, adjoint, BimoduleKind.LIE_REP).passed

    semi = hc.semidirect_sum(gd, reg, BimoduleKind.GD_REP)
    assert hc.run_suite(semi, hc.StructureKind.HOM_GD).passed


def test_regular_bundle_theorem_property(request):
    """Every fixture passing a structure suite has a regular bundle passing
    the matching bimodule kind."""
    pairs = [
        ("assoc_3dim", hc.StructureKind.EPS_COMM_ASSOC, BimoduleKind.ASSOC_BIMODULE),
        ("novikov_4dim", hc.StructureKind.HOM_NOVIKOV, BimoduleKind.NOVIKOV_BIMODULE),
        ("hnp_4dim", hc.StructureKind.HNP, BimoduleKind.HNP_BIMODULE),
        ("gd_4dim", hc.StructureKind.HOM_GD, BimoduleKind.GD_REP),
    ]
    for fixture_name, suite_kind, bim_kind in pairs:
        A = request.getfixturevalue(fixture_name)
        assert hc.run_suite(A, suite_kind).passed
        assert check_bimodule(A, regular_bundle(A, bim_kind), bim_kind).passed


@pytest.mark.parametrize("kind", list(BimoduleKind), ids=lambda k: k.value)
def test_bimodule_conditions_name_only_their_slots_and_actions(kind):
    # The algebra's products by slot, and the actions of those slots on V.
    entry = BIMODULE_TABLE[kind]
    allowed = {"a." + slot for slot in entry.slots} | {"ab." + name for name in slot_actions(entry.slots)}
    for condition in entry.conditions:
        assert operation_names(condition.terms) <= allowed, condition.label
