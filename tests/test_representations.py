"""Action bundles: bimodule checks on the semidirect sum, regular and pullback bundles."""

import pytest

import homcolor as hc
from homcolor.core import AlgebraPresentation, LinearMap
from homcolor.representations import (
    ActionBundle,
    BimoduleKind,
    check_bimodule,
    regular_bundle,
)
from homcolor.reports import PreconditionError
from tests.dense_oracle import bimodule_references
from tests.util import assert_reports_failure, smallest_failure


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


def _doubled_right_action(P):
    """The diamond of ``P`` renamed dot, and its regular Novikov bundle with
    the right action doubled."""
    N = AlgebraPresentation(P.space, P.bichar, P.context, {"dot": P.products["diamond"]}, P.alpha)
    bundle = regular_bundle(N, BimoduleKind.NOVIKOV_BIMODULE)
    doubled = ActionBundle(
        N.space, N.space, N.alpha, N.context,
        {"l": bundle.actions["l"], "r": scale_action(N, bundle.actions["r"], 2)},
    )
    return N, doubled


def test_doubled_right_action_fails_novikov_identities(poly_deriv_3dim):
    # N passes its suite, so each failure holds a module element of the sum.
    N, doubled = _doubled_right_action(poly_deriv_3dim)
    assert hc.run_suite(N, hc.StructureKind.HOM_NOVIKOV).passed
    report = check_bimodule(N, doubled, BimoduleKind.NOVIKOV_BIMODULE)
    assert [(c.check, c.witness, c.defect) for c in report.checks] == [
        ("NOVIKOV_LSYM", ("t", "one_v", "t"), (("t2_v", "-2"),)),
        ("NOVIKOV_RCOMM", ("one", "t", "t_v"), (("t2_v", "-1"),)),
    ]


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


def test_doubled_novikov_bundle_witnesses_are_minimal(poly_deriv_3dim):
    N, doubled = _doubled_right_action(poly_deriv_3dim)
    kind = BimoduleKind.NOVIKOV_BIMODULE
    report = check_bimodule(N, doubled, kind)
    references = bimodule_references(N, doubled, kind)
    assert [c.check for c in report.checks] == list(references)
    for check in report.checks:
        defect, sizes, names, space = references[check.check]
        found = smallest_failure(sizes, defect)
        assert found is not None
        assert_reports_failure(check, found, names, space)


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
