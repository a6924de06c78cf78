"""Constructions: commutators, twists, derived algebras, sums, doubles,
tensor products, quotients, and their theorem hypotheses."""

import hashlib
import json

import pytest

import homcolor as hc
from homcolor.constructions import (
    MATCHED_PAIR_TABLE,
    MatchedPairData,
    MatchedPairKind,
    double_suite_kind,
)
from homcolor.core import AlgebraPresentation, BilinearProduct, GradedSpace, LinearMap
from homcolor.reports import PreconditionError
from homcolor.identities import required_roles
from homcolor.representations import (
    BIMODULE_TABLE,
    SLOT_ACTIONS,
    ActionBundle,
    BimoduleKind,
    regular_bundle,
    slot_actions,
)
from homcolor.serialize import dump_presentation
from tests.conftest import load
from tests.util import act


class TestCommutator:
    def test_novikov_3dim_bracket_values(self, novikov_3dim):
        lie = hc.commutator_bracket(novikov_3dim, "dot")
        assert lie.mul_basis("bracket", 0, 1) == lie.vector({"e3": 2})
        assert lie.mul_basis("bracket", 1, 0) == lie.vector({"e3": -2})
        assert hc.run_suite(lie, hc.StructureKind.HOM_LIE).passed

    def test_transposed_pair_bracket_values(self, hnp_transposed_4dim):
        pair = hc.commutator_bracket(hnp_transposed_4dim, "diamond")
        assert pair.mul_basis("bracket", 1, 3) == pair.vector({"e3": -2})
        # skew symmetry forces [e4,e2] = -[e2,e4] (even-odd pair, sign +1)
        assert pair.mul_basis("bracket", 3, 1) == pair.vector({"e3": 2})
        assert pair.mul_basis("bracket", 3, 3) == pair.vector({"e1": 4})
        assert hc.run_suite(pair, hc.StructureKind.TRANSPOSED_POISSON).passed

    def test_commutative_product_gives_zero_bracket(self, assoc_3dim):
        lie = hc.commutator_bracket(assoc_3dim, "dot")
        assert lie.product("bracket").table == {}

    def test_gd_bracket_values(self, hnp_to_gd_4dim):
        gd = hc.commutator_bracket(hnp_to_gd_4dim, "diamond")
        ctx = gd.context
        assert gd.mul_basis("bracket", 1, 2) == {3: ctx.parse("lambda1 - lambda2")}
        assert gd.mul_basis("bracket", 2, 2) == {0: ctx.parse("2*lambda3")}
        assert hc.run_suite(gd, hc.StructureKind.HOM_GD).passed

    def test_role_collision_rejected(self, gd_4dim):
        with pytest.raises(ValueError, match="already has"):
            hc.commutator_bracket(gd_4dim, "dot", "bracket")


class TestYauTwist:
    def test_identity_twist_is_identity(self, hnp_4dim):
        ident = LinearMap.identity(hnp_4dim.space, hnp_4dim.context)
        assert hc.yau_twist(hnp_4dim, ident) == hnp_4dim

    def test_twist_by_scalar_morphism_preserves_suites(self, poly_deriv_3dim):
        A = poly_deriv_3dim
        m = LinearMap.from_rows(A.space, A.space, A.context,
                                [[1, 0, 0], [0, 3, 0], [0, 0, 9]])
        assert hc.is_morphism(m, A, A).passed
        twisted = hc.yau_twist(A, m)
        assert hc.run_suite(twisted, hc.StructureKind.HNP).passed
        novikov = AlgebraPresentation(
            A.space, A.bichar, A.context, {"dot": twisted.products["diamond"]}, twisted.alpha
        )
        assert hc.run_suite(novikov, hc.StructureKind.HOM_NOVIKOV).passed

    def test_twist_of_admissible_by_its_twist(self, hnp_mult_synth_4dim):
        A = hnp_mult_synth_4dim
        assert hc.is_morphism(A.alpha, A, A).passed
        twisted = hc.yau_twist(A, A.alpha)
        assert hc.run_suite(twisted, hc.StructureKind.ADMISSIBLE_HNP).passed
        assert twisted.alpha == A.alpha.power(2)

    def test_nonmorphism_rejected_unless_forced(self, novikov_3dim):
        A = novikov_3dim
        assert not hc.is_morphism(A.alpha, A, A).passed
        with pytest.raises(PreconditionError):
            hc.yau_twist(A, A.alpha)
        forced = hc.yau_twist(A, A.alpha, force=True)
        assert forced.mul_basis("dot", 0, 1) == A.alpha.apply(A.mul_basis("dot", 0, 1))

    def test_odd_map_refused_with_its_own_message(self, assoc_3dim):
        # e1 has degree 0, e2 and e3 degree 1: e1 -> e3, e2 -> e1, e3 -> e1
        # is odd and not a morphism; the odd zero map is a morphism.
        A, one = assoc_3dim, assoc_3dim.context.one
        odd = LinearMap(A.space, A.space, A.context, [{2: one}, {0: one}, {0: one}], degree=(1,))
        zero = LinearMap.zero(A.space, A.space, A.context, degree=(1,))
        with pytest.raises(PreconditionError, match="twist map is not a verified morphism"):
            hc.yau_twist(A, odd)
        for f, force in ((odd, True), (zero, False), (zero, True)):
            with pytest.raises(ValueError) as refused:
                hc.yau_twist(A, f, force=force)
            assert str(refused.value) == "yau twist needs an even map, got one of degree (1,)"

    def test_commutator_and_twist_commute(self, novikov_3dim, hnp_transposed_4dim):
        for A, role in ((novikov_3dim, "dot"), (hnp_transposed_4dim, "diamond")):
            m = A.alpha
            one_way = hc.commutator_bracket(hc.yau_twist(A, m, force=True), role)
            other = hc.yau_twist(hc.commutator_bracket(A, role), m, force=True)
            assert one_way.product("bracket") == other.product("bracket")


class TestDerived:
    def test_identity_twist_fixed_point(self, poly_deriv_3dim):
        A = poly_deriv_3dim  # alpha = identity
        assert hc.derived_algebra(A, 1, 3) == A

    def test_table_powers(self, hnp_mult_4dim):
        A = hnp_mult_4dim
        for n in (1, 2, 3):
            derived = hc.derived_algebra(A, 1, n, force=True)
            assert derived.mul_basis("dot", 1, 1) == {0: A.context.scalar(2 ** (2 * n))}
            assert derived.mul_basis("dot", 1, 3) == {2: A.context.scalar(4)}
            assert derived.alpha_image(1) == {1: A.context.scalar((-2) ** (n + 1))}

    def test_type2_matches_type1_at_shifted_order(self, hnp_mult_4dim):
        A = hnp_mult_4dim
        for n in (1, 2):
            assert hc.derived_algebra(A, 2, n, force=True) == hc.derived_algebra(
                A, 1, 2**n - 1, force=True
            )

    def test_multiplicative_hypothesis_enforced(self, hnp_mult_4dim, hnp_mult_synth_4dim):
        with pytest.raises(PreconditionError):
            hc.derived_algebra(hnp_mult_4dim, 1, 1)
        derived = hc.derived_algebra(hnp_mult_synth_4dim, 1, 2)
        assert hc.run_suite(derived, hc.StructureKind.ADMISSIBLE_HNP).passed

    def test_bad_arguments(self, hnp_mult_synth_4dim):
        with pytest.raises(ValueError):
            hc.derived_algebra(hnp_mult_synth_4dim, 3, 1)
        with pytest.raises(ValueError):
            hc.derived_algebra(hnp_mult_synth_4dim, 1, 0)


class TestSemidirect:
    def test_regular_bundle_doubles_dimension(self, hnp_4dim):
        A = hnp_4dim
        bundle = regular_bundle(A, BimoduleKind.HNP_BIMODULE)
        total = hc.semidirect_sum(A, bundle, BimoduleKind.HNP_BIMODULE)
        assert total.dim == 2 * A.dim
        assert hc.run_suite(total, hc.StructureKind.HNP).passed

    def test_gd_semidirect_with_regular_bundle(self, gd_4dim):
        A = gd_4dim
        bundle = regular_bundle(A, BimoduleKind.GD_REP)
        total = hc.semidirect_sum(A, bundle, BimoduleKind.GD_REP)
        assert hc.run_suite(total, hc.StructureKind.HOM_GD).passed

    def test_zero_bundle_is_block_diagonal(self, assoc_3dim):
        A = assoc_3dim
        module = A.space
        actions = {"s": tuple(
            LinearMap.zero(module, module, A.context, A.space.degree(i)) for i in range(A.dim)
        )}
        bundle = ActionBundle(A.space, module, A.alpha, A.context, actions)
        total = hc.semidirect_sum(A, bundle, BimoduleKind.ASSOC_BIMODULE)
        # restriction to the A block is exactly A's table
        for (i, j), cell in total.product("dot").table.items():
            assert i < A.dim and j < A.dim
            assert cell == A.product("dot").table[(i, j)]
        assert hc.run_suite(total, hc.StructureKind.EPS_COMM_ASSOC).passed

    def test_lie_cross_term_sign(self, novikov_3dim):
        # module-side times algebra-side picks up -eps(v, x) rho(x) v
        lie = hc.commutator_bracket(novikov_3dim, "dot")
        adjoint = regular_bundle(lie, BimoduleKind.LIE_REP)
        total = hc.semidirect_sum(lie, adjoint, BimoduleKind.LIE_REP)
        n = lie.dim
        for v in range(n):
            for x in range(n):
                got = total.mul_basis("bracket", n + v, x)
                sign = lie.eps_deg(lie.space.degree(v), lie.space.degree(x))
                expected = act(adjoint, "rho", x, {v: lie.context.one})
                expected = {n + k: -s if sign == 1 else s for k, s in expected.items()}
                assert got == expected

    def test_module_block_multiplies_to_zero(self, hnp_4dim):
        A = hnp_4dim
        bundle = regular_bundle(A, BimoduleKind.HNP_BIMODULE)
        total = hc.semidirect_sum(A, bundle, BimoduleKind.HNP_BIMODULE)
        for role in total.roles:
            for (i, j) in total.product(role).table:
                assert not (i >= A.dim and j >= A.dim)

    def test_failing_bundle_rejected(self, poly_deriv_3dim):
        P = poly_deriv_3dim
        base = AlgebraPresentation(P.space, P.bichar, P.context, {"dot": P.products["dot"]}, P.alpha)
        bundle = regular_bundle(base, BimoduleKind.ASSOC_BIMODULE)
        two = P.context.scalar(2)
        doubled = ActionBundle(
            base.space, base.space, base.alpha, base.context,
            {"s": tuple(
                LinearMap(base.space, base.space, base.context,
                          [{k: two * s for k, s in op.image(c).items()} for c in range(base.dim)],
                          op.degree)
                for op in bundle.actions["s"]
            )},
        )
        with pytest.raises(PreconditionError):
            hc.semidirect_sum(base, doubled, BimoduleKind.ASSOC_BIMODULE)
        forced = hc.semidirect_sum(base, doubled, BimoduleKind.ASSOC_BIMODULE, force=True)
        assert not hc.run_suite(forced, hc.StructureKind.EPS_COMM_ASSOC).passed


def _zero_actions(algebra_space, module, ctx):
    return tuple(
        LinearMap.zero(module, module, ctx, algebra_space.degree(i))
        for i in range(algebra_space.dim)
    )


class TestMatchedPair:
    def _trivial_pair(self, A, kind_actions):
        from homcolor.core import GradedSpace

        ctx = A.context
        Bspace = GradedSpace(A.space.group, ["f1", "f2"], [[0] * A.space.group.rank,
                                                           A.space.degrees[-1]])
        zero_products = {role: BilinearProduct(Bspace, ctx, {}) for role in A.roles}
        B = AlgebraPresentation(Bspace, A.bichar, ctx, zero_products,
                                LinearMap.identity(Bspace, ctx))
        ab = ActionBundle(A.space, Bspace, B.alpha, ctx,
                          {name: _zero_actions(A.space, Bspace, ctx) for name in kind_actions})
        ba = ActionBundle(Bspace, A.space, A.alpha, ctx,
                          {name: _zero_actions(Bspace, A.space, ctx) for name in kind_actions})
        return MatchedPairData(A, B, ab, ba)

    @pytest.mark.parametrize(
        "fixture_name,kind,actions,suite",
        [
            ("assoc_3dim", MatchedPairKind.ASSOC, ("s",), hc.StructureKind.EPS_COMM_ASSOC),
            ("novikov_4dim", MatchedPairKind.NOVIKOV, ("l", "r"), hc.StructureKind.HOM_NOVIKOV),
            ("hnp_4dim", MatchedPairKind.HNP, ("s", "l", "r"), hc.StructureKind.HNP),
            ("gd_4dim", MatchedPairKind.GD, ("l", "r", "rho"), hc.StructureKind.HOM_GD),
        ],
    )
    def test_zero_side_reduces_to_block_sum(self, fixture_name, kind, actions, suite, request):
        A = request.getfixturevalue(fixture_name)
        pair = self._trivial_pair(A, actions)
        assert hc.check_matched_pair(pair, kind).passed
        double = hc.matched_pair_double(pair, kind)
        assert double.dim == A.dim + 2
        for role in double.roles:
            for (i, j), cell in double.product(role).table.items():
                assert i < A.dim and j < A.dim
                assert cell == A.product(role).table[(i, j)]
        assert hc.run_suite(double, suite).passed

    def test_lie_matched_pair_with_adjoint_actions(self, novikov_3dim):
        lie = hc.commutator_bracket(novikov_3dim, "dot")
        lie = AlgebraPresentation(lie.space, lie.bichar, lie.context,
                                  {"bracket": lie.products["bracket"]}, lie.alpha)
        adjoint = regular_bundle(lie, BimoduleKind.LIE_REP)
        ba = ActionBundle(lie.space, lie.space, lie.alpha, lie.context,
                          {"rho": _zero_actions(lie.space, lie.space, lie.context)})
        pair = MatchedPairData(lie, lie, adjoint, ba)
        report = hc.check_matched_pair(pair, MatchedPairKind.LIE)
        assert report.passed, report.describe()
        double = hc.matched_pair_double(pair, MatchedPairKind.LIE)
        assert hc.run_suite(double, hc.StructureKind.HOM_LIE).passed

    def test_regular_on_copy_matches_semidirect(self, assoc_3dim):
        A = assoc_3dim
        copy = AlgebraPresentation(A.space, A.bichar, A.context, dict(A.products), A.alpha)
        reg = regular_bundle(A, BimoduleKind.ASSOC_BIMODULE)
        ab = ActionBundle(A.space, A.space, A.alpha, A.context, dict(reg.actions))
        ba = ActionBundle(A.space, A.space, A.alpha, A.context,
                          {"s": _zero_actions(A.space, A.space, A.context)})
        pair = MatchedPairData(A, copy, ab, ba)
        double = hc.matched_pair_double(pair, MatchedPairKind.ASSOC)
        # with one side acting by zero and the copy's products kept, the double
        # is the semidirect sum plus the copy's own block products
        semi = hc.semidirect_sum(A, reg, BimoduleKind.ASSOC_BIMODULE)
        block = {k: dict(v) for k, v in semi.product("dot").table.items()}
        for (i, j), cell in copy.product("dot").table.items():
            block[(i + A.dim, j + A.dim)] = {k + A.dim: s for k, s in cell}
        assert {k: dict(v) for k, v in double.product("dot").table.items()} == block
        assert hc.run_suite(double, hc.StructureKind.EPS_COMM_ASSOC).passed

    def test_failing_conditions_rejected_unless_forced(self, poly_deriv_3dim):
        P = poly_deriv_3dim
        base = AlgebraPresentation(P.space, P.bichar, P.context,
                                   {"dot": P.products["dot"]}, P.alpha)
        copy = AlgebraPresentation(P.space, P.bichar, P.context,
                                   {"dot": P.products["dot"]}, P.alpha)
        reg = regular_bundle(base, BimoduleKind.ASSOC_BIMODULE)
        two = P.context.scalar(2)
        bad = ActionBundle(
            base.space, base.space, base.alpha, base.context,
            {"s": tuple(
                LinearMap(base.space, base.space, base.context,
                          [{k: two * s for k, s in op.image(c).items()} for c in range(base.dim)],
                          op.degree)
                for op in reg.actions["s"]
            )},
        )
        ba = ActionBundle(base.space, base.space, base.alpha, base.context,
                          {"s": _zero_actions(base.space, base.space, base.context)})
        pair = MatchedPairData(base, copy, bad, ba)
        report = hc.check_matched_pair(pair, MatchedPairKind.ASSOC)
        assert not report.passed
        with pytest.raises(PreconditionError):
            hc.matched_pair_double(pair, MatchedPairKind.ASSOC)
        forced = hc.matched_pair_double(pair, MatchedPairKind.ASSOC, force=True)
        assert not hc.run_suite(forced, hc.StructureKind.EPS_COMM_ASSOC).passed

    def test_data_validation(self, assoc_3dim, gd_4dim):
        A = assoc_3dim
        with pytest.raises(ValueError, match="grading context"):
            MatchedPairData(A, gd_4dim, None, None)

    @pytest.mark.parametrize(
        "kind,bim_kind,actions,roles,suite",
        [
            (MatchedPairKind.ASSOC, BimoduleKind.ASSOC_BIMODULE, ("s",),
             ("dot",), hc.StructureKind.EPS_COMM_ASSOC),
            (MatchedPairKind.HNP, BimoduleKind.HNP_BIMODULE, ("s", "l", "r"),
             ("dot", "diamond"), hc.StructureKind.HNP),
            (MatchedPairKind.GD, BimoduleKind.GD_REP, ("l", "r", "rho"),
             ("dot", "bracket"), hc.StructureKind.HOM_GD),
        ],
    )
    def test_dense_semidirect_limit_satisfies_conditions(
        self, poly_deriv_3dim, kind, bim_kind, actions, roles, suite
    ):
        """Regular actions on a self-copy with zero back-actions realize the
        semidirect situation, which the closure theorems cover: with the
        dense truncated-polynomial tables every member identity of the
        double's suite is exercised with nonzero cross terms."""
        P = poly_deriv_3dim
        products = {}
        for role in roles:
            if role == "bracket":
                products[role] = hc.commutator_bracket(P, "diamond").products["bracket"]
            else:
                products[role] = P.products[role]
        A = AlgebraPresentation(P.space, P.bichar, P.context, products, P.alpha)
        copy = AlgebraPresentation(P.space, P.bichar, P.context, dict(products), P.alpha)
        reg = regular_bundle(A, bim_kind)
        ab = ActionBundle(A.space, copy.space, copy.alpha, A.context, dict(reg.actions))
        ba = ActionBundle(copy.space, A.space, A.alpha, A.context, {
            name: _zero_actions(copy.space, A.space, A.context) for name in actions
        })
        pair = MatchedPairData(A, copy, ab, ba)
        report = hc.check_matched_pair(pair, kind)
        assert report.passed, report.describe()
        double = hc.matched_pair_double(pair, kind)
        assert hc.run_suite(double, suite).passed


class TestTensor:
    def test_unit_like_factor_preserves_tables(self, hnp_admissible_4dim):
        from homcolor.core import GradedSpace

        A = hnp_admissible_4dim
        ctx = A.context
        unit_space = GradedSpace(A.space.group, ["u"], [[0]])
        unit = AlgebraPresentation(
            unit_space, A.bichar, ctx,
            {
                "dot": BilinearProduct(unit_space, ctx, {(0, 0): {0: ctx.one}}),
                "diamond": BilinearProduct(unit_space, ctx, {}),
            },
            LinearMap.identity(unit_space, ctx),
        )
        product = hc.tensor_product(A, unit)
        assert product.dim == A.dim
        for role in ("dot", "diamond"):
            assert product.product(role).table == A.product(role).table
        assert product.names == tuple(f"{n}_u" for n in A.names)

    def test_dimension_multiplies_and_degrees_add(self, hnp_admissible_4dim, hnp_transposed_4dim):
        A, B = hnp_admissible_4dim, hnp_transposed_4dim
        T = hc.tensor_product(A, B)
        assert T.dim == A.dim * B.dim
        for p1 in range(A.dim):
            for p2 in range(B.dim):
                expected = A.space.group.add(A.space.degree(p1), B.space.degree(p2))
                assert T.space.degree(p1 * B.dim + p2) == expected

    def test_mixed_context_tensor_passes_admissible(self, hnp_admissible_4dim, hnp_transposed_4dim):
        T = hc.tensor_product(hnp_admissible_4dim, hnp_transposed_4dim)
        assert set(hnp_admissible_4dim.context.params) <= set(T.context.params)
        assert hc.run_suite(T, hc.StructureKind.ADMISSIBLE_HNP).passed

    @pytest.mark.parametrize("left, right, digest", [
        ("hnp_4dim.json", "hnp_admissible_4dim.json",
         "74025524001825d9ff9a8a3d7288ec9f55895f3d5ec6d32e49f77d03764832bc"),
        ("hnp_admissible_4dim.json", "zero_2dim.json",
         "333bb219e65cac8a3e93bbee4fba5b380ce5e7f42cadd440bc1411b1c5f4dd80"),
    ])
    def test_factors_over_different_contexts_are_rebuilt_exactly(self, left, right, digest):
        # Each factor is rebuilt over the union of the two scalar contexts;
        # the output's dump is pinned by its sha256.
        A, B = load(left), load(right)
        assert A.context != B.context
        text = json.dumps(dump_presentation(hc.tensor_product(A, B)), indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_a_factor_passed_twice_is_checked_once(self, monkeypatch):
        A, copy = load("hnp_admissible_4dim.json"), load("hnp_admissible_4dim.json")
        suites = []
        run_suite = hc.constructions.run_suite

        def counted(*args):
            suites.append(args[1])
            return run_suite(*args)

        monkeypatch.setattr(hc.constructions, "run_suite", counted)
        square = hc.tensor_product(A, A)
        assert suites == [hc.StructureKind.ADMISSIBLE_HNP]
        # A factor equal to A but not A itself is checked as a second factor,
        # and the product is the same.
        assert dump_presentation(hc.tensor_product(A, copy)) == dump_presentation(square)
        assert len(suites) == 3

    def test_nonadmissible_factor_rejected(self, poly_deriv_3dim, hnp_admissible_4dim):
        with pytest.raises(PreconditionError):
            hc.tensor_product(poly_deriv_3dim, poly_deriv_3dim)
        forced = hc.tensor_product(poly_deriv_3dim, poly_deriv_3dim, force=True)
        assert forced.dim == 9


class TestSubIdealQuotient:
    def test_empty_and_full_subsets_pass(self, gd_4dim):
        A = gd_4dim
        assert hc.is_subalgebra(A, []).passed
        assert hc.is_ideal(A, []).passed
        assert hc.is_subalgebra(A, list(A.names)).passed
        assert hc.is_ideal(A, list(A.names)).passed

    def test_span_e3_is_ideal_in_assoc_fixture(self, assoc_3dim):
        assert hc.is_ideal(assoc_3dim, ["e3"]).passed

    def test_non_ideal_reports_failing_closure(self, assoc_3dim):
        report = hc.is_ideal(assoc_3dim, ["e1"])
        assert not report.passed
        assert report.witness == ("e1", "e2")
        assert report.detail == "product[dot] closure"

    def test_twist_closure_failure_reported(self, novikov_3dim):
        # alpha(e2) = e3 leaves span{e2}
        report = hc.is_ideal(novikov_3dim, ["e2"])
        assert not report.passed
        assert report.detail == "twist closure"

    def test_quotient_by_whole_space_is_zero_algebra(self, gd_4dim):
        Q = hc.quotient(gd_4dim, list(gd_4dim.names))
        assert Q.dim == 0

    def test_quotient_by_nothing_is_identity(self, gd_4dim):
        assert hc.quotient(gd_4dim, []) == gd_4dim

    def test_gd_quotient_by_e4(self, gd_4dim):
        assert hc.is_ideal(gd_4dim, ["e4"]).passed
        Q = hc.quotient(gd_4dim, ["e4"])
        assert Q.dim == 3
        assert Q.names == ("e1", "e2", "e3")
        assert hc.run_suite(Q, hc.StructureKind.HOM_GD).passed

    def test_integer_members_are_range_checked(self, assoc_3dim):
        with pytest.raises(KeyError, match="unknown basis element 99"):
            hc.is_ideal(assoc_3dim, [99])
        with pytest.raises(KeyError, match="unknown basis element -1"):
            hc.is_subalgebra(assoc_3dim, [-1])
        with pytest.raises(KeyError, match="unknown basis element 7"):
            hc.quotient(assoc_3dim, [7])
        with pytest.raises(KeyError, match="unknown basis element 'e9'"):
            hc.is_ideal(assoc_3dim, ["e9"])

    def test_quotient_requires_ideal(self, assoc_3dim):
        with pytest.raises(PreconditionError):
            hc.quotient(assoc_3dim, ["e1"])


class TestDerivationProduct:
    def test_zero_derivation_gives_zero_product(self, assoc_3dim):
        A = assoc_3dim
        zero = LinearMap.zero(A.space, A.space, A.context)
        out = hc.novikov_from_derivation(A, zero)
        assert out.product("diamond").table == {}

    def test_euler_derivation_recovers_fixture(self, poly_deriv_3dim):
        P = poly_deriv_3dim
        base = AlgebraPresentation(P.space, P.bichar, P.context,
                                   {"dot": P.products["dot"]}, P.alpha)
        D = LinearMap.from_rows(P.space, P.space, P.context,
                                [[0, 0, 0], [0, 1, 0], [0, 0, 2]])
        out = hc.novikov_from_derivation(base, D)
        assert out.product("diamond") == P.products["diamond"]
        assert hc.run_suite(out, hc.StructureKind.HNP).passed

    def test_weighted_derivation_on_assoc_fixture(self, assoc_3dim):
        A = assoc_3dim
        D = LinearMap.from_rows(A.space, A.space, A.context,
                                [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        # D does not commute with the twist here, so the hypothesis fails,
        # with the first basis element on which alpha o D and D o alpha differ
        with pytest.raises(PreconditionError) as refused:
            hc.novikov_from_derivation(A, D)
        assert [report.describe() for report in refused.value.reports] == [
            "twist_commutes_with_derivation: FAIL  witness=(e2)  defect={e3: 1}  "
            "need alpha o D = D o alpha"
        ]
        out = hc.novikov_from_derivation(A, D, force=True)
        assert out.mul_basis("diamond", 0, 1) == out.vector({"e3": -2})
        assert out.mul_basis("diamond", 1, 0) == out.vector({"e3": -2})
        novikov = AlgebraPresentation(A.space, A.bichar, A.context,
                                      {"dot": out.products["diamond"]}, A.alpha)
        assert hc.run_suite(novikov, hc.StructureKind.HOM_NOVIKOV).passed

    def test_a_map_into_another_space_is_refused(self, assoc_3dim):
        # Into a 4-dim space, a map raised IndexError and a zero map passed
        # as a derivation, and the forced product was built from it.
        A = assoc_3dim
        degrees = A.space.degrees + (A.space.degree(0),)
        wider = GradedSpace(A.space.group, A.names + ("e4",), degrees)
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]
        into = LinearMap.from_rows(A.space, wider, A.context, rows)
        refusal = "^map is not an endomorphism of the presentation's space$"
        for m in (into, LinearMap.zero(A.space, wider, A.context)):
            with pytest.raises(ValueError, match=refusal):
                hc.is_derivation(A, "dot", m)
            with pytest.raises(ValueError, match=refusal):
                hc.novikov_from_derivation(A, m, force=True)

    def test_commutator_of_derivation_product(self, poly_deriv_3dim):
        P = poly_deriv_3dim
        pair = hc.commutator_bracket(P, "diamond")
        D = LinearMap.from_rows(P.space, P.space, P.context,
                                [[0, 0, 0], [0, 1, 0], [0, 0, 2]])
        ctx = P.context
        for i in range(P.dim):
            for j in range(P.dim):
                sign = P.eps(i, j)
                direct = hc.core.vec_sub(
                    P.mul("dot", {i: ctx.one}, D.image(j)),
                    hc.core.vec_scale(ctx.scalar(sign), P.mul("dot", {j: ctx.one}, D.image(i))),
                )
                assert pair.mul_basis("bracket", i, j) == direct


def test_morphism_transport_through_twists(gd_mult_4dim):
    A = gd_mult_4dim
    f = A.alpha
    assert hc.is_morphism(f, A, A).passed
    twisted = hc.yau_twist(A, A.alpha)
    assert hc.is_morphism(f, twisted, twisted).passed


@pytest.mark.parametrize(
    "kind,fixture_name",
    [
        pytest.param(kind, fixture_name, id=kind.value)
        for kind, fixture_name in [
            (MatchedPairKind.ASSOC, "assoc_3dim"),
            (MatchedPairKind.NOVIKOV, "novikov_4dim"),
            (MatchedPairKind.LIE, "gd_4dim"),
            (MatchedPairKind.HNP, "hnp_4dim"),
            (MatchedPairKind.GD, "gd_4dim"),
        ]
    ],
)
def test_matched_pair_conditions_name_only_their_slots_and_actions(kind, fixture_name, request):
    # A pair's conditions are its double's suite: it reads only the products
    # bound by the kind's slots, and the double only the actions through them.
    slots = BIMODULE_TABLE[MATCHED_PAIR_TABLE[kind]].slots
    assert set(required_roles(double_suite_kind(kind))) <= set(slots.values())
    A = request.getfixturevalue(fixture_name)
    bundle = regular_bundle(A, MATCHED_PAIR_TABLE[kind])
    kept = slot_actions(slots)
    assert set(bundle.actions) == set(kept)
    extra = sorted({name for entry in SLOT_ACTIONS.values() for name in entry[:2]} - set(kept))
    assert extra
    padded = ActionBundle(A.space, A.space, A.alpha, A.context,
                          {**bundle.actions, **{name: bundle.action(kept[0]) for name in extra}})
    pair = MatchedPairData(A, A, bundle, bundle)
    padded_pair = MatchedPairData(A, A, padded, padded)
    report = hc.check_matched_pair(pair, kind)
    assert hc.check_matched_pair(padded_pair, kind).to_dict() == report.to_dict()
    assert {check.check for check in report.checks} <= {
        check.check for check in hc.run_suite(A, double_suite_kind(kind)).checks
    }
    double = dump_presentation(hc.matched_pair_double(pair, kind, force=True))
    assert dump_presentation(hc.matched_pair_double(padded_pair, kind, force=True)) == double
