"""Substrate: graded spaces, homogeneous maps, sparse products, core checks."""

import pytest
from hypothesis import given, strategies as st

import homcolor as hc
from homcolor.core import (
    AlgebraPresentation,
    BilinearProduct,
    GradedSpace,
    LinearMap,
    is_derivation,
    is_morphism,
    is_multiplicative,
    morphism_suite,
    vec_add,
    vec_scale,
    vec_to_names,
)
from homcolor.grading import super_z2, trivial_grading
from homcolor.identities import StructureKind, run_suite


def _unit(A, i):
    """The basis vector e_i of ``A`` as a Vec."""
    return {i: A.context.one}


class TestMul:
    def test_table_lookup(self, assoc_3dim):
        A = assoc_3dim
        assert vec_to_names(A.space, A.mul("dot", {"e1": 1}, {"e2": 1})) == (("e3", "-2"),)

    def test_zero_vector_annihilates(self, assoc_3dim):
        A = assoc_3dim
        assert A.mul("dot", {}, {"e2": 1}) == {}

    def test_bilinear_expansion(self, assoc_3dim):
        # (e1 + e2) . e2 expands to e1.e2 + e2.e2 = -2 e3
        A = assoc_3dim
        result = A.mul("dot", {"e1": 1, "e2": 1}, {"e2": 1})
        expected = vec_add(A.mul("dot", _unit(A, 0), _unit(A, 1)),
                           A.mul("dot", _unit(A, 1), _unit(A, 1)))
        assert result == expected == A.vector({"e3": -2})

    def test_unknown_role(self, assoc_3dim):
        with pytest.raises(hc.MissingRoleError):
            assoc_3dim.mul("diamond", {"e1": 1}, {"e2": 1})

    @given(a=st.integers(-3, 3), b=st.integers(-3, 3))
    def test_mul_is_bilinear_in_scalars(self, a, b):
        from tests.conftest import load

        A = load("hnp_4dim.json")
        sa, sb = A.context.scalar(a), A.context.scalar(b)
        x = vec_add(vec_scale(sa, _unit(A, 1)), vec_scale(sb, _unit(A, 3)))
        z = _unit(A, 3)
        lhs = A.mul("dot", x, z)
        rhs = vec_add(
            vec_scale(sa, A.mul("dot", _unit(A, 1), z)),
            vec_scale(sb, A.mul("dot", _unit(A, 3), z)),
        )
        assert lhs == rhs


class TestApply:
    def test_twist_images(self, assoc_3dim):
        A = assoc_3dim
        assert vec_to_names(A.space, A.alpha_image(0)) == (("e1", "sqrt2"),)
        assert vec_to_names(A.space, A.alpha_image(1)) == (("e2", "-1"), ("e3", "1"))

    def test_identity_map(self, assoc_3dim):
        A = assoc_3dim
        ident = LinearMap.identity(A.space, A.context)
        v = A.vector({"e1": "1/2", "e3": "sqrt2"})
        assert ident.apply(v) == v

    def test_twist_square(self, assoc_3dim):
        A = assoc_3dim
        assert vec_to_names(A.space, A.alpha.power(2).image(0)) == (("e1", "2"),)
        twice = A.alpha.apply(A.alpha_image(0))
        assert A.alpha.power(2).image(0) == twice

    @pytest.mark.parametrize("n", range(4))
    def test_power_is_n_fold_compose(self, assoc_3dim, n):
        group, _ = super_z2()
        ctx = hc.ScalarContext()
        space = GradedSpace(group, ["e1", "e2"], [[0], [1]])
        even = LinearMap.from_rows(space, space, ctx, [[1, 0], [0, 3]])
        swap = LinearMap.from_rows(space, space, ctx, [[0, 2], [1, 0]], degree=(1,))
        for m in (assoc_3dim.alpha, even, swap):
            composed = LinearMap.identity(m.source, m.context)
            for _ in range(n):
                composed = m.compose(composed)
            assert m.power(n) == composed  # degree included

    def test_high_powers_build_without_recursion(self):
        group, _ = super_z2()
        ctx = hc.ScalarContext()
        space = GradedSpace(group, ["e1", "e2"], [[0], [1]])
        ident = LinearMap.identity(space, ctx)
        assert ident.power(3000) == ident
        # 1200 halvings deep: squared back up in a loop, not by recursion.
        fresh = LinearMap.identity(space, ctx)
        assert fresh.power(2**1200 - 1) == ident

    @pytest.mark.parametrize("k", [*range(10), 31])
    def test_images_by_squaring_equal_single_applications(self, assoc_3dim, k):
        # alpha(e2) = -e2 + e3 over Q(sqrt2), and a dense rational map: the
        # images of a fresh map, and of one that already holds lower
        # powers, equal k single applications.
        group, _ = trivial_grading()
        ctx = hc.ScalarContext()
        space = GradedSpace(group, ["e1", "e2", "e3"], [[], [], []])
        dense = LinearMap.from_rows(space, space, ctx, [[1, 2, 0], [-1, 0, 3], [0, 1, 1]])
        for m in (assoc_3dim.alpha, dense):
            want = [{i: m.context.one} for i in range(m.source.dim)]
            for _ in range(k):
                want = [m.apply(v) for v in want]
            fresh = LinearMap(m.source, m.target, m.context, [dict(c) for c in m.columns])
            assert list(fresh.images(k)) == want
            assert list(m.images(k)) == want

    def test_images_and_powers_need_an_endomorphism(self):
        group, _ = super_z2()
        ctx = hc.ScalarContext()
        source = GradedSpace(group, ["e1", "e2"], [[0], [1]])
        target = GradedSpace(group, ["f1"], [[0]])
        m = LinearMap.from_rows(source, target, ctx, [[1, 0]])
        for call in (m.images, m.power):
            with pytest.raises(ValueError, match="endomorphism"):
                call(1)
        with pytest.raises(ValueError, match="negative"):
            LinearMap.identity(source, ctx).images(-1)

    def test_dimension_mismatch(self, assoc_3dim, zero_2dim):
        with pytest.raises(ValueError, match="row-major"):
            LinearMap.from_rows(
                assoc_3dim.space, zero_2dim.space, assoc_3dim.context, [[1, 0], [0, 1]]
            )


class TestValidation:
    def test_grading_violation_is_a_construction_error(self, assoc_3dim):
        A = assoc_3dim
        with pytest.raises(ValueError, match="not graded"):
            BilinearProduct(A.space, A.context, {(0, 0): {2: A.context.one}})

    def test_odd_map_entries_rejected_for_even_maps(self, assoc_3dim):
        A = assoc_3dim
        with pytest.raises(ValueError, match="homogeneous"):
            LinearMap.from_rows(
                A.space, A.space, A.context, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
            )

    def test_homogeneous_degree_one_map_accepted(self):
        group, bichar = super_z2()
        ctx = hc.ScalarContext()
        space = GradedSpace(group, ["e1", "e2"], [[0], [1]])
        odd = LinearMap.from_rows(space, space, ctx, [[0, 0], [1, 0]], degree=(1,))
        assert odd.degree == (1,)
        assert not odd.is_even

    def test_twist_must_be_even(self):
        group, bichar = super_z2()
        ctx = hc.ScalarContext()
        space = GradedSpace(group, ["e1", "e2"], [[0], [1]])
        odd = LinearMap.from_rows(space, space, ctx, [[0, 0], [1, 0]], degree=(1,))
        with pytest.raises(ValueError, match="even"):
            AlgebraPresentation(space, bichar, ctx, {"dot": BilinearProduct(space, ctx, {})}, odd)

    def test_duplicate_basis_names_rejected(self):
        group, _ = super_z2()
        with pytest.raises(ValueError):
            GradedSpace(group, ["e1", "e1"], [[0], [1]])

    def test_even_maps_compose_to_even_maps(self, assoc_3dim):
        A = assoc_3dim
        composed = A.alpha.compose(A.alpha)
        assert composed.is_even
        group = A.space.group
        odd = LinearMap.zero(A.space, A.space, A.context, degree=(1,))
        assert A.alpha.compose(odd).degree == group.element((1,))


class TestMultiplicative:
    def test_gd_multiplicative_twist_passes(self, gd_mult_4dim):
        A = gd_mult_4dim
        for role in ("dot", "bracket"):
            assert is_multiplicative(A, role).passed
        # the (e3, e3) pair specifically: alpha(e3.e3) = alpha(e1) = e1 and
        # alpha(e3).alpha(e3) = (-e3).(-e3) = e1
        lhs = A.alpha.apply(A.mul_basis("dot", 2, 2))
        rhs = A.mul("dot", A.alpha_image(2), A.alpha_image(2))
        assert lhs == rhs == A.vector({"e1": 1})

    def test_discrepancy_witness_on_mult_table(self, hnp_mult_4dim):
        A = hnp_mult_4dim
        report = is_multiplicative(A, "dot")
        assert not report.passed
        assert report.witness == ("e2", "e4")
        # alpha(e2.e4) = alpha(4 e3) = 4 e3 while alpha(e2).alpha(e4) = 16 e3
        assert A.alpha.apply(A.mul_basis("dot", 1, 3)) == A.vector({"e3": 4})
        assert A.mul("dot", A.alpha_image(1), A.alpha_image(3)) == A.vector({"e3": 16})

    def test_failed_defect_reevaluates_nonzero(self, hnp_mult_4dim):
        A = hnp_mult_4dim
        report = is_multiplicative(A, "dot")
        i, j = (A.space.index(n) for n in report.witness)
        lhs = A.alpha.apply(A.mul_basis("dot", i, j))
        rhs = A.mul("dot", A.alpha_image(i), A.alpha_image(j))
        recomputed = vec_to_names(A.space, {k: s for k, s in
                                            hc.core.vec_sub(lhs, rhs).items()})
        assert recomputed == report.defect
        assert any(not A.context.parse(v).is_zero() for _, v in report.defect)


class TestDerivation:
    def test_zero_map_is_a_derivation(self, hnp_4dim):
        zero = LinearMap.zero(hnp_4dim.space, hnp_4dim.space, hnp_4dim.context)
        assert is_derivation(hnp_4dim, "dot", zero).passed

    def test_any_map_on_trivial_product(self, zero_2dim):
        A = zero_2dim
        m = LinearMap.from_rows(A.space, A.space, A.context, [[3, 0], [0, "-5"]])
        assert is_derivation(A, "dot", m).passed

    def test_weighted_diagonal_derivation(self, assoc_3dim):
        # D = diag(1, 1, 2): D(e1.e2) = -4 e3 = D(e1).e2 + e1.D(e2)
        A = assoc_3dim
        D = LinearMap.from_rows(A.space, A.space, A.context, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        assert is_derivation(A, "dot", D).passed
        assert D.apply(A.mul_basis("dot", 0, 1)) == A.vector({"e3": -4})


class TestMorphism:
    def test_identity_endomorphism(self, hnp_4dim):
        ident = LinearMap.identity(hnp_4dim.space, hnp_4dim.context)
        assert is_morphism(ident, hnp_4dim, hnp_4dim).passed

    def test_zero_map_into_zero_algebra(self, hnp_4dim):
        A = hnp_4dim
        zero_products = {role: BilinearProduct(A.space, A.context, {}) for role in A.roles}
        Z = AlgebraPresentation(A.space, A.bichar, A.context, zero_products)
        zero_map = LinearMap.zero(A.space, A.space, A.context)
        assert is_morphism(zero_map, A, Z).passed

    def test_nonmultiplicative_twist_fails_with_same_witness(self, hnp_mult_4dim):
        A = hnp_mult_4dim
        suite = morphism_suite(A.alpha, A, A)
        per_role = {c.check: c for c in suite.checks}
        for role in ("dot", "diamond"):
            direct = is_multiplicative(A, role)
            assert per_role[f"morphism:product[{role}]"].witness == direct.witness
            assert per_role[f"morphism:product[{role}]"].defect == direct.defect
        assert not is_morphism(A.alpha, A, A).passed

    def test_role_mismatch_rejected(self, hnp_4dim, assoc_3dim):
        ident = LinearMap.identity(hnp_4dim.space, hnp_4dim.context)
        with pytest.raises(ValueError, match="role"):
            morphism_suite(ident, hnp_4dim, hnp_4dim.with_products(
                {"dot": hnp_4dim.products["dot"]}
            ))


class TestAliasing:
    """Checks share a presentation's frozen tables, so what the public
    accessors return must be fresh: mutating it cannot change a verdict."""

    @staticmethod
    def reports(A) -> str:
        return run_suite(A, StructureKind.HNP).to_json() + morphism_suite(A.alpha, A, A).describe()

    @staticmethod
    def scribble(A) -> None:
        junk = A.context.scalar(7)
        for i in range(A.dim):
            for vec in (A.alpha_image(i), A.alpha.image(i)):
                vec.clear()
                vec[i] = junk
            for j in range(A.dim):
                for role in A.roles:
                    for vec in (A.mul_basis(role, i, j), A.mul(role, _unit(A, i), _unit(A, j))):
                        vec.clear()
                        vec[0] = junk

    def test_mutating_public_results_leaves_reports_unchanged(self):
        from tests.conftest import load

        expected = self.reports(load("hnp_admissible_multiplicative_4dim.json"))
        assert "witness" in expected  # a failing check, so defect bytes count too
        A = load("hnp_admissible_multiplicative_4dim.json")
        self.scribble(A)  # before any lazy table exists
        assert self.reports(A) == expected
        self.scribble(A)  # after the tables are built
        assert self.reports(A) == expected
