"""Identity catalog, suites, witnesses, and oracle agreement."""

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import homcolor as hc
from homcolor import identities
from homcolor.core import AlgebraPresentation, BilinearProduct, GradedSpace, LinearMap
from homcolor.identities import (
    IDENTITY_CATALOG,
    SUITE_MEMBERS,
    StructureKind,
    check_gi_identities,
    check_identity,
    required_roles,
    run_suite,
)
from homcolor.grading import super_z2
from homcolor.serialize import substitute_presentation

from tests.dense_oracle import DenseOracle
from tests.test_properties import GRADINGS
from tests.util import perturb


SUITE_EXPECTATIONS = [
    ("assoc_3dim", StructureKind.EPS_COMM_ASSOC),
    ("novikov_3dim", StructureKind.HOM_NOVIKOV),
    ("novikov_4dim", StructureKind.HOM_NOVIKOV),
    ("hnp_4dim", StructureKind.HNP),
    ("hnp_transposed_4dim", StructureKind.HNP),
    ("hnp_admissible_4dim", StructureKind.ADMISSIBLE_HNP),
    ("hnp_mult_4dim", StructureKind.ADMISSIBLE_HNP),
    ("hnp_mult_synth_4dim", StructureKind.ADMISSIBLE_HNP),
    ("gd_4dim", StructureKind.HOM_GD),
    ("hnp_to_gd_4dim", StructureKind.HNP),
    ("gd_mult_4dim", StructureKind.HOM_GD),
    ("poly_deriv_3dim", StructureKind.HNP),
    ("zero_2dim", StructureKind.HOM_GD),
]


@pytest.mark.parametrize("fixture_name,kind", SUITE_EXPECTATIONS)
def test_fixture_suites_pass(fixture_name, kind, request):
    A = request.getfixturevalue(fixture_name)
    suite = run_suite(A, kind)
    assert suite.passed, suite.describe()


def test_no_suite_member_assumes_a_multiplicative_twist():
    # A suite hands out its one pass's reports without a twist precondition,
    # which is sound only while no structure kind holds such a member.
    assumed = [(kind, tag) for kind, members in SUITE_MEMBERS.items()
               for tag, _ in members if IDENTITY_CATALOG[tag].needs_multiplicative]
    assert assumed == []


def test_suites_report_each_member_through_check_identity(monkeypatch, hnp_mult_synth_4dim):
    """run_suite and check_gi_identities call identities.check_identity once
    per member, in member order, with the suite's presentation (what a
    tracer wrapping it counts)."""
    pair = hc.commutator_bracket(hnp_mult_synth_4dim, "diamond")
    calls = []
    real = identities.check_identity

    def recording(presentation, tag, *rest, **options):
        calls.append((presentation, tag, *rest, *options.values()))
        return real(presentation, tag, *rest, **options)

    monkeypatch.setattr(identities, "check_identity", recording)
    for kind in StructureKind:
        calls.clear()
        run_suite(pair, kind)
        assert [(p is pair, tag, roles) for p, tag, roles in calls] == [
            (True, tag, override) for tag, override in SUITE_MEMBERS[kind]
        ], kind
    calls.clear()
    suite = check_gi_identities(pair)
    assert suite.passed, suite.describe()
    members = SUITE_MEMBERS[StructureKind.TRANSPOSED_POISSON] + identities._GI_MEMBERS
    assert [(p is pair, tag, roles) for p, tag, roles in calls] == [
        (True, tag, override) for tag, override in members
    ]


_MISSING_ROLE_PROBE = """
import sys
from homcolor.identities import check_identity
from homcolor.serialize import load_presentation_file
A = load_presentation_file(sys.argv[1])[0].with_products({})
for tag in ("HNP_COMPAT_1", "GI_1"):
    try:
        check_identity(A, tag)
    except Exception as error:
        print(tag, error)
"""


@pytest.mark.parametrize("seed", ["0", "1", "4"])
def test_a_missing_role_is_named_in_sorted_order(seed, fixtures_dir):
    """The first missing role in sorted order is named, whatever the string
    hash seed: 'diamond' before 'dot', 'bracket' before 'dot'."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", _MISSING_ROLE_PROBE, str(fixtures_dir / "assoc_3dim.json")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
    )
    assert done.stdout.splitlines() == [
        "HNP_COMPAT_1 presentation has no product 'diamond'; available: []",
        "GI_1 presentation has no product 'bracket'; available: []",
    ]


class TestCatalog:
    def test_every_tag_is_unique_and_total(self):
        tags = set(IDENTITY_CATALOG)
        for members in SUITE_MEMBERS.values():
            for tag, _ in members:
                assert tag in tags

    def test_suite_membership(self):
        members = {tag for tag, _ in SUITE_MEMBERS[StructureKind.HNP]}
        assert members == {
            "EPS_COMM", "HOM_ASSOC", "NOVIKOV_LSYM", "NOVIKOV_RCOMM",
            "HNP_COMPAT_1", "HNP_COMPAT_2",
        }
        admissible = {tag for tag, _ in SUITE_MEMBERS[StructureKind.ADMISSIBLE_HNP]}
        assert admissible == members | {"LEFT_ASSOCIATOR"}

    def test_novikov_binding_inside_hnp_uses_diamond(self):
        for tag, override in SUITE_MEMBERS[StructureKind.HNP]:
            if tag.startswith("NOVIKOV"):
                assert override == {"product": "diamond"}


class TestCheckIdentity:
    def test_zero_algebra_passes_every_tag(self, zero_2dim):
        for tag in IDENTITY_CATALOG:
            report = check_identity(zero_2dim, tag)
            assert report.passed, report.describe()

    def test_perturbed_assoc_fails_at_frozen_witness(self, assoc_3dim):
        # oracle-computed smallest witness for the added e3.e1 = e3 cell
        A = perturb(assoc_3dim, "dot", 2, 0, 2, 1)
        report = check_identity(A, "HOM_ASSOC")
        assert not report.passed
        assert report.witness == ("e1", "e2", "e1")
        assert report.defect == (("e3", "2*sqrt2"),)

    def test_missing_role_raises(self, assoc_3dim):
        with pytest.raises(hc.MissingRoleError):
            check_identity(assoc_3dim, "LIE_SKEW")
        with pytest.raises(hc.MissingRoleError):
            run_suite(assoc_3dim, StructureKind.HOM_GD)

    def test_unknown_tag_and_slot(self, assoc_3dim):
        with pytest.raises(KeyError):
            check_identity(assoc_3dim, "NOT_A_TAG")
        with pytest.raises(ValueError):
            check_identity(assoc_3dim, "HOM_ASSOC", roles={"bracket": "dot"})

    @pytest.mark.parametrize("check, message", [
        (lambda A: check_identity(A, "HOM_ASSOC", {"bogus": "dot"}),
         "HOM_ASSOC has no role slots ['bogus']"),
    ], ids=["identity"])
    def test_unknown_slot_is_named(self, assoc_3dim, check, message):
        with pytest.raises(ValueError) as info:
            check(assoc_3dim)
        assert str(info.value) == message

    def test_refusals_are_raised_on_every_call(self, assoc_3dim):
        for _ in range(2):
            with pytest.raises(KeyError, match="unknown identity tag 'NOT_A_TAG'"):
                check_identity(assoc_3dim, "NOT_A_TAG")
            with pytest.raises(ValueError, match=r"HOM_ASSOC has no role slots \['bogus'\]"):
                check_identity(assoc_3dim, "HOM_ASSOC", {"bogus": "dot"})

    def test_suite_members_are_bound_once(self, hnp_4dim):
        """Each (tag, role override) is bound on first use only, and each
        kind's roles are read once."""
        kind = StructureKind.ADMISSIBLE_HNP
        identities._bound.cache_clear()
        first = [c.to_dict() for c in run_suite(hnp_4dim, kind).checks]
        misses = identities._bound.cache_info().misses
        assert [c.to_dict() for c in run_suite(hnp_4dim, kind).checks] == first
        assert required_roles(kind) == ("diamond", "dot")
        assert identities._bound.cache_info().misses == misses
        # A binding not seen before is made once, then kept.
        for _ in range(2):
            report = check_identity(hnp_4dim, "HOM_ASSOC", {"product": "diamond"})
            assert dict(report.roles) == {"product": "diamond"}
        assert identities._bound.cache_info().misses == misses + 1

    def test_role_override(self, hnp_4dim):
        report = check_identity(hnp_4dim, "NOVIKOV_RCOMM", roles={"product": "diamond"})
        assert report.passed
        assert dict(report.roles) == {"product": "diamond"}

    def test_lemma_alias_matches_left_associator(self, hnp_4dim, poly_deriv_3dim):
        for A in (hnp_4dim, poly_deriv_3dim):
            lemma = check_identity(A, "HNP_LEMMA_ASSOC")
            left = check_identity(A, "LEFT_ASSOCIATOR")
            assert lemma.status == left.status
            assert lemma.witness == left.witness

    def test_hnp_fixtures_pass_lemma(self, hnp_4dim, hnp_transposed_4dim, hnp_mult_4dim):
        for A in (hnp_4dim, hnp_transposed_4dim, hnp_mult_4dim):
            assert check_identity(A, "HNP_LEMMA_ASSOC").passed


class TestWitnessDeterminism:
    def test_witness_is_lexicographically_minimal(self, assoc_3dim):
        A = perturb(assoc_3dim, "dot", 2, 0, 2, 1)
        oracle = DenseOracle(A)
        report = check_identity(A, "HOM_ASSOC")
        expected = oracle.check("HOM_ASSOC", {"product": "dot"}, 3)
        assert report.witness == tuple(A.names[i] for i in expected)


class TestOracleAgreement:
    FIXTURES = [
        "assoc_3dim", "novikov_3dim", "novikov_4dim", "hnp_4dim",
        "hnp_transposed_4dim", "hnp_admissible_4dim", "gd_4dim",
        "gd_mult_4dim", "poly_deriv_3dim", "zero_2dim",
    ]

    @pytest.mark.parametrize("fixture_name", FIXTURES)
    def test_dense_oracle_matches_kernel(self, fixture_name, request):
        A = request.getfixturevalue(fixture_name)
        roles = set(A.roles)
        for tag, spec in IDENTITY_CATALOG.items():
            binding = dict(spec.defaults)
            if not set(binding.values()) <= roles:
                continue
            if spec.needs_multiplicative:
                continue  # precondition semantics are kernel-only by design
            kernel = check_identity(A, tag)
            oracle = DenseOracle(A).check(tag, binding, spec.arity)
            if oracle is None:
                assert kernel.passed, f"{fixture_name}:{tag} kernel fails, oracle passes"
            else:
                assert not kernel.passed
                assert kernel.witness == tuple(A.names[i] for i in oracle)


class TestParametricSoundness:
    @pytest.mark.parametrize(
        "fixture_name,kind",
        [("novikov_4dim", StructureKind.HOM_NOVIKOV), ("hnp_4dim", StructureKind.HNP)],
    )
    def test_random_substitution_preserves_pass(self, fixture_name, kind, request):
        A = request.getfixturevalue(fixture_name)
        assert run_suite(A, kind).passed
        values = {"lambda1": "7/3", "lambda2": "-2", "lambda3": "5", "lambda4": "1/9",
                  "mu2": "4/7", "mu3": "-3", "mu4": "11"}
        usable = {k: v for k, v in values.items() if k in A.context.params}
        spot = substitute_presentation(A, usable)
        assert run_suite(spot, kind).passed


class TestGiSuite:
    def test_passes_on_multiplicative_transposed_pair(self, hnp_mult_synth_4dim):
        pair = hc.commutator_bracket(hnp_mult_synth_4dim, "diamond")
        suite = check_gi_identities(pair)
        assert suite.passed
        assert [c.check for c in suite.checks] == ["GI_1", "GI_2", "GI_3", "GI_4"]

    def test_passes_on_truncated_polynomial_pair(self, poly_deriv_3dim):
        pair = hc.commutator_bracket(poly_deriv_3dim, "diamond")
        suite = check_gi_identities(pair)
        assert suite.passed

    def test_nonmultiplicative_twist_gives_precondition_report(self, hnp_transposed_4dim):
        pair = hc.commutator_bracket(hnp_transposed_4dim, "diamond")
        suite = check_gi_identities(pair)
        assert suite.status == hc.PRECONDITION_FAILED
        assert suite.checks[0].check == "GI_PRECONDITIONS"
        failed = {r.check for r in suite.checks[0].preconditions}
        assert any(c.startswith("multiplicative") for c in failed)

    def test_broken_skew_symmetry_gives_precondition_report(self, hnp_mult_synth_4dim):
        pair = hc.commutator_bracket(hnp_mult_synth_4dim, "diamond")
        broken = perturb(pair, "bracket", 2, 3, 1, 1)  # [e3,e4] += e2, not skew
        suite = check_gi_identities(broken)
        assert suite.status == hc.PRECONDITION_FAILED
        failed = {r.check for r in suite.checks[0].preconditions}
        assert "LIE_SKEW" in failed or "LIE_JACOBI" in failed

    def test_gi_tags_check_multiplicativity_themselves(self, hnp_transposed_4dim):
        pair = hc.commutator_bracket(hnp_transposed_4dim, "diamond")
        report = check_identity(pair, "GI_1")
        assert report.status == hc.PRECONDITION_FAILED
        assert report.preconditions

    def test_suite_scans_multiplicativity_once_per_role(self, hnp_mult_synth_4dim, monkeypatch):
        from homcolor import identities

        pair = hc.commutator_bracket(hnp_mult_synth_4dim, "diamond")
        direct = [check_identity(pair, tag).to_dict() for tag in ("GI_1", "GI_2", "GI_3", "GI_4")]
        passes = []
        real = identities.multiplicative_checks

        def counting(presentation, roles, *rest):
            passes.append(tuple(roles))
            return real(presentation, roles, *rest)

        monkeypatch.setattr(identities, "multiplicative_checks", counting)
        suite = check_gi_identities(pair)
        # the suite's own precondition scans both twists in one pass;
        # GI_1..GI_4 reuse it
        assert passes == [("dot", "bracket")]
        assert [c.to_dict() for c in suite.checks] == direct
        passes.clear()
        check_identity(pair, "GI_1")  # called directly, it checks its own
        assert passes == [("bracket", "dot")]


_grading_names = st.sampled_from(["super", "z2sq", "sympl", "trivial"])


@st.composite
def symmetric_tables(draw):
    """Random graded tables with eps-symmetric dot and eps-skew bracket.

    No other structure is imposed, so these do not satisfy any suite; they
    exist to pin sign conventions through rewriting identities that hold for
    arbitrary such tables.
    """
    group, bichar = GRADINGS[draw(_grading_names)]()
    ctx = hc.ScalarContext()
    dim = draw(st.integers(2, 4))
    degrees = [
        group.element([draw(st.integers(0, 1)) for _ in range(group.rank)])
        for _ in range(dim)
    ]
    space = GradedSpace(group, [f"b{i}" for i in range(dim)], degrees)
    small = st.integers(-2, 2)
    dot: dict = {}
    bracket: dict = {}
    for i in range(dim):
        for j in range(i, dim):
            sign = bichar.sign(space.degree(i), space.degree(j))
            want = group.add(space.degree(i), space.degree(j))
            for k in range(dim):
                if space.degree(k) != want:
                    continue
                c = draw(small)
                if c and not (i == j and sign == -1):
                    dot.setdefault((i, j), {})[k] = ctx.scalar(c)
                    if i != j:
                        dot.setdefault((j, i), {})[k] = ctx.scalar(sign * c)
                br = draw(small)
                if br and not (i == j and sign == 1):
                    bracket.setdefault((i, j), {})[k] = ctx.scalar(br)
                    if i != j:
                        bracket.setdefault((j, i), {})[k] = ctx.scalar(-sign * br)
    columns = []
    for i in range(dim):
        column = {}
        for j in range(dim):
            if space.degree(j) == space.degree(i):
                c = draw(small)
                if c:
                    column[j] = ctx.scalar(c)
        columns.append(column)
    alpha = LinearMap(space, space, ctx, columns)
    products = {
        "dot": BilinearProduct(space, ctx, dot),
        "bracket": BilinearProduct(space, ctx, bracket),
    }
    return AlgebraPresentation(space, hc.Bicharacter(group, bichar.matrix), ctx, products, alpha)


class TestPoissonLeibnizConvention:
    """The product-compatibility identity has an equivalent right-handed
    form; for any eps-symmetric dot and eps-skew bracket the two defects are
    related by the exact sign rewrite derived from those symmetries alone.
    This pins every eps factor in the catalogued defect."""

    @staticmethod
    def _right_form_defect(A, x, y, z):
        # [x.y, alpha(z)] - eps(y,z) [x,z].alpha(y) - alpha(x).[y,z]
        from homcolor.core import vec_sub, vec_neg

        lhs = A.mul("bracket", A.mul_basis("dot", x, y), A.alpha_image(z))
        t2 = A.mul("dot", A.mul_basis("bracket", x, z), A.alpha_image(y))
        t3 = A.mul("dot", A.alpha_image(x), A.mul_basis("bracket", y, z))
        t2 = t2 if A.eps(y, z) == 1 else vec_neg(t2)
        return vec_sub(vec_sub(lhs, t2), t3)

    @given(A=symmetric_tables())
    def test_right_form_is_sign_rewrite_of_catalog_defect(self, A):
        from homcolor.identities import IDENTITY_CATALOG
        from homcolor.core import vec_neg
        from tests.util import every_failure

        spec = IDENTITY_CATALOG["POISSON_LEIBNIZ"]
        # every nonzero catalog defect, by tuple; the rest are zero
        ops = {slot: A.product(role).row_cells for slot, role in spec.defaults}
        catalog = every_failure(spec.terms, A, ops)
        group = A.space.group
        for x in range(A.dim):
            for y in range(A.dim):
                for z in range(A.dim):
                    left = self._right_form_defect(A, x, y, z)
                    rotated = catalog.get((z, x, y), {})
                    sign = A.eps_deg(
                        group.add(A.space.degree(x), A.space.degree(y)), A.space.degree(z)
                    )
                    expected = vec_neg(rotated) if sign == 1 else rotated
                    assert left == expected


def test_arity4_identity_is_decided_at_dimension_13():
    """GI_2 on the 13-dim zero algebra: every arity-4 tuple has a zero
    defect, and the evaluator visits none of them."""
    group, bichar = super_z2()
    ctx = hc.ScalarContext()
    space = GradedSpace(group, [f"b{i}" for i in range(13)], [[0]] * 13)
    products = {role: BilinearProduct(space, ctx, {}) for role in ("dot", "bracket")}
    A = AlgebraPresentation(space, bichar, ctx, products)
    assert check_identity(A, "GI_2").passed
