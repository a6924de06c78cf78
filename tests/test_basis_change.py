"""Verdicts do not depend on the basis.

Every fixture is rewritten in a seeded even integer basis
(``tests/util.change_basis``), which makes its sparse tables denser.  Under
every applicable structure kind and the GI suite, each check keeps its
status, preconditions included, and each report that does not pass gives
the dense oracle's smallest failing tuple and defect on the new data.
The twist's multiplicativity for every role, checked on its own, keeps its
status too, and a failure gives the smallest failing pair of a direct
computation of alpha(x o y) - alpha(x) o alpha(y).  Every fixture's
regular bundle (no fixture carries a ``module`` block), on the fixture and on
the fixture with a corner constant bumped, and the pullback along the twist
of two multiplicative fixtures, a bundle that is not regular, are rewritten
in a seeded even basis of the algebra and another of the module: under every applicable
bimodule kind each condition keeps its status, and a failure gives the
smallest failing tuple and defect of its identity on the new data's
semidirect sum, by the dense oracle.  A derivation D becomes P^-1 D P, and a morphism f from A to B
becomes Q^-1 f P between A and B in their own seeded bases: each keeps its
status, and a failure gives the smallest failing tuple and defect of the
dense Leibniz, product-arm and twist-arm references of
``tests/test_witnesses``.  A matched pair of a fixture and a renamed copy of
it, plain or bumped, acting on each other by multiplication, is rewritten
with P on A, Q on B and both cross bundles moved by both: under every
matched-pair kind each check keeps its status, and a failure gives the
smallest failing tuple and defect of its identity on the new data's double,
by the dense oracle.  The two sides have different basis names, so a witness named
from the wrong side's basis shows.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from homcolor.constructions import (
    MATCHED_PAIR_TABLE,
    MatchedPairData,
    MatchedPairKind,
    check_matched_pair,
    is_ideal,
    quotient,
)
from homcolor.core import (
    AlgebraPresentation,
    BilinearProduct,
    GradedSpace,
    LinearMap,
    is_derivation,
    morphism_suite,
    multiplicative_checks,
    vec_add,
)
from homcolor.identities import (
    IDENTITY_CATALOG,
    StructureKind,
    check_gi_identities,
    required_roles,
    run_suite,
)
from homcolor.reports import PRECONDITION_FAILED
from homcolor.representations import (
    BIMODULE_TABLE,
    BimoduleKind,
    check_bimodule,
    pullback_bundle,
    regular_bundle,
)
from homcolor.serialize import LoadError, load_presentation_file

from tests.conftest import FIXTURES, load
from tests.dense_oracle import (
    DenseOracle,
    bimodule_references,
    d_basis,
    d_sub,
    matched_pair_references,
)
from tests.test_compiled_conditions import PAIR_FIXTURES
from tests.util import (
    assert_reports_failure,
    bump_corner,
    change_basis,
    change_bundle_basis,
    even_basis_change,
    smallest_failure,
)
from tests.test_witnesses import assert_morphism_witnesses, leibniz, projection


def _fixtures():
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        if path.name == "manifest.json":
            continue
        try:
            out.append((path.name, load_presentation_file(path)[0]))
        except LoadError:
            continue
    return out


def _suites(A):
    """(name, run) for each structure kind whose roles ``A`` has, and GI."""
    out = [
        (kind.value, lambda B, kind=kind: run_suite(B, kind))
        for kind in StructureKind
        if set(required_roles(kind)) <= set(A.roles)
    ]
    if {"dot", "bracket"} <= set(A.roles):
        out.append(("gi", check_gi_identities))
    return out


def _statuses(report):
    return (report.check, report.status, tuple(_statuses(p) for p in report.preconditions))


def _vec(dense):
    return {k: s for k, s in enumerate(dense) if s.terms}


def _assert_oracle_agrees(B, oracle, report):
    """A report that does not pass gives the oracle's smallest failing
    tuple and its defect; a precondition report, each of its checks."""
    if report.status == PRECONDITION_FAILED:
        for pre in report.preconditions:
            _assert_oracle_agrees(B, oracle, pre)
        return
    if report.passed:
        return
    if report.check.startswith("multiplicative["):
        role = report.check[len("multiplicative["):-1]

        def defect(t):
            x, y = (d_basis(B, i) for i in t)
            return _vec(d_sub(
                oracle.al(oracle.mul(role, x, y)), oracle.mul(role, oracle.al(x), oracle.al(y))
            ))

        found = smallest_failure((B.dim, B.dim), defect)
    else:
        spec, roles = IDENTITY_CATALOG[report.check], dict(report.roles)
        t = oracle.check(report.check, roles, spec.arity)
        found = None if t is None else (t, _vec(oracle.defect(report.check, roles, t)))
    assert found is not None, report.describe()
    assert_reports_failure(report, found, B.names, B.space)


@pytest.mark.parametrize("name, A", _fixtures(), ids=[name for name, _ in _fixtures()])
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_verdicts_survive_an_even_change_of_basis(name, A, seed):
    B = change_basis(A, seed)
    oracle = DenseOracle(B)
    for kind, run in _suites(A):
        before, after = run(A), run(B)
        assert [_statuses(c) for c in after.checks] == [_statuses(c) for c in before.checks], kind
        for report in after.checks:
            _assert_oracle_agrees(B, oracle, report)


@pytest.mark.parametrize("name, A", _fixtures(), ids=[name for name, _ in _fixtures()])
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_multiplicativity_survives_an_even_change_of_basis(name, A, seed):
    B = change_basis(A, seed)
    before, after = multiplicative_checks(A, A.roles), multiplicative_checks(B, B.roles)
    assert [(c.check, c.status) for c in after] == [(c.check, c.status) for c in before]
    oracle = DenseOracle(B)
    for report in after:
        _assert_oracle_agrees(B, oracle, report)


def _pullback(A, kind):
    """A acting on itself through its twist, x by the product with alpha(x):
    a bundle whose rows are not the regular ones unless alpha is 1."""
    return pullback_bundle(A.alpha, A, A, kind)


_PULLBACK_FIXTURES = ("gd_multiplicative_4dim.json", "hnp_admissible_mult_synth_4dim.json")


def _bimodule_cases():
    """Each fixture's regular bundle under each kind its products allow,
    plain and with a corner constant bumped, which makes most conditions
    fail; and the pullback along the twist of two multiplicative fixtures."""
    cases = [
        (name, A, kind)
        for name, A in _fixtures()
        for kind in BimoduleKind
        if set(BIMODULE_TABLE[kind].slots.values()) <= set(A.roles)
    ]
    return [
        (f"{name}-{kind.value}{suffix}", B, kind, regular_bundle)
        for name, A, kind in cases
        for suffix, B in (("", A), ("-bumped", bump_corner(A)))
    ] + [
        (f"{name}-{kind.value}-pullback", A, kind, _pullback)
        for name, A, kind in cases
        if name in _PULLBACK_FIXTURES
    ]


@pytest.mark.parametrize(
    "name, A, kind, build", _bimodule_cases(), ids=[n for n, _, _, _ in _bimodule_cases()]
)
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_bimodule_verdicts_survive_an_even_change_of_basis(name, A, kind, build, seed):
    bundle = build(A, kind)
    if build is _pullback:
        regular = regular_bundle(A, kind)
        assert [bundle.row_cells(n) for n in bundle.actions] != [
            regular.row_cells(n) for n in regular.actions
        ]
    P, _ = even_basis_change(A.space, A.context, seed)
    Q, Q_inv = even_basis_change(bundle.module, A.context, seed + 1)
    B, moved = change_basis(A, seed), change_bundle_basis(bundle, P, Q, Q_inv)
    before, after = check_bimodule(A, bundle, kind), check_bimodule(B, moved, kind)
    assert [(c.check, c.status) for c in after.checks] == [(c.check, c.status) for c in before.checks]
    references = bimodule_references(B, moved, kind)
    for report in after.checks:
        if not report.passed:
            defect, sizes, names, space = references[report.check]
            found = smallest_failure(sizes, defect)
            assert found is not None, report.describe()
            assert_reports_failure(report, found, names, space)


def _seeded_map(source, target, ctx, degree, seed):
    """A map ``source`` -> ``target`` homogeneous of ``degree``, with seeded
    entries in -2..2 wherever the degrees allow one."""
    rng = random.Random(seed)
    columns = []
    for i in range(source.dim):
        want = source.group.add(source.degree(i), degree)
        entries = {j: rng.randint(-2, 2) for j in range(target.dim) if target.degree(j) == want}
        columns.append({j: ctx.scalar(c) for j, c in entries.items() if c})
    return LinearMap(source, target, ctx, columns, degree)


def _derivation_candidates(A, seed):
    """diag(0, 1, ..., n-1), which is a derivation of some fixtures, and one
    seeded map of each degree in the basis, so that odd maps meet the sign
    eps(d, x) of the Leibniz rule."""
    n, space = A.dim, A.space
    diagonal = [[i if i == j else 0 for j in range(n)] for i in range(n)]
    maps = [LinearMap.from_rows(space, space, A.context, diagonal)]
    for k, degree in enumerate(dict.fromkeys((space.group.zero,) + space.degrees)):
        maps.append(_seeded_map(space, space, A.context, degree, seed + k))
    return maps


@pytest.mark.parametrize("name, A", _fixtures(), ids=[name for name, _ in _fixtures()])
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_derivation_verdicts_survive_an_even_change_of_basis(name, A, seed):
    P, P_inv = even_basis_change(A.space, A.context, seed)
    B = change_basis(A, seed)
    for D in _derivation_candidates(A, seed):
        moved = P_inv.compose(D.compose(P))
        for role in A.roles:
            before, after = is_derivation(A, role, D), is_derivation(B, role, moved)
            assert (after.check, after.status) == (before.check, before.status)
            found = smallest_failure((B.dim, B.dim), leibniz(B, role, moved))
            assert_reports_failure(after, found, B.names, B.space)


def _morphism_candidates(A, seed):
    """(target, f): the identity, the twist and a seeded even map of ``A``
    to itself, and for each basis element spanning an ideal, the projection
    onto the quotient by it and that projection plus a seeded even map."""
    space, ctx = A.space, A.context
    out = [
        (A, LinearMap.identity(space, ctx)),
        (A, A.alpha),
        (A, _seeded_map(space, space, ctx, space.group.zero, seed)),
    ]
    for name in A.names:
        if not is_ideal(A, [name]).passed:
            continue
        Q = quotient(A, [name])
        pi = projection(A, Q)
        delta = _seeded_map(space, Q.space, ctx, space.group.zero, seed + 1)
        columns = [vec_add(pi.image(i), delta.image(i)) for i in range(A.dim)]
        out += [(Q, pi), (Q, LinearMap(space, Q.space, ctx, columns))]
    return out


@pytest.mark.parametrize("name, A", _fixtures(), ids=[name for name, _ in _fixtures()])
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_morphism_verdicts_survive_an_even_change_of_basis(name, A, seed):
    P, _ = even_basis_change(A.space, A.context, seed)
    source = change_basis(A, seed)
    for target, f in _morphism_candidates(A, seed):
        _, Q_inv = even_basis_change(target.space, target.context, seed + 1)
        moved_target = change_basis(target, seed + 1)
        moved = Q_inv.compose(f.compose(P))
        before = morphism_suite(f, A, target)
        after = morphism_suite(moved, source, moved_target)
        assert [(c.check, c.status) for c in after.checks] == [
            (c.check, c.status) for c in before.checks
        ]
        assert_morphism_witnesses(moved, source, moved_target)


def _renamed(A, prefix):
    """``A`` with its basis named ``prefix``1, ``prefix``2, ..."""
    names = [f"{prefix}{i + 1}" for i in range(A.dim)]
    space = GradedSpace(A.space.group, names, A.space.degrees)
    products = {
        role: BilinearProduct(space, A.context, {k: dict(c) for k, c in A.product(role).table.items()})
        for role in A.roles
    }
    alpha = LinearMap(space, space, A.context, [A.alpha_image(i) for i in range(A.dim)])
    return AlgebraPresentation(space, A.bichar, A.context, products, alpha)


def _matched_pair_cases():
    """Each pair fixture of each kind as A, and as B a copy of it renamed,
    plain and with a corner constant bumped, which makes most conditions
    fail; each side acts on the other by multiplication in the other."""
    return [
        (f"{name}-{kind.value}{suffix}", load(name), kind, bumped)
        for kind in MatchedPairKind
        for name in PAIR_FIXTURES[kind]
        for suffix, bumped in (("", False), ("-bumped", True))
    ]


def _multiplication_pair(A, B, kind):
    bimodule, ctx = MATCHED_PAIR_TABLE[kind], A.context
    identity = [{i: ctx.one} for i in range(A.dim)]
    to_b, to_a = LinearMap(A.space, B.space, ctx, identity), LinearMap(B.space, A.space, ctx, identity)
    ab = pullback_bundle(to_b, A, B, bimodule, force=True)
    ba = pullback_bundle(to_a, B, A, bimodule, force=True)
    return MatchedPairData(A, B, ab, ba)


@pytest.mark.parametrize(
    "name, A, kind, bumped", _matched_pair_cases(), ids=[n for n, *_ in _matched_pair_cases()]
)
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_matched_pair_verdicts_survive_an_even_change_of_basis(name, A, kind, bumped, seed):
    B = _renamed(bump_corner(A) if bumped else A, "f")
    pair = _multiplication_pair(A, B, kind)
    P, P_inv = even_basis_change(A.space, A.context, seed)
    Q, Q_inv = even_basis_change(B.space, B.context, seed + 1)
    moved = MatchedPairData(
        change_basis(A, seed), change_basis(B, seed + 1),
        change_bundle_basis(pair.ab, P, Q, Q_inv), change_bundle_basis(pair.ba, Q, P, P_inv),
    )
    before, after = check_matched_pair(pair, kind), check_matched_pair(moved, kind)
    assert [(c.check, c.status) for c in after.checks] == [(c.check, c.status) for c in before.checks]
    references = matched_pair_references(moved, kind)
    for report in after.checks:
        if not report.passed:
            defect, sizes, names, space = references[report.check]
            found = smallest_failure(sizes, defect)
            assert found is not None, report.describe()
            assert_reports_failure(report, found, names, space)
