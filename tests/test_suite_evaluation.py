"""One evaluation per suite call against member-by-member evaluation.

``run_suite`` and ``check_gi_identities`` evaluate all their members in one
pass over whole index tuples, and then hand out each member's report
through ``check_identity``.  A direct
``check_identity`` call outside any suite evaluates its identity as a suite
of one.  The two must give the same report for every member: status,
witness, defect, roles, detail and preconditions.  Inputs are fixtures and
generated pattern algebras with up to three perturbed structure constants,
so that members often fail at tuples with different first indices while
others pass.  On an annihilator pattern the pass builds no map of a term
that is zero on every tuple, and one pass joins each bilinear subtree at
most once.

A node map's values are cells, tuples of (index, nonzero scalar) with
distinct indices: a product of two plain basis elements holds its table's
own cells, on a dense basis too no value keeps a zero, and a plan's sum per
tuple keeps exactly the components that do not cancel.
"""

import pytest
from hypothesis import given, settings, strategies as st

import homcolor as hc
from homcolor import core
from homcolor.core import AlgebraPresentation, BilinearProduct, GradedSpace, LinearMap
from homcolor.grading import trivial_grading
from homcolor.identities import (
    IDENTITY_CATALOG,
    SUITE_MEMBERS,
    _GI_MEMBERS,
    _suite_report,
    check_identity,
    required_roles,
)
from homcolor.scalars import ScalarContext

from tests.conftest import load
from tests.dense_oracle import d_basis, d_mul, dense_product
from tests.test_basis_change import _suites
from tests.test_dense_tables import FIXTURE_LIST as DENSE
from tests.test_properties import pattern_algebra
from tests.util import change_basis, graded_targets, perturb

FIXTURES = (
    "assoc_3dim.json",
    "novikov_4dim.json",
    "hnp_4dim.json",
    "hnp_admissible_4dim.json",
    "hnp_admissible_mult_synth_4dim.json",
    "gd_4dim.json",
    "gd_multiplicative_4dim.json",
    "hnp_to_gd_4dim.json",
    "poly_deriv_3dim.json",
)

MULTIPLICATIVE = ("hnp_admissible_mult_synth_4dim.json", "poly_deriv_3dim.json")


@st.composite
def perturbed(draw, A):
    """``A`` with zero to three grading-legal structure constants bumped."""
    for _ in range(draw(st.integers(0, 3))):
        role = draw(st.sampled_from(A.roles))
        i, j = draw(st.integers(0, A.dim - 1)), draw(st.integers(0, A.dim - 1))
        targets = graded_targets(A, i, j)
        if targets:
            A = perturb(A, role, i, j, draw(st.sampled_from(targets)),
                        draw(st.sampled_from([1, -1, 2, "1/2"])))
    return A


@st.composite
def suite_inputs(draw):
    if draw(st.booleans()):
        A = load(draw(st.sampled_from(FIXTURES)))
    else:
        A, _ = draw(pattern_algebra())
    return draw(perturbed(A))


def members_one_by_one(A, members):
    return [check_identity(A, tag, roles=override).to_dict() for tag, override in members]


def assert_suite_matches_members(A, kind):
    suite = hc.run_suite(A, kind)
    assert [c.to_dict() for c in suite.checks] == members_one_by_one(A, SUITE_MEMBERS[kind])
    return suite


@settings(max_examples=150)
@given(A=suite_inputs())
def test_every_suite_equals_its_members_checked_one_by_one(A):
    for kind in hc.StructureKind:
        if set(required_roles(kind)) <= set(A.roles):
            assert_suite_matches_members(A, kind)


def test_members_failing_at_different_first_indices():
    # dot(e2, e1) bumped by e2: EPS_COMM's smallest witness starts at e1,
    # HOM_ASSOC's and HNP_COMPAT_1's at e2, and NOVIKOV_LSYM, NOVIKOV_RCOMM
    # and HNP_COMPAT_2 pass.
    A = perturb(load("hnp_admissible_mult_synth_4dim.json"), "dot", 1, 0, 1, 1)
    suite = assert_suite_matches_members(A, hc.StructureKind.HNP)
    firsts = [c.witness[0] if c.witness else None for c in suite.checks]
    assert firsts == ["e1", "e2", None, None, "e2", None]


@settings(max_examples=40)
@given(name=st.sampled_from(MULTIPLICATIVE), payload=st.data())
def test_gi_suite_equals_its_members_checked_one_by_one(name, payload):
    pair = hc.commutator_bracket(payload.draw(perturbed(load(name))), "diamond")
    gi = hc.check_gi_identities(pair)
    if gi.checks[0].check == "GI_PRECONDITIONS":
        return
    assert [c.to_dict() for c in gi.checks] == members_one_by_one(pair, _GI_MEMBERS)


@settings(max_examples=60)
@given(name=st.sampled_from(("gd_4dim.json", "gd_multiplicative_4dim.json")), payload=st.data())
def test_mixed_arity_gi_pass_equals_members(name, payload):
    # GI_1..GI_4 hold wherever their preconditions do, so their failures are
    # reached by evaluating them without the transposed-Leibniz precondition:
    # arity 3 and arity 4 in one pass, on an identity twist, which is
    # multiplicative for every product, so the direct calls evaluate too.
    A = load(name)
    A = payload.draw(perturbed(A.with_products(A.products, LinearMap.identity(A.space, A.context))))
    suite = _suite_report(A, "gi", _GI_MEMBERS)
    assert [c.to_dict() for c in suite.checks] == members_one_by_one(A, _GI_MEMBERS)


def test_gi_members_failing_at_different_first_indices():
    # bracket(e3, e1) bumped by e3: GI_1's (arity 3) smallest witness starts
    # at e1, GI_4's (arity 4) at e3, and GI_2 and GI_3 pass.
    A = load("gd_4dim.json")
    A = perturb(A.with_products(A.products, LinearMap.identity(A.space, A.context)),
                "bracket", 2, 0, 2, 1)
    suite = _suite_report(A, "gi", _GI_MEMBERS)
    assert [c.to_dict() for c in suite.checks] == members_one_by_one(A, _GI_MEMBERS)
    assert [c.witness[0] if c.witness else None for c in suite.checks] == ["e1", None, None, "e3"]


def _annihilator_pattern():
    """u0, u1 multiply everything to zero; wi.wj = wj.wi = (i + j + 1)
    u_{(i + j) mod 2}, and the twist is 4 on the u's and 2 on the w's."""
    group, bichar = trivial_grading()
    ctx = ScalarContext()
    names = ["u0", "u1", "w0", "w1", "w2", "w3"]
    space = GradedSpace(group, names, [[] for _ in names])
    dot = {
        (2 + i, 2 + j): {(i + j) % 2: ctx.scalar(i + j + 1)} for i in range(4) for j in range(4)
    }
    alpha = LinearMap(space, space, ctx, [{i: ctx.scalar(4 if i < 2 else 2)} for i in range(6)])
    return AlgebraPresentation(space, bichar, ctx, {"dot": BilinearProduct(space, ctx, dot)}, alpha)


def test_terms_zero_on_every_tuple_are_never_joined(monkeypatch):
    # Every nested product lands on u0 or u1 and then vanishes, so every
    # term of HOM_ASSOC, NOVIKOV_LSYM and NOVIKOV_RCOMM has an empty support
    # and is dropped before any map is built; only EPS_COMM's single
    # products x.y and y.x are joined, and they share one node, so one join.
    A = _annihilator_pattern()
    joins = []
    join = core._join
    monkeypatch.setattr(core, "_join", lambda *args: joins.append(1) or join(*args))
    assert hc.run_suite(A, hc.StructureKind.HOM_NOVIKOV).passed
    assert len(joins) == 0
    assert hc.run_suite(A, hc.StructureKind.EPS_COMM_ASSOC).passed
    assert len(joins) == 1


@settings(max_examples=60)
@given(A=suite_inputs())
def test_one_pass_joins_each_bilinear_node_at_most_once(A):
    # Every catalogued identity whose roles A has, arity 4 only up to dim 4,
    # in one run_checks call.  A join is keyed by its rows and its two
    # operand maps, which the pass keeps until it returns: no key may repeat,
    # and there are no more joins than bilinear nodes in _compile's output.
    specs = [
        spec for spec in IDENTITY_CATALOG.values()
        if {role for _, role in spec.defaults} <= set(A.roles) and (spec.arity < 4 or A.dim <= 4)
    ]
    checks = [core.Check(spec.tag, (spec.terms, spec.defaults)) for spec in specs]
    nodes, _ = core._compile(tuple(c.plan for c in checks))
    bilinear = sum(1 for name, _, b in nodes if name is not None and b is not None)
    ops = {role: A.product(role).row_cells for role in A.roles}
    joins = []
    join = core._join
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_join", lambda rows, left, right, one: joins.append(
            (id(rows), id(left), id(right))) or join(rows, left, right, one))
        core.run_checks(checks, A, ops, A.space)
    assert len(joins) == len(set(joins))
    assert len(joins) <= bilinear


def recorded_maps(patch) -> list:
    """Record (node, nodes, ops, map) for every node map that a pass hands
    out, by wrapping ``core._node_map``, which builds each map once."""
    seen = []
    build = core._node_map

    def record(nid, state):
        found = build(nid, state)
        seen.append((state[0][nid], state[0], state[3], found))
        return found

    patch.setattr(core, "_node_map", record)
    return seen


@pytest.mark.parametrize("name", FIXTURES)
def test_plain_products_hold_the_tables_own_cells(name):
    # x.y of two untwisted leaves reads each cell as stored, not a copy.
    A = load(name)
    plain = (None, 0, None)
    held = 0
    for kind in hc.StructureKind:
        if not set(required_roles(kind)) <= set(A.roles):
            continue
        with pytest.MonkeyPatch.context() as patch:
            seen = recorded_maps(patch)
            hc.run_suite(A, kind)
        for (op, a, b), nodes, ops, found in seen:
            if op is None or b is None or nodes[a] != plain or nodes[b] != plain:
                continue
            for (i, j), value in found.items():
                assert value is dict(ops[op][i])[j]
                held += 1
    assert held


@pytest.mark.parametrize("name, A", DENSE, ids=[name for name, _ in DENSE])
@settings(max_examples=3)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_node_values_on_a_dense_basis_are_cells(name, A, seed):
    B = change_basis(A, seed)
    for _, run in _suites(B):
        with pytest.MonkeyPatch.context() as patch:
            seen = recorded_maps(patch)
            run(B)
        for _, _, _, found in seen:
            for value in found.values():
                assert type(value) is tuple and value
                indices = [k for k, _ in value]
                assert len(set(indices)) == len(indices)
                assert all(s.terms for _, s in value)


_x2, _y2 = core.positions(2)
_o, _P, _Q = (core.operation(name) for name in ("o", "P", "Q"))
# x.y - Q(x.y) is P(x.y): the components outside the subset cancel.
_KEEPS_SUBSET = ((1, (), _o(_x2, _y2)), (-1, (), _Q(_o(_x2, _y2))))
# x.y - Q(x.y) - P(x.y) cancels on every tuple.
_CANCELS = _KEEPS_SUBSET + ((-1, (), _P(_o(_x2, _y2))),)


@settings(max_examples=40)
@given(data=st.data(), seed=st.integers(min_value=0, max_value=2**16))
def test_tuple_sums_keep_exactly_the_components_that_do_not_cancel(data, seed):
    _, A = data.draw(st.sampled_from(DENSE))
    B = change_basis(A, seed)
    role = data.draw(st.sampled_from(B.roles))
    subset = data.draw(st.sets(st.integers(0, B.dim - 1)))
    one = B.context.one
    ops = {
        "o": B.product(role).row_cells,
        "P": [((i, one),) if i in subset else () for i in range(B.dim)],
        "Q": [() if i in subset else ((i, one),) for i in range(B.dim)],
    }
    binding = (("P", "P"), ("Q", "Q"), ("o", "o"))
    failed = core.term_failures([(_KEEPS_SUBSET, binding), (_CANCELS, binding)], B, ops)
    table = dense_product(B, role)
    want = {}
    for i in range(B.dim):
        for j in range(B.dim):
            value = d_mul(table, d_basis(B, i), d_basis(B, j))
            kept = {k: s for k, s in enumerate(value) if k in subset and s.terms}
            if kept:
                want[(i, j)] = kept
    assert failed == ({0: want} if want else {})
