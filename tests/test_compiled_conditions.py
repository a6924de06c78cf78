"""Compiled term plans against their definition on the sum or double.

``check_bimodule`` is the suite of the semidirect sum and
``check_matched_pair`` the suite of the double, each judged by the dense
oracle run on each member identity over ``semidirect_sum(..., force=True)``
or ``matched_pair_double(..., force=True)`` (``tests/dense_oracle.py``).  On
perturbed regular bundles and perturbed matched pairs (annihilator patterns,
and fixtures acting on themselves) the two must agree in status, witness and
defect; on dense random actions, where most tuples fail, the plans must also
give the oracle's defect on every tuple.
The evaluator drops the terms whose support is empty; the catalogued
identities are compared with ``tests/dense_oracle.py`` on annihilator
patterns, where every nested product has an empty support, and on the same
tables with one structure constant bumped; random plans on sparse random
data are compared with their formula, tuple by tuple; and terms with a
nonempty support that cancel must still pass.
The sign tables rely on the commutation factor being bimultiplicative; that
is tested in ``tests/test_grading.py``.
"""

from itertools import product

from hypothesis import given, settings, strategies as st

import homcolor as hc
from homcolor import core
from homcolor.constructions import (
    MATCHED_PAIR_TABLE,
    MatchedPairData,
    MatchedPairKind,
    double_suite_kind,
    matched_pair_double,
    semidirect_sum,
)
from homcolor.core import (
    AlgebraPresentation,
    BilinearProduct,
    Check,
    GradedSpace,
    LinearMap,
    operation,
    positions,
    run_checks,
    twisted,
)
from homcolor.grading import trivial_grading
from homcolor.identities import IDENTITY_CATALOG, SUITE_MEMBERS, _binding
from homcolor.representations import (
    BIMODULE_TABLE,
    ActionBundle,
    BimoduleKind,
    regular_bundle,
)
from homcolor.scalars import ScalarContext

from tests.conftest import load
from tests.dense_oracle import DenseOracle, bimodule_references, matched_pair_references
from tests.test_properties import cross_action_family, pattern_algebra, pattern_pair
from tests.util import (
    assert_reports_failure,
    every_failure,
    graded_targets,
    perturb,
    smallest_failure,
)

FIXTURES = (
    "assoc_3dim.json",
    "novikov_3dim.json",
    "hnp_4dim.json",
    "hnp_admissible_4dim.json",
    "gd_4dim.json",
    "hnp_to_gd_4dim.json",
    "poly_deriv_3dim.json",
)

MATCHED_ACTIONS = {
    MatchedPairKind.ASSOC: ("s",),
    MatchedPairKind.NOVIKOV: ("l", "r"),
    MatchedPairKind.LIE: ("rho",),
    MatchedPairKind.HNP: ("s", "l", "r"),
    MatchedPairKind.GD: ("l", "r", "rho"),
}

_bump = st.sampled_from([1, -1, 2, "1/2", "-3"])


def _bumped_family(draw, family, acting_space, module_space, ctx):
    """``family`` with one grading-legal entry of one operator bumped."""
    i = draw(st.integers(0, len(family) - 1))
    col = draw(st.integers(0, module_space.dim - 1))
    want = module_space.group.add(module_space.degree(col), acting_space.degree(i))
    rows = [r for r in range(module_space.dim) if module_space.degree(r) == want]
    if not rows:
        return family
    row = draw(st.sampled_from(rows))
    columns = [dict(c) for c in family[i].columns]
    columns[col][row] = columns[col].get(row, ctx.zero) + ctx.scalar(draw(_bump))
    bumped = LinearMap(module_space, module_space, ctx, columns, acting_space.degree(i))
    return family[:i] + (bumped,) + family[i + 1:]


def _bumped_twist(draw, twist, ctx):
    """``twist`` with one diagonal entry bumped (always even)."""
    i = draw(st.integers(0, twist.source.dim - 1))
    columns = [dict(c) for c in twist.columns]
    columns[i][i] = columns[i].get(i, ctx.zero) + ctx.scalar(draw(_bump))
    return LinearMap(twist.source, twist.target, ctx, columns)


def _perturbed(draw, bundle, acting_space, twist=True):
    """``bundle`` with one or two action entries bumped and, if ``twist``,
    maybe a beta entry (cross bundles of a matched pair must keep the
    opposite side's twist)."""
    ctx = bundle.context
    actions = dict(bundle.actions)
    for _ in range(draw(st.integers(1, 2))):
        name = draw(st.sampled_from(sorted(actions)))
        actions[name] = _bumped_family(draw, actions[name], acting_space, bundle.module, ctx)
    beta = bundle.beta
    if twist and draw(st.booleans()):
        beta = _bumped_twist(draw, beta, ctx)
    return ActionBundle(acting_space, bundle.module, beta, ctx, actions)


@st.composite
def perturbed_regular_bundles(draw):
    if draw(st.booleans()):
        A = load(draw(st.sampled_from(FIXTURES)))
    else:
        A, _ = draw(pattern_algebra())
    kinds = [k for k in BimoduleKind if set(BIMODULE_TABLE[k].slots.values()) <= set(A.roles)]
    kind = draw(st.sampled_from(kinds))
    return A, kind, _perturbed(draw, regular_bundle(A, kind), A.space)


def assert_checks_match(report, references):
    """Every check of ``report`` gives its reference's smallest failing
    tuple and defect, and every reference has its check."""
    assert sorted(c.check for c in report.checks) == sorted(references)
    for c in report.checks:
        defect, sizes, names, space = references[c.check]
        assert_reports_failure(c, smallest_failure(sizes, defect), names, space)


@settings(max_examples=150)
@given(data=perturbed_regular_bundles())
def test_compiled_bimodule_conditions_match_the_semidirect_sum(data):
    A, kind, bundle = data
    assert_checks_match(hc.check_bimodule(A, bundle, kind), bimodule_references(A, bundle, kind))


# Fixtures with the products each matched-pair kind needs; a fixture paired
# with itself through its regular actions gives dense cross actions.
PAIR_FIXTURES = {
    MatchedPairKind.ASSOC: ("assoc_3dim.json", "novikov_3dim.json", "hnp_4dim.json"),
    MatchedPairKind.NOVIKOV: ("novikov_3dim.json", "novikov_4dim.json", "gd_4dim.json"),
    MatchedPairKind.LIE: ("gd_4dim.json", "gd_multiplicative_4dim.json"),
    MatchedPairKind.HNP: ("hnp_4dim.json", "hnp_to_gd_4dim.json", "poly_deriv_3dim.json"),
    MatchedPairKind.GD: ("gd_4dim.json", "gd_multiplicative_4dim.json"),
}


@st.composite
def perturbed_matched_pairs(draw):
    kind = draw(st.sampled_from(list(MatchedPairKind)))
    if draw(st.booleans()):
        left = right = load(draw(st.sampled_from(PAIR_FIXTURES[kind])))
        ab = ba = regular_bundle(left, MATCHED_PAIR_TABLE[kind])
    else:
        left, right, left_n_u = draw(pattern_pair())
        names = MATCHED_ACTIONS[kind]
        ctx = left.context
        right_n_u = sum(1 for name in right.names if name.startswith("u"))
        ab = ActionBundle(left.space, right.space, right.alpha, ctx, draw(
            cross_action_family((left, left_n_u), right.space, right_n_u, ctx, names)))
        ba = ActionBundle(right.space, left.space, left.alpha, ctx, draw(
            cross_action_family((right, right_n_u), left.space, left_n_u, ctx, names)))
    side = draw(st.sampled_from(["ab", "ba", "both"]))
    if side in ("ab", "both"):
        ab = _perturbed(draw, ab, left.space, twist=False)
    if side in ("ba", "both"):
        ba = _perturbed(draw, ba, right.space, twist=False)
    return MatchedPairData(left, right, ab, ba), kind


@settings(max_examples=150)
@given(data=perturbed_matched_pairs())
def test_compiled_matched_pair_conditions_match_the_double(data):
    pair, kind = data
    assert_checks_match(hc.check_matched_pair(pair, kind), matched_pair_references(pair, kind))


def _every_defect(sizes, defect) -> dict:
    return {t: d for t, d in ((t, defect(t)) for t in product(*(range(n) for n in sizes))) if d}


def _dense_family(draw, acting, module, ctx):
    """One operator per acting basis element, every grading-legal entry drawn."""
    family = []
    for i in range(acting.dim):
        columns = [{} for _ in range(module.dim)]
        for col in range(module.dim):
            want = module.group.add(module.degree(col), acting.degree(i))
            for row in range(module.dim):
                if module.degree(row) == want:
                    c = draw(st.sampled_from([0, 0, 1, -1, 2]))
                    if c:
                        columns[col][row] = ctx.scalar(c)
        family.append(LinearMap(module, module, ctx, columns, acting.degree(i)))
    return tuple(family)


def assert_every_defect_matches(total, suite, references):
    """Every member identity of ``suite`` has on every tuple of ``total``
    the defect its reference gives."""
    for tag, override in SUITE_MEMBERS[suite]:
        ops = {name: total.product(role).row_cells for name, role in _binding(tag, override)}
        spec = IDENTITY_CATALOG[tag]
        defect, sizes, _, _ = references[tag]
        assert every_failure(spec.terms, total, ops) == _every_defect(sizes, defect), tag


@settings(max_examples=60)
@given(kind=st.sampled_from(list(BimoduleKind)), payload=st.data())
def test_every_bimodule_defect_matches_the_semidirect_sum(kind, payload):
    slots = BIMODULE_TABLE[kind].slots
    candidates = [name for name in FIXTURES if set(slots.values()) <= set(load(name).roles)]
    A = load(payload.draw(st.sampled_from(candidates)))
    actions = {
        name: _dense_family(payload.draw, A.space, A.space, A.context)
        for name in regular_bundle(A, kind).actions
    }
    bundle = ActionBundle(A.space, A.space, A.alpha, A.context, actions)
    total = semidirect_sum(A, bundle, kind, force=True)
    assert_every_defect_matches(total, BIMODULE_TABLE[kind].suite, bimodule_references(A, bundle, kind))


@settings(max_examples=60)
@given(kind=st.sampled_from(list(MatchedPairKind)), payload=st.data())
def test_every_double_defect_matches_the_oracle(kind, payload):
    A = load(payload.draw(st.sampled_from(PAIR_FIXTURES[kind])))
    names = MATCHED_ACTIONS[kind]
    ab, ba = (
        ActionBundle(A.space, A.space, A.alpha, A.context, {
            name: _dense_family(payload.draw, A.space, A.space, A.context) for name in names
        })
        for _ in range(2)
    )
    pair = MatchedPairData(A, A, ab, ba)
    double = matched_pair_double(pair, kind, force=True)
    assert_every_defect_matches(double, double_suite_kind(kind), matched_pair_references(pair, kind))


# -- terms whose support is empty --------------------------------------------


@st.composite
def pruned_inputs(draw):
    """An annihilator-pattern algebra, on which every nested product has an
    empty support, or the same tables with one grading-legal structure
    constant bumped, so that the nested terms that fail get their support
    from that one cell (cells with an annihilator input are drawn first)."""
    A, n_u = draw(pattern_algebra(max_w=2))
    if draw(st.booleans()):
        cells = sorted(
            ((role, i, j, k) for role in A.roles for i in range(A.dim) for j in range(A.dim)
             for k in graded_targets(A, i, j)),
            key=lambda cell: min(cell[1], cell[2]) >= n_u,
        )
        if cells:
            role, i, j, k = draw(st.sampled_from(cells))
            A = perturb(A, role, i, j, k, draw(st.sampled_from([1, -1, 2, "1/2"])))
    return A


@settings(max_examples=25)
@given(A=pruned_inputs())
def test_pruned_pass_matches_dense_oracle(A):
    # Every catalogued identity in one pass (arity 4 only up to dim 3, to
    # bound the oracle's dense scan), each against the oracle's smallest
    # failing tuple and its defect there.
    specs = [spec for spec in IDENTITY_CATALOG.values() if spec.arity < 4 or A.dim <= 3]
    checks = [Check(spec.tag, (spec.terms, spec.defaults)) for spec in specs]
    ops = {role: A.product(role).row_cells for role in A.roles}
    oracle = DenseOracle(A)
    for spec, report in zip(specs, run_checks(checks, A, ops, A.space)):
        assert report.check == spec.tag
        roles = dict(spec.defaults)
        t = oracle.check(spec.tag, roles, spec.arity)
        found = None
        if t is not None:
            defect = oracle.defect(spec.tag, roles, t)
            found = (t, {k: s for k, s in enumerate(defect) if s.terms})
        assert_reports_failure(report, found, A.names, A.space)


_entry = st.sampled_from([1, -1, 2])


def _sparse_map(draw, space, ctx):
    return LinearMap(space, space, ctx, [
        {k: ctx.scalar(draw(_entry)) for k in range(space.dim) if not draw(st.integers(0, 3))}
        for _ in range(space.dim)
    ])


def _sparse_product(draw, space, ctx):
    n = space.dim
    return BilinearProduct(space, ctx, {
        (i, j): {k: ctx.scalar(draw(_entry)) for k in range(n) if not draw(st.integers(0, 2))}
        for i, j in product(range(n), repeat=2) if not draw(st.integers(0, 2))
    })


def _random_tree(draw, held):
    """A tree holding the positions ``held``: leaves with twist powers 0-2
    and bilinear nodes ``a`` and ``b``, each maybe under the map ``f``."""
    if len(held) == 1:
        tree = (held[0], draw(st.integers(0, 2)))
    else:
        k = draw(st.integers(1, len(held) - 1))
        tree = (draw(st.sampled_from("ab")), _random_tree(draw, held[:k]), _random_tree(draw, held[k:]))
    return ("f", tree) if not draw(st.integers(0, 2)) else tree


@settings(max_examples=100)
@given(payload=st.data())
def test_random_plans_on_sparse_data_match_the_tree_formula(payload):
    # Sparse random twist, map and products (trivial grading, so every cell
    # is legal), and one to three random terms, maybe with the negation of
    # the first: every failing tuple and its sum must be what the terms'
    # formula gives, tuple by tuple.
    draw = payload.draw
    group, bichar = trivial_grading()
    ctx = ScalarContext()
    n, arity = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    space = GradedSpace(group, [f"e{i}" for i in range(n)], [[] for _ in range(n)])
    alpha, f = _sparse_map(draw, space, ctx), _sparse_map(draw, space, ctx)
    products = {name: _sparse_product(draw, space, ctx) for name in "ab"}
    terms = [
        (draw(_entry), (), _random_tree(draw, draw(st.permutations(range(arity)))))
        for _ in range(draw(st.integers(1, 3)))
    ]
    if draw(st.booleans()):
        terms.append((-terms[0][0], (), terms[0][2]))

    def value(tree, t):
        if not isinstance(tree[0], str):
            vec = {t[tree[0]]: ctx.one}
            for _ in range(tree[1]):
                vec = alpha.apply(vec)
            return vec
        if len(tree) == 2:
            return f.apply(value(tree[1], t))
        return core._mul(products[tree[0]].table, value(tree[1], t), value(tree[2], t))

    want = {}
    for t in product(range(n), repeat=arity):
        total = {}
        for coeff, _, tree in terms:
            total = core.vec_add(total, core.vec_scale(ctx.scalar(coeff), value(tree, t)))
        if total:
            want[t] = total
    ops = {"a": products["a"].row_cells, "b": products["b"].row_cells, "f": f.columns}
    A = AlgebraPresentation(space, bichar, ctx, {}, alpha)
    assert every_failure(tuple(terms), A, ops) == want


def test_a_map_node_support_follows_its_columns():
    # e0 .a e0 = e1, f(e1) = e2 and e2 .b e0 = e2: f(x .a y) .b z is e2 at
    # (e0, e0, e0), reached only through f's column of e1, which leaves the
    # support {e1} of x .a y.
    group, bichar = trivial_grading()
    ctx = ScalarContext()
    space = GradedSpace(group, ["e0", "e1", "e2"], [[], [], []])
    one = ctx.one
    f = LinearMap(space, space, ctx, [{}, {2: one}, {}])
    ops = {
        "a": BilinearProduct(space, ctx, {(0, 0): {1: one}}).row_cells,
        "b": BilinearProduct(space, ctx, {(2, 0): {2: one}}).row_cells,
        "f": f.columns,
    }
    x, y, z = positions(3)
    a, b, g = (operation(name) for name in "abf")
    A = AlgebraPresentation(space, bichar, ctx, {}, LinearMap.identity(space, ctx))
    assert every_failure(((1, (), b(g(a(x, y)), z)),), A, ops) == {(0, 0, 0): {2: one}}


def test_terms_with_a_support_that_cancel_still_pass(monkeypatch):
    # e0.e2 = e2.e0 = e2 and e1.e2 = e2.e1 = -e2, with alpha(e0) = e0 + e1
    # and alpha(e1) = alpha(e2) = 0.  alpha(x).y has the support {e2}, but
    # alpha(e0).e2 = e2 - e2 = 0 inside the join; x.y - y.x has the support
    # {e2} in both terms, which cancel.  The pass evaluates them and passes.
    group, bichar = trivial_grading()
    ctx = ScalarContext()
    space = GradedSpace(group, ["e0", "e1", "e2"], [[], [], []])
    one, minus = ctx.scalar(1), ctx.scalar(-1)
    dot = BilinearProduct(space, ctx, {
        (0, 2): {2: one}, (2, 0): {2: one}, (1, 2): {2: minus}, (2, 1): {2: minus},
    })
    alpha = LinearMap(space, space, ctx, [{0: one, 1: one}, {}, {}])
    A = AlgebraPresentation(space, bichar, ctx, {"dot": dot}, alpha)
    x, y = positions(2)
    a = operation("a")
    checks = [
        Check("twisted", (((1, (), a(twisted(x), y)),), (("a", "dot"),))),
        Check("commutator", (((1, (), a(x, y)), (-1, (), a(y, x))), (("a", "dot"),))),
    ]
    joins = []
    join = core._join
    monkeypatch.setattr(core, "_join", lambda *args: joins.append(1) or join(*args))
    reports = run_checks(checks, A, {"dot": dot.row_cells}, A.space)
    for report in reports:
        assert_reports_failure(report, None, A.names, A.space)
    assert joins
    # The same plans fail once the cancellation is broken.
    B = perturb(A, "dot", 1, 2, 2, 1)
    reports = run_checks(checks, B, {"dot": B.product("dot").row_cells}, B.space)
    for report, found in zip(reports, [((0, 2), {2: one}), ((1, 2), {2: one})]):
        assert_reports_failure(report, found, B.names, B.space)
