"""Compiled term plans against the per-tuple reference conditions.

``check_bimodule`` and ``check_matched_pair`` evaluate their conditions as
term plans, slab by slab over nonzero cells.  Here every condition is also
evaluated tuple by tuple through ``tests/reference_conditions.py`` and a
brute-force scan, on perturbed regular bundles and perturbed matched pairs
(annihilator patterns, and fixtures acting on themselves), and the two must
agree in status, witness and defect.  On dense random actions, where most
tuples fail, the plans must also give the reference defect on every tuple.
The sign tables rely on the commutation factor being bimultiplicative; that
is tested in ``tests/test_grading.py``.
"""

from itertools import product

from hypothesis import given, settings, strategies as st

import homcolor as hc
from homcolor.constructions import (
    _MP_CONDITIONS,
    _MP_ROLE_SLOTS,
    _MP_SUM_KIND,
    MatchedPairData,
    MatchedPairKind,
)
from homcolor.core import LinearMap, action_rows, product_rows
from homcolor.representations import (
    KIND_CONDITIONS as PLANS,
    KIND_PRODUCT_SLOTS,
    ActionBundle,
    BimoduleKind,
    regular_bundle,
)

from tests.conftest import load
from tests.reference_conditions import KIND_CONDITIONS, MP_CONDITIONS, BEval, MPEval
from tests.test_properties import cross_action_family, pattern_algebra, pattern_pair
from tests.util import assert_reports_failure, every_failure, smallest_failure

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
    kinds = [k for k in BimoduleKind if set(KIND_PRODUCT_SLOTS[k].values()) <= set(A.roles)]
    kind = draw(st.sampled_from(kinds))
    return A, kind, _perturbed(draw, regular_bundle(A, kind), A.space)


@settings(max_examples=150)
@given(data=perturbed_regular_bundles())
def test_compiled_bimodule_conditions_match_reference(data):
    A, kind, bundle = data
    report = hc.check_bimodule(A, bundle, kind)
    ev = BEval(A, bundle, KIND_PRODUCT_SLOTS[kind])
    axes = (A.names, A.names, bundle.module.names)
    by_label = {c.check: c for c in report.checks}
    assert list(by_label) == [label for label, _ in KIND_CONDITIONS[kind]]
    for label, defect in KIND_CONDITIONS[kind]:
        found = smallest_failure(
            (A.dim, A.dim, bundle.module.dim), lambda t: defect(ev, *t)
        )
        assert_reports_failure(by_label[label], found, axes, bundle.module)


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
        ab = ba = regular_bundle(left, _MP_SUM_KIND[kind])
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


def _reference_evaluator(pair, kind):
    """The reference helper for ``pair``, oriented from the a-side."""
    slots = _MP_ROLE_SLOTS[kind]
    return MPEval(pair.a, pair.b, pair.ab, pair.ba, **{
        k: v for k, v in (
            ("dot", slots.get("dot")), ("novikov", slots.get("novikov")), ("lie", slots.get("bracket"))
        ) if v
    })


@settings(max_examples=150)
@given(data=perturbed_matched_pairs())
def test_compiled_matched_pair_conditions_match_reference(data):
    pair, kind = data
    report = hc.check_matched_pair(pair, kind)
    by_label = {c.check: c for c in report.checks}
    base = _reference_evaluator(pair, kind)
    for label, defect in MP_CONDITIONS[kind]:
        for direction, ev, left, right in (
            ("ab", base, pair.a, pair.b),
            ("ba", base.swap(), pair.b, pair.a),
        ):
            found = smallest_failure(
                (left.dim, right.dim, right.dim), lambda t: defect(ev, *t)
            )
            axes = (left.names, right.names, right.names)
            assert_reports_failure(by_label[f"{direction}:{label}"], found, axes, right.space)


def _reference_defects(sizes, defect) -> dict:
    return {t: d for t, d in (
        (t, defect(t)) for t in product(*(range(n) for n in sizes))
    ) if d}


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


@settings(max_examples=60)
@given(kind=st.sampled_from(list(BimoduleKind)), payload=st.data())
def test_every_bimodule_defect_matches_reference(kind, payload):
    candidates = [name for name in FIXTURES if set(KIND_PRODUCT_SLOTS[kind].values()) <= set(load(name).roles)]
    A = load(payload.draw(st.sampled_from(candidates)))
    actions = {
        name: _dense_family(payload.draw, A.space, A.space, A.context)
        for name in regular_bundle(A, kind).actions
    }
    bundle = ActionBundle(A.space, A.space, A.alpha, A.context, actions)
    slots = KIND_PRODUCT_SLOTS[kind]
    ops = {slot: product_rows(A.product(role)) for slot, role in slots.items()}
    ops.update((name, action_rows(family)) for name, family in actions.items())
    axes = ((A.space, A.alpha),) * 2 + ((bundle.module, bundle.beta),)
    ev = BEval(A, bundle, slots)
    for (label, defect), (_, terms) in zip(KIND_CONDITIONS[kind], PLANS[kind]):
        want = _reference_defects((A.dim, A.dim, A.dim), lambda t: defect(ev, *t))
        assert every_failure(terms, axes, ops, A.bichar) == want, label


@settings(max_examples=60)
@given(kind=st.sampled_from(list(MatchedPairKind)), payload=st.data())
def test_every_matched_pair_defect_matches_reference(kind, payload):
    A = load(payload.draw(st.sampled_from(PAIR_FIXTURES[kind])))
    names = MATCHED_ACTIONS[kind]
    ab = ActionBundle(A.space, A.space, A.alpha, A.context, {
        name: _dense_family(payload.draw, A.space, A.space, A.context) for name in names
    })
    ba = ActionBundle(A.space, A.space, A.alpha, A.context, {
        name: _dense_family(payload.draw, A.space, A.space, A.context) for name in names
    })
    slots = _MP_ROLE_SLOTS[kind]
    base = _reference_evaluator(MatchedPairData(A, A, ab, ba), kind)
    axes = ((A.space, A.alpha),) * 3
    for ev, forward, backward in ((base, ab, ba), (base.swap(), ba, ab)):
        ops = {slot: product_rows(A.product(role)) for slot, role in slots.items()}
        for prefix, bundle in (("on_b.", forward), ("on_a.", backward)):
            ops.update((prefix + name, action_rows(family)) for name, family in bundle.actions.items())
        for (label, defect), (_, terms) in zip(MP_CONDITIONS[kind], _MP_CONDITIONS[kind]):
            want = _reference_defects((A.dim, A.dim, A.dim), lambda t: defect(ev, *t))
            assert every_failure(terms, axes, ops, A.bichar) == want, label
