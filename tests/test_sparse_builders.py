"""The bundle and direct-sum builders against their dense definitions.

The builders read only nonzero cells: a regular or pullback bundle is
built from the rows of each product and an index of its cells by right
factor, and a semidirect sum or matched-pair double from each action's kept
nonzero images.  Here every operator is recomputed as f(e_i) o e_j or
e_j o f(e_i) over every basis pair, zero cells included, and every sum
table is rebuilt from every column of every operator, for every fixture
and bimodule kind and for f the identity, the twist and a seeded even
integer map (forced where it is not a morphism).

The builders whose output is graded by construction (sums and doubles,
tensor products, quotients, twists, derived algebras, commutator brackets,
substitutions, composed maps and powers) freeze their tables without a
degree check.  Every such object must equal, cell order and rows
included, what the validating constructors build from its data."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from homcolor.constructions import (
    MATCHED_PAIR_TABLE,
    MatchedPairData,
    MatchedPairKind,
    commutator_bracket,
    derived_algebra,
    matched_pair_double,
    quotient,
    rebase_presentation,
    semidirect_sum,
    tensor_product,
    yau_twist,
)
from homcolor.core import BilinearProduct, GradedSpace, LinearMap
from homcolor.representations import (
    BIMODULE_TABLE,
    ActionBundle,
    SLOT_ACTIONS,
    BimoduleKind,
    pullback_bundle,
    regular_bundle,
    slot_actions,
)
from homcolor.reports import PreconditionError
from homcolor.scalars import ScalarContext
from homcolor.serialize import (
    LoadError,
    load_presentation,
    load_presentation_file,
    substitute_presentation,
)
from tests.conftest import FIXTURES
from tests.test_properties import cross_action_family, pattern_algebra, pattern_pair

MAPS = ("identity", "twist", "seeded")


# e1 and e2 multiply e3 alike from both sides, so f(e1) = e1 - e2 acts on
# e3 by e3 - e3 = 0 on the left and on the right; its seeded map is that f.
CANCELLING = {
    "format": 1, "group": {"torsion": [2], "free": 0}, "bichar": [[-1]],
    "basis": [{"name": "e1", "deg": [0]}, {"name": "e2", "deg": [0]}, {"name": "e3", "deg": [1]}],
    "products": {
        role: [[a, b, [["e3", "1"]]]
               for a, b in (("e1", "e3"), ("e2", "e3"), ("e3", "e1"), ("e3", "e2"))]
        for role in ("dot", "diamond", "bracket")
    },
}
CANCELLING_MAP = [[1, 0, 0], [-1, 1, 0], [0, 0, 1]]


def presentations():
    """Every fixture that loads, by name, and the cancelling presentation."""
    found = {}
    for path in sorted(FIXTURES.glob("*.json")):
        if path.name == "manifest.json":
            continue
        try:
            found[path.name] = load_presentation_file(path)[0]
        except LoadError:
            continue
    found["cancelling"] = load_presentation(CANCELLING)
    return found


PRESENTATIONS = presentations()


def seeded_map(A, seed: int) -> LinearMap:
    """A seeded even map: each e_i goes to a combination, with coefficients
    in -2..2, of the basis elements of its degree."""
    rng = random.Random(seed)
    space = A.space
    columns = [
        {k: A.context.scalar(rng.randint(-2, 2))
         for k in range(A.dim) if space.degree(k) == space.degree(i)}
        for i in range(A.dim)
    ]
    return LinearMap(space, space, A.context, columns)


def the_map(name: str, f: str) -> LinearMap:
    A = PRESENTATIONS[name]
    if f == "identity":
        return LinearMap.identity(A.space, A.context)
    if f == "twist":
        return A.alpha
    if name == "cancelling":
        return LinearMap.from_rows(A.space, A.space, A.context, CANCELLING_MAP)
    return seeded_map(A, 7)


def dense_mul(A, role: str, x: dict, y: dict) -> dict:
    """x o y summed over every basis pair (a, b), zero cells included."""
    zero, table = A.context.zero, A.product(role).table
    out = {k: zero for k in range(A.dim)}
    for a in range(A.dim):
        for b in range(A.dim):
            for k, s in table.get((a, b), ()):
                out[k] = out[k] + x.get(a, zero) * y.get(b, zero) * s
    return {k: s for k, s in out.items() if not s.is_zero()}


def assert_dense_bundle(bundle, A, f: LinearMap, kind: BimoduleKind):
    """Each operator of ``bundle`` is f(e_i) o e_j (x.y actions) or
    e_j o f(e_i) (y.x actions) of the slot's product, column by column."""
    one = A.context.one
    for slot, role in BIMODULE_TABLE[kind].slots.items():
        x_y, y_x, _ = SLOT_ACTIONS[slot]
        for name, left in {y_x: False, x_y: True}.items():
            for i, op in enumerate(bundle.actions[name]):
                image = dict(f.columns[i])
                for j in range(A.dim):
                    e_j = {j: one}
                    pair = (image, e_j) if left else (e_j, image)
                    want = dense_mul(A, role, *pair)
                    assert dict(op.columns[j]) == want, (name, i, j)


def assert_rows_round_trip(bundle):
    """A bundle built from the operators that ``bundle.actions`` rebuilds
    stores the same rows."""
    families = bundle.actions
    again = ActionBundle(bundle.algebra_space, bundle.module, bundle.beta, bundle.context, families)
    assert again.actions == families
    for name in families:
        assert again.row_cells(name) == bundle.row_cells(name), name


def dense_sum_tables(A, bundles, slots, B=None) -> dict:
    """The products of A (+) the bundles' module: A's (and B's) cells, then
    every column of every operator added by the slot's cross rule, with
    each sign from ``Bicharacter.sign`` of the two degrees."""
    offset = A.dim
    degrees = A.space.degrees + bundles[0].module.degrees
    zero = A.context.zero
    tables = {}
    for slot, role in slots.items():
        entries: dict = {}

        def add(i, j, column, shift, sign=1):
            cell = entries.setdefault((i, j), {})
            for k, s in column:
                cell[k + shift] = cell.get(k + shift, zero) + (s if sign == 1 else -s)

        for (i, j), cell in A.product(role).table.items():
            add(i, j, cell, 0)
        if B is not None:
            for (i, j), cell in B.product(role).table.items():
                add(offset + i, offset + j, cell, offset)
        left, right, factor = SLOT_ACTIONS[slot]
        for bundle, x0, y0 in zip(bundles, (0, offset), (offset, 0)):
            for x, op in enumerate(bundle.actions[left]):
                for y, column in enumerate(op.columns):
                    add(x0 + x, y0 + y, column, y0)
            for x, op in enumerate(bundle.actions[right]):
                for y, column in enumerate(op.columns):
                    sign = factor(A.bichar.sign(degrees[y0 + y], degrees[x0 + x]))
                    add(y0 + y, x0 + x, column, y0, sign)
        tables[role] = entries
    return tables


def assert_sum_tables(total, A, bundles, slots, B=None):
    for role, entries in dense_sum_tables(A, bundles, slots, B).items():
        rebuilt = BilinearProduct(total.space, total.context, entries)
        assert total.product(role).table == rebuilt.table, role
    assert_as_validated(total)


def assert_map_as_validated(m: LinearMap, source=None, target=None):
    """``m``'s columns, in order, are those the validating constructor
    stores for them, between ``source`` and ``target`` (default: m's)."""
    source, target = source or m.source, target or m.target
    rebuilt = LinearMap(source, target, m.context, [dict(c) for c in m.columns], m.degree)
    assert m.columns == rebuilt.columns
    assert m.degree == rebuilt.degree and type(m.columns) is tuple


def assert_as_validated(P):
    """``P``'s space, its tables in their cell order, their rows and its
    twist's columns equal what the validating constructors build from
    its names, degrees, cells and columns."""
    space = GradedSpace(P.space.group, P.space.names, P.space.degrees)
    assert (P.space.names, P.space.degrees) == (space.names, space.degrees)
    assert P.space._index == space._index
    for role, product in P.products.items():
        cells = {key: dict(cell) for key, cell in product.table.items()}
        rebuilt = BilinearProduct(space, P.context, cells)
        assert list(product.table.items()) == list(rebuilt.table.items()), role
        assert product.row_cells == rebuilt.row_cells, role
    assert_map_as_validated(P.alpha, space, space)


CASES = [
    (name, kind, f)
    for name, A in PRESENTATIONS.items()
    for kind in BimoduleKind
    if set(BIMODULE_TABLE[kind].slots.values()) <= set(A.roles)
    for f in MAPS
]


@pytest.mark.parametrize("name, kind, f", CASES, ids=lambda v: getattr(v, "value", v))
def test_bundles_and_semidirect_sums_match_the_dense_definition(name, kind, f):
    A = PRESENTATIONS[name]
    f_map = the_map(name, f)
    bundles = [pullback_bundle(f_map, A, A, kind, force=True)]
    if f == "identity":
        bundles.append(regular_bundle(A, kind))
    for bundle in bundles:
        total = semidirect_sum(A, bundle, kind, force=True)
        assert total.dim == 2 * A.dim
        assert_sum_tables(total, A, (bundle,), BIMODULE_TABLE[kind].slots)
        # The operators, rebuilt from the rows only when read, after the
        # check and the sum read the rows.
        assert_dense_bundle(bundle, A, f_map, kind)
        assert_rows_round_trip(bundle)


@pytest.mark.parametrize("name, kind, f", [
    (name, kind, f)
    for name, A in PRESENTATIONS.items()
    for kind in MatchedPairKind
    if set(BIMODULE_TABLE[MATCHED_PAIR_TABLE[kind]].slots.values()) <= set(A.roles)
    for f in MAPS
], ids=lambda v: getattr(v, "value", v))
def test_matched_pair_doubles_match_the_dense_definition(name, kind, f):
    A = PRESENTATIONS[name]
    bimodule = MATCHED_PAIR_TABLE[kind]
    ab = pullback_bundle(the_map(name, f), A, A, bimodule, force=True)
    ba = regular_bundle(A, bimodule)
    double = matched_pair_double(MatchedPairData(A, A, ab, ba), kind, force=True)
    assert_sum_tables(double, A, (ab, ba), BIMODULE_TABLE[bimodule].slots, A)


def test_cancelling_images_leave_empty_columns():
    A = PRESENTATIONS["cancelling"]
    f = the_map("cancelling", "seeded")
    assert dict(f.columns[0]) == {0: A.context.one, 1: -A.context.one}
    bundle = pullback_bundle(f, A, A, BimoduleKind.HNP_BIMODULE, force=True)
    for name in ("s", "l", "r"):
        assert bundle.actions[name][0].columns == ((), (), ())
        assert bundle.row_cells(name)[0] == ()
    assert bundle.actions["s"][1].columns[2] == ((2, A.context.one),)


def test_pullback_along_a_map_that_is_not_even_is_refused():
    A = PRESENTATIONS["cancelling"]
    one, kind = A.context.one, BimoduleKind.HNP_BIMODULE
    # e1, e2 (degree 0) go to e3 (degree 1) and e3 to e1: not a morphism.
    odd = LinearMap(A.space, A.space, A.context, [{2: one}, {2: one}, {0: one}], degree=(1,))
    # The zero map of degree 1 passes the morphism conditions.
    zero = LinearMap.zero(A.space, A.space, A.context, degree=(1,))
    with pytest.raises(PreconditionError, match="pullback needs a verified morphism"):
        pullback_bundle(odd, A, A, kind)
    message = "pullback needs an even map, got one of degree (1,)"
    for f, force in ((odd, True), (zero, False), (zero, True)):
        with pytest.raises(ValueError) as refused:
            pullback_bundle(f, A, A, kind, force=force)
        assert str(refused.value) == message


@given(data=pattern_pair(), kind=st.sampled_from(list(MatchedPairKind)), payload=st.data())
@settings(max_examples=25)
def test_generated_doubles_and_sums_equal_their_validating_rebuilds(data, kind, payload):
    """Doubles with cross actions and sums with regular bundles of
    generated pattern algebras, whose cross cells land on both sides."""
    A, B, n_a = data
    n_b = sum(1 for name in B.names if name.startswith("u"))
    bimodule = MATCHED_PAIR_TABLE[kind]
    names = slot_actions(BIMODULE_TABLE[bimodule].slots)
    ab = payload.draw(cross_action_family((A, n_a), B.space, n_b, A.context, names))
    ba = payload.draw(cross_action_family((B, n_b), A.space, n_a, A.context, names))
    pair = MatchedPairData(
        A, B,
        ActionBundle(A.space, B.space, B.alpha, A.context, ab),
        ActionBundle(B.space, A.space, A.alpha, A.context, ba),
    )
    assert_as_validated(matched_pair_double(pair, kind, force=True))
    assert_as_validated(semidirect_sum(A, regular_bundle(A, bimodule), bimodule, force=True))


@given(data=pattern_algebra())
@settings(max_examples=25)
def test_generated_quotients_equal_their_validating_rebuilds(data):
    A, n_u = data
    assert_as_validated(quotient(A, A.names[:n_u]))


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_constructions_equal_their_validating_rebuilds(name):
    A = PRESENTATIONS[name]
    for f in MAPS:
        assert_as_validated(yau_twist(A, the_map(name, f), force=True))
    for type_, n in ((1, 1), (1, 2), (2, 2)):
        assert_as_validated(derived_algebra(A, type_, n, force=True))
    for role in A.roles:
        assert_as_validated(commutator_bracket(A, role, "pair"))
    if {"dot", "diamond"} <= set(A.roles):
        assert_as_validated(tensor_product(A, A, force=True))
    for value in (0, 1, "-1/2"):
        assert_as_validated(substitute_presentation(A, {p: value for p in A.context.params}))
    wider = A.context.union(ScalarContext(["nu9"], {"sqrt7": 7}))
    assert_as_validated(rebase_presentation(A, wider))


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_composed_maps_and_powers_equal_their_validating_rebuilds(name):
    A = PRESENTATIONS[name]
    maps = [the_map(name, f) for f in MAPS]
    for m in maps:
        for n in (0, 1, 2, 3, 5):
            assert_map_as_validated(m.power(n))
        for inner in maps:
            assert_map_as_validated(m.compose(inner))


def test_an_ideal_quotient_equals_its_validating_rebuild():
    assert_as_validated(quotient(PRESENTATIONS["gd_4dim.json"], ["e4"]))
