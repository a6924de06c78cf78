"""The bundle and direct-sum builders against their dense definitions.

The builders read only nonzero cells: a regular or pullback bundle is
built from the rows of each product and an index of its cells by right
factor, and a semidirect sum or matched-pair double from each action's kept
nonzero images.  Here every operator is recomputed as f(e_i) o e_j or
e_j o f(e_i) over every basis pair, zero cells included, and every sum
table is rebuilt from every column of every operator, for every fixture
and bimodule kind and for f the identity, the twist and a seeded even
integer map (forced where it is not a morphism)."""

import random

import pytest

from homcolor.constructions import (
    MATCHED_PAIR_TABLE,
    MatchedPairData,
    MatchedPairKind,
    matched_pair_double,
    semidirect_sum,
)
from homcolor.core import BilinearProduct, LinearMap
from homcolor.representations import (
    BIMODULE_TABLE,
    ActionBundle,
    SLOT_ACTIONS,
    BimoduleKind,
    pullback_bundle,
    regular_bundle,
)
from homcolor.reports import PreconditionError
from homcolor.serialize import LoadError, load_presentation, load_presentation_file
from tests.conftest import FIXTURES

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
