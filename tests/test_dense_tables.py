"""Each construction's table on a dense basis, against its definition.

Every fixture is rewritten in a seeded even integer basis
(``tests/util.change_basis``), in which most cells are nonzero, so a
builder that adds several cells at one key really sums them, and a sum
that cancels must leave no cell.  Each table is compared, cell order and
dropped zero cells included, with its definition written densely with
``tests/dense_oracle``:

- the commutator [x, y] = x o y - eps(x, y) y o x;
- the tensor product (e_p1 e_p2)(e_q1 e_q2) = eps(p2, q1) (e_p1 e_q1)(e_p2 e_q2)
  for dot, the sum of the (diamond, dot) and (dot, diamond) terms for
  diamond, and the twist alpha (x) alpha;
- the derivation product x o y = x . D(y), for D the twist and a seeded
  even map;
- the rows of a pullback bundle, e_i acting on e_j by f(e_i) o e_j or
  e_j o f(e_i) through each slot's product.
"""

import pytest
from hypothesis import given, settings, strategies as st

from homcolor.constructions import (
    commutator_bracket,
    novikov_from_derivation,
    rebase_presentation,
    tensor_product,
)
from homcolor.representations import (
    BIMODULE_TABLE,
    SLOT_ACTIONS,
    BimoduleKind,
    pullback_bundle,
)

from tests.dense_oracle import (
    d_add,
    d_apply,
    d_basis,
    d_mul,
    d_scale,
    d_sub,
    dense_alpha,
    dense_product,
)
from tests.test_basis_change import _fixtures
from tests.test_sparse_builders import seeded_map
from tests.util import change_basis

FIXTURE_LIST = _fixtures()
IDS = [name for name, _ in FIXTURE_LIST]
SEEDS = st.integers(min_value=0, max_value=2**16)


def _frozen(dense) -> tuple:
    return tuple((k, s) for k, s in enumerate(dense) if s.terms)


def _table(n: int, cell) -> dict:
    """The frozen table whose cell (i, j) is the dense vector cell(i, j),
    without its zero cells."""
    out = {}
    for i in range(n):
        for j in range(n):
            frozen = _frozen(cell(i, j))
            if frozen:
                out[(i, j)] = frozen
    return out


def _map_rows(m):
    """The dense matrix of a LinearMap, rows indexed by the target basis."""
    zero = m.context.zero
    rows = [[zero] * m.source.dim for _ in range(m.target.dim)]
    for c, column in enumerate(m.columns):
        for r, s in column:
            rows[r][c] = s
    return rows


@pytest.mark.parametrize("name, A", FIXTURE_LIST, ids=IDS)
@settings(max_examples=10)
@given(seed=SEEDS)
def test_commutator_is_its_definition(name, A, seed):
    B = change_basis(A, seed)
    e = lambda i: d_basis(B, i)
    for role in B.roles:
        t = dense_product(B, role)
        want = _table(B.dim, lambda i, j: d_sub(
            d_mul(t, e(i), e(j)), d_scale(B.eps(i, j), d_mul(t, e(j), e(i)))
        ))
        built = commutator_bracket(B, role, "commutator")
        assert built.product("commutator").table == want, role


def _tensor_factors():
    """(name, A, the fixtures A may be tensored with) for each fixture with
    dot and diamond: those with dot, diamond and A's grading context."""
    roles = {"dot", "diamond"}
    out = []
    for name, A in FIXTURE_LIST:
        if not roles <= set(A.roles):
            continue
        partners = [
            R for _, R in FIXTURE_LIST
            if roles <= set(R.roles) and R.space.group == A.space.group and R.bichar == A.bichar
        ]
        out.append((name, A, partners))
    return out


TENSOR_FACTORS = _tensor_factors()


@pytest.mark.parametrize("name, A, partners", TENSOR_FACTORS, ids=[n for n, _, _ in TENSOR_FACTORS])
@settings(max_examples=10)
@given(data=st.data(), seed=SEEDS)
def test_tensor_product_is_its_definition(name, A, partners, data, seed):
    L = change_basis(A, seed)
    R = change_basis(data.draw(st.sampled_from(partners)), seed + 1)
    T = tensor_product(L, R, force=True)
    # Factors over different parameters are compared over their union.
    L, R = rebase_presentation(L, T.context), rebase_presentation(R, T.context)
    nR = R.dim

    def cross(t1, t2):
        def cell(a, b):
            (p1, p2), (q1, q2) = divmod(a, nR), divmod(b, nR)
            left = d_mul(t1, d_basis(L, p1), d_basis(L, q1))
            right = d_mul(t2, d_basis(R, p2), d_basis(R, q2))
            sign = L.bichar.sign(R.space.degree(p2), L.space.degree(q1))
            return d_scale(sign, [x * y for x in left for y in right])
        return cell

    dot1, dot2 = dense_product(L, "dot"), dense_product(R, "dot")
    dia1, dia2 = dense_product(L, "diamond"), dense_product(R, "diamond")
    n = T.dim
    assert T.product("dot").table == _table(n, cross(dot1, dot2))
    first, second = cross(dia1, dot2), cross(dot1, dia2)
    assert T.product("diamond").table == _table(n, lambda a, b: d_add(first(a, b), second(a, b)))
    a1, a2 = dense_alpha(L), dense_alpha(R)
    columns = tuple(
        _frozen([a1[k1][c1] * a2[k2][c2] for k1 in range(L.dim) for k2 in range(nR)])
        for c1 in range(L.dim)
        for c2 in range(nR)
    )
    assert T.alpha.columns == columns


@pytest.mark.parametrize("name, A", FIXTURE_LIST, ids=IDS)
@pytest.mark.parametrize("derivation", ("twist", "seeded"))
@settings(max_examples=10)
@given(seed=SEEDS)
def test_derivation_product_is_its_definition(name, A, derivation, seed):
    B = change_basis(A, seed)
    D = B.alpha if derivation == "twist" else seeded_map(B, seed)
    dot, rows = dense_product(B, "dot"), _map_rows(D)
    want = _table(B.dim, lambda i, j: d_mul(dot, d_basis(B, i), d_apply(rows, d_basis(B, j))))
    built = novikov_from_derivation(B, D, "derived", force=True)
    assert built.product("derived").table == want


def _pullback_cases():
    return [
        (name, A, kind)
        for name, A in FIXTURE_LIST
        for kind in BimoduleKind
        if set(BIMODULE_TABLE[kind].slots.values()) <= set(A.roles)
    ]


PULLBACK_CASES = _pullback_cases()


@pytest.mark.parametrize(
    "name, A, kind", PULLBACK_CASES, ids=[f"{n}-{k.value}" for n, _, k in PULLBACK_CASES]
)
@pytest.mark.parametrize("along", ("twist", "seeded"))
@settings(max_examples=10)
@given(seed=SEEDS)
def test_pullback_rows_are_their_definition(name, A, kind, along, seed):
    source, target = change_basis(A, seed), change_basis(A, seed + 1)
    f = target.alpha if along == "twist" else seeded_map(source, seed)
    bundle = pullback_bundle(f, source, target, kind, force=True)
    f_rows = _map_rows(f)
    for slot, role in BIMODULE_TABLE[kind].slots.items():
        x_y, y_x, _ = SLOT_ACTIONS[slot]
        t = dense_product(target, role)
        for action, on_left in {y_x: False, x_y: True}.items():
            want = []
            for i in range(source.dim):
                image = d_apply(f_rows, d_basis(source, i))
                row = []
                for j in range(target.dim):
                    e_j = d_basis(target, j)
                    column = _frozen(d_mul(t, image, e_j) if on_left else d_mul(t, e_j, image))
                    if column:
                        row.append((j, column))
                want.append(tuple(row))
            assert bundle.row_cells(action) == tuple(want), (slot, action)
