"""Theorem-backed closure properties over generated algebra instances.

The generator produces graded algebras in an annihilator pattern: products
map the span of `w*` basis elements into the span of `u*` elements, which
multiply everything to zero.  Such tables satisfy every suite in the catalog
for any grading-compatible choice of constants, the commutative product is
built eps-symmetric, the bracket eps-skew, and the twist is a block scalar
map, so hypotheses like multiplicativity hold by construction.  Each
property then asserts the construction's closure theorem on the output.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import homcolor as hc
from homcolor.core import AlgebraPresentation, BilinearProduct, GradedSpace, LinearMap
from homcolor.constructions import MatchedPairData, MatchedPairKind, double_suite_kind
from homcolor.grading import super_z2, trivial_grading, z2_pow, z2xz2_sympl, zxz_total
from homcolor.representations import ActionBundle, BimoduleKind, regular_bundle
from homcolor.scalars import ScalarContext

GRADINGS = {
    "super": super_z2,
    "z2sq": lambda: z2_pow(2),
    "sympl": z2xz2_sympl,
    "zxz": zxz_total,
    "trivial": trivial_grading,
}

_coeff = st.integers(min_value=-2, max_value=2)
_scale = st.sampled_from([1, 2, -1, Fraction(1, 2), -3])


def _block_scalar_map(space: GradedSpace, ctx: ScalarContext, n_u: int, a) -> LinearMap:
    columns = []
    for i in range(space.dim):
        factor = ctx.scalar(a * a if i < n_u else a)
        columns.append({i: factor} if not factor.is_zero() else {})
    return LinearMap(space, space, ctx, columns)


@st.composite
def pattern_algebra(draw, grading=None, max_w=3):
    """Random annihilator-pattern algebra with dot, diamond, and bracket."""
    if grading is None:
        grading = GRADINGS[draw(st.sampled_from(sorted(GRADINGS)))]()
    group, bichar = grading
    ctx = ScalarContext()
    n_u = draw(st.integers(min_value=1, max_value=2))
    n_w = draw(st.integers(min_value=1, max_value=max_w))
    rank = group.rank
    degrees = [
        group.element([draw(st.integers(-1, 2)) for _ in range(rank)])
        for _ in range(n_u + n_w)
    ]
    names = [f"u{i}" for i in range(n_u)] + [f"w{i}" for i in range(n_w)]
    space = GradedSpace(group, names, degrees)
    w_indices = range(n_u, n_u + n_w)

    def targets(i, j):
        want = group.add(space.degree(i), space.degree(j))
        return [k for k in range(n_u) if space.degree(k) == want]

    dot, diamond, bracket = {}, {}, {}
    for pos, i in enumerate(w_indices):
        for j in list(w_indices)[pos:]:
            legal = targets(i, j)
            if not legal:
                continue
            k = draw(st.sampled_from(legal))
            sign = bichar.sign(space.degree(i), space.degree(j))
            c = draw(_coeff)
            if c:
                if i == j:
                    if sign == 1:
                        dot[(i, i)] = {k: ctx.scalar(c)}
                    else:
                        bracket[(i, i)] = {k: ctx.scalar(c)}
                else:
                    dot[(i, j)] = {k: ctx.scalar(c)}
                    dot[(j, i)] = {k: ctx.scalar(sign * c)}
                    bracket[(i, j)] = {k: ctx.scalar(c)}
                    bracket[(j, i)] = {k: ctx.scalar(-sign * c)}
            d = draw(_coeff)
            if d:
                diamond[(i, j)] = {k: ctx.scalar(d)}
            if i != j:
                d = draw(_coeff)
                if d:
                    diamond[(j, i)] = {k: ctx.scalar(d)}

    alpha = _block_scalar_map(space, ctx, n_u, draw(_scale))
    products = {
        "dot": BilinearProduct(space, ctx, dot),
        "diamond": BilinearProduct(space, ctx, diamond),
        "bracket": BilinearProduct(space, ctx, bracket),
    }
    A = AlgebraPresentation(space, bichar, ctx, products, alpha)
    return A, n_u


@st.composite
def pattern_pair(draw, max_w=2):
    """Two pattern algebras over one grading and scalar context."""
    grading = GRADINGS[draw(st.sampled_from(sorted(GRADINGS)))]()
    left, n_u = draw(pattern_algebra(grading=grading, max_w=max_w))
    right, _ = draw(pattern_algebra(grading=grading, max_w=max_w))
    return left, right, n_u


ALL_KINDS = (
    hc.StructureKind.ADMISSIBLE_HNP,
    hc.StructureKind.TRANSPOSED_POISSON,
    hc.StructureKind.HOM_GD,
)


@settings(max_examples=100)
@given(data=pattern_algebra())
def test_generated_algebras_pass_every_suite(data):
    A, _ = data
    for kind in ALL_KINDS:
        assert hc.run_suite(A, kind).passed


@settings(max_examples=100)
@given(data=pattern_algebra(), c=_scale)
def test_twist_closure(data, c):
    A, n_u = data
    m = _block_scalar_map(A.space, A.context, n_u, c)
    assert hc.is_morphism(m, A, A).passed
    twisted = hc.yau_twist(A, m)
    for kind in ALL_KINDS:
        assert hc.run_suite(twisted, kind).passed


@settings(max_examples=100)
@given(data=pattern_algebra(), type_=st.sampled_from([1, 2]), n=st.integers(1, 3))
def test_derived_closure(data, type_, n):
    A, _ = data
    derived = hc.derived_algebra(A, type_, n)
    for kind in ALL_KINDS:
        assert hc.run_suite(derived, kind).passed


@settings(max_examples=100)
@given(data=pattern_algebra(), kind=st.sampled_from([
    BimoduleKind.ASSOC_BIMODULE,
    BimoduleKind.NOVIKOV_BIMODULE,
    BimoduleKind.HNP_BIMODULE,
    BimoduleKind.GD_REP,
    BimoduleKind.LIE_REP,
]))
def test_semidirect_closure_with_regular_bundle(data, kind):
    A, _ = data
    bundle = regular_bundle(A, kind)
    assert hc.check_bimodule(A, bundle, kind).passed
    total = hc.semidirect_sum(A, bundle, kind)
    suites = {
        BimoduleKind.ASSOC_BIMODULE: hc.StructureKind.EPS_COMM_ASSOC,
        BimoduleKind.NOVIKOV_BIMODULE: hc.StructureKind.HOM_NOVIKOV,
        BimoduleKind.LIE_REP: hc.StructureKind.HOM_LIE,
        BimoduleKind.HNP_BIMODULE: hc.StructureKind.HNP,
        BimoduleKind.GD_REP: hc.StructureKind.HOM_GD,
    }
    assert hc.run_suite(total, suites[kind]).passed
    assert total.dim == 2 * A.dim


@settings(max_examples=100)
@given(data=pattern_pair(), kind=st.sampled_from(list(MatchedPairKind)))
def test_matched_pair_closure(data, kind):
    left, right, _ = data
    actions = {
        MatchedPairKind.ASSOC: ("s",),
        MatchedPairKind.NOVIKOV: ("l", "r"),
        MatchedPairKind.LIE: ("rho",),
        MatchedPairKind.HNP: ("s", "l", "r"),
        MatchedPairKind.GD: ("l", "r", "rho"),
    }[kind]
    ctx = left.context
    ab = ActionBundle(
        left.space, right.space, right.alpha, ctx,
        {name: tuple(
            LinearMap.zero(right.space, right.space, ctx, left.space.degree(i))
            for i in range(left.dim)
        ) for name in actions},
    )
    ba = ActionBundle(
        right.space, left.space, left.alpha, ctx,
        {name: tuple(
            LinearMap.zero(left.space, left.space, ctx, right.space.degree(j))
            for j in range(right.dim)
        ) for name in actions},
    )
    pair = MatchedPairData(left, right, ab, ba)
    assert hc.check_matched_pair(pair, kind).passed
    double = hc.matched_pair_double(pair, kind)
    assert hc.run_suite(double, double_suite_kind(kind)).passed


@st.composite
def cross_action_family(draw, acting, module_space, module_n_u, ctx, names):
    """Annihilator-type cross actions: only w-elements act, mapping the other
    side's w-span into its u-span.  Such actions make every double an algebra
    of the kind trivially while making the double's cross products nonzero,
    which exercises the sign factors of the double product formulas."""
    algebra, n_u = acting
    group = algebra.space.group
    out = {}
    for name in names:
        family = []
        for i in range(algebra.dim):
            column_maps: list[dict] = [{} for _ in range(module_space.dim)]
            if i >= n_u:
                for col in range(module_n_u, module_space.dim):
                    want = group.add(module_space.degree(col), algebra.space.degree(i))
                    for row in range(module_n_u):
                        if module_space.degree(row) != want:
                            continue
                        c = draw(_coeff)
                        if c:
                            column_maps[col][row] = ctx.scalar(c)
            family.append(
                LinearMap(module_space, module_space, ctx, column_maps, algebra.space.degree(i))
            )
        out[name] = tuple(family)
    return out


@settings(max_examples=100)
@given(data=pattern_pair(), kind=st.sampled_from(list(MatchedPairKind)), payload=st.data())
def test_matched_pair_closure_with_cross_actions(data, kind, payload):
    left, right, left_n_u = data
    actions = {
        MatchedPairKind.ASSOC: ("s",),
        MatchedPairKind.NOVIKOV: ("l", "r"),
        MatchedPairKind.LIE: ("rho",),
        MatchedPairKind.HNP: ("s", "l", "r"),
        MatchedPairKind.GD: ("l", "r", "rho"),
    }[kind]
    ctx = left.context
    right_n_u = sum(1 for name in right.names if name.startswith("u"))
    ab = ActionBundle(
        left.space, right.space, right.alpha, ctx,
        payload.draw(cross_action_family((left, left_n_u), right.space, right_n_u, ctx, actions)),
    )
    ba = ActionBundle(
        right.space, left.space, left.alpha, ctx,
        payload.draw(cross_action_family((right, right_n_u), left.space, left_n_u, ctx, actions)),
    )
    pair = MatchedPairData(left, right, ab, ba)
    report = hc.check_matched_pair(pair, kind)
    assert report.passed, report.describe()
    double = hc.matched_pair_double(pair, kind)
    assert hc.run_suite(double, double_suite_kind(kind)).passed


@settings(max_examples=100)
@given(data=pattern_pair(max_w=2))
def test_tensor_closure(data):
    left, right, _ = data
    tensor = hc.tensor_product(left, right)
    assert tensor.dim == left.dim * right.dim
    assert hc.run_suite(tensor, hc.StructureKind.ADMISSIBLE_HNP).passed
    for p1 in range(left.dim):
        for p2 in range(right.dim):
            expected = left.space.group.add(left.space.degree(p1), right.space.degree(p2))
            assert tensor.space.degree(p1 * right.dim + p2) == expected


@settings(max_examples=100)
@given(data=pattern_algebra())
def test_quotient_closure(data):
    A, n_u = data
    ideal = list(A.names[:n_u])
    assert hc.is_ideal(A, ideal).passed
    Q = hc.quotient(A, ideal)
    for kind in ALL_KINDS:
        assert hc.run_suite(Q, kind).passed
