"""Theorem-backed transforms: presentation in, presentation out.

Each construction verifies the hypotheses its closure theorem assumes and
raises :class:`~homcolor.reports.PreconditionError` carrying the failing
reports when they do not hold; constructions that are still meaningful on
raw data accept ``force=True`` to build anyway, so the theorems can also be
probed contrapositively.

Semidirect sums and matched-pair doubles share one direct-sum builder,
which lives in :mod:`~homcolor.representations` beside
:data:`~homcolor.representations.SLOT_ACTIONS`, the one source of the rule
by which a bundle of actions of one side on the other adds the cross cells
of each product slot, for x a basis element of the acting side and y one of
the side acted on:

    assoc:    x.y = s_x(y)      y.x = eps(y, x) s_x(y)
    novikov:  x.y = l_x(y)      y.x = r_x(y)
    lie:      x.y = rho_x(y)    y.x = -eps(y, x) rho_x(y)

The matched-pair double A (+) B keeps both sides' products and adds the
cells of both cross bundles.  The semidirect sum A (+) V is the double in
which V has the zero product and does not act back on A.  Each matched-pair
kind maps to one bimodule kind in :data:`MATCHED_PAIR_TABLE`, whose slots
bind the double's products.  Both are checked by their definition, with one
build-and-check helper: a bundle is a bimodule when A (+) V is an algebra
of the kind, and a pair is matched when A (+) B is one, so
:func:`~homcolor.representations.check_bimodule` and
:func:`check_matched_pair` are that kind's suite run on the sum.  Each
covers its sides' own suites and every tuple mixing them.

Every table built here is assembled from frozen cells, each added at its
key through :func:`~homcolor.core._add_cell`, which sums only a key that
two cells hit: the commutator adds each cell at (i, j) and its signed copy
at (j, i), the tensor product the cell of each pair of factor cells, and
the derivation product each cell of dot scaled by an entry of D.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .core import (
    AlgebraPresentation,
    BilinearProduct,
    Cell,
    Check,
    GradedSpace,
    LinearMap,
    Term,
    _TWIST_ARM,
    _add_cell,
    _map_cell,
    _map_scalars,
    is_derivation,
    is_morphism,
    multiplicative_checks,
    operation,
    positions,
    run_checks,
)
from .identities import StructureKind, run_suite
from .reports import PASS, CheckReport, PreconditionError, SuiteReport
from .representations import (
    BIMODULE_TABLE,
    ActionBundle,
    BimoduleKind,
    _checked_sum,
    _semidirect,
    check_bimodule,
)

__all__ = [
    "commutator_bracket",
    "yau_twist",
    "derived_algebra",
    "semidirect_sum",
    "MatchedPairData",
    "MatchedPairKind",
    "matched_pair_double",
    "check_matched_pair",
    "double_suite_kind",
    "tensor_product",
    "quotient",
    "is_subalgebra",
    "is_ideal",
    "novikov_from_derivation",
]

# -- commutator functor ---------------------------------------------------------


def commutator_bracket(
    presentation: AlgebraPresentation,
    from_role: str,
    to_role: str = "bracket",
) -> AlgebraPresentation:
    """Add the bracket [x, y] = x o y - eps(x, y) y o x derived from ``from_role``."""
    product = presentation.product(from_role)
    if to_role in presentation.products:
        raise ValueError(f"presentation already has a product {to_role!r}")
    # Cell (i, j) of o adds e_i o e_j to [e_i, e_j] and -eps(j, i) e_i o e_j to [e_j, e_i].
    signs = presentation.sign_table()
    cells: dict[tuple[int, int], Cell] = {}
    for (i, j), cell in product.table.items():
        _add_cell(cells, (i, j), cell)
        _add_cell(cells, (j, i), tuple([(k, -s) for k, s in cell]) if signs[j][i] == 1 else cell)
    bracket = BilinearProduct._frozen(presentation.space, presentation.context, cells)
    products = dict(presentation.products)
    products[to_role] = bracket
    return presentation.with_products(products)


# -- Yau twist and derived algebras ----------------------------------------------


def yau_twist(
    presentation: AlgebraPresentation,
    twist: LinearMap,
    force: bool = False,
) -> AlgebraPresentation:
    """Compose every product with ``twist``: x o' y = m(x o y), new twist m o alpha.

    When the current twist is the identity this is the classical twist along
    an algebra endomorphism; composing onto the existing twist lets twists be
    iterated.  The theorem assumes ``twist`` is a verified morphism.
    ``force`` takes an unverified map, but never one that is not even.
    """
    morphism = is_morphism(twist, presentation, presentation)
    if not morphism.passed and not force:
        raise PreconditionError("twist map is not a verified morphism", (morphism,))
    if not twist.is_even:
        raise ValueError(f"yau twist needs an even map, got one of degree {twist.degree}")
    return _composed(presentation, twist, twist.compose(presentation.alpha))


def derived_algebra(
    presentation: AlgebraPresentation,
    type_: int,
    n: int,
    force: bool = False,
) -> AlgebraPresentation:
    """Derived presentation: products alpha^k o (o), twist alpha^(k+1).

    Type 1 uses k = n, type 2 uses k = 2^n - 1.  Both theorems assume the
    twist is multiplicative for every product role.
    """
    if type_ not in (1, 2):
        raise ValueError(f"derived type must be 1 or 2, got {type_}")
    if n < 1:
        raise ValueError(f"derived order must be >= 1, got {n}")
    failed = [r for r in multiplicative_checks(presentation, presentation.roles) if not r.passed]
    if failed and not force:
        raise PreconditionError(
            "derived algebras assume a multiplicative twist", tuple(failed)
        )
    k = n if type_ == 1 else 2**n - 1
    return _composed(presentation, presentation.alpha.power(k), presentation.alpha.power(k + 1))


def _composed(
    presentation: AlgebraPresentation, m: LinearMap, alpha: LinearMap
) -> AlgebraPresentation:
    """Every product composed with ``m``, x o' y = m(x o y), and the twist
    ``alpha``.  ``m`` is even, so every composed cell is graded."""
    products = {
        role: BilinearProduct._frozen(
            presentation.space,
            presentation.context,
            {key: _map_cell(m.columns, cell) for key, cell in product.table.items()},
        )
        for role, product in presentation.products.items()
    }
    return presentation.with_products(products, alpha=alpha)


# -- semidirect sums --------------------------------------------------------------


def semidirect_sum(
    presentation: AlgebraPresentation,
    bundle: ActionBundle,
    kind: BimoduleKind,
    force: bool = False,
) -> AlgebraPresentation:
    """Direct sum with the module, products extended by the bundle's actions.

    The module side multiplies to zero; the twist is the block sum of the
    twist and beta.  Requires the bundle to pass ``check_bimodule``, the
    kind's suite on this sum; the bundle keeps the sum with its reports, so
    a check made just before is neither rebuilt nor evaluated again.
    """
    report = check_bimodule(presentation, bundle, kind)
    if not report.passed and not force:
        raise PreconditionError("bundle fails the bimodule conditions", (report,))
    return _semidirect(presentation, bundle, kind)[0]


# -- matched pairs -----------------------------------------------------------------


@dataclass
class MatchedPairData:
    """Two presentations over one grading context with cross actions.

    ``ab`` holds the actions of ``a`` on ``b``'s space (module = b.space,
    beta = b.alpha); ``ba`` the actions of ``b`` on ``a``'s space.
    """

    a: AlgebraPresentation
    b: AlgebraPresentation
    ab: ActionBundle
    ba: ActionBundle

    def __post_init__(self):
        if self.a.space.group != self.b.space.group or self.a.bichar != self.b.bichar:
            raise ValueError("matched pair sides use different grading contexts")
        if self.a.context != self.b.context:
            raise ValueError("matched pair sides use different scalar contexts")
        if self.ab.algebra_space != self.a.space or self.ab.module != self.b.space:
            raise ValueError("bundle ab must carry actions of a on b's space")
        if self.ba.algebra_space != self.b.space or self.ba.module != self.a.space:
            raise ValueError("bundle ba must carry actions of b on a's space")
        if self.ab.beta != self.b.alpha or self.ba.beta != self.a.alpha:
            raise ValueError("cross bundles must twist by the opposite side's twist")


class MatchedPairKind(Enum):
    ASSOC = "assoc"
    NOVIKOV = "novikov"
    LIE = "lie"
    HNP = "hnp"
    GD = "gd"


# The bimodule kind of each matched-pair kind: its slots bind the double's
# products, and its suite is the one the double must pass.
MATCHED_PAIR_TABLE: dict[MatchedPairKind, BimoduleKind] = {
    MatchedPairKind.ASSOC: BimoduleKind.ASSOC_BIMODULE,
    MatchedPairKind.NOVIKOV: BimoduleKind.NOVIKOV_BIMODULE,
    MatchedPairKind.LIE: BimoduleKind.LIE_REP,
    MatchedPairKind.HNP: BimoduleKind.HNP_BIMODULE,
    MatchedPairKind.GD: BimoduleKind.GD_REP,
}


def double_suite_kind(kind: MatchedPairKind) -> StructureKind:
    return BIMODULE_TABLE[MATCHED_PAIR_TABLE[kind]].suite


def _checked_double(
    pair: MatchedPairData, kind: MatchedPairKind, refuse: bool = False
) -> tuple[AlgebraPresentation, SuiteReport]:
    """The double A (+) B and its kind's suite on it; with ``refuse``, a
    double that fails the suite raises instead."""
    double, checks = _checked_sum(pair.a, (pair.ab, pair.ba), MATCHED_PAIR_TABLE[kind], pair.b)
    report = SuiteReport(kind=f"matched_pair[{kind.value}]", checks=checks)
    if refuse and not report.passed:
        raise PreconditionError("matched-pair conditions fail", (report,))
    return double, report


def check_matched_pair(
    pair: MatchedPairData,
    kind: MatchedPairKind,
) -> SuiteReport:
    """The suite of the double: a pair is matched when A (+) B is an
    algebra of the kind, so both sides' own suites and every tuple mixing
    the sides are checked in one pass."""
    return _checked_double(pair, kind)[1]


def matched_pair_double(
    pair: MatchedPairData,
    kind: MatchedPairKind,
    force: bool = False,
) -> AlgebraPresentation:
    """The double A (+) B: each side keeps its products, and both cross
    bundles add their cells by the cross rule.  The double is built once
    and its own suite is the check."""
    return _checked_double(pair, kind, refuse=not force)[0]


# -- tensor products ---------------------------------------------------------------


def tensor_product(
    left: AlgebraPresentation,
    right: AlgebraPresentation,
    force: bool = False,
) -> AlgebraPresentation:
    """Tensor product of two admissible dot/diamond presentations.

    Basis pairs are ordered row-major (left index outer); degrees add.  The
    closure theorem assumes both factors pass the admissible suite; a
    factor passed as both is checked once.
    """
    if left.space.group != right.space.group or left.bichar != right.bichar:
        raise ValueError("tensor factors use different grading contexts")
    ctx = left.context
    if right.context != ctx:
        ctx = ctx.union(right.context)
        left = rebase_presentation(left, ctx)
        right = rebase_presentation(right, ctx)
    failed = []
    for side in (left,) if right is left else (left, right):
        suite = run_suite(side, StructureKind.ADMISSIBLE_HNP)
        if not suite.passed:
            failed.append(suite)
    if failed and not force:
        raise PreconditionError(
            "tensor factors must pass the admissible suite", tuple(failed)
        )

    nL, nR = left.dim, right.dim
    names = []
    for p1 in range(nL):
        for p2 in range(nR):
            names.append(f"{left.names[p1]}_{right.names[p2]}")
    if len(set(names)) != len(names):
        names = [f"{n}_{idx}" for idx, n in enumerate(names)]
    group = left.space.group
    degrees = [
        group.add(left.space.degree(p1), right.space.degree(p2))
        for p1 in range(nL)
        for p2 in range(nR)
    ]
    # Distinct names joined from valid ones, and reduced degrees.
    space = GradedSpace._frozen(group, names, degrees)

    def pair(v1: Cell, v2: Cell, sign: int = 1) -> Cell:
        """The cell of v1 (x) v2 times ``sign``, already frozen: it is
        row-major in (k1, k2), and no product of nonzero scalars is zero."""
        if sign == 1:
            return tuple([(k1 * nR + k2, c1 * c2) for k1, c1 in v1 for k2, c2 in v2])
        return tuple([(k1 * nR + k2, -(c1 * c2)) for k1, c1 in v1 for k2, c2 in v2])

    # signs[p2][q1] is eps(deg e_p2 of the right factor, deg e_q1 of the left).
    signs = left.bichar.table(right.space.degrees, left.space.degrees)

    def cross(*factors) -> BilinearProduct:
        """(e_p1 e_p2)(e_q1 e_q2) = eps(p2, q1) (e_p1 e_q1)(e_p2 e_q2), summed
        over every pair of nonzero cells of each pair of factor tables."""
        cells: dict[tuple[int, int], Cell] = {}
        for t1, t2 in factors:
            for (p1, q1), c1 in t1.items():
                for (p2, q2), c2 in t2.items():
                    _add_cell(cells, (p1 * nR + p2, q1 * nR + q2), pair(c1, c2, signs[p2][q1]))
        return BilinearProduct._frozen(space, ctx, cells)

    dot1, dot2 = left.product("dot").table, right.product("dot").table
    dia1, dia2 = left.product("diamond").table, right.product("diamond").table
    products = {"dot": cross((dot1, dot2)), "diamond": cross((dia1, dot2), (dot1, dia2))}
    alpha_columns = [pair(c1, c2) for c1 in left.alpha.columns for c2 in right.alpha.columns]
    alpha = LinearMap._frozen(space, space, ctx, alpha_columns)
    return AlgebraPresentation(space, left.bichar, ctx, products, alpha)


def rebase_presentation(presentation: AlgebraPresentation, ctx) -> AlgebraPresentation:
    """Rebuild a presentation over a larger scalar context."""
    if presentation.context == ctx:
        return presentation
    return _map_scalars(presentation, ctx, lambda s: s.rebase(ctx))


# -- subalgebras, ideals, quotients ---------------------------------------------------


def _subset_indices(presentation: AlgebraPresentation, subset: Iterable[str | int]) -> tuple[int, ...]:
    out = []
    for item in subset:
        if not isinstance(item, int):
            item = presentation.space.index(item)  # raises KeyError
        elif not 0 <= item < presentation.dim:
            raise KeyError(f"unknown basis element {item!r}")
        out.append(item)
    return tuple(sorted(set(out)))


# Closure stages, in report order: the twist, then each product in role
# order.  P and Q project onto the subset and onto its complement.
_x, _y = positions(2)
_o, _alpha, _P, _Q = (operation(name) for name in ("o", "alpha", "P", "Q"))
_TWIST_CLOSURE: tuple[Term, ...] = ((1, (), _Q(_alpha(_P(_x)))),)
_SUBALGEBRA_CLOSURE: tuple[Term, ...] = ((1, (), _Q(_o(_P(_x), _P(_y)))),)
# Q(Px.y) + Q(Qx.Py) is Q(x.y) when x or y lies in the subset, else 0: the
# condition Q(x.y) - Q(Qx.Qy) without the terms that cancel, so pairs outside
# the subset cost nothing.
_IDEAL_CLOSURE: tuple[Term, ...] = (
    (1, (), _Q(_o(_P(_x), _y))),
    (1, (), _Q(_o(_Q(_x), _P(_y)))),
)


def _check_closures(
    presentation: AlgebraPresentation,
    subset: Iterable[str | int],
    two_sided: bool,
    check_name: str,
) -> CheckReport:
    """Evaluate every closure stage in one pass and report the first failing
    stage in stage order."""
    inside = set(_subset_indices(presentation, subset))
    one = presentation.context.one
    ops: dict = {
        "alpha": presentation.alpha.columns,
        "P": [((i, one),) if i in inside else () for i in range(presentation.dim)],
        "Q": [() if i in inside else ((i, one),) for i in range(presentation.dim)],
    }
    maps = (("P", "P"), ("Q", "Q"), ("alpha", "alpha"))
    checks = [Check(check_name, (_TWIST_CLOSURE, maps), detail="twist closure")]
    terms = _IDEAL_CLOSURE if two_sided else _SUBALGEBRA_CLOSURE
    for role in presentation.roles:
        ops[("product", role)] = presentation.products[role].row_cells
        plan = (terms, (("o", ("product", role)),) + maps)
        checks.append(Check(check_name, plan, detail=f"product[{role}] closure"))
    reports = run_checks(checks, presentation, ops, presentation.space)
    failed = (report for report in reports if not report.passed)
    return next(failed, CheckReport(check=check_name, status=PASS))


def is_subalgebra(presentation: AlgebraPresentation, subset: Iterable[str | int]) -> CheckReport:
    """Closure of the span of a basis subset under the twist and all products."""
    return _check_closures(presentation, subset, two_sided=False, check_name="subalgebra")


def is_ideal(presentation: AlgebraPresentation, subset: Iterable[str | int]) -> CheckReport:
    """Two-sided closure: the twist maps the span into itself and products with
    any element from either side land back in the span."""
    return _check_closures(presentation, subset, two_sided=True, check_name="ideal")


def quotient(
    presentation: AlgebraPresentation,
    ideal_basis: Iterable[str | int],
) -> AlgebraPresentation:
    """Quotient by the span of a basis-aligned ideal; products and twist drop
    their components along the ideal."""
    report = is_ideal(presentation, ideal_basis)
    if not report.passed:
        raise PreconditionError("subset is not an ideal", (report,))
    removed = set(_subset_indices(presentation, ideal_basis))
    kept = [i for i in range(presentation.dim) if i not in removed]
    reindex = {old: new for new, old in enumerate(kept)}
    space = GradedSpace._frozen(
        presentation.space.group,
        [presentation.names[i] for i in kept],
        [presentation.space.degree(i) for i in kept],
    )

    # Reindexing keeps index order, so projected cells stay frozen.
    def project(cell: Cell) -> Cell:
        return tuple([(reindex[k], s) for k, s in cell if k not in removed])

    ctx = presentation.context
    products = {
        role: BilinearProduct._frozen(space, ctx, {
            (reindex[i], reindex[j]): project(cell)
            for (i, j), cell in product.table.items()
            if i not in removed and j not in removed
        })
        for role, product in presentation.products.items()
    }
    alpha = LinearMap._frozen(space, space, ctx, [project(presentation.alpha.columns[i]) for i in kept])
    return AlgebraPresentation(space, presentation.bichar, presentation.context, products, alpha)


# -- products from derivations ---------------------------------------------------------


def novikov_from_derivation(
    presentation: AlgebraPresentation,
    derivation: LinearMap,
    to_role: str = "diamond",
    force: bool = False,
) -> AlgebraPresentation:
    """Add the product x o y = x . D(y) induced by an even derivation D.

    Hypotheses, each verified and itemized on failure: the dot product passes
    the commutative-associative suite, D is an even derivation of dot, and D
    commutes with the twist.
    """
    if to_role in presentation.products:
        raise ValueError(f"presentation already has a product {to_role!r}")
    failed: list = []
    suite = run_suite(presentation, StructureKind.EPS_COMM_ASSOC)
    if not suite.passed:
        failed.append(suite)
    der = is_derivation(presentation, "dot", derivation)
    if not der.passed or not derivation.is_even:
        failed.append(der)
    # D(alpha(x)) - alpha(D(x)) over the basis
    ops = {"f": derivation.columns, "g": presentation.alpha.columns}
    plan = (_TWIST_ARM, (("f", "f"), ("g", "g")))
    check = Check("twist_commutes_with_derivation", plan, detail="need alpha o D = D o alpha")
    [commutes] = run_checks([check], presentation, ops, presentation.space)
    if not commutes.passed:
        failed.append(commutes)
    if failed and not force:
        raise PreconditionError("derivation product hypotheses fail", tuple(failed))

    # e_i o e_j = e_i . D(e_j) sums d e_i . e_k over the entries d of D's
    # column j, so each cell (i, k) of dot adds to (i, j) for each entry of
    # D's row k.
    one = presentation.context.one
    by_row: list[list] = [[] for _ in range(presentation.dim)]
    for j, column in enumerate(derivation.columns):
        for k, d in column:
            by_row[k].append((j, d))
    cells: dict[tuple[int, int], Cell] = {}
    for (i, k), cell in presentation.product("dot").table.items():
        for j, d in by_row[k]:
            scaled = cell if d is one else tuple([(m, d * s) for m, s in cell])
            _add_cell(cells, (i, j), scaled)
    # Built through the validating constructor: a forced D may be odd.
    entries = {key: dict(cell) for key, cell in cells.items()}
    product = BilinearProduct(presentation.space, presentation.context, entries)
    products = dict(presentation.products)
    products[to_role] = product
    return presentation.with_products(products)
