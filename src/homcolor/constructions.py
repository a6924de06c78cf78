"""Theorem-backed transforms: presentation in, presentation out.

Each construction verifies the hypotheses its closure theorem assumes and
raises :class:`~homcolor.reports.PreconditionError` carrying the failing
reports when they do not hold; constructions that are still meaningful on
raw data accept ``force=True`` to build anyway, so the theorems can also be
probed contrapositively.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Mapping

from .core import (
    AlgebraPresentation,
    BilinearProduct,
    GradedSpace,
    LinearMap,
    Vec,
    _mul,
    is_derivation,
    is_morphism,
    is_multiplicative,
    scan_check,
    vec_add,
    vec_neg,
    vec_sub,
)
from .identities import StructureKind, run_suite
from .reports import FAIL, PASS, CheckReport, PreconditionError, SuiteReport
from .representations import ActionBundle, BimoduleKind, check_bimodule
from .scalars import Scalar

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


def _accumulate(
    entries: dict[tuple[int, int], dict[int, Scalar]],
    i: int,
    j: int,
    vec: Vec,
) -> None:
    if not vec:
        return
    cell = entries.setdefault((i, j), {})
    for k, s in vec.items():
        prev = cell.get(k)
        s = s if prev is None else prev + s
        if s.is_zero():
            cell.pop(k, None)
        else:
            cell[k] = s


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
    entries: dict[tuple[int, int], dict[int, Scalar]] = {}
    n = presentation.dim
    for i in range(n):
        for j in range(n):
            straight = dict(product.mul_basis(i, j))
            swapped = dict(product.mul_basis(j, i))
            sign = presentation.eps(i, j)
            vec = vec_sub(straight, swapped if sign == 1 else vec_neg(swapped))
            _accumulate(entries, i, j, vec)
    bracket = BilinearProduct(presentation.space, presentation.context, entries)
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
    """
    morphism = is_morphism(twist, presentation, presentation)
    if not morphism.passed and not force:
        raise PreconditionError("twist map is not a verified morphism", (morphism,))
    products = {}
    for role, product in presentation.products.items():
        entries: dict[tuple[int, int], dict[int, Scalar]] = {}
        for (i, j), cell in product.table.items():
            _accumulate(entries, i, j, twist.apply(dict(cell)))
        products[role] = BilinearProduct(presentation.space, presentation.context, entries)
    return presentation.with_products(products, alpha=twist.compose(presentation.alpha))


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
    failed = []
    for role in presentation.roles:
        report = is_multiplicative(presentation, role)
        if not report.passed:
            failed.append(report)
    if failed and not force:
        raise PreconditionError(
            "derived algebras assume a multiplicative twist", tuple(failed)
        )
    k = n if type_ == 1 else 2**n - 1
    power = presentation.alpha.power(k)
    products = {}
    for role, product in presentation.products.items():
        entries: dict[tuple[int, int], dict[int, Scalar]] = {}
        for (i, j), cell in product.table.items():
            _accumulate(entries, i, j, power.apply(dict(cell)))
        products[role] = BilinearProduct(presentation.space, presentation.context, entries)
    return presentation.with_products(products, alpha=presentation.alpha.power(k + 1))


# -- direct sums: space plumbing -------------------------------------------------


def _join_spaces(
    left: GradedSpace, right: GradedSpace, right_suffix: str
) -> tuple[GradedSpace, int]:
    if left.group != right.group:
        raise ValueError("summands use different grading groups")
    names = list(left.names)
    taken = set(names)
    for name in right.names:
        candidate = name
        while candidate in taken:
            candidate += right_suffix
        names.append(candidate)
        taken.add(candidate)
    degrees = list(left.degrees) + list(right.degrees)
    return GradedSpace(left.group, names, degrees), left.dim


def _shift(vec: Vec, offset: int) -> Vec:
    return {k + offset: s for k, s in vec.items()}


def _block_map(left: LinearMap, right: LinearMap, space: GradedSpace, offset: int) -> LinearMap:
    columns: list[Vec] = []
    for i in range(left.source.dim):
        columns.append(left.image(i))
    for j in range(right.source.dim):
        columns.append(_shift(right.image(j), offset))
    return LinearMap(space, space, left.context, columns)


# -- semidirect sums ---------------------------------------------------------------

# Output product layout per bimodule kind: (product slot, cross-term style).
_SUM_PLAN: dict[BimoduleKind, tuple[tuple[str, str], ...]] = {
    BimoduleKind.ASSOC_BIMODULE: (("assoc", "assoc"),),
    BimoduleKind.NOVIKOV_BIMODULE: (("novikov", "novikov"),),
    BimoduleKind.LIE_REP: (("lie", "lie"),),
    BimoduleKind.HNP_BIMODULE: (("assoc", "assoc"), ("novikov", "novikov")),
    BimoduleKind.GD_REP: (("novikov", "novikov"), ("lie", "lie")),
}


def semidirect_sum(
    presentation: AlgebraPresentation,
    bundle: ActionBundle,
    kind: BimoduleKind,
    product_roles: Mapping[str, str] | None = None,
    force: bool = False,
) -> AlgebraPresentation:
    """Direct sum with the module, products extended by the bundle's actions.

    The module side multiplies to zero; the twist is the block sum of the
    twist and beta.  Requires the bundle to pass ``check_bimodule`` first.
    """
    from .representations import _resolve_slots

    report = check_bimodule(presentation, bundle, kind, product_roles)
    if not report.passed and not force:
        raise PreconditionError("bundle fails the bimodule conditions", (report,))
    slots = _resolve_slots(kind, product_roles)
    space, offset = _join_spaces(presentation.space, bundle.module, "_v")
    nA, nV = presentation.dim, bundle.module.dim
    ctx = presentation.context

    products: dict[str, BilinearProduct] = {}
    for slot, style in _SUM_PLAN[kind]:
        role = slots[slot]
        entries: dict[tuple[int, int], dict[int, Scalar]] = {}
        for (i, j), cell in presentation.product(role).table.items():
            _accumulate(entries, i, j, dict(cell))
        for i in range(nA):
            for v in range(nV):
                if style == "assoc":
                    sv = bundle.act("s", i, {v: ctx.one})
                    _accumulate(entries, i, offset + v, _shift(sv, offset))
                    sign = presentation.eps_deg(bundle.module.degree(v), presentation.space.degree(i))
                    _accumulate(
                        entries, offset + v, i,
                        _shift(sv if sign == 1 else vec_neg(sv), offset),
                    )
                elif style == "novikov":
                    _accumulate(entries, i, offset + v, _shift(bundle.act("l", i, {v: ctx.one}), offset))
                    _accumulate(entries, offset + v, i, _shift(bundle.act("r", i, {v: ctx.one}), offset))
                else:
                    _accumulate(entries, i, offset + v, _shift(bundle.act("rho", i, {v: ctx.one}), offset))
                    rv = bundle.act("rho", i, {v: ctx.one})
                    sign = presentation.eps_deg(bundle.module.degree(v), presentation.space.degree(i))
                    _accumulate(
                        entries, offset + v, i,
                        _shift(vec_neg(rv) if sign == 1 else rv, offset),
                    )
        products[role] = BilinearProduct(space, ctx, entries)

    alpha = _block_map(presentation.alpha, bundle.beta, space, offset)
    return AlgebraPresentation(space, presentation.bichar, ctx, products, alpha)


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


_MP_BIMODULES: dict[MatchedPairKind, tuple[tuple[BimoduleKind, dict[str, str]], ...]] = {
    MatchedPairKind.ASSOC: ((BimoduleKind.ASSOC_BIMODULE, {"assoc": "dot"}),),
    MatchedPairKind.NOVIKOV: ((BimoduleKind.NOVIKOV_BIMODULE, {"novikov": "dot"}),),
    MatchedPairKind.LIE: ((BimoduleKind.LIE_REP, {"lie": "bracket"}),),
    MatchedPairKind.HNP: (
        (BimoduleKind.ASSOC_BIMODULE, {"assoc": "dot"}),
        (BimoduleKind.NOVIKOV_BIMODULE, {"novikov": "diamond"}),
    ),
    MatchedPairKind.GD: (
        (BimoduleKind.NOVIKOV_BIMODULE, {"novikov": "dot"}),
        (BimoduleKind.LIE_REP, {"lie": "bracket"}),
    ),
}

_MP_SUM_KIND: dict[MatchedPairKind, BimoduleKind] = {
    MatchedPairKind.ASSOC: BimoduleKind.ASSOC_BIMODULE,
    MatchedPairKind.NOVIKOV: BimoduleKind.NOVIKOV_BIMODULE,
    MatchedPairKind.LIE: BimoduleKind.LIE_REP,
    MatchedPairKind.HNP: BimoduleKind.HNP_BIMODULE,
    MatchedPairKind.GD: BimoduleKind.GD_REP,
}


def double_suite_kind(kind: MatchedPairKind) -> StructureKind:
    return {
        MatchedPairKind.ASSOC: StructureKind.EPS_COMM_ASSOC,
        MatchedPairKind.NOVIKOV: StructureKind.HOM_NOVIKOV,
        MatchedPairKind.LIE: StructureKind.HOM_LIE,
        MatchedPairKind.HNP: StructureKind.HNP,
        MatchedPairKind.GD: StructureKind.HOM_GD,
    }[kind]


class _MPEval:
    """Evaluation helpers for the matched-pair side conditions.

    Conditions are written from the A-side; the mirrored conditions come from
    swapping the two sides, so every defect below is evaluated twice, once
    per orientation.
    """

    __slots__ = ("A", "B", "ab", "ba", "dot", "novikov", "lie")

    def __init__(self, A, B, ab, ba, dot=None, novikov=None, lie=None):
        self.A = A
        self.B = B
        self.ab = ab
        self.ba = ba
        self.dot = dot
        self.novikov = novikov
        self.lie = lie

    def swap(self) -> "_MPEval":
        return _MPEval(self.B, self.A, self.ba, self.ab, self.dot, self.novikov, self.lie)

    # A-side basics
    def bA(self, i: int) -> Vec:
        return {i: self.A.context.one}

    def bB(self, j: int) -> Vec:
        return {j: self.B.context.one}

    def alA(self, i: int) -> Vec:
        return self.A._alpha_images[i]

    def beB(self, j: int) -> Vec:
        return self.B._alpha_images[j]

    def mulB(self, role: str, x: Vec, y: Vec) -> Vec:
        return _mul(self.B.product(role).table, x, y)

    def actA(self, name: str, x: Vec, v: Vec) -> Vec:
        """Action of an A-vector on a B-vector."""
        return self.ab.act_by(name, x, v)

    def actB(self, name: str, a: Vec, v: Vec) -> Vec:
        """Action of a B-vector on an A-vector."""
        return self.ba.act_by(name, a, v)

    def dA(self, i: int):
        return self.A.space.degree(i)

    def dB(self, j: int):
        return self.B.space.degree(j)

    def eps(self, d1, d2) -> int:
        return self.A.eps_deg(d1, d2)

    def add(self, d1, d2):
        return self.A.space.group.add(d1, d2)

    @staticmethod
    def sgn(sign: int, v: Vec) -> Vec:
        return v if sign == 1 else vec_neg(v)


# Each condition: (label, defect). Defects quantify over (x in A; a, b in B)
# and are also applied to the swapped orientation, which yields the mirrored
# family over (a in B; x, y in A).


def _mp_assoc1(ev: _MPEval, x, a, b):
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)
    t1 = ev.sgn(ev.eps(db, dx), ev.mulB("dot", ev.beB(a), ev.actA("s", ev.bA(x), ev.bB(b))))
    t2 = ev.sgn(
        ev.eps(da, ev.add(db, dx)),
        ev.actA("s", ev.actB("s", ev.bB(b), ev.bA(x)), ev.beB(a)),
    )
    t3 = ev.sgn(
        ev.eps(ev.add(da, db), dx),
        ev.actA("s", ev.alA(x), ev.mulB("dot", ev.bB(a), ev.bB(b))),
    )
    return vec_sub(vec_add(t1, t2), t3)


def _mp_assoc2(ev: _MPEval, x, a, b):
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)
    t1 = ev.mulB("dot", ev.beB(a), ev.actA("s", ev.bA(x), ev.bB(b)))
    t2 = ev.sgn(
        ev.eps(da, ev.add(dx, db)) * ev.eps(dx, db),
        ev.actA("s", ev.actB("s", ev.bB(b), ev.bA(x)), ev.beB(a)),
    )
    t3 = ev.sgn(
        ev.eps(da, dx),
        ev.mulB("dot", ev.actA("s", ev.bA(x), ev.bB(a)), ev.beB(b)),
    )
    t4 = ev.actA("s", ev.actB("s", ev.bB(a), ev.bA(x)), ev.beB(b))
    return vec_sub(vec_add(t1, t2), vec_add(t3, t4))


_MP_ASSOC_CONDS = (("MP_ASSOC1", _mp_assoc1), ("MP_ASSOC2", _mp_assoc2))


def _mp_nov1(ev: _MPEval, x, a, b):
    da, db = ev.dB(a), ev.dB(b)
    role = ev.novikov

    def half(a_, b_):
        va, vb = ev.bB(a_), ev.bB(b_)
        t1 = ev.actA("r", ev.alA(x), ev.mulB(role, va, vb))
        t2 = ev.mulB(role, ev.beB(a_), ev.actA("r", ev.bA(x), vb))
        t3 = ev.actA("r", ev.actB("l", vb, ev.bA(x)), ev.beB(a_))
        return vec_sub(vec_sub(t1, t2), t3)

    return vec_sub(half(a, b), ev.sgn(ev.eps(da, db), half(b, a)))


def _mp_nov2(ev: _MPEval, x, a, b):
    dx, da = ev.dA(x), ev.dB(a)
    role = ev.novikov
    va, vb = ev.bB(a), ev.bB(b)
    lhs = ev.mulB(role, ev.actA("r", ev.bA(x), va), ev.beB(b))
    lhs = vec_add(lhs, ev.actA("l", ev.actB("l", va, ev.bA(x)), ev.beB(b)))
    lhs = vec_sub(lhs, ev.mulB(role, ev.beB(a), ev.actA("l", ev.bA(x), vb)))
    lhs = vec_sub(lhs, ev.actA("r", ev.actB("r", vb, ev.bA(x)), ev.beB(a)))
    rhs = ev.mulB(role, ev.actA("l", ev.bA(x), va), ev.beB(b))
    rhs = vec_add(rhs, ev.actA("l", ev.actB("r", va, ev.bA(x)), ev.beB(b)))
    rhs = vec_sub(rhs, ev.actA("l", ev.alA(x), ev.mulB(role, va, vb)))
    return vec_sub(lhs, ev.sgn(ev.eps(da, dx), rhs))


def _mp_nov3(ev: _MPEval, x, a, b):
    dx, da = ev.dA(x), ev.dB(a)
    role = ev.novikov
    va, vb = ev.bB(a), ev.bB(b)
    lhs = ev.mulB(role, ev.actA("l", ev.bA(x), va), ev.beB(b))
    lhs = vec_sub(lhs, ev.actA("l", ev.actB("r", va, ev.bA(x)), ev.beB(b)))
    lhs = vec_sub(lhs, ev.actA("l", ev.alA(x), ev.mulB(role, va, vb)))
    rhs = ev.mulB(role, ev.actA("r", ev.bA(x), va), ev.beB(b))
    rhs = vec_add(rhs, ev.actA("l", ev.actB("l", va, ev.bA(x)), ev.beB(b)))
    rhs = vec_sub(rhs, ev.mulB(role, ev.beB(a), ev.actA("l", ev.bA(x), vb)))
    rhs = vec_sub(rhs, ev.actA("r", ev.actB("r", vb, ev.bA(x)), ev.beB(a)))
    return vec_sub(lhs, ev.sgn(ev.eps(dx, da), rhs))


_MP_NOV_CONDS = (("MP_NOV1", _mp_nov1), ("MP_NOV2", _mp_nov2), ("MP_NOV3", _mp_nov3))


def _mp_lie(ev: _MPEval, x, a, b):
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)
    va, vb = ev.bB(a), ev.bB(b)
    t1 = vec_sub(
        ev.actA("rho", ev.actB("rho", va, ev.bA(x)), ev.beB(b)),
        ev.mulB("bracket", ev.beB(a), ev.actA("rho", ev.bA(x), vb)),
    )
    t2 = vec_sub(
        ev.mulB("bracket", ev.beB(b), ev.actA("rho", ev.bA(x), va)),
        ev.actA("rho", ev.actB("rho", vb, ev.bA(x)), ev.beB(a)),
    )
    total = ev.sgn(ev.eps(dx, da), t1)
    total = vec_add(total, ev.sgn(ev.eps(ev.add(da, dx), db), t2))
    return vec_add(total, ev.actA("rho", ev.alA(x), ev.mulB("bracket", va, vb)))


_MP_LIE_CONDS = (("MP_LIE", _mp_lie),)


def _mp_hnp1(ev: _MPEval, x, a, b):
    dx, db = ev.dA(x), ev.dB(b)
    va, vb = ev.bB(a), ev.bB(b)
    lhs = ev.actA("r", ev.alA(x), ev.mulB("dot", va, vb))
    rhs = vec_add(
        ev.mulB("dot", ev.actA("r", ev.bA(x), va), ev.beB(b)),
        ev.actA("s", ev.actB("l", va, ev.bA(x)), ev.beB(b)),
    )
    return vec_sub(lhs, ev.sgn(ev.eps(db, dx), rhs))


def _mp_hnp2(ev: _MPEval, x, a, b):
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)
    va, vb = ev.bB(a), ev.bB(b)
    lhs = ev.actA("l", ev.actB("s", va, ev.bA(x)), ev.beB(b))
    lhs = vec_add(
        lhs,
        ev.sgn(ev.eps(da, dx), ev.mulB("diamond", ev.actA("s", ev.bA(x), va), ev.beB(b))),
    )
    rhs = ev.sgn(
        ev.eps(dx, db) * ev.eps(ev.add(da, db), dx),
        ev.actA("s", ev.alA(x), ev.mulB("diamond", va, vb)),
    )
    return vec_sub(lhs, rhs)


def _mp_hnp3(ev: _MPEval, x, a, b):
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)
    va, vb = ev.bB(a), ev.bB(b)
    lhs = ev.sgn(ev.eps(da, dx), ev.actA("l", ev.actB("s", va, ev.bA(x)), ev.beB(b)))
    lhs = vec_add(lhs, ev.mulB("diamond", ev.actA("s", ev.bA(x), va), ev.beB(b)))
    rhs = vec_add(
        ev.mulB("dot", ev.actA("l", ev.bA(x), vb), ev.beB(a)),
        ev.actA("s", ev.actB("r", vb, ev.bA(x)), ev.beB(a)),
    )
    return vec_sub(lhs, ev.sgn(ev.eps(da, db), rhs))


def _mp_hnp4(ev: _MPEval, x, a, b):
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)

    def half(a_, b_, da_, db_):
        va, vb = ev.bB(a_), ev.bB(b_)
        t1 = ev.sgn(
            ev.eps(ev.add(da_, db_), dx),
            ev.actA("s", ev.alA(x), ev.mulB("diamond", va, vb)),
        )
        t2 = ev.sgn(ev.eps(db_, dx), ev.mulB("diamond", ev.beB(a_), ev.actA("s", ev.bA(x), vb)))
        t3 = ev.actA("r", ev.actB("s", vb, ev.bA(x)), ev.beB(a_))
        return vec_sub(vec_sub(t1, t2), t3)

    return vec_sub(half(a, b, da, db), ev.sgn(ev.eps(da, db), half(b, a, db, da)))


def _mp_hnp5(ev: _MPEval, x, a, b):
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)
    va, vb = ev.bB(a), ev.bB(b)
    lhs = ev.mulB("dot", ev.actA("r", ev.bA(x), va), ev.beB(b))
    lhs = vec_add(lhs, ev.actA("s", ev.actB("l", va, ev.bA(x)), ev.beB(b)))
    lhs = vec_sub(lhs, ev.mulB("diamond", ev.beB(a), ev.actA("s", ev.bA(x), vb)))
    lhs = vec_sub(lhs, ev.sgn(ev.eps(dx, db), ev.actA("r", ev.actB("s", vb, ev.bA(x)), ev.beB(a))))
    rhs = ev.mulB("dot", ev.actA("l", ev.bA(x), va), ev.beB(b))
    rhs = vec_sub(rhs, ev.actA("s", ev.actB("r", va, ev.bA(x)), ev.beB(b)))
    rhs = vec_sub(rhs, ev.actA("l", ev.alA(x), ev.mulB("dot", va, vb)))
    return vec_sub(lhs, ev.sgn(ev.eps(da, dx), rhs))


def _mp_hnp6(ev: _MPEval, x, a, b):
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)
    va, vb = ev.bB(a), ev.bB(b)
    lhs = ev.mulB("dot", ev.actA("l", ev.bA(x), va), ev.beB(b))
    lhs = vec_add(lhs, ev.actA("s", ev.actB("r", va, ev.bA(x)), ev.beB(b)))
    lhs = vec_sub(lhs, ev.actA("l", ev.alA(x), ev.mulB("dot", va, vb)))
    rhs = ev.mulB("dot", ev.actA("r", ev.bA(x), va), ev.beB(b))
    rhs = vec_add(rhs, ev.actA("s", ev.actB("l", va, ev.bA(x)), ev.beB(b)))
    rhs = vec_sub(rhs, ev.mulB("diamond", ev.beB(a), ev.actA("s", ev.bA(x), vb)))
    rhs = vec_sub(rhs, ev.sgn(ev.eps(dx, db), ev.actA("r", ev.actB("s", vb, ev.bA(x)), ev.beB(a))))
    return vec_sub(lhs, ev.sgn(ev.eps(dx, da), rhs))


_MP_HNP_CONDS = (
    ("MP_HNP1", _mp_hnp1),
    ("MP_HNP2", _mp_hnp2),
    ("MP_HNP3", _mp_hnp3),
    ("MP_HNP4", _mp_hnp4),
    ("MP_HNP5", _mp_hnp5),
    ("MP_HNP6", _mp_hnp6),
)


# The three GD side conditions are the mixed-placement instances of the
# compatibility identity on the double, one per pattern of a single A-slot
# among two B-slots, written out through the cross actions.  They are
# derived from the double's product formulas rather than transcribed: the
# circulating formulation of the first two carries slot and grouping typos
# that fail on semidirect-limit data the closure theorem covers, and the
# third pattern is omitted there entirely.


def _mp_gd1(ev: _MPEval, x, a, b):
    # pattern (a, b, x): compatibility with X = a, Y = b, Z = x
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)
    va, vb = ev.bB(a), ev.bB(b)
    bx = ev.bA(x)
    total = ev.actA("r", ev.actB("rho", va, bx), ev.beB(b))
    total = vec_sub(total, ev.sgn(ev.eps(da, dx), ev.mulB("dot", ev.beB(b), ev.actA("rho", bx, va))))
    total = vec_add(total, ev.sgn(ev.eps(da, dx), ev.actA("rho", ev.actB("l", vb, bx), ev.beB(a))))
    total = vec_sub(total, ev.sgn(ev.eps(db, da), ev.mulB("bracket", ev.beB(a), ev.actA("r", bx, vb))))
    total = vec_add(
        total,
        ev.sgn(ev.eps(ev.add(da, db), dx), ev.actA("rho", ev.alA(x), ev.mulB("dot", vb, va))),
    )
    total = vec_sub(total, ev.actA("r", ev.alA(x), ev.mulB("bracket", vb, va)))
    total = vec_add(total, ev.sgn(ev.eps(da, dx), ev.actA("l", ev.actB("rho", vb, bx), ev.beB(a))))
    return vec_sub(
        total,
        ev.sgn(ev.eps(ev.add(da, db), dx), ev.mulB("dot", ev.actA("rho", bx, vb), ev.beB(a))),
    )


def _mp_gd2(ev: _MPEval, x, a, b):
    # pattern (a, x, b): compatibility with X = a, Y = x, Z = b
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)
    va, vb = ev.bB(a), ev.bB(b)
    bx = ev.bA(x)
    total = ev.actA("l", ev.alA(x), ev.mulB("bracket", va, vb))
    total = vec_add(total, ev.sgn(ev.eps(da, db), ev.actA("rho", ev.actB("r", vb, bx), ev.beB(a))))
    total = vec_sub(total, ev.sgn(ev.eps(dx, da), ev.mulB("bracket", ev.beB(a), ev.actA("l", bx, vb))))
    total = vec_sub(total, ev.actA("rho", ev.actB("r", va, bx), ev.beB(b)))
    total = vec_add(
        total,
        ev.sgn(ev.eps(ev.add(da, dx), db), ev.mulB("bracket", ev.beB(b), ev.actA("l", bx, va))),
    )
    total = vec_add(total, ev.sgn(ev.eps(dx, da), ev.actA("l", ev.actB("rho", va, bx), ev.beB(b))))
    total = vec_sub(total, ev.mulB("dot", ev.actA("rho", bx, va), ev.beB(b)))
    total = vec_sub(
        total,
        ev.sgn(ev.eps(ev.add(da, dx), db), ev.actA("l", ev.actB("rho", vb, bx), ev.beB(a))),
    )
    return vec_add(total, ev.sgn(ev.eps(da, db), ev.mulB("dot", ev.actA("rho", bx, vb), ev.beB(a))))


def _mp_gd3(ev: _MPEval, x, a, b):
    # pattern (x, a, b): compatibility with X = x, Y = a, Z = b
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)
    va, vb = ev.bB(a), ev.bB(b)
    bx = ev.bA(x)
    total = ev.sgn(-ev.eps(dx, db), ev.actA("r", ev.actB("rho", vb, bx), ev.beB(a)))
    total = vec_add(total, ev.mulB("dot", ev.beB(a), ev.actA("rho", bx, vb)))
    total = vec_sub(total, ev.sgn(ev.eps(da, dx), ev.actA("rho", ev.alA(x), ev.mulB("dot", va, vb))))
    total = vec_sub(total, ev.actA("rho", ev.actB("l", va, bx), ev.beB(b)))
    total = vec_add(
        total,
        ev.sgn(ev.eps(ev.add(dx, da), db), ev.mulB("bracket", ev.beB(b), ev.actA("r", bx, va))),
    )
    total = vec_sub(total, ev.actA("l", ev.actB("rho", va, bx), ev.beB(b)))
    total = vec_add(total, ev.sgn(ev.eps(da, dx), ev.mulB("dot", ev.actA("rho", bx, va), ev.beB(b))))
    return vec_add(total, ev.sgn(ev.eps(dx, db), ev.actA("r", ev.alA(x), ev.mulB("bracket", va, vb))))


_MP_GD_CONDS = (("MP_GD1", _mp_gd1), ("MP_GD2", _mp_gd2), ("MP_GD3", _mp_gd3))

_MP_CONDITIONS: dict[MatchedPairKind, tuple] = {
    MatchedPairKind.ASSOC: _MP_ASSOC_CONDS,
    MatchedPairKind.NOVIKOV: _MP_NOV_CONDS,
    MatchedPairKind.LIE: _MP_LIE_CONDS,
    MatchedPairKind.HNP: _MP_ASSOC_CONDS + _MP_NOV_CONDS + _MP_HNP_CONDS,
    MatchedPairKind.GD: _MP_LIE_CONDS + _MP_NOV_CONDS + _MP_GD_CONDS,
}

_MP_ROLE_SLOTS: dict[MatchedPairKind, dict[str, str]] = {
    MatchedPairKind.ASSOC: {"dot": "dot"},
    MatchedPairKind.NOVIKOV: {"novikov": "dot"},
    MatchedPairKind.LIE: {"bracket": "bracket"},
    MatchedPairKind.HNP: {"dot": "dot", "diamond": "diamond", "novikov": "diamond"},
    MatchedPairKind.GD: {"dot": "dot", "bracket": "bracket", "novikov": "dot"},
}


def check_matched_pair(
    pair: MatchedPairData,
    kind: MatchedPairKind,
) -> SuiteReport:
    """Cross-bimodule checks in both directions plus the side conditions."""
    report = SuiteReport(kind=f"matched_pair[{kind.value}]")
    for bim_kind, roles in _MP_BIMODULES[kind]:
        for direction, algebra, bundle in (("ab", pair.a, pair.ab), ("ba", pair.b, pair.ba)):
            sub = check_bimodule(algebra, bundle, bim_kind, roles)
            report.checks.extend(replace(c, check=f"{direction}:{c.check}") for c in sub.checks)
    slots = _MP_ROLE_SLOTS[kind]
    base = _MPEval(pair.a, pair.b, pair.ab, pair.ba, **{
        k: v for k, v in (("dot", slots.get("dot")), ("novikov", slots.get("novikov")), ("lie", slots.get("bracket"))) if v
    })
    for label, defect_fn in _MP_CONDITIONS[kind]:
        for direction, ev, left, right in (
            ("ab", base, pair.a, pair.b),
            ("ba", base.swap(), pair.b, pair.a),
        ):
            report.checks.append(
                scan_check(
                    f"{direction}:{label}",
                    (left.names, right.names, right.names),
                    lambda t: defect_fn(ev, *t),
                    right.space,
                )
            )
    return report


def matched_pair_double(
    pair: MatchedPairData,
    kind: MatchedPairKind,
    force: bool = False,
) -> AlgebraPresentation:
    """The double: direct sum carrying the matched-pair product formulas."""
    report = check_matched_pair(pair, kind)
    if not report.passed and not force:
        raise PreconditionError("matched-pair conditions fail", (report,))

    A, B = pair.a, pair.b
    ctx = A.context
    space, offset = _join_spaces(A.space, B.space, "_b")
    slots = _MP_ROLE_SLOTS[kind]

    plan: list[tuple[str, str]] = []
    if kind in (MatchedPairKind.ASSOC, MatchedPairKind.HNP):
        plan.append((slots["dot"], "assoc"))
    if kind in (MatchedPairKind.NOVIKOV, MatchedPairKind.GD):
        plan.append((slots["novikov"], "novikov"))
    if kind is MatchedPairKind.HNP:
        plan.append((slots["novikov"], "novikov"))
    if kind in (MatchedPairKind.LIE, MatchedPairKind.GD):
        plan.append((slots["bracket"], "lie"))

    def eps_ab(i: int, j: int) -> int:
        return A.eps_deg(A.space.degree(i), B.space.degree(j))

    def eps_ba(j: int, i: int) -> int:
        return A.eps_deg(B.space.degree(j), A.space.degree(i))

    products: dict[str, BilinearProduct] = {}
    for role, style in plan:
        entries: dict[tuple[int, int], dict[int, Scalar]] = {}
        for (i, j), cell in A.product(role).table.items():
            _accumulate(entries, i, j, dict(cell))
        for (i, j), cell in B.product(role).table.items():
            _accumulate(entries, offset + i, offset + j, _shift(dict(cell), offset))
        for i in range(A.dim):
            for j in range(B.dim):
                bi, bj = {i: ctx.one}, {j: ctx.one}
                if style == "assoc":
                    ab_part = pair.ab.act_by("s", bi, bj)
                    ba_part = pair.ba.act_by("s", bj, bi)
                    _accumulate(entries, i, offset + j, _shift(ab_part, offset))
                    _accumulate(
                        entries, i, offset + j,
                        ba_part if eps_ab(i, j) == 1 else vec_neg(ba_part),
                    )
                    _accumulate(entries, offset + j, i, ba_part)
                    _accumulate(
                        entries, offset + j, i,
                        _shift(ab_part if eps_ba(j, i) == 1 else vec_neg(ab_part), offset),
                    )
                elif style == "novikov":
                    _accumulate(entries, i, offset + j, _shift(pair.ab.act_by("l", bi, bj), offset))
                    _accumulate(entries, i, offset + j, pair.ba.act_by("r", bj, bi))
                    _accumulate(entries, offset + j, i, pair.ba.act_by("l", bj, bi))
                    _accumulate(entries, offset + j, i, _shift(pair.ab.act_by("r", bi, bj), offset))
                else:
                    rho_ab = pair.ab.act_by("rho", bi, bj)
                    rho_ba = pair.ba.act_by("rho", bj, bi)
                    _accumulate(entries, i, offset + j, _shift(rho_ab, offset))
                    _accumulate(
                        entries, i, offset + j,
                        vec_neg(rho_ba) if eps_ab(i, j) == 1 else rho_ba,
                    )
                    _accumulate(entries, offset + j, i, rho_ba)
                    _accumulate(
                        entries, offset + j, i,
                        _shift(vec_neg(rho_ab) if eps_ba(j, i) == 1 else rho_ab, offset),
                    )
        products[role] = BilinearProduct(space, ctx, entries)

    alpha = _block_map(A.alpha, B.alpha, space, offset)
    return AlgebraPresentation(space, A.bichar, ctx, products, alpha)


# -- tensor products ---------------------------------------------------------------


def tensor_product(
    left: AlgebraPresentation,
    right: AlgebraPresentation,
    force: bool = False,
) -> AlgebraPresentation:
    """Tensor product of two admissible dot/diamond presentations.

    Basis pairs are ordered row-major (left index outer); degrees add.  The
    closure theorem assumes both factors pass the admissible suite.
    """
    if left.space.group != right.space.group or left.bichar != right.bichar:
        raise ValueError("tensor factors use different grading contexts")
    ctx = left.context
    if right.context != ctx:
        ctx = ctx.union(right.context)
        left = rebase_presentation(left, ctx)
        right = rebase_presentation(right, ctx)
    failed = []
    for side in (left, right):
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
    space = GradedSpace(group, names, degrees)

    def idx(p1: int, p2: int) -> int:
        return p1 * nR + p2

    def pair_vec(v1: Vec, v2: Vec, sign: int) -> Vec:
        out: Vec = {}
        for k1, c1 in v1.items():
            for k2, c2 in v2.items():
                s = c1 * c2
                out[idx(k1, k2)] = s if sign == 1 else -s
        return out

    dot_entries: dict[tuple[int, int], dict[int, Scalar]] = {}
    dia_entries: dict[tuple[int, int], dict[int, Scalar]] = {}
    for p1 in range(nL):
        for p2 in range(nR):
            for q1 in range(nL):
                for q2 in range(nR):
                    sign = left.eps_deg(right.space.degree(p2), left.space.degree(q1))
                    d1 = left.mul_basis("dot", p1, q1)
                    d2 = right.mul_basis("dot", p2, q2)
                    s1 = left.mul_basis("diamond", p1, q1)
                    s2 = right.mul_basis("diamond", p2, q2)
                    i, j = idx(p1, p2), idx(q1, q2)
                    if d1 and d2:
                        _accumulate(dot_entries, i, j, pair_vec(d1, d2, sign))
                    if s1 and d2:
                        _accumulate(dia_entries, i, j, pair_vec(s1, d2, sign))
                    if d1 and s2:
                        _accumulate(dia_entries, i, j, pair_vec(d1, s2, sign))

    alpha_columns = []
    for p1 in range(nL):
        a1 = left.alpha_image(p1)
        for p2 in range(nR):
            alpha_columns.append(pair_vec(a1, right.alpha_image(p2), 1))
    alpha = LinearMap(space, space, ctx, alpha_columns)
    products = {
        "dot": BilinearProduct(space, ctx, dot_entries),
        "diamond": BilinearProduct(space, ctx, dia_entries),
    }
    return AlgebraPresentation(space, left.bichar, ctx, products, alpha)


def rebase_presentation(presentation: AlgebraPresentation, ctx) -> AlgebraPresentation:
    """Rebuild a presentation over a larger scalar context."""
    if presentation.context == ctx:
        return presentation
    products = {}
    for role, product in presentation.products.items():
        entries = {
            key: {k: s.rebase(ctx) for k, s in cell}
            for key, cell in product.table.items()
        }
        products[role] = BilinearProduct(presentation.space, ctx, entries)
    columns = [
        {k: s.rebase(ctx) for k, s in presentation.alpha.image(i).items()}
        for i in range(presentation.dim)
    ]
    alpha = LinearMap(presentation.space, presentation.space, ctx, columns)
    return AlgebraPresentation(presentation.space, presentation.bichar, ctx, products, alpha)


# -- subalgebras, ideals, quotients ---------------------------------------------------


def _subset_indices(presentation: AlgebraPresentation, subset: Iterable[str | int]) -> tuple[int, ...]:
    out = []
    for item in subset:
        out.append(item if isinstance(item, int) else presentation.space.index(item))
    return tuple(sorted(set(out)))


def _check_closures(
    presentation: AlgebraPresentation,
    subset: Iterable[str | int],
    two_sided: bool,
    check_name: str,
) -> CheckReport:
    inside = set(_subset_indices(presentation, subset))
    names, space = presentation.names, presentation.space

    def leak(vec: Vec) -> Vec:
        return {k: s for k, s in vec.items() if k not in inside}

    def twist_leak(t):
        (i,) = t
        return leak(presentation._alpha_images[i]) if i in inside else {}

    found = scan_check(check_name, (names,), twist_leak, space, detail="twist closure")
    if not found.passed:
        return found
    for role in presentation.roles:
        cells = presentation.products[role]._vec_table()

        def product_leak(t):
            i, j = t
            relevant = (i in inside or j in inside) if two_sided else (i in inside and j in inside)
            return leak(cells.get(t, {})) if relevant else {}

        found = scan_check(
            check_name, (names, names), product_leak, space, detail=f"product[{role}] closure"
        )
        if not found.passed:
            return found
    return CheckReport(check=check_name, status=PASS)


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
    space = GradedSpace(
        presentation.space.group,
        [presentation.names[i] for i in kept],
        [presentation.space.degree(i) for i in kept],
    )

    def project(vec: Vec) -> Vec:
        return {reindex[k]: s for k, s in vec.items() if k not in removed}

    products = {}
    for role, product in presentation.products.items():
        entries: dict[tuple[int, int], dict[int, Scalar]] = {}
        for (i, j), cell in product.table.items():
            if i in removed or j in removed:
                continue
            vec = project(dict(cell))
            if vec:
                entries[(reindex[i], reindex[j])] = vec
        products[role] = BilinearProduct(space, presentation.context, entries)
    alpha = LinearMap(
        space,
        space,
        presentation.context,
        [project(presentation.alpha_image(i)) for i in kept],
    )
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
    if derivation.compose(presentation.alpha) != presentation.alpha.compose(derivation):
        failed.append(
            CheckReport(
                check="twist_commutes_with_derivation",
                status=FAIL,
                detail="need alpha o D = D o alpha",
            )
        )
    if failed and not force:
        raise PreconditionError("derivation product hypotheses fail", tuple(failed))

    entries: dict[tuple[int, int], dict[int, Scalar]] = {}
    n = presentation.dim
    for i in range(n):
        bi = {i: presentation.context.one}
        for j in range(n):
            vec = presentation.mul("dot", bi, derivation.image(j))
            _accumulate(entries, i, j, vec)
    product = BilinearProduct(presentation.space, presentation.context, entries)
    products = dict(presentation.products)
    products[to_role] = product
    return presentation.with_products(products)
