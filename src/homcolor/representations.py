"""Action bundles (bimodules / representations) and their condition systems.

An :class:`ActionBundle` packages a module space with its even twisting map
and a family of named action matrices, one per algebra basis element; the
matrix of e_i shifts module degrees by deg(e_i), which is enforced at
construction, so violations are load errors rather than check failures.

:func:`check_bimodule` evaluates the condition list of a
:class:`BimoduleKind` over (algebra basis)^2 x (module basis) through the
same lexicographic scan as the identity engine, reporting the smallest
failing tuple.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, Sequence

from .core import (
    AlgebraPresentation,
    GradedSpace,
    LinearMap,
    Vec,
    is_morphism,
    scan_check,
    vec_add,
    vec_neg,
    vec_sub,
)
from .reports import PreconditionError, SuiteReport
from .scalars import ScalarContext

__all__ = [
    "ActionBundle",
    "BimoduleKind",
    "check_bimodule",
    "regular_bundle",
    "pullback_bundle",
]


class ActionBundle:
    """Module space (V, beta) with named basis-indexed action matrices.

    ``actions[name][i]`` is the operator by which algebra basis element e_i
    acts on V under the action ``name`` (one of ``s``, ``l``, ``r``, ``rho``).
    """

    __slots__ = ("algebra_space", "module", "beta", "context", "actions")

    def __init__(
        self,
        algebra_space: GradedSpace,
        module: GradedSpace,
        beta: LinearMap,
        context: ScalarContext,
        actions: Mapping[str, Sequence[LinearMap]],
    ):
        if module.group != algebra_space.group:
            raise ValueError("module and algebra must share the grading group")
        if beta.source != module or beta.target != module or not beta.is_even:
            raise ValueError("beta must be an even endomorphism of the module")
        frozen: dict[str, tuple[LinearMap, ...]] = {}
        for name in sorted(actions):
            family = tuple(actions[name])
            if len(family) != algebra_space.dim:
                raise ValueError(
                    f"action {name!r} needs one operator per algebra basis element"
                )
            for i, op in enumerate(family):
                if op.source != module or op.target != module:
                    raise ValueError(f"action {name!r}[{i}] is not an operator on the module")
                if op.degree != algebra_space.degree(i):
                    raise ValueError(
                        f"action {name!r} of {algebra_space.names[i]} must shift module "
                        f"degrees by {algebra_space.degree(i)}"
                    )
            frozen[name] = family
        self.algebra_space = algebra_space
        self.module = module
        self.beta = beta
        self.context = context
        self.actions = frozen

    def action(self, name: str) -> tuple[LinearMap, ...]:
        try:
            return self.actions[name]
        except KeyError:
            raise ValueError(
                f"bundle has no action {name!r}; available: {list(self.actions)}"
            ) from None

    def act(self, name: str, i: int, v: Vec) -> Vec:
        return self.actions[name][i].apply(v)

    def act_by(self, name: str, x: Vec, v: Vec) -> Vec:
        """Action of an algebra vector: linear extension over its components."""
        family = self.actions[name]
        out: Vec = {}
        if not x or not v:
            return out
        for i, s in x.items():
            columns = family[i].columns
            for j, t in v.items():
                st = s * t
                for k, c in columns[j]:
                    u = st * c
                    prev = out.get(k)
                    if prev is None:
                        out[k] = u
                    else:
                        u = prev + u
                        if u.terms:
                            out[k] = u
                        else:
                            del out[k]
        return out


class BimoduleKind(Enum):
    ASSOC_BIMODULE = "assoc_bimodule"
    NOVIKOV_BIMODULE = "novikov_bimodule"
    LIE_REP = "lie_rep"
    HNP_BIMODULE = "hnp_bimodule"
    GD_REP = "gd_rep"


# Default product role behind each product slot used by the conditions.
KIND_PRODUCT_SLOTS: dict[BimoduleKind, dict[str, str]] = {
    BimoduleKind.ASSOC_BIMODULE: {"assoc": "dot"},
    BimoduleKind.NOVIKOV_BIMODULE: {"novikov": "dot"},
    BimoduleKind.LIE_REP: {"lie": "bracket"},
    BimoduleKind.HNP_BIMODULE: {"assoc": "dot", "novikov": "diamond"},
    BimoduleKind.GD_REP: {"novikov": "dot", "lie": "bracket"},
}

KIND_ACTIONS: dict[BimoduleKind, tuple[str, ...]] = {
    BimoduleKind.ASSOC_BIMODULE: ("s",),
    BimoduleKind.NOVIKOV_BIMODULE: ("l", "r"),
    BimoduleKind.LIE_REP: ("rho",),
    BimoduleKind.HNP_BIMODULE: ("s", "l", "r"),
    BimoduleKind.GD_REP: ("l", "r", "rho"),
}


class _BEval:
    """Shared shorthand for condition defects over frozen data: product cell
    vectors, twist images, beta images, actions and signs.

    Defects never mutate the vectors these hand out.
    """

    __slots__ = ("A", "M", "cells", "signs", "_al", "_beta")

    def __init__(self, A: AlgebraPresentation, M: ActionBundle, slots: Mapping[str, str]):
        self.A = A
        self.M = M
        self.cells = {slot: A.product(role)._vec_table() for slot, role in slots.items()}
        self.signs = A.sign_table()
        self._al = A._alpha_images
        self._beta = tuple(M.beta.image(v) for v in range(M.module.dim))

    def bv(self, v: int) -> Vec:
        return {v: self.A.context.one}

    def beta(self, v: int) -> Vec:
        return self._beta[v]

    def al(self, i: int) -> Vec:
        return self._al[i]

    def mb(self, slot: str, i: int, j: int) -> Vec:
        return self.cells[slot].get((i, j)) or {}

    def act(self, name: str, i: int, v: Vec) -> Vec:
        return self.M.act(name, i, v)

    def act_by(self, name: str, x: Vec, v: Vec) -> Vec:
        return self.M.act_by(name, x, v)

    # sign helpers: aa = algebra/algebra, am = algebra/module, etc.
    def e_aa(self, i: int, j: int) -> int:
        return self.signs[i][j]

    def e_am(self, i: int, v: int) -> int:
        return self.A.eps_deg(self.A.space.degree(i), self.M.module.degree(v))

    def e_ma(self, v: int, i: int) -> int:
        return self.A.eps_deg(self.M.module.degree(v), self.A.space.degree(i))

    def e_av_a(self, i: int, v: int, j: int) -> int:
        group = self.A.space.group
        left = group.add(self.A.space.degree(i), self.M.module.degree(v))
        return self.A.eps_deg(left, self.A.space.degree(j))

    @staticmethod
    def sgn(sign: int, v: Vec) -> Vec:
        return v if sign == 1 else vec_neg(v)


# -- condition defects; each returns a module vector ---------------------------


def _assoc(ev: _BEval, x, y, v):
    lhs = ev.act_by("s", ev.mb("assoc", x, y), ev.beta(v))
    rhs = ev.act_by("s", ev.al(x), ev.act("s", y, ev.bv(v)))
    return vec_sub(lhs, rhs)


def _nov1(ev, x, y, v):
    lhs = vec_sub(
        ev.act_by("l", ev.mb("novikov", x, y), ev.beta(v)),
        ev.act_by("l", ev.al(x), ev.act("l", y, ev.bv(v))),
    )
    rhs = vec_sub(
        ev.act_by("l", ev.mb("novikov", y, x), ev.beta(v)),
        ev.act_by("l", ev.al(y), ev.act("l", x, ev.bv(v))),
    )
    return vec_sub(lhs, ev.sgn(ev.e_aa(x, y), rhs))


def _nov2(ev, x, y, v):
    lhs = vec_sub(
        ev.act_by("r", ev.al(y), ev.act("l", x, ev.bv(v))),
        ev.act_by("l", ev.al(x), ev.act("r", y, ev.bv(v))),
    )
    rhs = vec_sub(
        ev.act_by("r", ev.al(y), ev.act("r", x, ev.bv(v))),
        ev.act_by("r", ev.mb("novikov", x, y), ev.beta(v)),
    )
    return vec_sub(lhs, ev.sgn(ev.e_am(x, v), rhs))


def _nov3(ev, x, y, v):
    lhs = vec_sub(
        ev.act_by("r", ev.al(y), ev.act("r", x, ev.bv(v))),
        ev.act_by("r", ev.mb("novikov", x, y), ev.beta(v)),
    )
    rhs = vec_sub(
        ev.act_by("r", ev.al(y), ev.act("l", x, ev.bv(v))),
        ev.act_by("l", ev.al(x), ev.act("r", y, ev.bv(v))),
    )
    return vec_sub(lhs, ev.sgn(ev.e_ma(v, x), rhs))


def _nov4(ev, x, y, v):
    lhs = ev.act_by("l", ev.mb("novikov", x, y), ev.beta(v))
    rhs = ev.act_by("r", ev.al(y), ev.act("l", x, ev.bv(v)))
    return vec_sub(lhs, ev.sgn(ev.e_am(y, v), rhs))


def _nov5(ev, x, y, v):
    lhs = ev.act_by("r", ev.al(y), ev.act("l", x, ev.bv(v)))
    rhs = ev.act_by("l", ev.mb("novikov", x, y), ev.beta(v))
    return vec_sub(lhs, ev.sgn(ev.e_ma(v, y), rhs))


def _nov6(ev, x, y, v):
    lhs = ev.act_by("r", ev.al(y), ev.act("r", x, ev.bv(v)))
    rhs = ev.act_by("r", ev.al(x), ev.act("r", y, ev.bv(v)))
    return vec_sub(lhs, ev.sgn(ev.e_aa(x, y), rhs))


def _lie(ev, x, y, v):
    lhs = ev.act_by("rho", ev.mb("lie", x, y), ev.beta(v))
    rhs = vec_sub(
        ev.act_by("rho", ev.al(x), ev.act("rho", y, ev.bv(v))),
        ev.sgn(ev.e_aa(x, y), ev.act_by("rho", ev.al(y), ev.act("rho", x, ev.bv(v)))),
    )
    return vec_sub(lhs, rhs)


def _hnp1(ev, x, y, v):
    lhs = ev.act_by("l", ev.mb("assoc", x, y), ev.beta(v))
    rhs = ev.act_by("s", ev.al(y), ev.act("l", x, ev.bv(v)))
    return vec_sub(lhs, ev.sgn(ev.e_aa(x, y), rhs))


def _hnp2(ev, x, y, v):
    lhs = ev.act_by("r", ev.al(y), ev.act("s", x, ev.bv(v)))
    rhs = ev.act_by("s", ev.mb("novikov", x, y), ev.beta(v))
    return vec_sub(lhs, ev.sgn(ev.e_ma(v, y), rhs))


def _hnp3(ev, x, y, v):
    lhs = ev.act_by("r", ev.al(y), ev.act("s", x, ev.bv(v)))
    rhs = ev.act_by("s", ev.al(x), ev.act("r", y, ev.bv(v)))
    return vec_sub(lhs, rhs)


def _hnp4(ev, x, y, v):
    lhs = vec_sub(
        ev.act_by("s", ev.mb("novikov", x, y), ev.beta(v)),
        ev.act_by("l", ev.al(x), ev.act("s", y, ev.bv(v))),
    )
    rhs = vec_sub(
        ev.act_by("s", ev.mb("novikov", y, x), ev.beta(v)),
        ev.act_by("l", ev.al(y), ev.act("s", x, ev.bv(v))),
    )
    return vec_sub(lhs, ev.sgn(ev.e_aa(x, y), rhs))


def _hnp5(ev, x, y, v):
    inner = vec_sub(
        ev.act_by("s", ev.al(y), ev.act("l", x, ev.bv(v))),
        ev.sgn(ev.e_am(x, v), ev.act_by("s", ev.al(y), ev.act("r", x, ev.bv(v)))),
    )
    lhs = ev.sgn(ev.e_av_a(x, v, y), inner)
    rhs = vec_sub(
        ev.sgn(ev.e_ma(v, y), ev.act_by("l", ev.al(x), ev.act("s", y, ev.bv(v)))),
        ev.sgn(ev.e_am(x, v), ev.act_by("r", ev.mb("assoc", x, y), ev.beta(v))),
    )
    return vec_sub(lhs, rhs)


def _gd1(ev, x, y, v):
    total = ev.act_by("l", ev.al(y), ev.act("rho", x, ev.bv(v)))
    total = vec_sub(total, ev.act_by("rho", ev.mb("novikov", y, x), ev.beta(v)))
    total = vec_sub(
        total,
        ev.sgn(ev.e_aa(y, x), ev.act_by("rho", ev.al(x), ev.act("l", y, ev.bv(v)))),
    )
    total = vec_add(
        total,
        ev.sgn(ev.e_am(x, v), ev.act_by("r", ev.al(x), ev.act("rho", y, ev.bv(v)))),
    )
    return vec_sub(total, ev.act_by("l", ev.mb("lie", y, x), ev.beta(v)))


def _gd2(ev, x, y, v):
    total = ev.act_by("r", ev.mb("lie", x, y), ev.beta(v))
    first = vec_sub(
        ev.act_by("rho", ev.al(x), ev.act("r", y, ev.bv(v))),
        ev.act_by("r", ev.al(y), ev.act("rho", x, ev.bv(v))),
    )
    second = vec_sub(
        ev.act_by("r", ev.al(x), ev.act("rho", y, ev.bv(v))),
        ev.act_by("rho", ev.al(y), ev.act("r", x, ev.bv(v))),
    )
    total = vec_sub(total, ev.sgn(ev.e_ma(v, x), first))
    return vec_sub(total, ev.sgn(ev.e_av_a(x, v, y), second))


_ASSOC_CONDS = (("ASSOC_BIMODULE", _assoc),)
_NOV_CONDS = (
    ("NOV_COND1", _nov1),
    ("NOV_COND2", _nov2),
    ("NOV_COND3", _nov3),
    ("NOV_COND4", _nov4),
    ("NOV_COND5", _nov5),
    ("NOV_COND6", _nov6),
)
_LIE_CONDS = (("LIE_REP", _lie),)

KIND_CONDITIONS = {
    BimoduleKind.ASSOC_BIMODULE: _ASSOC_CONDS,
    BimoduleKind.NOVIKOV_BIMODULE: _NOV_CONDS,
    BimoduleKind.LIE_REP: _LIE_CONDS,
    BimoduleKind.HNP_BIMODULE: _ASSOC_CONDS
    + _NOV_CONDS
    + (
        ("HNP_COND1", _hnp1),
        ("HNP_COND2", _hnp2),
        ("HNP_COND3", _hnp3),
        ("HNP_COND4", _hnp4),
        ("HNP_COND5", _hnp5),
    ),
    BimoduleKind.GD_REP: _NOV_CONDS + _LIE_CONDS + (("GD_COND1", _gd1), ("GD_COND2", _gd2)),
}


def _resolve_slots(
    kind: BimoduleKind, product_roles: Mapping[str, str] | None
) -> dict[str, str]:
    slots = dict(KIND_PRODUCT_SLOTS[kind])
    if product_roles:
        unknown = set(product_roles) - set(slots)
        if unknown:
            raise ValueError(f"{kind.value} has no product slots {sorted(unknown)}")
        slots.update(product_roles)
    return slots


def check_bimodule(
    presentation: AlgebraPresentation,
    bundle: ActionBundle,
    kind: BimoduleKind,
    product_roles: Mapping[str, str] | None = None,
) -> SuiteReport:
    """Evaluate every condition of ``kind`` over basis pairs times module basis."""
    if bundle.algebra_space != presentation.space:
        raise ValueError("bundle is indexed by a different algebra basis")
    slots = _resolve_slots(kind, product_roles)
    for role in slots.values():
        presentation.product(role)
    for name in KIND_ACTIONS[kind]:
        bundle.action(name)

    ev = _BEval(presentation, bundle, slots)
    axes = (presentation.names, presentation.names, bundle.module.names)
    report = SuiteReport(kind=kind.value)
    for label, defect_fn in KIND_CONDITIONS[kind]:
        report.checks.append(
            scan_check(label, axes, lambda t: defect_fn(ev, *t), bundle.module)
        )
    return report


# Product slot and multiplication side behind each action of a regular or
# pullback bundle: e_i acts by left or right multiplication.
_ACTION_SOURCES: dict[str, tuple[str, str]] = {
    "s": ("assoc", "left"),
    "l": ("novikov", "left"),
    "r": ("novikov", "right"),
    "rho": ("lie", "left"),
}


def _mul_column_map(
    presentation: AlgebraPresentation, role: str, i: int, side: str
) -> LinearMap:
    space = presentation.space
    if side == "left":
        columns = [presentation.mul_basis(role, i, j) for j in range(space.dim)]
    else:
        columns = [presentation.mul_basis(role, j, i) for j in range(space.dim)]
    return LinearMap(space, space, presentation.context, columns, degree=space.degree(i))


def regular_bundle(
    presentation: AlgebraPresentation,
    kind: BimoduleKind,
    product_roles: Mapping[str, str] | None = None,
) -> ActionBundle:
    """The presentation acting on itself: left/right multiplications and the
    adjoint action of the bracket, with beta equal to the twist."""
    slots = _resolve_slots(kind, product_roles)
    for role in slots.values():
        presentation.product(role)
    actions: dict[str, tuple[LinearMap, ...]] = {}
    n = presentation.dim
    for name in KIND_ACTIONS[kind]:
        slot, side = _ACTION_SOURCES[name]
        actions[name] = tuple(
            _mul_column_map(presentation, slots[slot], i, side) for i in range(n)
        )
    return ActionBundle(
        presentation.space, presentation.space, presentation.alpha, presentation.context, actions
    )


def pullback_bundle(
    f: LinearMap,
    source: AlgebraPresentation,
    target: AlgebraPresentation,
    kind: BimoduleKind = BimoduleKind.HNP_BIMODULE,
    product_roles: Mapping[str, str] | None = None,
    force: bool = False,
) -> ActionBundle:
    """Actions of ``source`` on ``target`` by multiplying through f(x).

    Requires f to be a verified morphism; the resulting bundle satisfies the
    same bimodule kind the target's regular bundle does.
    """
    morphism = is_morphism(f, source, target)
    if not morphism.passed and not force:
        raise PreconditionError("pullback needs a verified morphism", (morphism,))
    slots = _resolve_slots(kind, product_roles)
    for role in slots.values():
        target.product(role)
    space = target.space
    n = source.dim
    actions: dict[str, tuple[LinearMap, ...]] = {}

    def column_map(i: int, role: str, side: str) -> LinearMap:
        fx = f.image(i)
        if side == "left":
            columns = [target.mul(role, fx, {j: target.context.one}) for j in range(space.dim)]
        else:
            columns = [target.mul(role, {j: target.context.one}, fx) for j in range(space.dim)]
        return LinearMap(space, space, target.context, columns, degree=source.space.degree(i))

    for name in KIND_ACTIONS[kind]:
        slot, side = _ACTION_SOURCES[name]
        actions[name] = tuple(column_map(i, slots[slot], side) for i in range(n))
    return ActionBundle(source.space, space, target.alpha, target.context, actions)
