"""Identity catalog and exact checking engine.

Each identity is a single defect expression folding both sides of the
defining equation; a check evaluates the defect on every basis tuple of the
identity's arity and passes iff every defect is the zero scalar vector,
polynomial-identically when parameters are present.  The tuples are scanned
once, in lexicographic order, by :func:`~homcolor.core.scan_check`, so a
failure reports the lexicographically smallest failing tuple together with
its defect vector.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping

from .core import (
    AlgebraPresentation,
    Vec,
    _mul,
    is_multiplicative,
    scan_check,
    vec_add,
    vec_neg,
    vec_sub,
)
from .reports import PRECONDITION_FAILED, CheckReport, SuiteReport

__all__ = [
    "IdentityId",
    "StructureKind",
    "ArityCapError",
    "IDENTITY_CATALOG",
    "SUITE_MEMBERS",
    "check_identity",
    "run_suite",
    "check_gi_identities",
    "required_roles",
    "arity4_cap",
]

DEFAULT_ARITY4_CAP = 12
ARITY4_ENV = "HOMCOLOR_MAX_ARITY4_DIM"


class ArityCapError(ValueError):
    """Arity-4 check requested above the dimension cap without an override."""


def arity4_cap(override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get(ARITY4_ENV)
    return int(env) if env else DEFAULT_ARITY4_CAP


class _Eval:
    """Per-check evaluation context over the presentation's frozen tables:
    product tables and cell vectors per role slot, signs, twist images.

    Defects never mutate the vectors these hand out.
    """

    __slots__ = ("A", "tables", "cells", "signs", "_al", "_al2")

    def __init__(self, A: AlgebraPresentation, roles: Mapping[str, str]):
        self.A = A
        products = {slot: A.product(role) for slot, role in roles.items()}
        self.tables = {slot: p.table for slot, p in products.items()}
        self.cells = {slot: p._vec_table() for slot, p in products.items()}
        self.signs = A.sign_table()
        self._al = A._alpha_images
        self._al2 = None

    def al(self, i: int) -> Vec:
        return self._al[i]

    def al2(self, i: int) -> Vec:
        if self._al2 is None:
            self._al2 = tuple(self.A.alpha_vec(v) for v in self._al)
        return self._al2[i]

    def mb(self, slot: str, i: int, j: int) -> Vec:
        return self.cells[slot].get((i, j)) or {}

    def mul(self, slot: str, x: Vec, y: Vec) -> Vec:
        return _mul(self.tables[slot], x, y)

    def e(self, i: int, j: int) -> int:
        return self.signs[i][j]

    def e2(self, i: int, j: int, k: int) -> int:
        """Sign between deg(e_i) + deg(e_j) and deg(e_k)."""
        space = self.A.space
        return self.A.eps_deg(space.group.add(space.degree(i), space.degree(j)), space.degree(k))

    @staticmethod
    def sgn(sign: int, v: Vec) -> Vec:
        return v if sign == 1 else vec_neg(v)


Defect = Callable[[_Eval, tuple[int, ...]], Vec]


@dataclass(frozen=True)
class IdentityId:
    """Catalog entry: arity, role slots with defaults, and preconditions."""

    tag: str
    arity: int
    slots: tuple[str, ...]
    defaults: tuple[tuple[str, str], ...]
    needs_multiplicative: bool
    defect: Defect


def _cyclic(t: tuple[int, int, int]):
    x, y, z = t
    return ((x, y, z), (y, z, x), (z, x, y))


# -- defect expressions -------------------------------------------------------


def _hom_assoc(ev: _Eval, t):
    x, y, z = t
    return vec_sub(
        ev.mul("product", ev.al(x), ev.mb("product", y, z)),
        ev.mul("product", ev.mb("product", x, y), ev.al(z)),
    )


def _eps_comm(ev: _Eval, t):
    x, y = t
    return vec_sub(ev.mb("product", x, y), ev.sgn(ev.e(x, y), ev.mb("product", y, x)))


def _novikov_lsym(ev: _Eval, t):
    x, y, z = t
    lhs = vec_sub(
        ev.mul("product", ev.mb("product", x, y), ev.al(z)),
        ev.mul("product", ev.al(x), ev.mb("product", y, z)),
    )
    rhs = vec_sub(
        ev.mul("product", ev.mb("product", y, x), ev.al(z)),
        ev.mul("product", ev.al(y), ev.mb("product", x, z)),
    )
    return vec_sub(lhs, ev.sgn(ev.e(x, y), rhs))


def _novikov_rcomm(ev: _Eval, t):
    x, y, z = t
    return vec_sub(
        ev.mul("product", ev.mb("product", x, y), ev.al(z)),
        ev.sgn(ev.e(y, z), ev.mul("product", ev.mb("product", x, z), ev.al(y))),
    )


def _lie_skew(ev: _Eval, t):
    x, y = t
    return vec_add(ev.mb("bracket", x, y), ev.sgn(ev.e(x, y), ev.mb("bracket", y, x)))


def _lie_jacobi(ev: _Eval, t):
    total: Vec = {}
    for x, y, z in _cyclic(t):
        term = ev.mul("bracket", ev.al(x), ev.mb("bracket", y, z))
        total = vec_add(total, ev.sgn(ev.e(z, x), term))
    return total


def _hnp_compat_1(ev: _Eval, t):
    x, y, z = t
    return vec_sub(
        ev.mul("diamond", ev.mb("dot", x, y), ev.al(z)),
        ev.sgn(ev.e(y, z), ev.mul("dot", ev.mb("diamond", x, z), ev.al(y))),
    )


def _hnp_compat_2(ev: _Eval, t):
    x, y, z = t
    lhs = vec_sub(
        ev.mul("dot", ev.mb("diamond", x, y), ev.al(z)),
        ev.mul("diamond", ev.al(x), ev.mb("dot", y, z)),
    )
    rhs = vec_sub(
        ev.mul("dot", ev.mb("diamond", y, x), ev.al(z)),
        ev.mul("diamond", ev.al(y), ev.mb("dot", x, z)),
    )
    return vec_sub(lhs, ev.sgn(ev.e(x, y), rhs))


def _transposed_leibniz(ev: _Eval, t):
    x, y, z = t
    two = ev.A.context.scalar(2)
    lhs = {k: two * s for k, s in ev.mul("dot", ev.al(z), ev.mb("bracket", x, y)).items()}
    rhs = vec_add(
        ev.mul("bracket", ev.mb("dot", z, x), ev.al(y)),
        ev.sgn(ev.e(z, x), ev.mul("bracket", ev.al(x), ev.mb("dot", z, y))),
    )
    return vec_sub(lhs, rhs)


def _poisson_leibniz(ev: _Eval, t):
    x, y, z = t
    lhs = ev.mul("bracket", ev.al(x), ev.mb("dot", y, z))
    rhs = vec_add(
        ev.sgn(ev.e(x, y), ev.mul("dot", ev.al(y), ev.mb("bracket", x, z))),
        ev.sgn(ev.e2(x, y, z), ev.mul("dot", ev.al(z), ev.mb("bracket", x, y))),
    )
    return vec_sub(lhs, rhs)


def _left_associator(ev: _Eval, t):
    x, y, z = t
    return vec_sub(
        ev.mul("diamond", ev.mb("dot", x, y), ev.al(z)),
        ev.mul("diamond", ev.al(x), ev.mb("dot", y, z)),
    )


def _gd_compat(ev: _Eval, t):
    x, y, z = t
    total = ev.mul("dot", ev.al(y), ev.mb("bracket", x, z))
    total = vec_sub(total, ev.sgn(ev.e(y, x), ev.mul("bracket", ev.al(x), ev.mb("dot", y, z))))
    total = vec_add(total, ev.sgn(ev.e2(x, y, z), ev.mul("bracket", ev.al(z), ev.mb("dot", y, x))))
    total = vec_sub(total, ev.mul("dot", ev.mb("bracket", y, x), ev.al(z)))
    total = vec_add(total, ev.sgn(ev.e(x, z), ev.mul("dot", ev.mb("bracket", y, z), ev.al(x))))
    return total


def _gi_1(ev: _Eval, t):
    total: Vec = {}
    for x, y, z in _cyclic(t):
        term = ev.mul("dot", ev.al(x), ev.mb("bracket", y, z))
        total = vec_add(total, ev.sgn(ev.e(z, x), term))
    return total


def _gi_2(ev: _Eval, t):
    h = t[0]
    total: Vec = {}
    for x, y, z in _cyclic(t[1:]):
        inner = ev.mul("dot", ev.al(h), ev.mb("bracket", x, y))
        term = ev.mul("bracket", inner, ev.al2(z))
        total = vec_add(total, ev.sgn(ev.e(z, x), term))
    return total


def _gi_3(ev: _Eval, t):
    h = t[0]
    total: Vec = {}
    for x, y, z in _cyclic(t[1:]):
        left = ev.mul("dot", ev.al(h), ev.al(x))
        right = ev.mul("bracket", ev.al(y), ev.al(z))
        total = vec_add(total, ev.sgn(ev.e(z, x), ev.mul("bracket", left, right)))
    return total


def _gi_4(ev: _Eval, t):
    h = t[0]
    total: Vec = {}
    for x, y, z in _cyclic(t[1:]):
        left = ev.mul("bracket", ev.al(h), ev.al(x))
        right = ev.mul("bracket", ev.al(y), ev.al(z))
        total = vec_add(total, ev.sgn(ev.e(z, x), ev.mul("dot", left, right)))
    return total


def _entry(tag, arity, slots, defaults, defect, needs_mult=False) -> IdentityId:
    return IdentityId(tag, arity, slots, tuple(sorted(defaults.items())), needs_mult, defect)


IDENTITY_CATALOG: dict[str, IdentityId] = {
    spec.tag: spec
    for spec in (
        _entry("HOM_ASSOC", 3, ("product",), {"product": "dot"}, _hom_assoc),
        _entry("EPS_COMM", 2, ("product",), {"product": "dot"}, _eps_comm),
        _entry("NOVIKOV_LSYM", 3, ("product",), {"product": "dot"}, _novikov_lsym),
        _entry("NOVIKOV_RCOMM", 3, ("product",), {"product": "dot"}, _novikov_rcomm),
        _entry("LIE_SKEW", 2, ("bracket",), {"bracket": "bracket"}, _lie_skew),
        _entry("LIE_JACOBI", 3, ("bracket",), {"bracket": "bracket"}, _lie_jacobi),
        _entry("HNP_COMPAT_1", 3, ("dot", "diamond"), {"dot": "dot", "diamond": "diamond"}, _hnp_compat_1),
        _entry("HNP_COMPAT_2", 3, ("dot", "diamond"), {"dot": "dot", "diamond": "diamond"}, _hnp_compat_2),
        _entry("TRANSPOSED_LEIBNIZ", 3, ("dot", "bracket"), {"dot": "dot", "bracket": "bracket"}, _transposed_leibniz),
        _entry("POISSON_LEIBNIZ", 3, ("dot", "bracket"), {"dot": "dot", "bracket": "bracket"}, _poisson_leibniz),
        _entry("LEFT_ASSOCIATOR", 3, ("dot", "diamond"), {"dot": "dot", "diamond": "diamond"}, _left_associator),
        # Mixed-associator lemma tag, kept in its stated form, which coincides
        # with LEFT_ASSOCIATOR.  Note the commutativity rewrite that usually
        # justifies it lands on (x.y) diamond alpha(z) = alpha(x) . (y diamond z)
        # instead, with the outer product switched; see README.
        _entry("HNP_LEMMA_ASSOC", 3, ("dot", "diamond"), {"dot": "dot", "diamond": "diamond"}, _left_associator),
        _entry("GD_COMPAT", 3, ("dot", "bracket"), {"dot": "dot", "bracket": "bracket"}, _gd_compat),
        _entry("GI_1", 3, ("dot", "bracket"), {"dot": "dot", "bracket": "bracket"}, _gi_1, needs_mult=True),
        _entry("GI_2", 4, ("dot", "bracket"), {"dot": "dot", "bracket": "bracket"}, _gi_2, needs_mult=True),
        _entry("GI_3", 4, ("dot", "bracket"), {"dot": "dot", "bracket": "bracket"}, _gi_3, needs_mult=True),
        _entry("GI_4", 4, ("dot", "bracket"), {"dot": "dot", "bracket": "bracket"}, _gi_4, needs_mult=True),
    )
}


class StructureKind(Enum):
    EPS_COMM_ASSOC = "eps_comm_assoc"
    HOM_NOVIKOV = "hom_novikov"
    HOM_LIE = "hom_lie"
    HNP = "hnp"
    ADMISSIBLE_HNP = "admissible_hnp"
    TRANSPOSED_POISSON = "transposed_poisson"
    HOM_POISSON = "hom_poisson"
    HOM_GD = "hom_gd"


_COMM_ASSOC = (("EPS_COMM", {"product": "dot"}), ("HOM_ASSOC", {"product": "dot"}))
_LIE = (("LIE_SKEW", {}), ("LIE_JACOBI", {}))
_HNP = _COMM_ASSOC + (
    ("NOVIKOV_LSYM", {"product": "diamond"}),
    ("NOVIKOV_RCOMM", {"product": "diamond"}),
    ("HNP_COMPAT_1", {}),
    ("HNP_COMPAT_2", {}),
)

SUITE_MEMBERS: dict[StructureKind, tuple[tuple[str, dict[str, str]], ...]] = {
    StructureKind.EPS_COMM_ASSOC: _COMM_ASSOC,
    StructureKind.HOM_NOVIKOV: (
        ("NOVIKOV_LSYM", {"product": "dot"}),
        ("NOVIKOV_RCOMM", {"product": "dot"}),
    ),
    StructureKind.HOM_LIE: _LIE,
    StructureKind.HNP: _HNP,
    StructureKind.ADMISSIBLE_HNP: _HNP + (("LEFT_ASSOCIATOR", {}),),
    StructureKind.TRANSPOSED_POISSON: _COMM_ASSOC + _LIE + (("TRANSPOSED_LEIBNIZ", {}),),
    StructureKind.HOM_POISSON: _COMM_ASSOC + _LIE + (("POISSON_LEIBNIZ", {}),),
    StructureKind.HOM_GD: (
        ("NOVIKOV_LSYM", {"product": "dot"}),
        ("NOVIKOV_RCOMM", {"product": "dot"}),
    )
    + _LIE
    + (("GD_COMPAT", {}),),
}


def required_roles(kind: StructureKind) -> tuple[str, ...]:
    roles: set[str] = set()
    for tag, override in SUITE_MEMBERS[kind]:
        spec = IDENTITY_CATALOG[tag]
        binding = dict(spec.defaults)
        binding.update(override)
        roles.update(binding.values())
    return tuple(sorted(roles))


def check_identity(
    presentation: AlgebraPresentation,
    tag: str,
    roles: Mapping[str, str] | None = None,
    arity4_dim_cap: int | None = None,
) -> CheckReport:
    """Evaluate one catalogued identity on every basis tuple of its arity."""
    try:
        spec = IDENTITY_CATALOG[tag]
    except KeyError:
        raise KeyError(f"unknown identity tag {tag!r}") from None
    binding = dict(spec.defaults)
    if roles:
        unknown = set(roles) - set(spec.slots)
        if unknown:
            raise ValueError(f"{tag} has no role slots {sorted(unknown)}")
        binding.update(roles)
    for role in binding.values():
        presentation.product(role)  # raises MissingRoleError

    role_items = tuple(sorted(binding.items()))

    if spec.needs_multiplicative:
        started = time.perf_counter()
        failed = []
        for role in sorted(set(binding.values())):
            sub = is_multiplicative(presentation, role)
            if not sub.passed:
                failed.append(sub)
        if failed:
            return CheckReport(
                check=tag,
                status=PRECONDITION_FAILED,
                roles=role_items,
                detail="identity assumes a multiplicative twist",
                preconditions=tuple(failed),
                seconds=time.perf_counter() - started,
            )

    n = presentation.dim
    if spec.arity >= 4:
        cap = arity4_cap(arity4_dim_cap)
        if n > cap:
            raise ArityCapError(
                f"{tag} scans dim^{spec.arity} tuples; dim {n} exceeds the cap {cap} "
                f"(raise via {ARITY4_ENV} or the arity4_dim_cap argument)"
            )

    ev = _Eval(presentation, binding)
    return scan_check(
        tag,
        (presentation.names,) * spec.arity,
        lambda t: spec.defect(ev, t),
        presentation.space,
        roles=role_items,
    )


def run_suite(
    presentation: AlgebraPresentation,
    kind: StructureKind,
    arity4_dim_cap: int | None = None,
) -> SuiteReport:
    """All member identities of a structure kind; verdict is the conjunction."""
    for role in required_roles(kind):
        presentation.product(role)
    report = SuiteReport(kind=kind.value)
    for tag, override in SUITE_MEMBERS[kind]:
        report.checks.append(
            check_identity(presentation, tag, roles=override, arity4_dim_cap=arity4_dim_cap)
        )
    return report


def check_gi_identities(
    presentation: AlgebraPresentation,
    arity4_dim_cap: int | None = None,
) -> SuiteReport:
    """The four bracket/product interchange identities GI_1..GI_4.

    They hold on any structure passing the transposed-Leibniz suite with a
    twist that is multiplicative for both products; both assumptions are
    verified first and reported as precondition failures, never skipped.
    """
    report = SuiteReport(kind="gi")
    failed: list[CheckReport] = []
    base = run_suite(presentation, StructureKind.TRANSPOSED_POISSON)
    failed.extend(c for c in base.checks if not c.passed)
    for role in ("dot", "bracket"):
        sub = is_multiplicative(presentation, role)
        if not sub.passed:
            failed.append(sub)
    if failed:
        report.checks.append(
            CheckReport(
                check="GI_PRECONDITIONS",
                status=PRECONDITION_FAILED,
                detail="suite assumes a multiplicative transposed-Leibniz structure",
                preconditions=tuple(failed),
            )
        )
        return report
    for tag in ("GI_1", "GI_2", "GI_3", "GI_4"):
        report.checks.append(
            check_identity(presentation, tag, arity4_dim_cap=arity4_dim_cap)
        )
    return report
