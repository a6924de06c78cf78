"""Identity catalog and exact checking engine.

Each identity is a single defect folding both sides of the defining
equation, stored as data: a tuple of signed terms, each a product tree over
the tuple positions (see :mod:`homcolor.core`).  A check passes iff the
defect vanishes on every basis tuple of the identity's arity,
polynomial-identically when parameters are present.

A suite call (:func:`run_suite`, or :func:`check_gi_identities` after its
preconditions) evaluates all its members in one
:func:`~homcolor.core.run_checks` pass over whole index tuples: each tree
expanded only over nonzero structure constants and twist images, and each
subtree map built once for every member that holds it, so its cost follows
the nonzero cells, not dim^arity, and GI_2..GI_4 are decided at every
dimension.  Inside a suite, a member's report is the suite's:
:func:`check_identity` looks it up; called directly, it evaluates its
identity as a suite of one.  A pass reads its roles in sorted order, so a
missing one is named the same way under every hash seed.  A failure
carries the lexicographically smallest failing tuple together with its
defect vector, and a report's ``seconds`` is the time of the suite's whole
pass.
"""

from __future__ import annotations

import functools
import time
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .core import (
    AlgebraPresentation,
    Check,
    Term,
    eps,
    multiplicative_checks,
    operation,
    positions,
    run_checks,
    twisted,
)
from .reports import PRECONDITION_FAILED, CheckReport, SuiteReport

__all__ = [
    "IdentityId",
    "StructureKind",
    "IDENTITY_CATALOG",
    "SUITE_MEMBERS",
    "check_identity",
    "run_suite",
    "check_gi_identities",
    "required_roles",
]

# The suite whose member reports are being handed out: its presentation and
# each member's report (see _evaluate) keyed by tag and role binding.  Set
# only while run_suite or check_gi_identities collects its reports through
# check_identity.
_SUITE: ContextVar[tuple[AlgebraPresentation | None, Mapping]] = ContextVar(
    "homcolor_suite", default=(None, {})
)


@dataclass(frozen=True)
class IdentityId:
    """Catalog entry: arity, each role slot with its default product,
    preconditions, and the defect as signed product-tree terms over tuple
    positions (see :func:`~homcolor.core.term_failures`)."""

    tag: str
    arity: int
    defaults: tuple[tuple[str, str], ...]
    needs_multiplicative: bool
    terms: tuple[Term, ...]


# -- defect expressions -------------------------------------------------------
#
# Each defect folds both sides of its identity into one signed sum.  x, y, z
# are the tuple positions 0, 1, 2 (h, x, y, z for arity 4); al() is the
# twist image, and the product of each role slot is named after the slot.

def cyclic(term, x, y, z) -> tuple[Term, ...]:
    """The terms of a cyclic sum over (x, y, z), (y, z, x), (z, x, y)."""
    return (term(x, y, z), term(y, z, x), term(z, x, y))


x, y, z = positions(3)
h, x4, y4, z4 = positions(4)
al = twisted
product, bracket, dot, diamond = (operation(n) for n in ("product", "bracket", "dot", "diamond"))
_ = ()

_HOM_ASSOC = ((1, _, product(al(x), product(y, z))), (-1, _, product(product(x, y), al(z))))
_EPS_COMM = ((1, _, product(x, y)), (-1, eps(x, y), product(y, x)))
_NOVIKOV_LSYM = (
    (1, _, product(product(x, y), al(z))),
    (-1, _, product(al(x), product(y, z))),
    (-1, eps(x, y), product(product(y, x), al(z))),
    (1, eps(x, y), product(al(y), product(x, z))),
)
_NOVIKOV_RCOMM = ((1, _, product(product(x, y), al(z))), (-1, eps(y, z), product(product(x, z), al(y))))
_LIE_SKEW = ((1, _, bracket(x, y)), (1, eps(x, y), bracket(y, x)))
_LIE_JACOBI = cyclic(lambda x, y, z: (1, eps(z, x), bracket(al(x), bracket(y, z))), x, y, z)
_HNP_COMPAT_1 = ((1, _, diamond(dot(x, y), al(z))), (-1, eps(y, z), dot(diamond(x, z), al(y))))
_HNP_COMPAT_2 = (
    (1, _, dot(diamond(x, y), al(z))),
    (-1, _, diamond(al(x), dot(y, z))),
    (-1, eps(x, y), dot(diamond(y, x), al(z))),
    (1, eps(x, y), diamond(al(y), dot(x, z))),
)
_TRANSPOSED_LEIBNIZ = (
    (2, _, dot(al(z), bracket(x, y))),
    (-1, _, bracket(dot(z, x), al(y))),
    (-1, eps(z, x), bracket(al(x), dot(z, y))),
)
_POISSON_LEIBNIZ = (
    (1, _, bracket(al(x), dot(y, z))),
    (-1, eps(x, y), dot(al(y), bracket(x, z))),
    (-1, eps((x, y), z), dot(al(z), bracket(x, y))),
)
_LEFT_ASSOCIATOR = ((1, _, diamond(dot(x, y), al(z))), (-1, _, diamond(al(x), dot(y, z))))
_GD_COMPAT = (
    (1, _, dot(al(y), bracket(x, z))),
    (-1, eps(y, x), bracket(al(x), dot(y, z))),
    (1, eps((x, y), z), bracket(al(z), dot(y, x))),
    (-1, _, dot(bracket(y, x), al(z))),
    (1, eps(x, z), dot(bracket(y, z), al(x))),
)
_GI_1 = cyclic(lambda x, y, z: (1, eps(z, x), dot(al(x), bracket(y, z))), x, y, z)
_GI_2 = cyclic(
    lambda x, y, z: (1, eps(z, x), bracket(dot(al(h), bracket(x, y)), al(z, 2))), x4, y4, z4
)
_GI_3 = cyclic(
    lambda x, y, z: (1, eps(z, x), bracket(dot(al(h), al(x)), bracket(al(y), al(z)))), x4, y4, z4
)
_GI_4 = cyclic(
    lambda x, y, z: (1, eps(z, x), dot(bracket(al(h), al(x)), bracket(al(y), al(z)))), x4, y4, z4
)
del x, y, z, h, x4, y4, z4, _


def _entry(tag, arity, defaults, terms, needs_mult=False) -> IdentityId:
    return IdentityId(tag, arity, tuple(sorted(defaults.items())), needs_mult, terms)


_DOT_DIAMOND = {"dot": "dot", "diamond": "diamond"}
_DOT_BRACKET = {"dot": "dot", "bracket": "bracket"}

IDENTITY_CATALOG: dict[str, IdentityId] = {
    spec.tag: spec
    for spec in (
        _entry("HOM_ASSOC", 3, {"product": "dot"}, _HOM_ASSOC),
        _entry("EPS_COMM", 2, {"product": "dot"}, _EPS_COMM),
        _entry("NOVIKOV_LSYM", 3, {"product": "dot"}, _NOVIKOV_LSYM),
        _entry("NOVIKOV_RCOMM", 3, {"product": "dot"}, _NOVIKOV_RCOMM),
        _entry("LIE_SKEW", 2, {"bracket": "bracket"}, _LIE_SKEW),
        _entry("LIE_JACOBI", 3, {"bracket": "bracket"}, _LIE_JACOBI),
        _entry("HNP_COMPAT_1", 3, _DOT_DIAMOND, _HNP_COMPAT_1),
        _entry("HNP_COMPAT_2", 3, _DOT_DIAMOND, _HNP_COMPAT_2),
        _entry("TRANSPOSED_LEIBNIZ", 3, _DOT_BRACKET, _TRANSPOSED_LEIBNIZ),
        _entry("POISSON_LEIBNIZ", 3, _DOT_BRACKET, _POISSON_LEIBNIZ),
        _entry("LEFT_ASSOCIATOR", 3, _DOT_DIAMOND, _LEFT_ASSOCIATOR),
        # Mixed-associator lemma tag, kept in its stated form, which coincides
        # with LEFT_ASSOCIATOR.  Note the commutativity rewrite that usually
        # justifies it lands on (x.y) diamond alpha(z) = alpha(x) . (y diamond z)
        # instead, with the outer product switched; see README.
        _entry("HNP_LEMMA_ASSOC", 3, _DOT_DIAMOND, _LEFT_ASSOCIATOR),
        _entry("GD_COMPAT", 3, _DOT_BRACKET, _GD_COMPAT),
        _entry("GI_1", 3, _DOT_BRACKET, _GI_1, needs_mult=True),
        _entry("GI_2", 4, _DOT_BRACKET, _GI_2, needs_mult=True),
        _entry("GI_3", 4, _DOT_BRACKET, _GI_3, needs_mult=True),
        _entry("GI_4", 4, _DOT_BRACKET, _GI_4, needs_mult=True),
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


@functools.cache
def required_roles(kind: StructureKind) -> tuple[str, ...]:
    return tuple(sorted({role for tag, override in SUITE_MEMBERS[kind]
                         for _, role in _binding(tag, override)}))


def _binding(tag: str, roles: Mapping[str, str] | None) -> tuple[tuple[str, str], ...]:
    """The identity's role slots bound to products, as sorted (slot, role)
    pairs: its defaults updated by ``roles``, which are refused for a slot
    the identity does not have.  Bindings are kept per tag and override; a
    refusal is raised again on each call."""
    return _bound(tag, frozenset(roles.items()) if roles else frozenset())


@functools.lru_cache(maxsize=256)
def _bound(tag: str, override: frozenset) -> tuple[tuple[str, str], ...]:
    try:
        spec = IDENTITY_CATALOG[tag]
    except KeyError:
        raise KeyError(f"unknown identity tag {tag!r}") from None
    binding = dict(spec.defaults)
    unknown = {slot for slot, _ in override} - set(binding)
    if unknown:
        raise ValueError(f"{tag} has no role slots {sorted(unknown)}")
    binding.update(override)
    return tuple(sorted(binding.items()))


def _evaluate(
    presentation: AlgebraPresentation, members: list[tuple[str, tuple[tuple[str, str], ...]]]
) -> dict[tuple[str, tuple[tuple[str, str], ...]], CheckReport]:
    """Evaluate the (tag, binding) members together in one
    :func:`~homcolor.core.run_checks` pass, reading roles in sorted order;
    map each member to its report."""
    roles = sorted({role for _, binding in members for _, role in binding})
    ops = {role: presentation.product(role).row_cells for role in roles}
    checks = [
        Check(tag, (IDENTITY_CATALOG[tag].terms, binding), roles=binding)
        for tag, binding in members
    ]
    reports = run_checks(checks, presentation, ops, presentation.space)
    return dict(zip(members, reports))


def check_identity(
    presentation: AlgebraPresentation, tag: str, roles: Mapping[str, str] | None = None
) -> CheckReport:
    """Evaluate one catalogued identity on every basis tuple of its arity.

    Inside :func:`run_suite` or :func:`check_gi_identities`, it returns the
    suite's report for this member.  Called directly, it checks the twist
    precondition of GI_1..GI_4, then evaluates the identity as a suite of one.
    """
    binding = _binding(tag, roles)
    member = (tag, binding)
    suite, evaluated = _SUITE.get()
    if suite is presentation and member in evaluated:
        return evaluated[member]
    if IDENTITY_CATALOG[tag].needs_multiplicative:
        started = time.perf_counter()
        used = sorted({role for _, role in binding})
        failed = [c for c in multiplicative_checks(presentation, used) if not c.passed]
        if failed:
            return CheckReport(
                check=tag,
                status=PRECONDITION_FAILED,
                roles=binding,
                detail="identity assumes a multiplicative twist",
                preconditions=tuple(failed),
                seconds=time.perf_counter() - started,
            )
    return _evaluate(presentation, [member])[member]


def _suite_report(
    presentation: AlgebraPresentation,
    kind: str,
    members: tuple[tuple[str, Mapping[str, str]], ...],
) -> SuiteReport:
    """Evaluate the (tag, role override) members in one pass, then collect
    each member's report through :func:`check_identity`.  No structure kind
    holds a member that assumes a multiplicative twist, and
    :func:`check_gi_identities` verifies the twist before its call."""
    bound = [(tag, _binding(tag, override)) for tag, override in members]
    token = _SUITE.set((presentation, _evaluate(presentation, bound)))
    try:
        report = SuiteReport(kind=kind)
        for tag, override in members:
            report.checks.append(check_identity(presentation, tag, roles=override))
    finally:
        _SUITE.reset(token)
    return report


def run_suite(presentation: AlgebraPresentation, kind: StructureKind) -> SuiteReport:
    """All member identities of a structure kind; verdict is the conjunction."""
    return _suite_report(presentation, kind.value, SUITE_MEMBERS[kind])


_GI_MEMBERS = tuple((tag, {}) for tag in ("GI_1", "GI_2", "GI_3", "GI_4"))


def check_gi_identities(presentation: AlgebraPresentation) -> SuiteReport:
    """The four bracket/product interchange identities GI_1..GI_4.

    They hold on any structure passing the transposed-Leibniz suite with a
    twist that is multiplicative for both products; both assumptions are
    verified first and reported as precondition failures, never skipped.
    """
    base = run_suite(presentation, StructureKind.TRANSPOSED_POISSON)
    twist = multiplicative_checks(presentation, ("dot", "bracket"))
    failed = [c for c in (*base.checks, *twist) if not c.passed]
    if failed:
        report = SuiteReport(kind="gi")
        report.checks.append(
            CheckReport(
                check="GI_PRECONDITIONS",
                status=PRECONDITION_FAILED,
                detail="suite assumes a multiplicative transposed-Leibniz structure",
                preconditions=tuple(failed),
            )
        )
        return report
    # The twist was just verified multiplicative for both products, so
    # GI_1..GI_4 skip the precondition scan they run when called directly.
    return _suite_report(presentation, "gi", _GI_MEMBERS)
