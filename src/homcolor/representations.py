"""Action bundles (bimodules / representations) and their condition systems.

An :class:`ActionBundle` packages a module space with its even twisting map
and named actions, each stored as one sparse row table over the algebra
basis; the operator of e_i shifts module degrees by deg(e_i), which is
enforced at construction, so violations are load errors rather than check
failures.  Regular and pullback bundles build their rows from nonzero cells.

Each bimodule kind is one entry of :data:`BIMODULE_TABLE`: its product
slots with their default roles, and its conditions.  :data:`SLOT_ACTIONS`
is the one source of which actions act through each slot; a kind's actions,
the multiplication side of regular and pullback bundles, the direct-sum
cross rule and the loader's action names all come from it.  Each condition
is a tuple of signed product-tree terms over (algebra basis)^2 x (module
basis), whose nodes are the kind's product slots and actions.  :func:`check_bimodule` evaluates all conditions of a
kind together in one pass of the identity engine's evaluator
(:func:`~homcolor.core.run_checks`), over nonzero cells and whole index
tuples, sharing each subtree map between the conditions, and reports each
condition's smallest failing tuple.  The bundle keeps those reports, so a
second check of it against the same presentation object, such as the one
:func:`~homcolor.constructions.semidirect_sum` makes, evaluates nothing.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .core import (
    AlgebraPresentation,
    Check,
    GradedSpace,
    LinearMap,
    Rows,
    Term,
    _bind_slots,
    eps,
    is_morphism,
    operation,
    positions,
    run_checks,
    twisted,
)
from .reports import CheckReport, PreconditionError, SuiteReport
from .scalars import Scalar, ScalarContext

__all__ = [
    "ActionBundle",
    "BimoduleKind",
    "check_bimodule",
    "regular_bundle",
    "pullback_bundle",
]


class ActionBundle:
    """Module space (V, beta) with named actions (``s``, ``l``, ``r``,
    ``rho``), each stored as its rows (:meth:`row_cells`).  The operator by
    which algebra basis element e_i acts, ``actions[name][i]``, is rebuilt
    from row i on each read.
    """

    __slots__ = ("algebra_space", "module", "beta", "context", "_rows", "_verdicts")

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
        rows: dict[str, Rows] = {}
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
            rows[name] = tuple(
                tuple((j, col) for j, col in enumerate(op.columns) if col) for op in family
            )
        self.algebra_space = algebra_space
        self.module = module
        self.beta = beta
        self.context = context
        self._rows = rows
        # check_bimodule's reports by (kind, resolved slots), each with the
        # presentation object they were evaluated against.
        self._verdicts: dict[tuple, tuple[AlgebraPresentation, tuple[CheckReport, ...]]] = {}

    @property
    def actions(self) -> dict[str, tuple[LinearMap, ...]]:
        return {name: self.action(name) for name in self._rows}

    def action(self, name: str) -> tuple[LinearMap, ...]:
        family = []
        for row, degree in zip(self.row_cells(name), self.algebra_space.degrees):
            columns: list[dict] = [{} for _ in range(self.module.dim)]
            for j, column in row:
                columns[j] = dict(column)
            family.append(LinearMap(self.module, self.module, self.context, columns, degree))
        return tuple(family)

    def row_cells(self, name: str) -> Rows:
        """``row_cells(name)[i]`` lists (j, column) over the nonzero images
        of e_j under the operator of e_i."""
        try:
            return self._rows[name]
        except KeyError:
            raise ValueError(
                f"bundle has no action {name!r}; available: {list(self._rows)}"
            ) from None


class BimoduleKind(Enum):
    ASSOC_BIMODULE = "assoc_bimodule"
    NOVIKOV_BIMODULE = "novikov_bimodule"
    LIE_REP = "lie_rep"
    HNP_BIMODULE = "hnp_bimodule"
    GD_REP = "gd_rep"


# The cross rule of each product slot, for x a basis element of the acting
# side and y one of the side acted on: the action giving x.y, the action
# giving y.x, and the sign of y.x as a function of eps(y, x).
SLOT_ACTIONS: dict[str, tuple[str, str, Callable[[int], int]]] = {
    "assoc": ("s", "s", lambda e: e),
    "novikov": ("l", "r", lambda e: 1),
    "lie": ("rho", "rho", lambda e: -e),
}


def slot_actions(slots: Iterable[str]) -> tuple[str, ...]:
    """The actions through ``slots``, in slot order."""
    return tuple(dict.fromkeys(name for slot in slots for name in SLOT_ACTIONS[slot][:2]))


# -- condition defects ----------------------------------------------------------
#
# Each condition is a signed sum of product trees over (x, y, v): x and y
# are algebra basis positions 0 and 1, v the module basis position 2.
# al() is the twist image (alpha on the algebra, beta on the module); a
# product slot's operation is named after the slot, an action after itself,
# and s(x, v) is the action of x on v.

x, y, v = positions(3)
al = twisted
assoc, novikov, lie = (operation(n) for n in ("assoc", "novikov", "lie"))
s, l, r, rho = (operation(n) for n in ("s", "l", "r", "rho"))
_ = ()

_ASSOC = ((1, _, s(assoc(x, y), al(v))), (-1, _, s(al(x), s(y, v))))
_NOV1 = (
    (1, _, l(novikov(x, y), al(v))),
    (-1, _, l(al(x), l(y, v))),
    (-1, eps(x, y), l(novikov(y, x), al(v))),
    (1, eps(x, y), l(al(y), l(x, v))),
)
_NOV2 = (
    (1, _, r(al(y), l(x, v))),
    (-1, _, l(al(x), r(y, v))),
    (-1, eps(x, v), r(al(y), r(x, v))),
    (1, eps(x, v), r(novikov(x, y), al(v))),
)
_NOV3 = (
    (1, _, r(al(y), r(x, v))),
    (-1, _, r(novikov(x, y), al(v))),
    (-1, eps(v, x), r(al(y), l(x, v))),
    (1, eps(v, x), l(al(x), r(y, v))),
)
_NOV4 = ((1, _, l(novikov(x, y), al(v))), (-1, eps(y, v), r(al(y), l(x, v))))
_NOV5 = ((1, _, r(al(y), l(x, v))), (-1, eps(v, y), l(novikov(x, y), al(v))))
_NOV6 = ((1, _, r(al(y), r(x, v))), (-1, eps(x, y), r(al(x), r(y, v))))
_LIE = (
    (1, _, rho(lie(x, y), al(v))),
    (-1, _, rho(al(x), rho(y, v))),
    (1, eps(x, y), rho(al(y), rho(x, v))),
)
_HNP1 = ((1, _, l(assoc(x, y), al(v))), (-1, eps(x, y), s(al(y), l(x, v))))
_HNP2 = ((1, _, r(al(y), s(x, v))), (-1, eps(v, y), s(novikov(x, y), al(v))))
_HNP3 = ((1, _, r(al(y), s(x, v))), (-1, _, s(al(x), r(y, v))))
_HNP4 = (
    (1, _, s(novikov(x, y), al(v))),
    (-1, _, l(al(x), s(y, v))),
    (-1, eps(x, y), s(novikov(y, x), al(v))),
    (1, eps(x, y), l(al(y), s(x, v))),
)
_HNP5 = (
    (1, eps((x, v), y), s(al(y), l(x, v))),
    (-1, eps((x, v), y) + eps(x, v), s(al(y), r(x, v))),
    (-1, eps(v, y), l(al(x), s(y, v))),
    (1, eps(x, v), r(assoc(x, y), al(v))),
)
_GD1 = (
    (1, _, l(al(y), rho(x, v))),
    (-1, _, rho(novikov(y, x), al(v))),
    (-1, eps(y, x), rho(al(x), l(y, v))),
    (1, eps(x, v), r(al(x), rho(y, v))),
    (-1, _, l(lie(y, x), al(v))),
)
_GD2 = (
    (1, _, r(lie(x, y), al(v))),
    (-1, eps(v, x), rho(al(x), r(y, v))),
    (1, eps(v, x), r(al(y), rho(x, v))),
    (-1, eps((x, v), y), r(al(x), rho(y, v))),
    (1, eps((x, v), y), rho(al(y), r(x, v))),
)
del x, y, v, al, assoc, novikov, lie, s, l, r, rho, _

_ASSOC_CONDS = (("ASSOC_BIMODULE", _ASSOC),)
_NOV_CONDS = (
    ("NOV_COND1", _NOV1),
    ("NOV_COND2", _NOV2),
    ("NOV_COND3", _NOV3),
    ("NOV_COND4", _NOV4),
    ("NOV_COND5", _NOV5),
    ("NOV_COND6", _NOV6),
)
_LIE_CONDS = (("LIE_REP", _LIE),)
_HNP_CONDS = (
    ("HNP_COND1", _HNP1),
    ("HNP_COND2", _HNP2),
    ("HNP_COND3", _HNP3),
    ("HNP_COND4", _HNP4),
    ("HNP_COND5", _HNP5),
)
_GD_CONDS = (("GD_COND1", _GD1), ("GD_COND2", _GD2))


class KindEntry(NamedTuple):
    """A bimodule kind: its product slots with their default roles, and its conditions."""

    slots: dict[str, str]
    conditions: tuple[tuple[str, tuple[Term, ...]], ...]


BIMODULE_TABLE: dict[BimoduleKind, KindEntry] = {
    BimoduleKind.ASSOC_BIMODULE: KindEntry({"assoc": "dot"}, _ASSOC_CONDS),
    BimoduleKind.NOVIKOV_BIMODULE: KindEntry({"novikov": "dot"}, _NOV_CONDS),
    BimoduleKind.LIE_REP: KindEntry({"lie": "bracket"}, _LIE_CONDS),
    BimoduleKind.HNP_BIMODULE: KindEntry(
        {"assoc": "dot", "novikov": "diamond"}, _ASSOC_CONDS + _NOV_CONDS + _HNP_CONDS
    ),
    BimoduleKind.GD_REP: KindEntry(
        {"novikov": "dot", "lie": "bracket"}, _NOV_CONDS + _LIE_CONDS + _GD_CONDS
    ),
}


def _resolve_slots(kind: BimoduleKind, product_roles: Mapping[str, str] | None) -> dict[str, str]:
    """The kind's product slots bound to roles (see :func:`~homcolor.core._bind_slots`)."""
    return _bind_slots(BIMODULE_TABLE[kind].slots, product_roles, kind.value, "product")


def check_bimodule(
    presentation: AlgebraPresentation,
    bundle: ActionBundle,
    kind: BimoduleKind,
    product_roles: Mapping[str, str] | None = None,
) -> SuiteReport:
    """Evaluate every condition of ``kind`` over basis pairs times module basis.

    The bundle keeps the reports by kind and resolved product slots, with
    the presentation they were evaluated against; a later call for the same
    kind and slots with that same presentation object (``is``, not ``==``)
    returns them in a new report without evaluating again.
    """
    if bundle.algebra_space != presentation.space:
        raise ValueError("bundle is indexed by a different algebra basis")
    slots = _resolve_slots(kind, product_roles)
    key = (kind, tuple(slots.items()))
    kept = bundle._verdicts.get(key)
    if kept is None or kept[0] is not presentation:
        reports = _bimodule_reports(presentation, bundle, kind, slots, "")
        kept = bundle._verdicts[key] = (presentation, tuple(reports))
    return SuiteReport(kind=kind.value, checks=list(kept[1]))


def _bimodule_reports(
    presentation: AlgebraPresentation,
    bundle: ActionBundle,
    kind: BimoduleKind,
    slots: Mapping[str, str],
    prefix: str,
) -> list[CheckReport]:
    """The reports of the conditions of ``kind``, its product slots bound
    to the roles of ``slots``, each check named ``prefix`` followed by its
    condition's label."""
    # Products are keyed by role and actions by ("action", name), so two
    # slots bound to one role share its rows and its nodes.
    ops = {role: presentation.product(role).row_cells for role in slots.values()}
    binding = tuple(sorted(slots.items()))
    for name in slot_actions(slots):
        ops[("action", name)] = bundle.row_cells(name)
        binding += ((name, ("action", name)),)
    algebra = (presentation.space, presentation.alpha)
    axes = (algebra, algebra, (bundle.module, bundle.beta))
    conditions = BIMODULE_TABLE[kind].conditions
    checks = [Check(prefix + label, (terms, binding)) for label, terms in conditions]
    return run_checks(checks, axes, ops, presentation.bichar, bundle.module)


def _multiplication_bundle(
    algebra_space: GradedSpace,
    presentation: AlgebraPresentation,
    images: Sequence[Sequence[tuple[int, Scalar]]] | None,
    kind: BimoduleKind,
    product_roles: Mapping[str, str] | None,
) -> ActionBundle:
    """Actions on ``presentation`` by multiplying through ``images``, o the
    product bound to each slot: e_i of ``algebra_space`` acts on e_j by
    images[i] o e_j through the slot's action giving x.y and by e_j o
    images[i] through the one giving y.x (see SLOT_ACTIONS), with beta equal
    to the presentation's twist.  ``images`` is None for the presentation
    acting on itself, whose x.y rows are then the product's own rows."""
    slots = _resolve_slots(kind, product_roles)
    space, one = presentation.space, presentation.context.one
    actions: dict[str, Rows] = {}
    for slot, role in slots.items():
        x_y, y_x, _ = SLOT_ACTIONS[slot]
        product = presentation.product(role)
        # images[i] o e_j reads row k of the product for each e_k in the
        # image, e_j o images[i] the cells (j, k), indexed here by k.  An
        # action giving both x.y and y.x (s, rho) multiplies on the left.
        sides = {x_y: product.row_cells}
        if y_x != x_y:
            by_right: list[list] = [[] for _ in range(space.dim)]
            for (j, k), cell in product.table.items():
                by_right[k].append((j, cell))
            sides[y_x] = tuple(map(tuple, by_right))
        for name, rows in sides.items():
            if images is None:
                actions[name] = rows
                continue
            family = []
            for image in images:
                columns: dict[int, dict] = {}
                for k, c in image:
                    for j, cell in rows[k]:
                        column = columns.setdefault(j, {})
                        for m, s in cell:
                            t = s if c is one else c * s
                            prev = column.get(m)
                            column[m] = t if prev is None else prev + t
                row = []
                for j in sorted(columns):
                    kept = tuple((m, s) for m, s in sorted(columns[j].items()) if not s.is_zero())
                    if kept:
                        row.append((j, kept))
                family.append(tuple(row))
            actions[name] = tuple(family)
    # Every operator of e_i shifts degrees by deg(e_i) (the products are
    # graded, each image of degree deg(e_i)), so the rows are not checked.
    bundle = ActionBundle(algebra_space, space, presentation.alpha, presentation.context, {})
    bundle._rows = dict(sorted(actions.items()))
    return bundle


def regular_bundle(
    presentation: AlgebraPresentation,
    kind: BimoduleKind,
    product_roles: Mapping[str, str] | None = None,
) -> ActionBundle:
    """The presentation acting on itself: left/right multiplications and the
    adjoint action of the bracket, with beta equal to the twist."""
    return _multiplication_bundle(presentation.space, presentation, None, kind, product_roles)


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
    same bimodule kind the target's regular bundle does.  ``force`` takes an
    unverified map, but never one that is not even.
    """
    morphism = is_morphism(f, source, target)
    if not morphism.passed and not force:
        raise PreconditionError("pullback needs a verified morphism", (morphism,))
    if not f.is_even:
        raise ValueError(f"pullback needs an even map, got one of degree {f.degree}")
    return _multiplication_bundle(source.space, target, f.columns, kind, product_roles)
