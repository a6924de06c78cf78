"""Action bundles (bimodules / representations) and their condition systems.

An :class:`ActionBundle` packages a module space with its even twisting map
and named actions, each stored as one sparse row table over the algebra
basis; the operator of e_i shifts module degrees by deg(e_i), which is
enforced at construction, so violations are load errors rather than check
failures.  Regular and pullback bundles build their rows from nonzero cells.

Each bimodule kind is one entry of :data:`BIMODULE_TABLE`: its product
slots with their default roles, the suite its semidirect sum must pass, and
its conditions.  :data:`SLOT_ACTIONS` is the one source of which actions act
through each slot; a kind's actions, the multiplication side of regular and
pullback bundles, the direct-sum cross rule, the loader's action names and
every condition all come from it.  A bundle is a bimodule when its
semidirect sum A (+) V passes the kind's suite, so each condition is one
identity of that suite placed on the sum with the module element at one tuple
position, projected onto V and multiplied by a unit (:func:`derive_conditions`
builds them once, at import, from a table of rows).  :func:`check_bimodule`
evaluates all conditions of a kind together in one pass of the identity
engine's evaluator (:func:`~homcolor.core.run_checks`), over nonzero cells
and whole index tuples, sharing each subtree map between the conditions, and
reports each condition's smallest failing tuple.  The bundle keeps those
reports by kind, so a second check of it against the same presentation
object, such as the one :func:`~homcolor.constructions.semidirect_sum`
makes, evaluates nothing.  A matched pair needs no conditions of its own:
it is checked as its double's suite
(:func:`~homcolor.constructions.check_matched_pair`).
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
    Tree,
    eps,
    is_morphism,
    positions,
    run_checks,
)
from .identities import IDENTITY_CATALOG, SUITE_MEMBERS, StructureKind, _binding
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
        # check_bimodule's reports by kind, each with the presentation object
        # they were evaluated against.
        self._verdicts: dict[BimoduleKind, tuple[AlgebraPresentation, tuple[CheckReport, ...]]] = {}

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


# -- conditions derived from the identity catalogue ------------------------------
#
# A condition is an identity on the sum A (+) V at tuples holding one basis
# element of V (the lone element), projected onto V and multiplied by a unit,
# +-1 or +-eps(p, q).  Its positions are in report order: those on A first,
# then the module element.


class Condition(NamedTuple):
    """A condition: its identity with role slots bound to product slots, the
    identity's position of the lone element, the unit and the terms."""

    label: str
    tag: str
    slots: tuple[tuple[str, str], ...]
    at: int
    unit: tuple[int, tuple[tuple[int, int], ...]]
    terms: tuple[Term, ...]


def _leaves(tree: Tree) -> tuple[int, ...]:
    if isinstance(tree[0], str):
        return tuple(p for sub in tree[1:] for p in _leaves(sub))
    return (tree[0],)


def _split(tree: Tree, slots: Mapping[str, str], sides: Sequence[str], new: Sequence[int]) -> dict:
    """The terms of ``tree`` on the sum A (+) V by the side each lands on,
    position p renumbered ``new[p]``.

    Position p holds a basis element of side ``sides[p]``, the twist keeps
    each side, and ``slots`` binds each operation name to a product slot.
    Operands on one side multiply there (``a.<slot>``, ``b.<slot>``); u of
    side s and w of side t multiply by the slot's cross rule (SLOT_ACTIONS):
    u.w is the action ``st.<x.y>`` of u on w, on side t, plus factor(eps(u, w))
    times the action ``ts.<y.x>`` of w on u, on side s.
    """
    if not isinstance(tree[0], str):
        return {sides[tree[0]]: [(1, (), (new[tree[0]], tree[1]))]}
    slot = slots[tree[0]]
    x_y, y_x, factor = SLOT_ACTIONS[slot]
    sign, with_eps = factor(1), factor(-1) != factor(1)  # factor(e) = sign * e**with_eps
    left, right = (_split(sub, slots, sides, new) for sub in tree[1:])
    out: dict[str, list[Term]] = {}
    for s, lefts in left.items():
        for t, rights in right.items():
            for cu, pu, u in lefts:
                for cw, pw, w in rights:
                    if s == t:
                        out.setdefault(s, []).append((cu * cw, pu + pw, (f"{s}.{slot}", u, w)))
                        continue
                    out.setdefault(t, []).append((cu * cw, pu + pw, (f"{s}{t}.{x_y}", u, w)))
                    e = tuple((p, q) for p in _leaves(u) for q in _leaves(w)) if with_eps else ()
                    out.setdefault(s, []).append((sign * cu * cw, pu + pw + e, (f"{t}{s}.{y_x}", w, u)))
    return out


def derive_conditions(
    slots: Mapping[str, str], suite: StructureKind, rows: Mapping[str, tuple]
) -> tuple[Condition, ...]:
    """The conditions of ``rows`` for the members of ``suite``, in member
    order, with the module element on side "b" and each member's roles bound
    to the slots of ``slots`` that carry them."""
    slot_of = {role: slot for slot, role in slots.items()}
    out = []
    for tag, override in SUITE_MEMBERS[suite]:
        spec = IDENTITY_CATALOG[tag]
        bound = {name: slot_of[role] for name, role in _binding(tag, override)}
        for label, at, coeff, pairs in rows.get(tag, ()):
            sides = ["b" if p == at else "a" for p in range(spec.arity)]
            order = sorted(range(spec.arity), key=lambda p: sides[p])
            new = [order.index(p) for p in range(spec.arity)]
            terms = tuple(
                (coeff * c * c2, pairs + tuple((new[p], new[q]) for p, q in ps) + ps2, t)
                for c, ps, tree in spec.terms
                for c2, ps2, t in _split(tree, bound, sides, new).get("b", ())
            )
            out.append(Condition(label, tag, tuple(sorted(bound.items())), at, (coeff, pairs), terms))
    return tuple(out)


x, y, v = positions(3)
_ = ()
# label, position of the module element, unit; ASSOC_BIMODULE is
# -HOM_ASSOC(x, y, v) and HNP_COND3 is eps(x, v) HNP_COMPAT_1(v, x, y).
_BIMODULE_ROWS = {
    "HOM_ASSOC": (("ASSOC_BIMODULE", 2, -1, _),),
    "NOVIKOV_LSYM": (("NOV_COND1", 2, 1, _), ("NOV_COND2", 1, 1, _), ("NOV_COND3", 0, 1, _)),
    "NOVIKOV_RCOMM": (("NOV_COND4", 2, 1, _), ("NOV_COND5", 1, 1, _), ("NOV_COND6", 0, 1, _)),
    "LIE_JACOBI": (("LIE_REP", 2, -1, eps(x, v)),),
    "HNP_COMPAT_1": (("HNP_COND1", 2, 1, _), ("HNP_COND2", 1, 1, _), ("HNP_COND3", 0, 1, eps(x, v))),
    "HNP_COMPAT_2": (("HNP_COND4", 2, 1, _), ("HNP_COND5", 1, 1, _)),
    "GD_COMPAT": (("GD_COND1", 2, 1, _), ("GD_COND2", 1, 1, _)),
}
del x, y, v, _


class KindEntry(NamedTuple):
    """A bimodule kind: its product slots with their default roles, the
    suite its semidirect sum must pass, and its conditions."""

    slots: dict[str, str]
    suite: StructureKind
    conditions: tuple[Condition, ...]


BIMODULE_TABLE: dict[BimoduleKind, KindEntry] = {
    kind: KindEntry(slots, suite, derive_conditions(slots, suite, _BIMODULE_ROWS))
    for kind, slots, suite in (
        (BimoduleKind.ASSOC_BIMODULE, {"assoc": "dot"}, StructureKind.EPS_COMM_ASSOC),
        (BimoduleKind.NOVIKOV_BIMODULE, {"novikov": "dot"}, StructureKind.HOM_NOVIKOV),
        (BimoduleKind.LIE_REP, {"lie": "bracket"}, StructureKind.HOM_LIE),
        (BimoduleKind.HNP_BIMODULE, {"assoc": "dot", "novikov": "diamond"}, StructureKind.HNP),
        (BimoduleKind.GD_REP, {"novikov": "dot", "lie": "bracket"}, StructureKind.HOM_GD),
    )
}


def check_bimodule(
    presentation: AlgebraPresentation,
    bundle: ActionBundle,
    kind: BimoduleKind,
) -> SuiteReport:
    """Evaluate every condition of ``kind`` over basis pairs times module basis.

    The bundle keeps the reports by kind, with the presentation they were
    evaluated against; a later call for the same kind with that same
    presentation object (``is``, not ``==``) returns them in a new report
    without evaluating again.
    """
    if bundle.algebra_space != presentation.space:
        raise ValueError("bundle is indexed by a different algebra basis")
    kept = bundle._verdicts.get(kind)
    if kept is None or kept[0] is not presentation:
        slots = BIMODULE_TABLE[kind].slots
        ops = {role: presentation.product(role).row_cells for role in slots.values()}
        binding = tuple((f"a.{slot}", role) for slot, role in sorted(slots.items()))
        for name in slot_actions(slots):
            ops[("ab", name)] = bundle.row_cells(name)
            binding += ((f"ab.{name}", ("ab", name)),)
        checks = [Check(c.label, (c.terms, binding)) for c in BIMODULE_TABLE[kind].conditions]
        algebra = (presentation.space, presentation.alpha)
        axes = (algebra, algebra, (bundle.module, bundle.beta))
        reports = run_checks(checks, axes, ops, presentation.bichar, bundle.module)
        kept = bundle._verdicts[kind] = (presentation, tuple(reports))
    return SuiteReport(kind=kind.value, checks=list(kept[1]))


def _multiplication_bundle(
    algebra_space: GradedSpace,
    presentation: AlgebraPresentation,
    images: Sequence[Sequence[tuple[int, Scalar]]] | None,
    kind: BimoduleKind,
) -> ActionBundle:
    """Actions on ``presentation`` by multiplying through ``images``, o the
    product bound to each slot: e_i of ``algebra_space`` acts on e_j by
    images[i] o e_j through the slot's action giving x.y and by e_j o
    images[i] through the one giving y.x (see SLOT_ACTIONS), with beta equal
    to the presentation's twist.  ``images`` is None for the presentation
    acting on itself, whose x.y rows are then the product's own rows."""
    slots = BIMODULE_TABLE[kind].slots
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
) -> ActionBundle:
    """The presentation acting on itself: left/right multiplications and the
    adjoint action of the bracket, with beta equal to the twist."""
    return _multiplication_bundle(presentation.space, presentation, None, kind)


def pullback_bundle(
    f: LinearMap,
    source: AlgebraPresentation,
    target: AlgebraPresentation,
    kind: BimoduleKind = BimoduleKind.HNP_BIMODULE,
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
    return _multiplication_bundle(source.space, target, f.columns, kind)
