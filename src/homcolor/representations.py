"""Action bundles (bimodules / representations) and their semidirect sums.

An :class:`ActionBundle` packages a module space with its even twisting map
and named actions, each stored as one sparse row table over the algebra
basis; the operator of e_i shifts module degrees by deg(e_i), which is
enforced at construction, so violations are load errors rather than check
failures.  Regular and pullback bundles build their rows from nonzero cells;
a pullback row, and a direct sum's table, add frozen cells through
:func:`~homcolor.core._add_cell`, which sums only a key that two cells hit.

Each bimodule kind is one entry of :data:`BIMODULE_TABLE`: its product
slots with their default roles, and the suite its semidirect sum must pass.
:data:`SLOT_ACTIONS` is the one source of which actions act through each
slot, and of the cross rule by which they multiply in a direct sum; a
kind's actions, the multiplication side of regular and pullback bundles,
the loader's action names and the direct-sum builder all come from it.
A bundle is a bimodule exactly when its semidirect sum A (+) V is an
algebra of the kind, so :func:`check_bimodule` is the kind's suite run on
that sum: it covers A's own suite and every tuple holding module elements,
and its witnesses are tuples of the sum's basis.  The bundle keeps the sum
and its reports by kind, so a second check of it against the same
presentation object, and the sum that
:func:`~homcolor.constructions.semidirect_sum` returns after a check, build
and evaluate nothing.  A matched pair is checked the same way, as its
double's suite (:func:`~homcolor.constructions.check_matched_pair`), with
the same direct-sum builder.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .core import (
    AlgebraPresentation,
    BilinearProduct,
    Cell,
    Columns,
    GradedSpace,
    LinearMap,
    Rows,
    _add_cell,
    is_morphism,
)
from .identities import StructureKind, run_suite
from .reports import CheckReport, PreconditionError, SuiteReport
from .scalars import ScalarContext

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
        # The semidirect sum and its suite's reports by kind, each with the
        # presentation object they were built from (see _semidirect).
        self._verdicts: dict[
            BimoduleKind, tuple[AlgebraPresentation, tuple[CheckReport, ...], AlgebraPresentation]
        ] = {}

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


# -- direct sums and their suites --------------------------------------------------


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
    # Valid names with a valid suffix, all distinct, and reduced degrees.
    return GradedSpace._frozen(left.group, names, left.degrees + right.degrees), left.dim


def _shift(cell: Cell, offset: int, sign: int = 1) -> Cell:
    """A frozen cell or column with every index moved by ``offset`` and,
    for ``sign`` -1, every coefficient negated; it stays frozen."""
    if not offset and sign == 1:
        return cell
    return tuple([(k + offset, s if sign == 1 else -s) for k, s in cell])


def _direct_sum(
    A: AlgebraPresentation,
    bundles: tuple[ActionBundle, ...],
    slots: Mapping[str, str],
    B: AlgebraPresentation | None = None,
) -> AlgebraPresentation:
    """A (+) V, V the module of ``bundles[0]``, with the products bound to
    ``slots`` and the twist alpha (+) beta.

    For a double, ``B`` is V's presentation and ``bundles[1]`` the actions of
    B on A; without ``B``, V multiplies to zero.  A name of V already taken
    on A gets the suffix ``_b`` in a double and ``_v`` in a semidirect sum.

    Every cell is graded by construction, so the sum is assembled from
    frozen cells: A's as they are, B's and each action's kept nonzero
    images (see ActionBundle.row_cells) shifted onto V's indices.
    """
    space, offset = _join_spaces(A.space, bundles[0].module, "_v" if B is None else "_b")
    signs = A.bichar.table(space.degrees, space.degrees)
    products: dict[str, BilinearProduct] = {}
    for slot, role in slots.items():
        cells = dict(A.product(role).table)
        if B is not None:
            for (i, j), cell in B.product(role).table.items():
                cells[(offset + i, offset + j)] = _shift(cell, offset)
        left, right, factor = SLOT_ACTIONS[slot]
        # x.y from ``left``, y.x from ``right``.
        for bundle, x0, y0 in zip(bundles, (0, offset), (offset, 0)):
            for x, row in enumerate(bundle.row_cells(left)):
                for y, column in row:
                    _add_cell(cells, (x0 + x, y0 + y), _shift(column, y0))
            for x, row in enumerate(bundle.row_cells(right)):
                for y, column in row:
                    f = factor(signs[y0 + y][x0 + x])
                    _add_cell(cells, (y0 + y, x0 + x), _shift(column, y0, f))
        products[role] = BilinearProduct._frozen(space, A.context, cells)
    columns = A.alpha.columns + tuple(_shift(c, offset) for c in bundles[0].beta.columns)
    alpha = LinearMap._frozen(space, space, A.context, columns)
    return AlgebraPresentation(space, A.bichar, A.context, products, alpha)


class KindEntry(NamedTuple):
    """A bimodule kind: its product slots with their default roles, and the
    suite its semidirect sum must pass."""

    slots: dict[str, str]
    suite: StructureKind


BIMODULE_TABLE: dict[BimoduleKind, KindEntry] = {
    BimoduleKind.ASSOC_BIMODULE: KindEntry({"assoc": "dot"}, StructureKind.EPS_COMM_ASSOC),
    BimoduleKind.NOVIKOV_BIMODULE: KindEntry({"novikov": "dot"}, StructureKind.HOM_NOVIKOV),
    BimoduleKind.LIE_REP: KindEntry({"lie": "bracket"}, StructureKind.HOM_LIE),
    BimoduleKind.HNP_BIMODULE: KindEntry({"assoc": "dot", "novikov": "diamond"}, StructureKind.HNP),
    BimoduleKind.GD_REP: KindEntry({"novikov": "dot", "lie": "bracket"}, StructureKind.HOM_GD),
}


def _checked_sum(
    A: AlgebraPresentation,
    bundles: tuple[ActionBundle, ...],
    kind: BimoduleKind,
    B: AlgebraPresentation | None = None,
) -> tuple[AlgebraPresentation, list[CheckReport]]:
    """The sum built by :func:`_direct_sum` with the slots of ``kind``, and
    the reports of the kind's suite on it."""
    entry = BIMODULE_TABLE[kind]
    total = _direct_sum(A, bundles, entry.slots, B)
    return total, run_suite(total, entry.suite).checks


def _semidirect(
    presentation: AlgebraPresentation,
    bundle: ActionBundle,
    kind: BimoduleKind,
) -> tuple[AlgebraPresentation, tuple[CheckReport, ...]]:
    """The semidirect sum A (+) V and the reports of the kind's suite on it.

    The bundle keeps both by kind, with the presentation they were built
    from; a later call for the same kind with that same presentation object
    (``is``, not ``==``) returns them without building or evaluating again.
    """
    if bundle.algebra_space != presentation.space:
        raise ValueError("bundle is indexed by a different algebra basis")
    kept = bundle._verdicts.get(kind)
    if kept is None or kept[0] is not presentation:
        total, checks = _checked_sum(presentation, (bundle,), kind)
        kept = bundle._verdicts[kind] = (presentation, tuple(checks), total)
    return kept[2], kept[1]


def check_bimodule(
    presentation: AlgebraPresentation,
    bundle: ActionBundle,
    kind: BimoduleKind,
) -> SuiteReport:
    """The kind's suite on the semidirect sum A (+) V: the bundle is a
    bimodule when the sum is an algebra of the kind.  Witnesses are tuples
    of the sum's basis."""
    return SuiteReport(kind=kind.value, checks=list(_semidirect(presentation, bundle, kind)[1]))


def _multiplication_bundle(
    algebra_space: GradedSpace,
    presentation: AlgebraPresentation,
    images: Columns | None,
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
                columns: dict[int, Cell] = {}
                for k, c in image:
                    for j, cell in rows[k]:
                        scaled = cell if c is one else tuple([(m, c * s) for m, s in cell])
                        _add_cell(columns, j, scaled)
                family.append(tuple([(j, columns[j]) for j in sorted(columns) if columns[j]]))
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
