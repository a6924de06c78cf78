"""Structure-constant substrate: graded spaces, homogeneous maps, products.

Everything downstream (identity suites, bimodule checks, constructions)
operates on an :class:`AlgebraPresentation`: an ordered graded basis, one or
more role-tagged bilinear products stored sparsely as structure constants,
and an even twisting map.  Vectors are sparse dicts mapping basis index to
:class:`~homcolor.scalars.Scalar`; all operations are pure and presentations
are immutable after validation, so they can be shared freely.

The public constructors of :class:`GradedSpace`, :class:`LinearMap` and
:class:`BilinearProduct` validate what they are given: basis names, degrees
and the degree of every cell and map entry.  A builder whose output is
graded by construction (sums, tensor products, quotients, twists, scalar
maps, composed maps and powers) uses their internal ``_frozen``
constructors instead, which take cells and columns frozen by
:func:`_freeze` (sorted, without zero components), sort the table and
check nothing.  Every builder that sums cells adds frozen cells through
:func:`_add_cell`, which sums and freezes again only a key that two cells
hit.

The checking code reads a presentation's frozen data directly: each
product's ``table`` and each map's ``columns``, which nothing mutates; the
public accessors (``mul``, ``mul_basis``, ``alpha_image``,
``LinearMap.image``) hand out fresh dicts.  The evaluator's forms of that
data are built on first use and kept for every later check: rows on each
product, twist images per power on each map, and sign tables in the
bicharacter's bounded memo.

Every check is a term plan, a signed sum of trees of products and linear
maps: the catalogued conditions and the structural checks here
(multiplicativity, derivations, morphisms) alike.  :func:`term_failures`
evaluates a whole suite of plans in one pass over nonzero cells and whole
index tuples, building each subtree map at most once and sharing it
between the plans; :func:`run_checks` runs that pass once per suite call
and builds each check's report from its smallest failing tuple.  A pass
reads one presentation: its basis, its twist and its one sign table.  It
keeps its node maps in plain lists that no function made per call refers
to, so they hold no reference cycle and are freed when it returns: nothing
on the check path relies on the cyclic garbage collector.
"""

from __future__ import annotations

import functools
import re
import time
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

from .grading import AbelianGroup, Bicharacter, GroupElement
from .reports import FAIL, PASS, CheckReport, SuiteReport
from .scalars import Scalar, ScalarContext

__all__ = [
    "Vec",
    "GradedSpace",
    "LinearMap",
    "BilinearProduct",
    "AlgebraPresentation",
    "MissingRoleError",
    "role_sort_key",
    "vec_add",
    "vec_sub",
    "vec_neg",
    "vec_scale",
    "vec_to_names",
    "Term",
    "positions",
    "twisted",
    "eps",
    "operation",
    "Plan",
    "term_failures",
    "Check",
    "run_checks",
    "multiplicative_checks",
    "is_multiplicative",
    "is_derivation",
    "morphism_suite",
    "is_morphism",
]

Vec = dict[int, Scalar]
Rows = Sequence[Sequence[tuple[int, Sequence[tuple[int, Scalar]]]]]
Columns = Sequence[Sequence[tuple[int, Scalar]]]
# A frozen table cell or map column: (index, nonzero coefficient) pairs in
# index order.
Cell = tuple[tuple[int, Scalar], ...]
ScalarLike = "Scalar | int | str | fractions.Fraction"

_BASIS_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

_ROLE_ORDER = {"dot": 0, "diamond": 1, "bracket": 2}


class MissingRoleError(ValueError):
    """A requested product role is not present on the presentation."""


def role_sort_key(role: str) -> tuple[int, str]:
    return (_ROLE_ORDER.get(role, 3), role)


# -- sparse vectors ----------------------------------------------------------


def vec_add(a: Vec, b: Vec) -> Vec:
    if not a:
        return dict(b)
    out = dict(a)
    for i, s in b.items():
        t = out.get(i)
        t = s if t is None else t + s
        if t.is_zero():
            out.pop(i, None)
        else:
            out[i] = t
    return out


def vec_neg(a: Vec) -> Vec:
    return {i: -s for i, s in a.items()}


def vec_sub(a: Vec, b: Vec) -> Vec:
    out = dict(a)
    for i, s in b.items():
        t = out.get(i)
        if t is None:
            out[i] = -s
        else:
            t = t - s
            if t.terms:
                out[i] = t
            else:
                del out[i]
    return out


def vec_scale(s: Scalar, a: Vec) -> Vec:
    if s.is_zero():
        return {}
    out = {}
    for i, t in a.items():
        u = s * t
        if not u.is_zero():
            out[i] = u
    return out


def vec_to_names(space: "GradedSpace", a: Vec) -> tuple[tuple[str, str], ...]:
    return tuple((space.names[i], str(a[i])) for i in sorted(a))


class GradedSpace:
    """Ordered basis with one degree per basis element."""

    __slots__ = ("group", "names", "degrees", "_index")

    def __init__(
        self,
        group: AbelianGroup,
        names: Sequence[str],
        degrees: Sequence[Iterable[int]],
    ):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("basis names must be unique")
        for name in names:
            if not _BASIS_NAME_RE.match(name):
                raise ValueError(f"invalid basis name: {name!r}")
        if len(degrees) != len(names):
            raise ValueError("need exactly one degree per basis element")
        self.group = group
        self.names = names
        self.degrees = tuple(group.element(d) for d in degrees)
        self._index = {name: i for i, name in enumerate(names)}

    @classmethod
    def _frozen(
        cls, group: AbelianGroup, names: Sequence[str], degrees: Sequence[GroupElement]
    ) -> "GradedSpace":
        """A space whose names are valid and distinct and whose degrees are
        reduced elements of ``group`` by construction; nothing is checked."""
        space = cls.__new__(cls)
        space.group = group
        space.names = tuple(names)
        space.degrees = tuple(degrees)
        space._index = {name: i for i, name in enumerate(space.names)}
        return space

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown basis element {name!r}") from None

    def degree(self, i: int) -> GroupElement:
        return self.degrees[i]

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, GradedSpace)
            and self.group == other.group
            and self.names == other.names
            and self.degrees == other.degrees
        )

    def __hash__(self) -> int:
        return hash((self.group, self.names, self.degrees))

    def __repr__(self) -> str:
        return f"GradedSpace({list(self.names)!r})"


class LinearMap:
    """Homogeneous linear map between graded spaces over the same group.

    ``degree`` is the amount by which the map shifts degrees; degree-zero
    maps are the even maps used as twists and morphisms.  Homogeneity is a
    construction invariant: an entry sending e_i to a component on e_j is
    rejected unless deg(e_j) = deg(e_i) + degree.
    """

    __slots__ = ("source", "target", "context", "degree", "columns", "_images")

    def __init__(
        self,
        source: GradedSpace,
        target: GradedSpace,
        context: ScalarContext,
        columns: Sequence[Mapping[int, Scalar]],
        degree: GroupElement | None = None,
    ):
        if source.group != target.group:
            raise ValueError("source and target must share the grading group")
        group = source.group
        degree = group.zero if degree is None else group.element(degree)
        if len(columns) != source.dim:
            raise ValueError(f"need {source.dim} columns, got {len(columns)}")
        frozen = []
        for i, column in enumerate(columns):
            if not column:
                frozen.append(())
                continue
            entries = []
            expected = group.add(source.degree(i), degree)
            for j in sorted(column):
                s = column[j]
                if s.is_zero():
                    continue
                if target.degree(j) != expected:
                    raise ValueError(
                        f"map is not homogeneous of degree {degree}: "
                        f"{source.names[i]} -> {target.names[j]}"
                    )
                entries.append((j, s))
            frozen.append(tuple(entries))
        self.source = source
        self.target = target
        self.context = context
        self.degree = degree
        self.columns = tuple(frozen)
        self._images: dict[int, tuple[Vec, ...]] = {}

    @classmethod
    def _frozen(
        cls,
        source: GradedSpace,
        target: GradedSpace,
        context: ScalarContext,
        columns: Sequence[Cell],
        degree: GroupElement | None = None,
    ) -> "LinearMap":
        """A map whose frozen ``columns`` (see :func:`_freeze`) are
        homogeneous of the reduced ``degree`` by construction; nothing is
        checked."""
        linear_map = cls.__new__(cls)
        linear_map.source = source
        linear_map.target = target
        linear_map.context = context
        linear_map.degree = source.group.zero if degree is None else degree
        linear_map.columns = tuple(columns)
        linear_map._images = {}
        return linear_map

    @classmethod
    def from_rows(
        cls,
        source: GradedSpace,
        target: GradedSpace,
        context: ScalarContext,
        rows: Sequence[Sequence[ScalarLike]],
        degree: GroupElement | None = None,
    ) -> "LinearMap":
        """Build from a dense row-major matrix (rows indexed by target basis)."""
        if len(rows) != target.dim or any(len(row) != source.dim for row in rows):
            raise ValueError(f"matrix must be {target.dim}x{source.dim} row-major")
        columns: list[dict[int, Scalar]] = [{} for _ in range(source.dim)]
        for r, row in enumerate(rows):
            for c, entry in enumerate(row):
                s = context.scalar(entry)
                if not s.is_zero():
                    columns[c][r] = s
        return cls(source, target, context, columns, degree)

    @classmethod
    def identity(cls, space: GradedSpace, context: ScalarContext) -> "LinearMap":
        return cls(space, space, context, [{i: context.one} for i in range(space.dim)])

    @classmethod
    def zero(
        cls,
        source: GradedSpace,
        target: GradedSpace,
        context: ScalarContext,
        degree: GroupElement | None = None,
    ) -> "LinearMap":
        return cls(source, target, context, [{} for _ in range(source.dim)], degree)

    @property
    def is_even(self) -> bool:
        return self.degree == self.source.group.zero

    def image(self, i: int) -> Vec:
        return dict(self.columns[i])

    def images(self, power: int) -> tuple[Vec, ...]:
        """The basis images under this map applied ``power`` times, built once
        per power, from the columns or by squaring the kept images of
        ``power // 2``, and kept; callers must not mutate them.  The halvings
        of ``power`` down to a kept one are squared back up in a loop, two
        steps at most per binary digit, so no power is too deep to build."""
        kept = self._images
        found = kept.get(power)
        if found is None:
            if self.source != self.target:
                raise ValueError("powers need an endomorphism")
            if power < 0:
                raise ValueError("negative powers are not defined")
            halvings = []
            while power > 1 and power not in kept:
                halvings.append(power)
                power //= 2
            found = kept.get(power)
            if found is None:
                if power == 0:
                    found = tuple({i: self.context.one} for i in range(self.source.dim))
                else:
                    found = tuple(dict(c) for c in self.columns)
                kept[power] = found
            for power in reversed(halvings):
                columns = [tuple(v.items()) for v in found]
                found = tuple(_apply_columns(columns, v) for v in found)
                if power % 2:
                    found = tuple(self.apply(v) for v in found)
                kept[power] = found
        return found

    def apply(self, v: Vec) -> Vec:
        return _apply_columns(self.columns, v)

    def compose(self, inner: "LinearMap") -> "LinearMap":
        """self after inner."""
        if inner.target != self.source:
            raise ValueError("maps are not composable")
        columns = [_freeze(self.apply(inner.image(i))) for i in range(inner.source.dim)]
        degree = self.source.group.add(self.degree, inner.degree)
        return LinearMap._frozen(inner.source, self.target, self.context, columns, degree)

    def power(self, n: int) -> "LinearMap":
        degree = self.source.group.element(n * c for c in self.degree)
        columns = [_freeze(image) for image in self.images(n)]
        return LinearMap._frozen(self.source, self.target, self.context, columns, degree)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinearMap)
            and self.source == other.source
            and self.target == other.target
            and self.degree == other.degree
            and self.columns == other.columns
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.degree, self.columns))

    def __repr__(self) -> str:
        return f"LinearMap({self.source!r} -> {self.target!r}, degree={self.degree})"


def _freeze(vec: Mapping[int, Scalar]) -> Cell:
    """The nonzero components of ``vec`` in index order: a frozen table cell
    or map column, as the validating constructors store them."""
    return tuple([(k, s) for k, s in sorted(vec.items()) if s.terms])


def _add_cell(cells: dict[Hashable, Cell], key: Hashable, cell: Cell) -> None:
    """Add the frozen ``cell`` at ``key``; only a key that two sources hit
    is summed and frozen again.  Every builder that sums cells does it here."""
    prev = cells.get(key)
    if prev is None:
        cells[key] = cell
        return
    total = dict(prev)
    for k, s in cell:
        t = total.get(k)
        total[k] = s if t is None else t + s
    cells[key] = _freeze(total)


def _apply_columns(columns: Columns, v: Vec) -> Vec:
    """The image of ``v`` under the map whose e_i goes to ``columns[i]``."""
    out: Vec = {}
    for i, s in v.items():
        for j, t in columns[i]:
            u = s * t
            prev = out.get(j)
            u = u if prev is None else prev + u
            if u.is_zero():
                out.pop(j, None)
            else:
                out[j] = u
    return out


class BilinearProduct:
    """Sparse structure constants e_i o e_j = sum_k c_ijk e_k.

    Only nonzero entries are stored; unspecified products are zero, matching
    the convention of multiplication tables that list nonzero cells only.
    The grading constraint deg(e_k) = deg(e_i) + deg(e_j) is enforced at
    construction, and iteration order is row-major by (i, j) then k.
    """

    __slots__ = ("space", "context", "table", "_rows")

    def __init__(
        self,
        space: GradedSpace,
        context: ScalarContext,
        entries: Mapping[tuple[int, int], Mapping[int, Scalar]],
    ):
        group, degrees = space.group, space.degrees
        # The expected degree of each (deg e_i, deg e_j) pair, added once.
        sums: dict[tuple, GroupElement] = {}
        table: dict[tuple[int, int], tuple[tuple[int, Scalar], ...]] = {}
        for (i, j) in sorted(entries):
            pair = (degrees[i], degrees[j])
            expected = sums.get(pair)
            if expected is None:
                expected = sums[pair] = group.add(*pair)
            cell = []
            given = entries[(i, j)]
            for k in sorted(given):
                s = given[k]
                if s.is_zero():
                    continue
                if degrees[k] != expected:
                    raise ValueError(
                        "product is not graded: "
                        f"{space.names[i]} o {space.names[j]} has a component on "
                        f"{space.names[k]}"
                    )
                cell.append((k, s))
            if cell:
                table[(i, j)] = tuple(cell)
        self.space = space
        self.context = context
        self.table = table
        self._rows: Rows | None = None

    @classmethod
    def _frozen(
        cls,
        space: GradedSpace,
        context: ScalarContext,
        cells: Mapping[tuple[int, int], Cell],
    ) -> "BilinearProduct":
        """A product whose frozen ``cells`` (see :func:`_freeze`) are graded
        by construction: the table is ``cells`` in row-major order without
        its empty cells, and no degree is checked."""
        product = cls.__new__(cls)
        product.space = space
        product.context = context
        product.table = {key: cells[key] for key in sorted(cells) if cells[key]}
        product._rows = None
        return product

    @property
    def row_cells(self) -> Rows:
        """``row_cells[i]`` lists (j, cell) over the nonzero cells e_i o e_j;
        built on first use and kept."""
        if self._rows is None:
            rows: list[list] = [[] for _ in range(self.space.dim)]
            for (i, j), cell in self.table.items():
                rows[i].append((j, cell))
            self._rows = tuple(map(tuple, rows))
        return self._rows

    def mul_basis(self, i: int, j: int) -> tuple[tuple[int, Scalar], ...]:
        return self.table.get((i, j), ())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BilinearProduct)
            and self.space == other.space
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((self.space, tuple(sorted(self.table.items()))))


class AlgebraPresentation:
    """Graded basis, role-tagged products, and an even twisting map."""

    __slots__ = ("space", "bichar", "context", "products", "alpha")

    def __init__(
        self,
        space: GradedSpace,
        bichar: Bicharacter,
        context: ScalarContext,
        products: Mapping[str, BilinearProduct],
        alpha: LinearMap | None = None,
    ):
        if bichar.group != space.group:
            raise ValueError("bicharacter and basis use different grading groups")
        if alpha is None:
            alpha = LinearMap.identity(space, context)
        if alpha.source != space or alpha.target != space:
            raise ValueError("twist map must be an endomorphism of the basis space")
        if not alpha.is_even:
            raise ValueError("twist map must be even (degree zero)")
        for role, product in products.items():
            if not role or not isinstance(role, str):
                raise ValueError(f"invalid role name: {role!r}")
            if product.space != space:
                raise ValueError(f"product {role!r} lives on a different space")
        self.space = space
        self.bichar = bichar
        self.context = context
        self.products = {role: products[role] for role in sorted(products, key=role_sort_key)}
        self.alpha = alpha

    # -- basic access ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def names(self) -> tuple[str, ...]:
        return self.space.names

    @property
    def roles(self) -> tuple[str, ...]:
        return tuple(self.products)

    def product(self, role: str) -> BilinearProduct:
        try:
            return self.products[role]
        except KeyError:
            raise MissingRoleError(
                f"presentation has no product {role!r}; available: {list(self.products)}"
            ) from None

    def eps_deg(self, da: GroupElement, db: GroupElement) -> int:
        return self.bichar.sign(da, db)

    def eps(self, i: int, j: int) -> int:
        """Commutation-factor sign between basis elements i and j."""
        return self.sign_table()[i][j]

    def sign_table(self) -> tuple[tuple[int, ...], ...]:
        """``sign_table()[i][j]`` is :meth:`eps` of i and j, from the
        bicharacter's memo (see :meth:`~homcolor.grading.Bicharacter.table`)."""
        degrees = self.space.degrees
        return self.bichar.table(degrees, degrees)

    def vector(self, data: Mapping[str, ScalarLike] | Vec) -> Vec:
        """Coerce a name-keyed mapping (or an index-keyed Vec) to a Vec."""
        out: Vec = {}
        for key, value in data.items():
            i = key if isinstance(key, int) else self.space.index(key)
            s = self.context.scalar(value)
            if not s.is_zero():
                out[i] = s
        return out

    def alpha_image(self, i: int) -> Vec:
        return self.alpha.image(i)

    # -- multiplication --------------------------------------------------------

    def mul(self, role: str, x: Vec | Mapping[str, ScalarLike], y: Vec | Mapping[str, ScalarLike]) -> Vec:
        """Bilinear extension of the structure constants of ``role``.

        Accepts name-keyed mappings and unnormalized values; the result is a
        fresh index-keyed vector.
        """
        product = self.product(role)
        if not isinstance(x, dict) or any(not isinstance(k, int) for k in x):
            x = self.vector(x)
        if not isinstance(y, dict) or any(not isinstance(k, int) for k in y):
            y = self.vector(y)
        return _mul(product.table, x, y)

    def mul_basis(self, role: str, i: int, j: int) -> Vec:
        return dict(self.product(role).mul_basis(i, j))

    # -- derived presentations ---------------------------------------------------

    def with_products(
        self,
        products: Mapping[str, BilinearProduct],
        alpha: LinearMap | None = None,
    ) -> "AlgebraPresentation":
        return AlgebraPresentation(
            self.space, self.bichar, self.context, products, alpha or self.alpha
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AlgebraPresentation)
            and self.space == other.space
            and self.bichar == other.bichar
            and self.context == other.context
            and self.products == other.products
            and self.alpha == other.alpha
        )

    def __repr__(self) -> str:
        return (
            f"AlgebraPresentation(dim={self.dim}, roles={list(self.products)}, "
            f"group={self.space.group!r})"
        )


def _map_scalars(
    presentation: AlgebraPresentation, context: ScalarContext, fn: Callable[[Scalar], Scalar]
) -> AlgebraPresentation:
    """The presentation over ``context`` with ``fn`` applied to every
    structure constant and every twist entry."""
    space = presentation.space
    products = {
        role: BilinearProduct._frozen(space, context, {
            key: _freeze({k: fn(s) for k, s in cell}) for key, cell in product.table.items()
        })
        for role, product in presentation.products.items()
    }
    columns = [_freeze({k: fn(s) for k, s in column}) for column in presentation.alpha.columns]
    alpha = LinearMap._frozen(space, space, context, columns)
    return AlgebraPresentation(space, presentation.bichar, context, products, alpha)


def _mul(table: Mapping[tuple[int, int], Sequence[tuple[int, Scalar]]], x: Vec, y: Vec) -> Vec:
    """Bilinear product of index-keyed vectors through a product's ``table``.

    The scalars form an integral domain (see :mod:`homcolor.scalars`), so
    a product of nonzero coefficients is never zero; only sums can cancel.
    """
    out: Vec = {}
    if not x or not y:
        return out
    for i, s in x.items():
        for j, t in y.items():
            cell = table.get((i, j))
            if cell is None:
                continue
            st = s * t
            for k, c in cell:
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


# -- term plans -------------------------------------------------------------
#
# Every check is a signed sum of trees.  A tree is a leaf ``(position,
# power)``: the basis element at that tuple position, or its image under
# the twist applied ``power`` times; a node ``(op, left, right)``: a named
# product applied to two subtrees; or a node ``(op, subtree)``: a named
# linear map, such as a twist, a morphism, a derivation or a projection,
# applied to one subtree.
# A term is ``(coefficient, sign pairs, tree)``; each sign pair (p, q)
# multiplies the term by the commutation factor of the degrees at positions
# p and q.  The factor is bimultiplicative, so eps(d_p + d_q, d_r) is the
# pair list ((p, r), (q, r)).  Every position occurs exactly once in each
# tree.  A plan is one condition's terms with a binding of their operation
# names to the keys of the rows or columns they apply; a suite of plans is
# evaluated in one pass.

Tree = tuple
Term = tuple[int, tuple[tuple[int, int], ...], Tree]


def positions(count: int) -> tuple[Tree, ...]:
    """Leaves for the basis elements at tuple positions 0 .. count - 1."""
    return tuple((p, 0) for p in range(count))


def twisted(leaf: Tree, power: int = 1) -> Tree:
    """The leaf's image under the twist, applied ``power`` times."""
    return (leaf[0], leaf[1] + power)


def eps(left: Tree | tuple[Tree, ...], right: Tree | tuple[Tree, ...]) -> tuple[tuple[int, int], ...]:
    """Sign pairs of the factor between two degree sums; each side is one
    leaf or a tuple of leaves whose degrees add."""
    lefts = left if isinstance(left[0], tuple) else (left,)
    rights = right if isinstance(right[0], tuple) else (right,)
    return tuple((a[0], b[0]) for a in lefts for b in rights)


def operation(name: str) -> Callable[..., Tree]:
    """Tree builder for the operation bound to ``name``: a linear map of one
    subtree or a bilinear operation of two."""
    return lambda *subtrees: (name, *subtrees)


def _frozen_sum(vec: dict) -> Cell:
    """The nonzero components of a summed ``vec``, in its order."""
    return tuple([(k, t) for k, t in vec.items() if t.terms])


def _apply(columns: Columns, sub: dict, one: Scalar) -> dict:
    """Apply a linear map, ``columns[a]`` the image of e_a, to a subtree map.

    A value that one column makes is that column as stored, or scaled when
    its coefficient is not ``one``; only a value that two columns meet in is
    summed in a dict and frozen without its zeros.
    """
    out = {}
    for key, u in sub.items():
        vec = None
        for a, ua in u:
            column = columns[a]
            if not column:
                continue
            if vec is None:
                vec = column if ua is one else tuple(
                    [(k, ua if c is one else ua * c) for k, c in column]
                )
                continue
            if type(vec) is not dict:
                vec = dict(vec)
            for k, c in column:
                t = c if ua is one else ua if c is one else ua * c
                prev = vec.get(k)
                vec[k] = t if prev is None else prev + t
        if type(vec) is dict:
            vec = _frozen_sum(vec)
        if vec:
            out[key] = vec
    return out


def _join(rows: Rows, left: dict, right: dict, one: Scalar) -> dict:
    """Apply a bilinear operation to two subtree maps.

    A map sends a key, the indices at the subtree's free positions in order
    of appearance, to the subtree's nonzero value there, a cell.  ``right``
    is indexed by basis index (b -> [(key, coefficient)]), so only nonzero
    cells of nonzero components are visited.  A value that one cell makes
    is that cell as stored in ``rows``, or scaled when its factor is not
    ``one``; only a value that a second cell meets is summed in a dict, and
    frozen without its zeros once every cell is in.
    """
    out = {}
    for kl, u in left.items():
        acc: dict = {}
        for a, ua in u:
            for b, cell in rows[a]:
                entries = right.get(b)
                if entries is None:
                    continue
                for kr, wb in entries:
                    s = wb if ua is one else ua if wb is one else ua * wb
                    vec = acc.get(kr)
                    if vec is None:
                        acc[kr] = cell if s is one else tuple([(k, s * c) for k, c in cell])
                        continue
                    if type(vec) is not dict:
                        vec = acc[kr] = dict(vec)
                    if s is one:
                        for k, c in cell:
                            prev = vec.get(k)
                            vec[k] = c if prev is None else prev + c
                    else:
                        for k, c in cell:
                            c = s * c
                            prev = vec.get(k)
                            vec[k] = c if prev is None else prev + c
        for kr, vec in acc.items():
            if type(vec) is dict:
                vec = _frozen_sum(vec)
                if not vec:
                    continue
            out[kl + kr] = vec
    return out


Plan = tuple[tuple[Term, ...], tuple[tuple[str, Hashable], ...]]


def _intern(tree: Tree, bound: dict, held: list[int], nodes: list, ids: dict) -> int:
    """The node id of ``tree``'s shape, interned with its subtrees into
    ``nodes`` and ``ids``; its positions are appended to ``held``."""
    if isinstance(tree[0], str):
        subs = [_intern(sub, bound, held, nodes, ids) for sub in tree[1:]]
        key = (bound[tree[0]], subs[0], subs[1] if len(subs) == 2 else None)
    else:
        pos, power = tree
        key = (None, power, None)
        held.append(pos)
    found = ids.get(key)
    if found is None:
        found = ids[key] = len(nodes)
        nodes.append(key)
    return found


# The interning depends only on the plans, not on any presentation, so it is
# done once per process.
@functools.lru_cache(maxsize=256)
def _compile(plans: tuple[Plan, ...]) -> tuple:
    """Intern the subtrees of every plan by shape.

    A plan is (terms, binding); the binding sends each operation name of
    the terms to the key of that operation's rows or that map's columns.
    A leaf's shape is its twist power, (None, power, None), a bilinear
    node's is (key, left, right) and a map node's is (key, subtree, None),
    so subtrees that differ only in which positions they hold, or in which
    plan and which name they come from, share one node and one map.  A
    node's map sends a key, the indices at the subtree's positions in order
    of appearance, to the subtree's nonzero value there: a cell, (index,
    nonzero coefficient) pairs with distinct indices.  Returns the nodes
    (key or None, a, b) and per plan, per term, (coefficient, root node,
    key order of the positions or None when they appear in order, sign
    pairs left after cancelling repeats).
    """
    nodes: list[tuple] = []
    ids: dict[tuple, int] = {}
    compiled = []
    for terms, binding in plans:
        bound = dict(binding)
        arity = None
        plan = []
        for coeff, pairs, tree in terms:
            held: list[int] = []
            root = _intern(tree, bound, held, nodes, ids)
            arity = len(held) if arity is None else arity
            if sorted(held) != list(range(arity)):
                raise ValueError(f"term {tree!r} must hold each of {arity} positions once")
            order = tuple(held.index(p) for p in range(arity))
            odd = tuple(sorted(pair for pair in set(pairs) if pairs.count(pair) % 2))
            plan.append((coeff, root, None if order == tuple(range(arity)) else order, odd))
        compiled.append(tuple(plan))
    return tuple(nodes), tuple(compiled)


Failures = dict[int, dict[tuple[int, ...], Vec]]


def _node_map(nid: int, state: tuple) -> dict:
    """The map of node ``nid``, built on first use and kept in ``maps``.

    ``state`` is one :func:`term_failures` pass's (nodes, maps, index, ops,
    twist, one); ``index[nid]`` keeps the map of a right operand indexed
    by basis index, b -> [(key, coefficient)].  A node whose left map is
    empty is empty, and its right subtree is not evaluated for it.  A
    leaf's values are the twist's columns as stored for power 1, and its
    kept images as cells for any other power.
    """
    nodes, maps, index, ops, twist, one = state
    found = maps[nid]
    if found is None:
        name, a, b = nodes[nid]  # a leaf's a: its twist power
        if name is None:
            cells = twist.columns if a == 1 else [tuple(v.items()) for v in twist.images(a)]
            found = {(j,): cell for j, cell in enumerate(cells) if cell}
        else:
            left = _node_map(a, state)
            if not left:
                found = {}
            elif b is None:
                found = _apply(ops[name], left, one)
            else:
                right = index[b]
                if right is None:
                    right = index[b] = {}
                    for k, cell in _node_map(b, state).items():
                        for i, s in cell:
                            right.setdefault(i, []).append((k, s))
                found = _join(ops[name], left, right, one)
        maps[nid] = found
    return found


def term_failures(
    plans: Sequence[Plan],
    presentation: AlgebraPresentation,
    ops: Mapping[Hashable, Rows | Columns],
) -> Failures:
    """Evaluate the plans together in one pass and return, for each plan
    that fails, its failing index tuples with their nonzero signed sums.

    ``plans[c]`` is check c's terms with the binding of their operation
    names to keys of ``ops``, which holds each product's rows
    (:attr:`BilinearProduct.row_cells`) and each linear map's ``columns``.
    Every position ranges over ``presentation``'s one basis, every leaf is
    twisted by its one twist and every sign pair reads its one sign table.
    The result sends each failing plan c to a dict from its failing index
    tuples to their defects; a plan that passes has no entry.

    Each tree is expanded only over nonzero cells and nonzero images, over
    whole index tuples, and each subtree's map is built at most once per
    call, shared by every term of every plan holding a subtree of that
    shape over the same rows (``(x.y).a(z)`` and ``(x.z).a(y)`` share one
    map).  A map's values are cells: a value that one contribution makes is
    that contribution's cell, read as stored (a table cell, a twist or map
    column) or scaled when its factor is not one, and only a value that two
    contributions meet in is summed, in one dict, and frozen without its
    zeros.  Each plan's terms are then summed per index tuple; a component
    whose sum cancels is deleted at once and a tuple left empty is dropped,
    so what is left when the plan's terms are in is its failures.  The pass
    builds no table of its own: rows are read from
    ``ops``, twist images from :meth:`LinearMap.images` and signs from
    :meth:`AlgebraPresentation.sign_table`, each built once and kept on its
    object or in the bicharacter's memo.

    First, one pass over the subtrees gives each its support: the basis
    indices its values can have, read from the nonzero cells and images of
    the data.  A term whose support is empty is zero on every tuple and is
    dropped, so neither it nor a subtree that only dropped terms use is
    ever evaluated.  This is exact because sums may cancel but never create
    a component, so a support is a superset of the true one.

    The node maps live in lists passed to :func:`_node_map`, in no
    reference cycle, so they are freed the moment the pass returns.
    """
    twist = presentation.alpha
    context = presentation.context
    one = context.one
    signs = presentation.sign_table()
    nodes, compiled = _compile(tuple(plans))

    # Children are interned before their parents, so one forward pass gives
    # each node its support.
    support: list[set[int]] = []
    for name, a, b in nodes:
        if name is None:
            found = {k for v in twist.images(a) for k in v}
        elif b is None:
            found = {k for x in support[a] for k, _ in ops[name][x]}
        else:
            right = support[b]
            found = {k for x in support[a] for y, cell in ops[name][x] if y in right for k, _ in cell}
        support.append(found)

    plan = [[term for term in terms if support[term[1]]] for terms in compiled]
    scales = {
        c: context.scalar(c)
        for terms in plan
        for coeff, _, _, _ in terms
        if coeff not in (1, -1)
        for c in (coeff, -coeff)
    }
    # Nodes, their maps and right-operand indexes (built on first use by
    # _node_map), and what building them reads.
    state = (nodes, [None] * len(nodes), [None] * len(nodes), ops, twist, one)

    failed: Failures = {}
    for c, terms in enumerate(plan):
        total: dict[tuple[int, ...], Vec] = {}
        for coeff, root, order, pairs in terms:
            for k, cell in _node_map(root, state).items():
                t = k if order is None else tuple([k[j] for j in order])
                s = coeff
                for p, q in pairs:
                    s *= signs[t[p]][t[q]]
                if s != 1 and s != -1:
                    scale = scales[s]
                    cell = [(k2, scale * v) for k2, v in cell]
                    s = 1
                acc = total.get(t)
                if acc is None:
                    total[t] = dict(cell) if s == 1 else {k2: -v for k2, v in cell}
                    continue
                if s == 1:
                    for k2, v in cell:
                        prev = acc.get(k2)
                        if prev is None:
                            acc[k2] = v
                        else:
                            v = prev + v
                            if v.terms:
                                acc[k2] = v
                            else:
                                del acc[k2]
                else:
                    for k2, v in cell:
                        prev = acc.get(k2)
                        if prev is None:
                            acc[k2] = -v
                        else:
                            v = prev - v
                            if v.terms:
                                acc[k2] = v
                            else:
                                del acc[k2]
                if not acc:
                    del total[t]
        if total:
            failed[c] = total
    return failed


class Check(NamedTuple):
    """One check of a :func:`run_checks` suite: the name, roles and detail
    of its report, and its term plan."""

    check: str
    plan: Plan
    roles: tuple[tuple[str, str], ...] = ()
    detail: str = ""


def run_checks(
    checks: Sequence[Check],
    presentation: AlgebraPresentation,
    ops: Mapping[Hashable, Rows | Columns],
    space: GradedSpace,
) -> list[CheckReport]:
    """Evaluate a suite of checks in one :func:`term_failures` pass on
    ``presentation`` and report each in order.

    A report is PASS, or FAIL with the basis names of the check's
    lexicographically smallest failing index tuple and its defect there, a
    vector of ``space`` (a morphism's target).  Every check is settled when
    the pass ends, so each report's ``seconds`` is the time of the whole pass.
    """
    started = time.perf_counter()
    failed = term_failures([c.plan for c in checks], presentation, ops)
    seconds = time.perf_counter() - started
    reports = []
    for n, c in enumerate(checks):
        found = failed.get(n)
        if found is None:
            reports.append(CheckReport(c.check, PASS, c.roles, detail=c.detail, seconds=seconds))
        else:
            t = min(found)
            reports.append(CheckReport(
                c.check,
                FAIL,
                c.roles,
                witness=tuple(presentation.names[i] for i in t),
                defect=vec_to_names(space, found[t]),
                detail=c.detail,
                seconds=seconds,
            ))
    return reports


# -- structural checks ---------------------------------------------------------
#
# Term plans over basis pairs in which twists, morphisms and derivations are
# linear-map nodes.  Their names are "a", "b" (bilinear), "f", "g" and "s"
# (linear); each caller binds them to keys of its ``ops``.

_x, _y = positions(2)
_a, _b, _f, _g, _s = (operation(name) for name in "abfgs")

# f(x .a y) - f(x) .b f(y): multiplicativity of f when a and b are one product
_PRODUCT_ARM: tuple[Term, ...] = ((1, (), _f(_a(_x, _y))), (-1, (), _b(_f(_x), _f(_y))))
# f(alpha(x)) - g(f(x)), with g the target's twist
_TWIST_ARM: tuple[Term, ...] = ((1, (), _f(twisted(_x))), (-1, (), _g(_f(_x))))
# D(x.y) - D(x).y - S(x).D(y), with f = D and S(e_i) = eps(d, deg e_i) e_i
_LEIBNIZ: tuple[Term, ...] = (
    (1, (), _f(_a(_x, _y))),
    (-1, (), _a(_f(_x), _y)),
    (-1, (), _a(_s(_x), _f(_y))),
)


def multiplicative_checks(
    presentation: AlgebraPresentation, roles: Sequence[str]
) -> list[CheckReport]:
    """Does the twist satisfy alpha(x o y) = alpha(x) o alpha(y) for each
    product role in ``roles``?  One report per role, in that order, all from
    one evaluator pass.

    Checked on all basis pairs, which suffices by bilinearity; each witness
    is the role's first failing pair in row-major order.  For another map m,
    the same checks are the product arms of ``morphism_suite(m, A, A)``.
    """
    ops: dict[Hashable, Rows | Columns] = {"f": presentation.alpha.columns}
    checks = []
    for role in roles:
        ops[("p", role)] = presentation.product(role).row_cells
        binding = (("a", ("p", role)), ("b", ("p", role)), ("f", "f"))
        checks.append(Check(f"multiplicative[{role}]", (_PRODUCT_ARM, binding)))
    return run_checks(checks, presentation, ops, presentation.space)


def is_multiplicative(presentation: AlgebraPresentation, role: str) -> CheckReport:
    """:func:`multiplicative_checks` for one role."""
    [report] = multiplicative_checks(presentation, (role,))
    return report


def is_derivation(
    presentation: AlgebraPresentation, role: str, derivation: LinearMap
) -> CheckReport:
    """Twisted Leibniz rule D(x o y) = D(x) o y + eps(d, x) x o D(y), d = deg D."""
    if derivation.source != presentation.space or derivation.target != presentation.space:
        raise ValueError("map is not an endomorphism of the presentation's space")
    [row] = presentation.bichar.table((derivation.degree,), presentation.space.degrees)
    signs = tuple(((i, presentation.context.scalar(s)),) for i, s in enumerate(row))
    ops = {"a": presentation.product(role).row_cells, "f": derivation.columns, "s": signs}
    check = Check(f"derivation[{role}]", (_LEIBNIZ, tuple((name, name) for name in ops)))
    [report] = run_checks([check], presentation, ops, presentation.space)
    return report


def morphism_suite(
    f: LinearMap,
    source: AlgebraPresentation,
    target: AlgebraPresentation,
) -> SuiteReport:
    """Itemized morphism conditions: one per shared role, plus the twist,
    evaluated in one pass."""
    if source.space.group != target.space.group or source.bichar != target.bichar:
        raise ValueError("presentations do not share a grading context")
    if source.roles != target.roles:
        raise ValueError(f"role mismatch: {source.roles} vs {target.roles}")
    if f.source != source.space or f.target != target.space:
        raise ValueError("map does not go between the two presentations")
    ops: dict[Hashable, Rows | Columns] = {"f": f.columns, "g": target.alpha.columns}
    checks = []
    for role in source.roles:
        ops[("a", role)] = source.products[role].row_cells
        ops[("b", role)] = target.products[role].row_cells
        binding = (("a", ("a", role)), ("b", ("b", role)), ("f", "f"))
        checks.append(Check(f"morphism:product[{role}]", (_PRODUCT_ARM, binding)))
    checks.append(Check("morphism:twist", (_TWIST_ARM, (("f", "f"), ("g", "g")))))
    reports = run_checks(checks, source, ops, target.space)
    return SuiteReport(kind="morphism", checks=reports)


def is_morphism(
    f: LinearMap,
    source: AlgebraPresentation,
    target: AlgebraPresentation,
) -> CheckReport:
    """Single-verdict form of :func:`morphism_suite` (first failure wins)."""
    suite = morphism_suite(f, source, target)
    for check in suite.checks:
        if not check.passed:
            return CheckReport(
                check="morphism",
                status=FAIL,
                witness=check.witness,
                defect=check.defect,
                detail=check.check,
            )
    return CheckReport(check="morphism", status=PASS)
