"""Structure-constant substrate: graded spaces, homogeneous maps, products.

Everything downstream (identity suites, bimodule checks, constructions)
operates on an :class:`AlgebraPresentation`: an ordered graded basis, one or
more role-tagged bilinear products stored sparsely as structure constants,
and an even twisting map.  Vectors are sparse dicts mapping basis index to
:class:`~homcolor.scalars.Scalar`; all operations are pure and presentations
are immutable after validation, so they can be shared freely.

The checking code reads a presentation's frozen data directly: the
index-keyed :func:`_mul`, each product's cells as vectors, the n x n sign
table and the twist images.  Those tables are built lazily, once per product
or presentation, and nothing mutates them; the public accessors (``mul``,
``mul_basis``, ``alpha_image``, ``LinearMap.image``) hand out fresh dicts.
Every check that scans basis tuples goes through :func:`scan_check`.
"""

from __future__ import annotations

import re
import time
from itertools import product as iter_product
from typing import Callable, Iterable, Mapping, Sequence

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
    "scan_check",
    "is_multiplicative",
    "is_derivation",
    "morphism_suite",
    "is_morphism",
]

Vec = dict[int, Scalar]
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
        return (
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

    __slots__ = ("source", "target", "context", "degree", "columns")

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

    def apply(self, v: Vec) -> Vec:
        out: Vec = {}
        if not v:
            return out
        for i, s in v.items():
            for j, t in self.columns[i]:
                u = s * t
                prev = out.get(j)
                u = u if prev is None else prev + u
                if u.is_zero():
                    out.pop(j, None)
                else:
                    out[j] = u
        return out

    def compose(self, inner: "LinearMap") -> "LinearMap":
        """self after inner."""
        if inner.target != self.source:
            raise ValueError("maps are not composable")
        columns = [self.apply(inner.image(i)) for i in range(inner.source.dim)]
        degree = self.source.group.add(self.degree, inner.degree)
        return LinearMap(inner.source, self.target, self.context, columns, degree)

    def power(self, n: int) -> "LinearMap":
        if self.source != self.target:
            raise ValueError("powers need an endomorphism")
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = LinearMap.identity(self.source, self.context)
        for _ in range(n):
            out = self.compose(out)
        return out

    def rows(self) -> list[list[Scalar]]:
        zero = self.context.zero
        out = [[zero] * self.source.dim for _ in range(self.target.dim)]
        for c, column in enumerate(self.columns):
            for r, s in column:
                out[r][c] = s
        return out

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


class BilinearProduct:
    """Sparse structure constants e_i o e_j = sum_k c_ijk e_k.

    Only nonzero entries are stored; unspecified products are zero, matching
    the convention of multiplication tables that list nonzero cells only.
    The grading constraint deg(e_k) = deg(e_i) + deg(e_j) is enforced at
    construction, and iteration order is row-major by (i, j) then k.
    """

    __slots__ = ("space", "context", "table", "_vecs")

    def __init__(
        self,
        space: GradedSpace,
        context: ScalarContext,
        entries: Mapping[tuple[int, int], Mapping[int, Scalar]],
    ):
        group = space.group
        table: dict[tuple[int, int], tuple[tuple[int, Scalar], ...]] = {}
        for (i, j) in sorted(entries):
            expected = group.add(space.degree(i), space.degree(j))
            cell = []
            for k in sorted(entries[(i, j)]):
                s = entries[(i, j)][k]
                if s.is_zero():
                    continue
                if space.degree(k) != expected:
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
        self._vecs: dict[tuple[int, int], Vec] | None = None

    def mul_basis(self, i: int, j: int) -> tuple[tuple[int, Scalar], ...]:
        return self.table.get((i, j), ())

    def _vec_table(self) -> dict[tuple[int, int], Vec]:
        """The nonzero cells as shared vectors; callers must not mutate them."""
        if self._vecs is None:
            self._vecs = {key: dict(cell) for key, cell in self.table.items()}
        return self._vecs

    def entries(self):
        """Deterministic (i, j, k, scalar) iteration, row-major then k."""
        for (i, j) in sorted(self.table):
            for k, s in self.table[(i, j)]:
                yield i, j, k, s

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

    __slots__ = ("space", "bichar", "context", "products", "alpha", "_alpha_images", "_signs")

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
        self._alpha_images = tuple(alpha.image(i) for i in range(space.dim))
        self._signs: tuple[tuple[int, ...], ...] | None = None

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
        """``sign_table()[i][j]`` is :meth:`eps` of i and j, computed once."""
        if self._signs is None:
            degrees, sign = self.space.degrees, self.bichar.sign
            self._signs = tuple(tuple(sign(a, b) for b in degrees) for a in degrees)
        return self._signs

    def basis(self, i: int) -> Vec:
        return {i: self.context.one}

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
        return dict(self._alpha_images[i])

    def alpha_vec(self, v: Vec) -> Vec:
        return self.alpha.apply(v)

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


# -- scanning -------------------------------------------------------------------


def scan_check(
    check: str,
    axes: Sequence[Sequence[str]],
    defect: Callable[[tuple[int, ...]], Vec],
    space: GradedSpace,
    roles: tuple[tuple[str, str], ...] = (),
    detail: str = "",
) -> CheckReport:
    """Scan index tuples in lexicographic order and report the first failure.

    ``axes`` holds one basis-name table per tuple position; ``defect`` maps
    an index tuple to a vector of ``space``.  The tuples are visited one at
    a time, in a single lexicographic scan that stops at the first nonzero
    defect, so a failure always carries the smallest failing tuple.  The
    report is PASS, or FAIL with the tuple's names and its defect; it
    records the scan time, and ``roles`` and ``detail`` pass through.
    """
    started = time.perf_counter()
    for t in iter_product(*(range(len(names)) for names in axes)):
        found = defect(t)
        if found:
            return CheckReport(
                check=check,
                status=FAIL,
                roles=roles,
                witness=tuple(names[i] for names, i in zip(axes, t)),
                defect=vec_to_names(space, found),
                detail=detail,
                seconds=time.perf_counter() - started,
            )
    return CheckReport(
        check=check, status=PASS, roles=roles, detail=detail,
        seconds=time.perf_counter() - started,
    )


# -- structural checks ---------------------------------------------------------


def is_multiplicative(
    presentation: AlgebraPresentation,
    role: str,
    mapping: LinearMap | None = None,
) -> CheckReport:
    """Does ``mapping`` (default: the twist) satisfy m(x o y) = m(x) o m(y)?

    Checked on all basis pairs, which suffices by bilinearity; the witness is
    the first failing pair in row-major order.
    """
    m = presentation.alpha if mapping is None else mapping
    product = presentation.product(role)
    table, cells = product.table, product._vec_table()
    images = [m.image(i) for i in range(presentation.dim)]

    def defect(t):
        i, j = t
        return vec_sub(m.apply(cells.get(t, {})), _mul(table, images[i], images[j]))

    names = presentation.names
    return scan_check(f"multiplicative[{role}]", (names, names), defect, presentation.space)


def is_derivation(
    presentation: AlgebraPresentation,
    role: str,
    derivation: LinearMap,
    degree: GroupElement | None = None,
) -> CheckReport:
    """Twisted Leibniz rule D(x o y) = D(x) o y + eps(d, x) x o D(y)."""
    group = presentation.space.group
    d = derivation.degree if degree is None else group.element(degree)
    if derivation.degree != d:
        return CheckReport(
            check=f"derivation[{role}]",
            status=FAIL,
            detail=f"map is homogeneous of degree {derivation.degree}, not {d}",
        )
    product = presentation.product(role)
    table, cells = product.table, product._vec_table()
    n = presentation.dim
    images = [derivation.image(i) for i in range(n)]
    signs = [
        presentation.context.scalar(presentation.eps_deg(d, presentation.space.degree(i)))
        for i in range(n)
    ]

    def defect(t):
        i, j = t
        rhs = vec_add(
            _mul(table, images[i], presentation.basis(j)),
            vec_scale(signs[i], _mul(table, presentation.basis(i), images[j])),
        )
        return vec_sub(derivation.apply(cells.get(t, {})), rhs)

    names = presentation.names
    return scan_check(f"derivation[{role}]", (names, names), defect, presentation.space)


def morphism_suite(
    f: LinearMap,
    source: AlgebraPresentation,
    target: AlgebraPresentation,
) -> SuiteReport:
    """Itemized morphism conditions: one per shared role, plus the twist."""
    if source.space.group != target.space.group or source.bichar != target.bichar:
        raise ValueError("presentations do not share a grading context")
    if source.roles != target.roles:
        raise ValueError(f"role mismatch: {source.roles} vs {target.roles}")
    if f.source != source.space or f.target != target.space:
        raise ValueError("map does not go between the two presentations")
    report = SuiteReport(kind="morphism")
    images = [f.image(i) for i in range(source.dim)]
    names = source.names
    for role in source.roles:
        cells, table = source.products[role]._vec_table(), target.products[role].table

        def defect(t):
            i, j = t
            return vec_sub(f.apply(cells.get(t, {})), _mul(table, images[i], images[j]))

        report.checks.append(
            scan_check(f"morphism:product[{role}]", (names, names), defect, target.space)
        )

    def twist_defect(t):
        (i,) = t
        return vec_sub(f.apply(source._alpha_images[i]), target.alpha.apply(images[i]))

    report.checks.append(scan_check("morphism:twist", (names,), twist_defect, target.space))
    return report


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
