"""Abelian grading groups and sign-valued commutation factors.

A grading group is presented by torsion moduli and a count of free factors;
an element is an integer vector with torsion coordinates reduced modulo
their modulus.  A commutation factor (skew-symmetric bicharacter) is stored
as its generator matrix with entries in {+1, -1}, refused at construction
unless it satisfies the axioms, and extended to all elements by
bimultiplicativity; the sign-only restriction covers every bundled fixture
and keeps evaluation a parity count.

Element reduction and addition are memoised in bounded caches: every space,
map and product built by the loader or a public constructor reduces the
degrees of its basis and cells, and a presentation has few distinct ones.
So are the sign tables that every check reads (:meth:`Bicharacter.table`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

__all__ = [
    "GroupElement",
    "AbelianGroup",
    "Bicharacter",
    "super_z2",
    "z2_pow",
    "z2xz2_sympl",
    "zxz_total",
    "trivial_grading",
]

GroupElement = tuple[int, ...]

# Entries kept by each of the element and addition memos.
MEMO_SIZE = 4096
# Tables kept by the sign-table memo; a table holds len(rows) * len(cols) signs.
TABLE_MEMO_SIZE = 64


@dataclass(frozen=True)
class AbelianGroup:
    """Direct sum of cyclic groups Z_m (moduli >= 2) and ``free`` copies of Z."""

    torsion: tuple[int, ...] = ()
    free: int = 0

    def __post_init__(self):
        if any(not isinstance(m, int) or m < 2 for m in self.torsion):
            raise ValueError(f"torsion moduli must be integers >= 2, got {self.torsion}")
        if not isinstance(self.free, int) or self.free < 0:
            raise ValueError(f"free rank must be a non-negative integer, got {self.free}")
        # Every memo lookup in this module hashes the group, so hash it once.
        object.__setattr__(self, "_hash", hash((self.torsion, self.free)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (
            other.__class__ is self.__class__ and self.torsion == other.torsion and self.free == other.free
        )

    @property
    def rank(self) -> int:
        return len(self.torsion) + self.free

    @property
    def zero(self) -> GroupElement:
        return (0,) * self.rank

    def element(self, coords: Iterable[int]) -> GroupElement:
        return _reduce(self, tuple(coords))

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return _add(self, tuple(a), tuple(b))


@lru_cache(maxsize=MEMO_SIZE)
def _reduce(group: AbelianGroup, coords: tuple) -> GroupElement:
    """``coords`` as integers, torsion coordinates reduced modulo their
    modulus; raises (and caches nothing) on a wrong length."""
    coords = tuple(int(c) for c in coords)
    if len(coords) != group.rank:
        raise ValueError(f"element needs {group.rank} coordinates, got {len(coords)}")
    torsion = group.torsion
    return tuple(c % m for c, m in zip(coords, torsion)) + coords[len(torsion):]


@lru_cache(maxsize=MEMO_SIZE)
def _add(group: AbelianGroup, a: tuple, b: tuple) -> GroupElement:
    return _reduce(group, tuple(x + y for x, y in zip(a, b, strict=True)))


class Bicharacter:
    """Sign-valued commutation factor given by its generator matrix.

    ``matrix[i][j]`` is the value on the (i, j) generator pair; the value on
    arbitrary elements is the parity-extended product.  The constructor
    refuses, naming the first such generator pair in row-major order, a
    matrix that is not symmetric (for signs, eps(gi, gj) eps(gj, gi) = 1
    says exactly that) and a -1 on a generator of odd order, which breaks
    bimultiplicativity (on Z_3, eps(1 + 2, 1) = 1 but eps(1, 1) eps(2, 1) = -1).
    """

    __slots__ = ("group", "matrix", "_neg_pairs")

    def __init__(self, group: AbelianGroup, matrix: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(v) for v in row) for row in matrix)
        n = group.rank
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"generator matrix must be {n}x{n}")
        for row in rows:
            for v in row:
                if v not in (1, -1):
                    raise ValueError(f"generator matrix entries must be +1 or -1, got {v}")
        odd = {g: m for g, m in enumerate(group.torsion) if m % 2}
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(
                        f"not a commutation factor on generators (g{i}, g{j}): "
                        f"eps(g{i}, g{j}) * eps(g{j}, g{i}) = -1"
                    )
                if rows[i][j] == -1 and (i in odd or j in odd):
                    g = i if i in odd else j
                    raise ValueError(
                        f"not bimultiplicative on generators (g{i}, g{j}): "
                        f"eps(g{i}, g{j}) = -1 involves g{g} of odd order {odd[g]}"
                    )
        self.group = group
        self.matrix = rows
        self._neg_pairs = tuple(
            (i, j) for i in range(n) for j in range(n) if rows[i][j] == -1
        )

    def sign(self, a: GroupElement, b: GroupElement) -> int:
        """Value of the factor on degrees ``a`` and ``b`` as an int, +1 or -1."""
        n = self.group.rank
        if len(a) != n or len(b) != n:
            raise ValueError(f"degree vectors must have {n} coordinates")
        parity = 0
        for i, j in self._neg_pairs:
            parity += a[i] * b[j]
        return -1 if parity % 2 else 1

    # Bounded and shared by every bicharacter, like the element memos.
    @lru_cache(maxsize=TABLE_MEMO_SIZE)
    def table(self, rows: tuple, cols: tuple) -> tuple[tuple[int, ...], ...]:
        """``table(rows, cols)[i][j]`` is :meth:`sign` of the degrees
        ``rows[i]`` and ``cols[j]``; equal arguments get the same table."""
        signs = {(a, b): self.sign(a, b) for a in set(rows) for b in set(cols)}
        return tuple(tuple(signs[a, b] for b in cols) for a in rows)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Bicharacter)
            and self.group == other.group
            and self.matrix == other.matrix
        )

    def __hash__(self) -> int:
        return hash((self.group, self.matrix))

    def __repr__(self) -> str:
        return f"Bicharacter({self.group!r}, {self.matrix!r})"


# -- stock gradings used by the fixtures and tests ---------------------------


def super_z2() -> tuple[AbelianGroup, Bicharacter]:
    """Z_2 with the super sign (-1)^(i*j)."""
    group = AbelianGroup(torsion=(2,))
    return group, Bicharacter(group, [[-1]])


def z2_pow(n: int) -> tuple[AbelianGroup, Bicharacter]:
    """Z_2^n with sign (-1)^(a1*b1 + ... + an*bn)."""
    group = AbelianGroup(torsion=(2,) * n)
    matrix = [[-1 if i == j else 1 for j in range(n)] for i in range(n)]
    return group, Bicharacter(group, matrix)


def z2xz2_sympl() -> tuple[AbelianGroup, Bicharacter]:
    """Z_2 x Z_2 with sign (-1)^(i1*j2 - i2*j1)."""
    group = AbelianGroup(torsion=(2, 2))
    return group, Bicharacter(group, [[1, -1], [-1, 1]])


def zxz_total() -> tuple[AbelianGroup, Bicharacter]:
    """Z x Z with sign (-1)^((i1+i2)*(j1+j2))."""
    group = AbelianGroup(free=2)
    return group, Bicharacter(group, [[-1, -1], [-1, -1]])


def trivial_grading() -> tuple[AbelianGroup, Bicharacter]:
    """The one-element group; every sign is +1."""
    group = AbelianGroup()
    return group, Bicharacter(group, [])
