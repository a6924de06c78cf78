"""Grading groups and sign-valued commutation factors."""

import pytest
from hypothesis import given, strategies as st

from homcolor import grading
from homcolor.grading import (
    AbelianGroup,
    Bicharacter,
    super_z2,
    trivial_grading,
    z2_pow,
    z2xz2_sympl,
    zxz_total,
)


class TestGroups:
    def test_torsion_reduction(self):
        group = AbelianGroup(torsion=(2, 3), free=1)
        assert group.element([3, 4, -2]) == (1, 1, -2)
        assert group.add((1, 2, 5), (1, 2, -7)) == (0, 1, -2)
        assert group.zero == (0, 0, 0)

    def test_bad_moduli_rejected(self):
        with pytest.raises(ValueError):
            AbelianGroup(torsion=(1,))
        with pytest.raises(ValueError):
            AbelianGroup(free=-1)

    def test_rank_zero_group(self):
        group, bichar = trivial_grading()
        assert group.rank == 0
        assert bichar.sign((), ()) == 1


class TestStockBicharacters:
    def test_super_sign_formula(self):
        # reference formula: (-1)^(i*j) on Z_2
        _, eps = super_z2()
        for i in range(2):
            for j in range(2):
                assert eps.sign((i,), (j,)) == (-1) ** (i * j)

    def test_value_on_zero_is_one(self):
        _, eps = super_z2()
        assert eps.sign((1,), (0,)) == 1
        assert eps.sign((0,), (1,)) == 1

    def test_z2_squared_diagonal_formula(self):
        # reference formula: (-1)^(a1*b1 + a2*b2)
        _, eps = z2_pow(2)
        for a in ((0, 0), (0, 1), (1, 0), (1, 1)):
            for b in ((0, 0), (0, 1), (1, 0), (1, 1)):
                assert eps.sign(a, b) == (-1) ** (a[0] * b[0] + a[1] * b[1])

    def test_z2xz2_symplectic_formula(self):
        # reference formula: (-1)^(i1*j2 - i2*j1)
        _, eps = z2xz2_sympl()
        assert eps.sign((1, 0), (0, 1)) == -1
        for a in ((0, 0), (0, 1), (1, 0), (1, 1)):
            for b in ((0, 0), (0, 1), (1, 0), (1, 1)):
                assert eps.sign(a, b) == (-1) ** (a[0] * b[1] - a[1] * b[0])

    def test_zxz_total_degree_formula(self):
        # reference formula: (-1)^((i1+i2)*(j1+j2)) on Z x Z
        _, eps = zxz_total()
        for a in ((1, 2), (-1, 3), (0, 0), (2, -2)):
            for b in ((3, 4), (1, 1), (-5, 2)):
                assert eps.sign(a, b) == (-1) ** ((a[0] + a[1]) * (b[0] + b[1]))


class TestValidation:
    """``Bicharacter`` is the one place the commutation-factor rule is
    checked: a matrix that breaks it is refused at construction."""

    def test_super_bicharacter_passes(self):
        group, eps = super_z2()
        assert eps == Bicharacter(group, [[-1]])

    def test_skew_symmetry_forced_on_free_group(self):
        group = AbelianGroup(free=2)
        eps = Bicharacter(group, [[1, -1], [-1, 1]])
        assert eps.sign((1, 0), (0, 1)) == eps.sign((0, 1), (1, 0)) == -1

    def test_asymmetric_matrix_fails_at_first_pair(self):
        group = AbelianGroup(free=2)
        with pytest.raises(ValueError, match=r"not a commutation factor on generators \(g0, g1\)"):
            Bicharacter(group, [[1, 1], [-1, 1]])

    def test_odd_torsion_forces_plus_one(self):
        group = AbelianGroup(torsion=(2, 3))
        with pytest.raises(ValueError, match=r"not bimultiplicative on generators \(g0, g1\)"):
            Bicharacter(group, [[-1, -1], [-1, 1]])

    def test_non_sign_entries_rejected(self):
        group = AbelianGroup(torsion=(2,))
        with pytest.raises(ValueError):
            Bicharacter(group, [[2]])
        with pytest.raises(ValueError):
            Bicharacter(group, [[1, -1]])


_elements = st.tuples(
    st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3)
)


class TestBimultiplicativity:
    @given(a=_elements, b=_elements, c=_elements)
    def test_additive_in_each_slot(self, a, b, c):
        group, eps = zxz_total()
        a, b, c = group.element(a), group.element(b), group.element(c)
        assert eps.sign(group.add(a, b), c) == eps.sign(a, c) * eps.sign(b, c)
        assert eps.sign(a, group.add(b, c)) == eps.sign(a, b) * eps.sign(a, c)

    @given(a=_elements)
    def test_diagonal_is_a_sign(self, a):
        group, eps = zxz_total()
        a = group.element(a)
        assert eps.sign(a, a) in (1, -1)
        assert eps.sign(a, group.zero) == 1



@st.composite
def sign_factors(draw):
    """A random grading group and symmetric generator matrix whose -1
    entries avoid generators of odd order, with three random elements."""
    torsion = tuple(draw(st.lists(st.integers(2, 6), max_size=3)))
    group = AbelianGroup(torsion=torsion, free=draw(st.integers(0, 2)))
    n = group.rank
    odd = {g for g, m in enumerate(torsion) if m % 2}
    upper = {
        (i, j): 1 if i in odd or j in odd else draw(st.sampled_from([1, -1]))
        for i in range(n) for j in range(i, n)
    }
    matrix = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    elements = [
        group.element([draw(st.integers(-7, 7)) for _ in range(n)]) for _ in range(3)
    ]
    return group, Bicharacter(group, matrix), elements


@st.composite
def sign_matrices(draw):
    """A random grading group, a square +-1 matrix of its rank (symmetric,
    then maybe with one entry flipped) and three random elements."""
    torsion = tuple(draw(st.lists(st.integers(2, 7), max_size=3)))
    group = AbelianGroup(torsion=torsion, free=draw(st.integers(0, 2)))
    n = group.rank
    upper = {(i, j): draw(st.sampled_from([1, -1])) for i in range(n) for j in range(i, n)}
    matrix = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    if n and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        matrix[i][j] *= -1
    elements = [
        group.element([draw(st.integers(-9, 9)) for _ in range(n)]) for _ in range(3)
    ]
    return group, matrix, elements


class TestBimultiplicativeTables:
    """The checks read eps(a + b, c) as eps(a, c) * eps(b, c) from per-check
    sign tables, which is sound exactly for bimultiplicative factors."""

    @given(data=sign_factors())
    def test_sign_is_bimultiplicative(self, data):
        group, eps, (a, b, c) = data
        assert eps.sign(group.add(a, b), c) == eps.sign(a, c) * eps.sign(b, c)
        assert eps.sign(a, group.add(b, c)) == eps.sign(a, b) * eps.sign(a, c)

    @given(data=sign_matrices())
    def test_accepts_exactly_the_commutation_factors(self, data):
        group, matrix, (a, b, c) = data
        n = group.rank
        odd = {g for g, m in enumerate(group.torsion) if m % 2}
        faults = [
            (i, j) for i in range(n) for j in range(n)
            if matrix[i][j] != matrix[j][i] or (matrix[i][j] == -1 and (i in odd or j in odd))
        ]
        if faults:
            with pytest.raises(ValueError) as refused:
                Bicharacter(group, matrix)
            i, j = faults[0]  # the first in row-major order is named
            assert f"on generators (g{i}, g{j}): " in str(refused.value)
            return
        eps = Bicharacter(group, matrix)
        for x, y in ((a, b), (b, c), (a, a)):
            assert eps.sign(x, y) * eps.sign(y, x) == 1
        assert eps.sign(group.add(a, b), c) == eps.sign(a, c) * eps.sign(b, c)
        assert eps.sign(a, group.add(b, c)) == eps.sign(a, b) * eps.sign(a, c)
        assert eps.sign(group.zero, a) == eps.sign(a, group.zero) == 1

    def test_minus_one_on_odd_order_generator_is_refused(self):
        group = AbelianGroup(torsion=(3,))
        # 1 + 2 = 0 in Z_3, but a -1 on g0 would give eps(1, 1) * eps(2, 1) = -1
        with pytest.raises(ValueError, match=r"\(g0, g0\): eps\(g0, g0\) = -1 involves g0 of odd order 3"):
            Bicharacter(group, [[-1]])


# -- memoised element reduction and addition ------------------------------------


def _reduced(group, coords):
    """Direct formula: torsion coordinates modulo their modulus, free ones kept."""
    coords = [int(c) for c in coords]
    k = len(group.torsion)
    return tuple(c % m for c, m in zip(coords, group.torsion)) + tuple(coords[k:])


_coordinate = st.one_of(st.integers(-7, 7), st.integers(-(10**30), 10**30))


@st.composite
def groups_with_coordinates(draw):
    torsion = tuple(draw(st.lists(st.integers(2, 9), max_size=3)))
    group = AbelianGroup(torsion=torsion, free=draw(st.integers(0, 2)))
    a, b = ([draw(_coordinate) for _ in range(group.rank)] for _ in range(2))
    return group, a, b


class TestMemoisedArithmetic:
    @given(data=groups_with_coordinates())
    def test_element_and_add_match_the_direct_formula(self, data):
        group, a, b = data
        expected = _reduced(group, a)
        for _ in range(2):  # a miss, then a hit
            assert group.element(tuple(a)) == expected
            assert group.element(list(a)) == expected
            assert group.element(c for c in a) == expected
        total = _reduced(group, [x + y for x, y in zip(a, b)])
        for _ in range(2):
            assert group.add(tuple(a), tuple(b)) == total
            assert group.add(group.element(a), group.element(b)) == total
        assert all(type(c) is int for c in group.element(a))

    def test_equal_groups_share_results_and_distinct_groups_do_not(self):
        z6, z6_again = AbelianGroup(torsion=(6,)), AbelianGroup(torsion=(6,))
        z4 = AbelianGroup(torsion=(4,))
        assert z6.element([7]) == z6_again.element([7]) == (1,)
        assert z4.element([7]) == (3,)
        assert z6.add((5,), (3,)) == (2,) and z4.add((5,), (3,)) == (0,)

    def test_wrong_length_raises_on_every_call(self):
        group = AbelianGroup(torsion=(2, 3), free=1)
        for _ in range(3):
            with pytest.raises(ValueError, match="needs 3 coordinates, got 2"):
                group.element([1, 2])
            with pytest.raises(ValueError):
                group.add((1, 2), (1, 2))
            with pytest.raises(ValueError):
                group.add((1, 2, 3), (1, 2))
        assert group.element([1, 2, 3]) == (1, 2, 3)

    def test_caches_are_bounded(self):
        group = AbelianGroup(free=1)
        bichar = Bicharacter(group, [[-1]])
        for n in range(grading.MEMO_SIZE + 10):
            group.add((n,), (1,))
        for n in range(grading.TABLE_MEMO_SIZE + 10):
            assert bichar.table(((n,),), ((1,), (2,))) == ((-1 if n % 2 else 1, 1),)
        for memo, size in (
            (grading._reduce, grading.MEMO_SIZE),
            (grading._add, grading.MEMO_SIZE),
            (Bicharacter.table, grading.TABLE_MEMO_SIZE),
        ):
            info = memo.cache_info()
            assert info.maxsize == size
            assert info.currsize <= info.maxsize

    @pytest.mark.parametrize("stock", [super_z2, z2xz2_sympl, zxz_total, trivial_grading])
    def test_sign_table_is_the_memoised_pointwise_sign(self, stock):
        group, bichar = stock()
        rows = tuple(group.element([c] * group.rank) for c in range(3))
        cols = tuple(group.element([c, 1][: group.rank]) for c in range(2))
        table = bichar.table(rows, cols)
        assert table == tuple(tuple(bichar.sign(a, b) for b in cols) for a in rows)
        assert bichar.table(tuple(list(rows)), tuple(list(cols))) is table

    @given(data=groups_with_coordinates())
    def test_equal_groups_hash_equal_and_share_the_memos(self, data):
        group, a, b = data
        twin = AbelianGroup(torsion=tuple(list(group.torsion)), free=group.free)
        assert twin is not group and twin == group
        assert hash(twin) == hash(group) == hash((group.torsion, group.free))
        assert len({group, twin}) == 1
        group.add(tuple(a), tuple(b))  # fills the memo through ``group``
        for _ in range(2):  # hits through an equal group
            assert twin.element(a) == _reduced(group, a)
            assert twin.add(tuple(a), tuple(b)) == _reduced(group, [x + y for x, y in zip(a, b)])
        other = AbelianGroup(torsion=group.torsion, free=group.free + 1)
        assert other != group and other.element(a + [1]) == _reduced(other, a + [1])

    def test_group_stays_frozen_with_its_cached_hash(self):
        group = AbelianGroup(torsion=(2,), free=1)
        with pytest.raises(AttributeError):
            group.free = 2
        assert repr(group) == "AbelianGroup(torsion=(2,), free=1)"
        assert hash(group) == hash(AbelianGroup(torsion=(2,), free=1))
