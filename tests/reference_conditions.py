"""Reference condition defects: the per-tuple bimodule and matched-pair
conditions, written as one function per condition over an evaluation
helper, kept as the reference the compiled term plans are tested against
(``tests/test_compiled_conditions.py``).

Each defect maps one basis tuple to its defect vector by direct
multiplication through the public tables, with no sharing between tuples.
"""

from homcolor.constructions import MatchedPairKind
from homcolor.core import Vec, _mul, vec_add, vec_neg, vec_sub
from homcolor.representations import BimoduleKind
from tests.util import act, act_vec


class BEval:
    """Shared shorthand for condition defects over frozen data: product cell
    vectors, twist images, beta images, actions and signs.

    Defects never mutate the vectors these hand out.
    """

    __slots__ = ("A", "M", "cells", "signs", "_al", "_beta")

    def __init__(self, A, M, slots):
        self.A = A
        self.M = M
        self.cells = {
            slot: {key: dict(cell) for key, cell in A.product(role).table.items()}
            for slot, role in slots.items()
        }
        self.signs = A.sign_table()
        self._al = tuple(A.alpha.image(i) for i in range(A.dim))
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
        return act(self.M, name, i, v)

    def act_by(self, name: str, x: Vec, v: Vec) -> Vec:
        return act_vec(self.M, name, x, v)

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


def _assoc(ev: BEval, x, y, v):
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


class MPEval:
    """Evaluation helpers for the matched-pair side conditions.

    Conditions are written from the A-side; the mirrored conditions come from
    swapping the two sides, so every defect below is evaluated twice, once
    per orientation.
    """

    __slots__ = ("A", "B", "ab", "ba", "dot", "novikov", "lie")

    def __init__(self, A, B, ab, ba, dot=None, novikov=None, lie=None):
        self.A = A
        self.B = B
        self.ab = ab
        self.ba = ba
        self.dot = dot
        self.novikov = novikov
        self.lie = lie

    def swap(self) -> "MPEval":
        return MPEval(self.B, self.A, self.ba, self.ab, self.dot, self.novikov, self.lie)

    # A-side basics
    def bA(self, i: int) -> Vec:
        return {i: self.A.context.one}

    def bB(self, j: int) -> Vec:
        return {j: self.B.context.one}

    def alA(self, i: int) -> Vec:
        return self.A.alpha_image(i)

    def beB(self, j: int) -> Vec:
        return self.B.alpha_image(j)

    def mulB(self, role: str, x: Vec, y: Vec) -> Vec:
        return _mul(self.B.product(role).table, x, y)

    def actA(self, name: str, x: Vec, v: Vec) -> Vec:
        """Action of an A-vector on a B-vector."""
        return act_vec(self.ab, name, x, v)

    def actB(self, name: str, a: Vec, v: Vec) -> Vec:
        """Action of a B-vector on an A-vector."""
        return act_vec(self.ba, name, a, v)

    def dA(self, i: int):
        return self.A.space.degree(i)

    def dB(self, j: int):
        return self.B.space.degree(j)

    def eps(self, d1, d2) -> int:
        return self.A.eps_deg(d1, d2)

    def add(self, d1, d2):
        return self.A.space.group.add(d1, d2)

    @staticmethod
    def sgn(sign: int, v: Vec) -> Vec:
        return v if sign == 1 else vec_neg(v)


# Each condition: (label, defect). Defects quantify over (x in A; a, b in B)
# and are also applied to the swapped orientation, which yields the mirrored
# family over (a in B; x, y in A).


def _mp_assoc1(ev: MPEval, x, a, b):
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)
    t1 = ev.sgn(ev.eps(db, dx), ev.mulB("dot", ev.beB(a), ev.actA("s", ev.bA(x), ev.bB(b))))
    t2 = ev.sgn(
        ev.eps(da, ev.add(db, dx)),
        ev.actA("s", ev.actB("s", ev.bB(b), ev.bA(x)), ev.beB(a)),
    )
    t3 = ev.sgn(
        ev.eps(ev.add(da, db), dx),
        ev.actA("s", ev.alA(x), ev.mulB("dot", ev.bB(a), ev.bB(b))),
    )
    return vec_sub(vec_add(t1, t2), t3)


def _mp_assoc2(ev: MPEval, x, a, b):
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)
    t1 = ev.mulB("dot", ev.beB(a), ev.actA("s", ev.bA(x), ev.bB(b)))
    t2 = ev.sgn(
        ev.eps(da, ev.add(dx, db)) * ev.eps(dx, db),
        ev.actA("s", ev.actB("s", ev.bB(b), ev.bA(x)), ev.beB(a)),
    )
    t3 = ev.sgn(
        ev.eps(da, dx),
        ev.mulB("dot", ev.actA("s", ev.bA(x), ev.bB(a)), ev.beB(b)),
    )
    t4 = ev.actA("s", ev.actB("s", ev.bB(a), ev.bA(x)), ev.beB(b))
    return vec_sub(vec_add(t1, t2), vec_add(t3, t4))


_MP_ASSOC_CONDS = (("MP_ASSOC1", _mp_assoc1), ("MP_ASSOC2", _mp_assoc2))


def _mp_nov1(ev: MPEval, x, a, b):
    da, db = ev.dB(a), ev.dB(b)
    role = ev.novikov

    def half(a_, b_):
        va, vb = ev.bB(a_), ev.bB(b_)
        t1 = ev.actA("r", ev.alA(x), ev.mulB(role, va, vb))
        t2 = ev.mulB(role, ev.beB(a_), ev.actA("r", ev.bA(x), vb))
        t3 = ev.actA("r", ev.actB("l", vb, ev.bA(x)), ev.beB(a_))
        return vec_sub(vec_sub(t1, t2), t3)

    return vec_sub(half(a, b), ev.sgn(ev.eps(da, db), half(b, a)))


def _mp_nov2(ev: MPEval, x, a, b):
    dx, da = ev.dA(x), ev.dB(a)
    role = ev.novikov
    va, vb = ev.bB(a), ev.bB(b)
    lhs = ev.mulB(role, ev.actA("r", ev.bA(x), va), ev.beB(b))
    lhs = vec_add(lhs, ev.actA("l", ev.actB("l", va, ev.bA(x)), ev.beB(b)))
    lhs = vec_sub(lhs, ev.mulB(role, ev.beB(a), ev.actA("l", ev.bA(x), vb)))
    lhs = vec_sub(lhs, ev.actA("r", ev.actB("r", vb, ev.bA(x)), ev.beB(a)))
    rhs = ev.mulB(role, ev.actA("l", ev.bA(x), va), ev.beB(b))
    rhs = vec_add(rhs, ev.actA("l", ev.actB("r", va, ev.bA(x)), ev.beB(b)))
    rhs = vec_sub(rhs, ev.actA("l", ev.alA(x), ev.mulB(role, va, vb)))
    return vec_sub(lhs, ev.sgn(ev.eps(da, dx), rhs))


def _mp_nov3(ev: MPEval, x, a, b):
    dx, da = ev.dA(x), ev.dB(a)
    role = ev.novikov
    va, vb = ev.bB(a), ev.bB(b)
    lhs = ev.mulB(role, ev.actA("l", ev.bA(x), va), ev.beB(b))
    lhs = vec_sub(lhs, ev.actA("l", ev.actB("r", va, ev.bA(x)), ev.beB(b)))
    lhs = vec_sub(lhs, ev.actA("l", ev.alA(x), ev.mulB(role, va, vb)))
    rhs = ev.mulB(role, ev.actA("r", ev.bA(x), va), ev.beB(b))
    rhs = vec_add(rhs, ev.actA("l", ev.actB("l", va, ev.bA(x)), ev.beB(b)))
    rhs = vec_sub(rhs, ev.mulB(role, ev.beB(a), ev.actA("l", ev.bA(x), vb)))
    rhs = vec_sub(rhs, ev.actA("r", ev.actB("r", vb, ev.bA(x)), ev.beB(a)))
    return vec_sub(lhs, ev.sgn(ev.eps(dx, da), rhs))


_MP_NOV_CONDS = (("MP_NOV1", _mp_nov1), ("MP_NOV2", _mp_nov2), ("MP_NOV3", _mp_nov3))


def _mp_lie(ev: MPEval, x, a, b):
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)
    va, vb = ev.bB(a), ev.bB(b)
    t1 = vec_sub(
        ev.actA("rho", ev.actB("rho", va, ev.bA(x)), ev.beB(b)),
        ev.mulB("bracket", ev.beB(a), ev.actA("rho", ev.bA(x), vb)),
    )
    t2 = vec_sub(
        ev.mulB("bracket", ev.beB(b), ev.actA("rho", ev.bA(x), va)),
        ev.actA("rho", ev.actB("rho", vb, ev.bA(x)), ev.beB(a)),
    )
    total = ev.sgn(ev.eps(dx, da), t1)
    total = vec_add(total, ev.sgn(ev.eps(ev.add(da, dx), db), t2))
    return vec_add(total, ev.actA("rho", ev.alA(x), ev.mulB("bracket", va, vb)))


_MP_LIE_CONDS = (("MP_LIE", _mp_lie),)


def _mp_hnp1(ev: MPEval, x, a, b):
    dx, db = ev.dA(x), ev.dB(b)
    va, vb = ev.bB(a), ev.bB(b)
    lhs = ev.actA("r", ev.alA(x), ev.mulB("dot", va, vb))
    rhs = vec_add(
        ev.mulB("dot", ev.actA("r", ev.bA(x), va), ev.beB(b)),
        ev.actA("s", ev.actB("l", va, ev.bA(x)), ev.beB(b)),
    )
    return vec_sub(lhs, ev.sgn(ev.eps(db, dx), rhs))


def _mp_hnp2(ev: MPEval, x, a, b):
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)
    va, vb = ev.bB(a), ev.bB(b)
    lhs = ev.actA("l", ev.actB("s", va, ev.bA(x)), ev.beB(b))
    lhs = vec_add(
        lhs,
        ev.sgn(ev.eps(da, dx), ev.mulB("diamond", ev.actA("s", ev.bA(x), va), ev.beB(b))),
    )
    rhs = ev.sgn(
        ev.eps(dx, db) * ev.eps(ev.add(da, db), dx),
        ev.actA("s", ev.alA(x), ev.mulB("diamond", va, vb)),
    )
    return vec_sub(lhs, rhs)


def _mp_hnp3(ev: MPEval, x, a, b):
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)
    va, vb = ev.bB(a), ev.bB(b)
    lhs = ev.sgn(ev.eps(da, dx), ev.actA("l", ev.actB("s", va, ev.bA(x)), ev.beB(b)))
    lhs = vec_add(lhs, ev.mulB("diamond", ev.actA("s", ev.bA(x), va), ev.beB(b)))
    rhs = vec_add(
        ev.mulB("dot", ev.actA("l", ev.bA(x), vb), ev.beB(a)),
        ev.actA("s", ev.actB("r", vb, ev.bA(x)), ev.beB(a)),
    )
    return vec_sub(lhs, ev.sgn(ev.eps(da, db), rhs))


def _mp_hnp4(ev: MPEval, x, a, b):
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)

    def half(a_, b_, da_, db_):
        va, vb = ev.bB(a_), ev.bB(b_)
        t1 = ev.sgn(
            ev.eps(ev.add(da_, db_), dx),
            ev.actA("s", ev.alA(x), ev.mulB("diamond", va, vb)),
        )
        t2 = ev.sgn(ev.eps(db_, dx), ev.mulB("diamond", ev.beB(a_), ev.actA("s", ev.bA(x), vb)))
        t3 = ev.actA("r", ev.actB("s", vb, ev.bA(x)), ev.beB(a_))
        return vec_sub(vec_sub(t1, t2), t3)

    return vec_sub(half(a, b, da, db), ev.sgn(ev.eps(da, db), half(b, a, db, da)))


def _mp_hnp5(ev: MPEval, x, a, b):
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)
    va, vb = ev.bB(a), ev.bB(b)
    lhs = ev.mulB("dot", ev.actA("r", ev.bA(x), va), ev.beB(b))
    lhs = vec_add(lhs, ev.actA("s", ev.actB("l", va, ev.bA(x)), ev.beB(b)))
    lhs = vec_sub(lhs, ev.mulB("diamond", ev.beB(a), ev.actA("s", ev.bA(x), vb)))
    lhs = vec_sub(lhs, ev.sgn(ev.eps(dx, db), ev.actA("r", ev.actB("s", vb, ev.bA(x)), ev.beB(a))))
    rhs = ev.mulB("dot", ev.actA("l", ev.bA(x), va), ev.beB(b))
    rhs = vec_sub(rhs, ev.actA("s", ev.actB("r", va, ev.bA(x)), ev.beB(b)))
    rhs = vec_sub(rhs, ev.actA("l", ev.alA(x), ev.mulB("dot", va, vb)))
    return vec_sub(lhs, ev.sgn(ev.eps(da, dx), rhs))


def _mp_hnp6(ev: MPEval, x, a, b):
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)
    va, vb = ev.bB(a), ev.bB(b)
    lhs = ev.mulB("dot", ev.actA("l", ev.bA(x), va), ev.beB(b))
    lhs = vec_add(lhs, ev.actA("s", ev.actB("r", va, ev.bA(x)), ev.beB(b)))
    lhs = vec_sub(lhs, ev.actA("l", ev.alA(x), ev.mulB("dot", va, vb)))
    rhs = ev.mulB("dot", ev.actA("r", ev.bA(x), va), ev.beB(b))
    rhs = vec_add(rhs, ev.actA("s", ev.actB("l", va, ev.bA(x)), ev.beB(b)))
    rhs = vec_sub(rhs, ev.mulB("diamond", ev.beB(a), ev.actA("s", ev.bA(x), vb)))
    rhs = vec_sub(rhs, ev.sgn(ev.eps(dx, db), ev.actA("r", ev.actB("s", vb, ev.bA(x)), ev.beB(a))))
    return vec_sub(lhs, ev.sgn(ev.eps(dx, da), rhs))


_MP_HNP_CONDS = (
    ("MP_HNP1", _mp_hnp1),
    ("MP_HNP2", _mp_hnp2),
    ("MP_HNP3", _mp_hnp3),
    ("MP_HNP4", _mp_hnp4),
    ("MP_HNP5", _mp_hnp5),
    ("MP_HNP6", _mp_hnp6),
)


# The three GD side conditions are the mixed-placement instances of the
# compatibility identity on the double, one per pattern of a single A-slot
# among two B-slots, written out through the cross actions.  They are
# derived from the double's product formulas rather than transcribed: the
# circulating formulation of the first two carries slot and grouping typos
# that fail on semidirect-limit data the closure theorem covers, and the
# third pattern is omitted there entirely.


def _mp_gd1(ev: MPEval, x, a, b):
    # pattern (a, b, x): compatibility with X = a, Y = b, Z = x
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)
    va, vb = ev.bB(a), ev.bB(b)
    bx = ev.bA(x)
    total = ev.actA("r", ev.actB("rho", va, bx), ev.beB(b))
    total = vec_sub(total, ev.sgn(ev.eps(da, dx), ev.mulB("dot", ev.beB(b), ev.actA("rho", bx, va))))
    total = vec_add(total, ev.sgn(ev.eps(da, dx), ev.actA("rho", ev.actB("l", vb, bx), ev.beB(a))))
    total = vec_sub(total, ev.sgn(ev.eps(db, da), ev.mulB("bracket", ev.beB(a), ev.actA("r", bx, vb))))
    total = vec_add(
        total,
        ev.sgn(ev.eps(ev.add(da, db), dx), ev.actA("rho", ev.alA(x), ev.mulB("dot", vb, va))),
    )
    total = vec_sub(total, ev.actA("r", ev.alA(x), ev.mulB("bracket", vb, va)))
    total = vec_add(total, ev.sgn(ev.eps(da, dx), ev.actA("l", ev.actB("rho", vb, bx), ev.beB(a))))
    return vec_sub(
        total,
        ev.sgn(ev.eps(ev.add(da, db), dx), ev.mulB("dot", ev.actA("rho", bx, vb), ev.beB(a))),
    )


def _mp_gd2(ev: MPEval, x, a, b):
    # pattern (a, x, b): compatibility with X = a, Y = x, Z = b
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)
    va, vb = ev.bB(a), ev.bB(b)
    bx = ev.bA(x)
    total = ev.actA("l", ev.alA(x), ev.mulB("bracket", va, vb))
    total = vec_add(total, ev.sgn(ev.eps(da, db), ev.actA("rho", ev.actB("r", vb, bx), ev.beB(a))))
    total = vec_sub(total, ev.sgn(ev.eps(dx, da), ev.mulB("bracket", ev.beB(a), ev.actA("l", bx, vb))))
    total = vec_sub(total, ev.actA("rho", ev.actB("r", va, bx), ev.beB(b)))
    total = vec_add(
        total,
        ev.sgn(ev.eps(ev.add(da, dx), db), ev.mulB("bracket", ev.beB(b), ev.actA("l", bx, va))),
    )
    total = vec_add(total, ev.sgn(ev.eps(dx, da), ev.actA("l", ev.actB("rho", va, bx), ev.beB(b))))
    total = vec_sub(total, ev.mulB("dot", ev.actA("rho", bx, va), ev.beB(b)))
    total = vec_sub(
        total,
        ev.sgn(ev.eps(ev.add(da, dx), db), ev.actA("l", ev.actB("rho", vb, bx), ev.beB(a))),
    )
    return vec_add(total, ev.sgn(ev.eps(da, db), ev.mulB("dot", ev.actA("rho", bx, vb), ev.beB(a))))


def _mp_gd3(ev: MPEval, x, a, b):
    # pattern (x, a, b): compatibility with X = x, Y = a, Z = b
    dx, da, db = ev.dA(x), ev.dB(a), ev.dB(b)
    va, vb = ev.bB(a), ev.bB(b)
    bx = ev.bA(x)
    total = ev.sgn(-ev.eps(dx, db), ev.actA("r", ev.actB("rho", vb, bx), ev.beB(a)))
    total = vec_add(total, ev.mulB("dot", ev.beB(a), ev.actA("rho", bx, vb)))
    total = vec_sub(total, ev.sgn(ev.eps(da, dx), ev.actA("rho", ev.alA(x), ev.mulB("dot", va, vb))))
    total = vec_sub(total, ev.actA("rho", ev.actB("l", va, bx), ev.beB(b)))
    total = vec_add(
        total,
        ev.sgn(ev.eps(ev.add(dx, da), db), ev.mulB("bracket", ev.beB(b), ev.actA("r", bx, va))),
    )
    total = vec_sub(total, ev.actA("l", ev.actB("rho", va, bx), ev.beB(b)))
    total = vec_add(total, ev.sgn(ev.eps(da, dx), ev.mulB("dot", ev.actA("rho", bx, va), ev.beB(b))))
    return vec_add(total, ev.sgn(ev.eps(dx, db), ev.actA("r", ev.alA(x), ev.mulB("bracket", va, vb))))


_MP_GD_CONDS = (("MP_GD1", _mp_gd1), ("MP_GD2", _mp_gd2), ("MP_GD3", _mp_gd3))

MP_CONDITIONS = {
    MatchedPairKind.ASSOC: _MP_ASSOC_CONDS,
    MatchedPairKind.NOVIKOV: _MP_NOV_CONDS,
    MatchedPairKind.LIE: _MP_LIE_CONDS,
    MatchedPairKind.HNP: _MP_ASSOC_CONDS + _MP_NOV_CONDS + _MP_HNP_CONDS,
    MatchedPairKind.GD: _MP_LIE_CONDS + _MP_NOV_CONDS + _MP_GD_CONDS,
}
