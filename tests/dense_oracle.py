"""Independent dense evaluator used to cross-check the sparse kernel.

Everything here is written the slow, obvious way on purpose: structure
constants are expanded to dense nested lists, multiplication is a literal
triple loop over the nonzero coordinates, the twist a matrix-vector
product over them, and each identity is re-derived
from its formula without touching the kernel's defect expressions.  Verdicts
and witnesses must agree with the kernel exactly.

A bimodule's checks are its semidirect sum's suite, and a matched pair's
its double's suite, so each is :class:`DenseOracle` run on one member
identity of that suite over the sum or double built with ``force=True``
(:func:`bimodule_references`, :func:`matched_pair_references`).
"""

from itertools import product as iter_product

from homcolor.constructions import double_suite_kind, matched_pair_double, semidirect_sum
from homcolor.core import AlgebraPresentation
from homcolor.identities import IDENTITY_CATALOG, SUITE_MEMBERS
from homcolor.representations import BIMODULE_TABLE


def dense_product(A: AlgebraPresentation, role: str):
    n = A.dim
    zero = A.context.zero
    table = [[[zero for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for (i, j), cell in A.product(role).table.items():
        for k, s in cell:
            table[i][j][k] = s
    return table


def dense_alpha(A: AlgebraPresentation):
    n = A.dim
    zero = A.context.zero
    rows = [[zero for _ in range(n)] for _ in range(n)]
    for c in range(n):
        for r, s in A.alpha.image(c).items():
            rows[r][c] = s
    return rows


def d_apply(rows, x):
    n = len(rows)
    nonzero = [c for c in range(n) if not x[c].is_zero()]
    return [sum((rows[r][c] * x[c] for c in nonzero), rows[r][0].context.zero) for r in range(n)]


def d_mul(table, x, y):
    n = len(table)
    zero = table[0][0][0].context.zero
    out = [zero] * n
    for i in range(n):
        if x[i].is_zero():
            continue
        for j in range(n):
            if y[j].is_zero():
                continue
            for k in range(n):
                out[k] = out[k] + x[i] * y[j] * table[i][j][k]
    return out


def d_basis(A, i):
    vec = [A.context.zero] * A.dim
    vec[i] = A.context.one
    return vec


def d_sub(x, y):
    return [a - b for a, b in zip(x, y)]


def d_add(x, y):
    return [a + b for a, b in zip(x, y)]


def d_scale(sign, x):
    return x if sign == 1 else [-a for a in x]


def d_is_zero(x):
    return all(s.is_zero() for s in x)


class DenseOracle:
    """Naive re-implementation of every catalogued identity."""

    def __init__(self, A: AlgebraPresentation):
        self.A = A
        self.alpha = dense_alpha(A)
        self.alpha2 = [
            d_apply(self.alpha, [self.alpha[r][c] for r in range(A.dim)])
            for c in range(A.dim)
        ]
        # alpha2 stored column-wise above; rebuild as rows for d_apply
        n = A.dim
        self.alpha2 = [[self.alpha2[c][r] for c in range(n)] for r in range(n)]
        self.tables = {role: dense_product(A, role) for role in A.roles}

    def al(self, x):
        return d_apply(self.alpha, x)

    def al2(self, x):
        return d_apply(self.alpha2, x)

    def mul(self, role, x, y):
        return d_mul(self.tables[role], x, y)

    def eps(self, i, j):
        return self.A.eps(i, j)

    def eps2(self, i, j, k):
        space = self.A.space
        return self.A.eps_deg(
            space.group.add(space.degree(i), space.degree(j)), space.degree(k)
        )

    # -- identity defects, re-derived ----------------------------------------

    def defect(self, tag, roles, t):
        A = self.A
        b = lambda i: d_basis(A, i)
        if tag == "HOM_ASSOC":
            p = roles["product"]
            x, y, z = t
            return d_sub(
                self.mul(p, self.al(b(x)), self.mul(p, b(y), b(z))),
                self.mul(p, self.mul(p, b(x), b(y)), self.al(b(z))),
            )
        if tag == "EPS_COMM":
            p = roles["product"]
            x, y = t
            return d_sub(
                self.mul(p, b(x), b(y)),
                d_scale(self.eps(x, y), self.mul(p, b(y), b(x))),
            )
        if tag == "NOVIKOV_LSYM":
            p = roles["product"]
            x, y, z = t
            lhs = d_sub(
                self.mul(p, self.mul(p, b(x), b(y)), self.al(b(z))),
                self.mul(p, self.al(b(x)), self.mul(p, b(y), b(z))),
            )
            rhs = d_sub(
                self.mul(p, self.mul(p, b(y), b(x)), self.al(b(z))),
                self.mul(p, self.al(b(y)), self.mul(p, b(x), b(z))),
            )
            return d_sub(lhs, d_scale(self.eps(x, y), rhs))
        if tag == "NOVIKOV_RCOMM":
            p = roles["product"]
            x, y, z = t
            return d_sub(
                self.mul(p, self.mul(p, b(x), b(y)), self.al(b(z))),
                d_scale(
                    self.eps(y, z),
                    self.mul(p, self.mul(p, b(x), b(z)), self.al(b(y))),
                ),
            )
        if tag == "LIE_SKEW":
            p = roles["bracket"]
            x, y = t
            return d_add(
                self.mul(p, b(x), b(y)),
                d_scale(self.eps(x, y), self.mul(p, b(y), b(x))),
            )
        if tag == "LIE_JACOBI":
            p = roles["bracket"]
            total = [A.context.zero] * A.dim
            for x, y, z in ((t[0], t[1], t[2]), (t[1], t[2], t[0]), (t[2], t[0], t[1])):
                term = self.mul(p, self.al(b(x)), self.mul(p, b(y), b(z)))
                total = d_add(total, d_scale(self.eps(z, x), term))
            return total
        if tag == "HNP_COMPAT_1":
            dot, dia = roles["dot"], roles["diamond"]
            x, y, z = t
            return d_sub(
                self.mul(dia, self.mul(dot, b(x), b(y)), self.al(b(z))),
                d_scale(
                    self.eps(y, z),
                    self.mul(dot, self.mul(dia, b(x), b(z)), self.al(b(y))),
                ),
            )
        if tag == "HNP_COMPAT_2":
            dot, dia = roles["dot"], roles["diamond"]
            x, y, z = t
            lhs = d_sub(
                self.mul(dot, self.mul(dia, b(x), b(y)), self.al(b(z))),
                self.mul(dia, self.al(b(x)), self.mul(dot, b(y), b(z))),
            )
            rhs = d_sub(
                self.mul(dot, self.mul(dia, b(y), b(x)), self.al(b(z))),
                self.mul(dia, self.al(b(y)), self.mul(dot, b(x), b(z))),
            )
            return d_sub(lhs, d_scale(self.eps(x, y), rhs))
        if tag == "TRANSPOSED_LEIBNIZ":
            dot, br = roles["dot"], roles["bracket"]
            x, y, z = t
            two = A.context.scalar(2)
            lhs = [two * s for s in self.mul(dot, self.al(b(z)), self.mul(br, b(x), b(y)))]
            rhs = d_add(
                self.mul(br, self.mul(dot, b(z), b(x)), self.al(b(y))),
                d_scale(
                    self.eps(z, x),
                    self.mul(br, self.al(b(x)), self.mul(dot, b(z), b(y))),
                ),
            )
            return d_sub(lhs, rhs)
        if tag == "POISSON_LEIBNIZ":
            dot, br = roles["dot"], roles["bracket"]
            x, y, z = t
            lhs = self.mul(br, self.al(b(x)), self.mul(dot, b(y), b(z)))
            rhs = d_add(
                d_scale(
                    self.eps(x, y),
                    self.mul(dot, self.al(b(y)), self.mul(br, b(x), b(z))),
                ),
                d_scale(
                    self.eps2(x, y, z),
                    self.mul(dot, self.al(b(z)), self.mul(br, b(x), b(y))),
                ),
            )
            return d_sub(lhs, rhs)
        if tag in ("LEFT_ASSOCIATOR", "HNP_LEMMA_ASSOC"):
            dot, dia = roles["dot"], roles["diamond"]
            x, y, z = t
            return d_sub(
                self.mul(dia, self.mul(dot, b(x), b(y)), self.al(b(z))),
                self.mul(dia, self.al(b(x)), self.mul(dot, b(y), b(z))),
            )
        if tag == "GD_COMPAT":
            dot, br = roles["dot"], roles["bracket"]
            x, y, z = t
            total = self.mul(dot, self.al(b(y)), self.mul(br, b(x), b(z)))
            total = d_sub(
                total,
                d_scale(
                    self.eps(y, x),
                    self.mul(br, self.al(b(x)), self.mul(dot, b(y), b(z))),
                ),
            )
            total = d_add(
                total,
                d_scale(
                    self.eps2(x, y, z),
                    self.mul(br, self.al(b(z)), self.mul(dot, b(y), b(x))),
                ),
            )
            total = d_sub(total, self.mul(dot, self.mul(br, b(y), b(x)), self.al(b(z))))
            return d_add(
                total,
                d_scale(
                    self.eps(x, z),
                    self.mul(dot, self.mul(br, b(y), b(z)), self.al(b(x))),
                ),
            )
        if tag == "GI_1":
            dot, br = roles["dot"], roles["bracket"]
            total = [A.context.zero] * A.dim
            for x, y, z in ((t[0], t[1], t[2]), (t[1], t[2], t[0]), (t[2], t[0], t[1])):
                term = self.mul(dot, self.al(b(x)), self.mul(br, b(y), b(z)))
                total = d_add(total, d_scale(self.eps(z, x), term))
            return total
        if tag in ("GI_2", "GI_3", "GI_4"):
            dot, br = roles["dot"], roles["bracket"]
            h = t[0]
            total = [A.context.zero] * A.dim
            rest = t[1:]
            for x, y, z in (
                (rest[0], rest[1], rest[2]),
                (rest[1], rest[2], rest[0]),
                (rest[2], rest[0], rest[1]),
            ):
                if tag == "GI_2":
                    term = self.mul(
                        br,
                        self.mul(dot, self.al(b(h)), self.mul(br, b(x), b(y))),
                        self.al2(b(z)),
                    )
                elif tag == "GI_3":
                    term = self.mul(
                        br,
                        self.mul(dot, self.al(b(h)), self.al(b(x))),
                        self.mul(br, self.al(b(y)), self.al(b(z))),
                    )
                else:
                    term = self.mul(
                        dot,
                        self.mul(br, self.al(b(h)), self.al(b(x))),
                        self.mul(br, self.al(b(y)), self.al(b(z))),
                    )
                total = d_add(total, d_scale(self.eps(z, x), term))
            return total
        raise KeyError(f"oracle does not know {tag}")

    def check(self, tag, roles, arity):
        """Full lexicographic scan; returns the first failing tuple or None."""
        for t in iter_product(range(self.A.dim), repeat=arity):
            if not d_is_zero(self.defect(tag, roles, t)):
                return t
        return None


# -- the suite of a semidirect sum or a double ------------------------------------


def _suite_references(total, suite):
    """Each member identity of ``suite`` by tag: its defect on every tuple
    of ``total`` as the dense oracle evaluates it, its index sizes, the
    basis names of its witnesses and the space its defects lie in."""
    oracle = DenseOracle(total)
    references = {}
    for tag, override in SUITE_MEMBERS[suite]:
        spec = IDENTITY_CATALOG[tag]
        roles = {**dict(spec.defaults), **override}

        def defect(t, tag=tag, roles=roles):
            return {k: s for k, s in enumerate(oracle.defect(tag, roles, t)) if s.terms}

        references[tag] = (defect, (total.dim,) * spec.arity, total.names, total.space)
    return references


def bimodule_references(A, bundle, kind):
    """Each check of ``check_bimodule(A, bundle, kind)`` by name: each member
    identity of the kind's suite, evaluated by the dense oracle on every
    tuple of ``semidirect_sum(..., force=True)``."""
    total = semidirect_sum(A, bundle, kind, force=True)
    return _suite_references(total, BIMODULE_TABLE[kind].suite)


def matched_pair_references(pair, kind):
    """Each check of ``check_matched_pair(pair, kind)`` by name, as
    :func:`bimodule_references` gives them, on
    ``matched_pair_double(..., force=True)``."""
    return _suite_references(matched_pair_double(pair, kind, force=True), double_suite_kind(kind))
