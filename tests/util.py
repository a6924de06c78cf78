"""Shared test helpers: fixture perturbation, structural comparison,
brute-force witnesses for the scan checks, and evaluation homomorphisms of
scalars (float and mod-p sanity oracles, never used by the checks)."""

import math
import random
from fractions import Fraction
from itertools import product

from homcolor.core import (
    AlgebraPresentation,
    BilinearProduct,
    LinearMap,
    term_failures,
    vec_add,
    vec_scale,
)
from homcolor.representations import ActionBundle
from homcolor.scalars import Scalar, ScalarError


def perturb(A: AlgebraPresentation, role: str, i: int, j: int, k: int, delta) -> AlgebraPresentation:
    """Add ``delta`` to the structure constant c[i][j][k] of ``role``.

    The target component must respect the grading, otherwise the rebuilt
    product raises (the perturbation would not be representable).
    """
    entries = {key: dict(cell) for key, cell in A.product(role).table.items()}
    cell = entries.setdefault((i, j), {})
    cell[k] = cell.get(k, A.context.zero) + A.context.scalar(delta)
    products = dict(A.products)
    products[role] = BilinearProduct(A.space, A.context, entries)
    return A.with_products(products)


def even_basis_change(space, ctx, seed: int) -> tuple[LinearMap, LinearMap]:
    """A seeded even integer change of basis P of ``space`` and its inverse:
    within each block of basis elements of one degree, unitriangular in a
    shuffled order with entries in -2..2 above the diagonal, and the
    identity across blocks."""
    rng = random.Random(seed)
    n = space.dim
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    for degree in dict.fromkeys(space.degrees):
        block = [i for i in range(n) if space.degree(i) == degree]
        rng.shuffle(block)
        for a, r in enumerate(block):
            for c in block[a + 1:]:
                rows[r][c] = rng.randint(-2, 2)
    P = LinearMap.from_rows(space, space, ctx, rows)
    return P, LinearMap.from_rows(space, space, ctx, _integer_inverse(rows))


def bump_corner(A: AlgebraPresentation) -> AlgebraPresentation:
    """``A`` with the structure constant of e_1 o e_n on the last basis
    element of its degree bumped by one, in every product."""
    last = A.dim - 1
    for role in A.roles:
        A = perturb(A, role, 0, last, graded_targets(A, 0, last)[-1], 1)
    return A


def change_basis(A: AlgebraPresentation, seed: int) -> AlgebraPresentation:
    """``A`` written in the basis f_i = P e_i, P the seeded
    :func:`even_basis_change`.  The products move to the new basis and the
    twist becomes P^-1 alpha P; names and degrees stay."""
    n = A.dim
    P, P_inv = even_basis_change(A.space, A.context, seed)
    f = [P.image(i) for i in range(n)]
    products = {
        role: BilinearProduct(A.space, A.context, {
            (i, j): P_inv.apply(A.mul(role, f[i], f[j])) for i in range(n) for j in range(n)
        })
        for role in A.roles
    }
    alpha = P_inv.compose(A.alpha.compose(P))
    return AlgebraPresentation(A.space, A.bichar, A.context, products, alpha)


def change_bundle_basis(bundle: ActionBundle, P: LinearMap, Q: LinearMap, Q_inv: LinearMap) -> ActionBundle:
    """``bundle`` written in the algebra basis f_i = P e_i and the module
    basis g_v = Q m_v: f_i acts by Q^-1 (sum_k P[k][i] act(e_k)) Q, and beta
    becomes Q^-1 beta Q."""
    module, ctx = bundle.module, bundle.context
    g = [Q.image(v) for v in range(module.dim)]
    actions = {}
    for name in bundle.actions:
        family = []
        for i in range(bundle.algebra_space.dim):
            f = P.image(i)
            columns = [Q_inv.apply(act_vec(bundle, name, f, gv)) for gv in g]
            family.append(LinearMap(module, module, ctx, columns, bundle.algebra_space.degree(i)))
        actions[name] = family
    beta = Q_inv.compose(bundle.beta.compose(Q))
    return ActionBundle(bundle.algebra_space, module, beta, ctx, actions)


def _integer_inverse(rows):
    """The inverse of an integer matrix with an integer inverse, by
    Gauss-Jordan elimination over the rationals."""
    n = len(rows)
    work = [[Fraction(v) for v in row] + [Fraction(int(r == c)) for c in range(n)]
            for r, row in enumerate(rows)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if work[r][c])
        work[c], work[pivot] = work[pivot], work[c]
        work[c] = [v / work[c][c] for v in work[c]]
        for r in range(n):
            if r != c and work[r][c]:
                work[r] = [v - work[r][c] * w for v, w in zip(work[r], work[c])]
    inverse = [row[n:] for row in work]
    assert all(v.denominator == 1 for row in inverse for v in row)
    return [[int(v) for v in row] for row in inverse]


def graded_targets(A: AlgebraPresentation, i: int, j: int) -> list[int]:
    """Basis indices a product of e_i and e_j may legally land on."""
    want = A.space.group.add(A.space.degree(i), A.space.degree(j))
    return [k for k in range(A.dim) if A.space.degree(k) == want]


def smallest_failure(sizes, defect):
    """Brute force: evaluate ``defect`` on the index tuples in lexicographic
    order and return the first failing one with its defect (or None when
    every defect is zero)."""
    for t in product(*(range(n) for n in sizes)):
        d = defect(t)
        if d:
            return t, d
    return None


def every_failure(terms, presentation, ops) -> dict:
    """Every failing index tuple of one term plan on ``presentation``'s
    basis, with its defect, as the evaluator returns them.  ``ops`` is
    keyed by the operation names of the terms."""
    plan = (terms, tuple((name, name) for name in ops))
    return term_failures((plan,), presentation, ops).get(0, {})


def assert_reports_failure(report, found, names, space):
    """``report`` is PASS iff ``found`` is None, else FAIL at exactly that
    tuple, written in the basis ``names``, with exactly that defect,
    written as basis name -> scalar text."""
    if found is None:
        assert report.passed, report.describe()
        return
    t, d = found
    assert report.status == "fail", report.describe()
    assert report.witness == tuple(names[i] for i in t)
    assert report.defect == tuple((space.names[k], str(d[k])) for k in sorted(d))


def act(bundle, name, i, v):
    """Action of algebra basis element ``i`` on a module vector ``v``."""
    return bundle.actions[name][i].apply(v)


def act_vec(bundle, name, x, v):
    """Action of an algebra vector ``x`` on a module vector ``v``, summed
    from the per-basis-element action."""
    out = {}
    for i, s in x.items():
        out = vec_add(out, vec_scale(s, act(bundle, name, i, v)))
    return out


def eval_float(s: Scalar, assignment=None) -> float:
    """Float value of ``s``, parameters taken from ``assignment``."""
    assignment = assignment or {}
    total = 0.0
    for mono, coeff in s.terms:
        value = float(coeff)
        for sym, e in mono:
            if sym in s.context.roots:
                value *= math.sqrt(float(s.context.roots[sym])) ** e
            elif sym in assignment:
                value *= float(assignment[sym]) ** e
            else:
                raise ScalarError(f"no value supplied for parameter {sym!r}")
        total += value
    return total


def sqrt_mod(q, prime: int) -> int:
    """Smallest residue r with r*r = q in GF(prime), by direct search."""
    q = Fraction(q)
    target = q.numerator * pow(q.denominator, -1, prime) % prime
    for r in range(prime):
        if r * r % prime == target:
            return r
    raise ScalarError(f"{q} is not a square modulo {prime}")


def eval_mod(s: Scalar, prime: int, assignment=None, root_residues=None) -> int:
    """Value of ``s`` in GF(prime), roots replaced by residues with r*r = q
    (found by search when not supplied; a non-square radicand raises)."""
    assignment = assignment or {}
    residues = dict(root_residues or {})
    for sym, q in s.context.roots.items():
        if sym not in residues:
            residues[sym] = sqrt_mod(q, prime)
    total = 0
    for mono, coeff in s.terms:
        value = coeff.numerator * pow(coeff.denominator, -1, prime) % prime
        for sym, e in mono:
            if sym in residues:
                value = value * pow(residues[sym], e, prime) % prime
            elif sym in assignment:
                value = value * pow(assignment[sym] % prime, e, prime) % prime
            else:
                raise ScalarError(f"no value supplied for parameter {sym!r}")
        total = (total + value) % prime
    return total
