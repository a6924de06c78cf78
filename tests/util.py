"""Shared test helpers: fixture perturbation, structural comparison, and
brute-force witnesses for the scan checks."""

from itertools import product

from homcolor.core import AlgebraPresentation, BilinearProduct, vec_add, vec_scale


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


def graded_targets(A: AlgebraPresentation, i: int, j: int) -> list[int]:
    """Basis indices a product of e_i and e_j may legally land on."""
    want = A.space.group.add(A.space.degree(i), A.space.degree(j))
    return [k for k in range(A.dim) if A.space.degree(k) == want]


def smallest_failure(sizes, defect):
    """Brute force: evaluate ``defect`` on every index tuple, keep the
    nonzero ones, and return the smallest failing tuple with its defect
    (or None when every defect is zero)."""
    failing = {}
    for t in product(*(range(n) for n in sizes)):
        d = defect(t)
        if d:
            failing[t] = d
    if not failing:
        return None
    t = min(failing)
    return t, failing[t]


def assert_reports_failure(report, found, axes, space):
    """``report`` is PASS iff ``found`` is None, else FAIL at exactly that
    tuple with exactly that defect, written as basis name -> scalar text."""
    if found is None:
        assert report.passed, report.describe()
        return
    t, d = found
    assert report.status == "fail", report.describe()
    assert report.witness == tuple(names[i] for names, i in zip(axes, t))
    assert report.defect == tuple((space.names[k], str(d[k])) for k in sorted(d))


def act_vec(bundle, name, x, v):
    """Action of an algebra vector ``x`` on a module vector ``v``, summed
    from the public per-basis-element action."""
    out = {}
    for i, s in x.items():
        out = vec_add(out, vec_scale(s, bundle.act(name, i, v)))
    return out
