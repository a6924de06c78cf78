"""Seeded input generation for the benchmark, standard library only.

The closure workload ports the annihilator-pattern strategies of
``tests/test_properties.py`` from hypothesis to ``random.Random``: products
send pairs of ``w*`` basis elements into the span of the ``u*`` elements,
which multiply everything to zero, the commutative product is built
eps-symmetric and the bracket eps-skew, and the twist is a block scalar map.
Every suite in the catalog holds on such tables for any grading-compatible
constants, and the twist is multiplicative, so each closure theorem's
construction must verify "pass".  Unlike the hypothesis strategies, the
degrees are passed in, so the workload fixes each instance's shape and size
(dimensions 6-12, where scans dominate), and constants are never 0.

The fixture workloads take a seeded sample of the single-cell unit
perturbations of acceptance criterion 08, and seeded relabelings (basis
permutation and renaming) of the parametric fixtures.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iter_product

from homcolor.constructions import MatchedPairData, MatchedPairKind
from homcolor.core import (
    AlgebraPresentation,
    BilinearProduct,
    GradedSpace,
    LinearMap,
    role_sort_key,
)
from homcolor.grading import super_z2, trivial_grading, z2_pow, z2xz2_sympl, zxz_total
from homcolor.identities import StructureKind
from homcolor.representations import ActionBundle
from homcolor.scalars import ScalarContext
from tests.util import graded_targets

GRADINGS = {
    "super": super_z2,
    "z2sq": lambda: z2_pow(2),
    "sympl": z2xz2_sympl,
    "zxz": zxz_total,
    "trivial": trivial_grading,
}

# The hypothesis strategies also draw 0; never drawing it fixes the number of
# nonzero constants by the shape, which keeps the cost of a slot steady.
COEFFS = (-2, -1, 1, 2)
SCALES = (1, 2, -1, Fraction(1, 2), -3)

MATCHED_ACTIONS = {
    MatchedPairKind.ASSOC: ("s",),
    MatchedPairKind.NOVIKOV: ("l", "r"),
    MatchedPairKind.LIE: ("rho",),
    MatchedPairKind.HNP: ("s", "l", "r"),
    MatchedPairKind.GD: ("l", "r", "rho"),
}

# Suite each fixture is perturbed against, as in acceptance criterion 08.
SUITE_FOR_FIXTURE = {
    "assoc_3dim.json": StructureKind.EPS_COMM_ASSOC,
    "novikov_3dim.json": StructureKind.HOM_NOVIKOV,
    "novikov_4dim.json": StructureKind.HOM_NOVIKOV,
    "hnp_4dim.json": StructureKind.HNP,
    "hnp_transposed_4dim.json": StructureKind.HNP,
    "hnp_admissible_4dim.json": StructureKind.ADMISSIBLE_HNP,
    "hnp_admissible_multiplicative_4dim.json": StructureKind.ADMISSIBLE_HNP,
    "hnp_admissible_mult_synth_4dim.json": StructureKind.ADMISSIBLE_HNP,
    "gd_4dim.json": StructureKind.HOM_GD,
    "hnp_to_gd_4dim.json": StructureKind.HNP,
    "gd_multiplicative_4dim.json": StructureKind.HOM_GD,
    "poly_deriv_3dim.json": StructureKind.HNP,
}


def block_scalar_map(space: GradedSpace, ctx: ScalarContext, n_u: int, a) -> LinearMap:
    """a^2 on the u-span and a on the w-span: multiplicative on every pattern table."""
    columns = [{i: ctx.scalar(a * a if i < n_u else a)} for i in range(space.dim)]
    return LinearMap(space, space, ctx, columns)


def draw_degrees(rng: random.Random, grading: str, count: int) -> list[tuple[int, ...]]:
    """Basis degrees as the hypothesis strategy draws them."""
    group, _ = GRADINGS[grading]()
    return [
        group.element([rng.randint(-1, 2) for _ in range(group.rank)]) for _ in range(count)
    ]


def pattern_algebra(
    rng: random.Random,
    grading: str,
    n_u: int,
    degrees: list[tuple[int, ...]],
    ctx: ScalarContext | None = None,
) -> AlgebraPresentation:
    """Annihilator-pattern algebra with dot, diamond and bracket over ``grading``.

    ``degrees`` (u-elements first) fixes the shape.  The u-degrees and the
    w-degrees are each shuffled, which permutes basis elements of one kind
    and so keeps the number of cells the grading allows, and every constant
    is drawn afresh.
    """
    group, bichar = GRADINGS[grading]()
    ctx = ctx or ScalarContext()
    u_degrees, w_degrees = list(degrees[:n_u]), list(degrees[n_u:])
    rng.shuffle(u_degrees)
    rng.shuffle(w_degrees)
    degrees = u_degrees + w_degrees
    n_w = len(w_degrees)
    names = [f"u{i}" for i in range(n_u)] + [f"w{i}" for i in range(n_w)]
    space = GradedSpace(group, names, degrees)
    w_indices = range(n_u, n_u + n_w)

    def targets(i, j):
        want = group.add(space.degree(i), space.degree(j))
        return [k for k in range(n_u) if space.degree(k) == want]

    dot, diamond, bracket = {}, {}, {}
    for pos, i in enumerate(w_indices):
        for j in list(w_indices)[pos:]:
            legal = targets(i, j)
            if not legal:
                continue
            k = rng.choice(legal)
            sign = bichar.sign(space.degree(i), space.degree(j))
            c = rng.choice(COEFFS)
            if i == j:
                (dot if sign == 1 else bracket)[(i, i)] = {k: ctx.scalar(c)}
            else:
                dot[(i, j)] = {k: ctx.scalar(c)}
                dot[(j, i)] = {k: ctx.scalar(sign * c)}
                bracket[(i, j)] = {k: ctx.scalar(c)}
                bracket[(j, i)] = {k: ctx.scalar(-sign * c)}
            diamond[(i, j)] = {k: ctx.scalar(rng.choice(COEFFS))}
            if i != j:
                diamond[(j, i)] = {k: ctx.scalar(rng.choice(COEFFS))}

    alpha = block_scalar_map(space, ctx, n_u, rng.choice(SCALES))
    products = {
        "dot": BilinearProduct(space, ctx, dot),
        "diamond": BilinearProduct(space, ctx, diamond),
        "bracket": BilinearProduct(space, ctx, bracket),
    }
    return AlgebraPresentation(space, bichar, ctx, products, alpha)


def count_u(A: AlgebraPresentation) -> int:
    return sum(1 for name in A.names if name.startswith("u"))


def cross_action_family(
    rng: random.Random,
    acting: AlgebraPresentation,
    module: AlgebraPresentation,
    names: tuple[str, ...],
) -> dict[str, tuple[LinearMap, ...]]:
    """Only w-elements act, mapping the module's w-span into its u-span; such
    actions satisfy every bimodule and side condition while making the
    double's cross products nonzero."""
    group = acting.space.group
    space, ctx = module.space, module.context
    acting_n_u, module_n_u = count_u(acting), count_u(module)
    out = {}
    for name in names:
        family = []
        for i in range(acting.dim):
            column_maps: list[dict] = [{} for _ in range(space.dim)]
            if i >= acting_n_u:
                for col in range(module_n_u, space.dim):
                    want = group.add(space.degree(col), acting.space.degree(i))
                    for row in range(module_n_u):
                        if space.degree(row) != want:
                            continue
                        column_maps[col][row] = ctx.scalar(rng.choice(COEFFS))
            family.append(LinearMap(space, space, ctx, column_maps, acting.space.degree(i)))
        out[name] = tuple(family)
    return out


def matched_pair(
    rng: random.Random, left: AlgebraPresentation, right: AlgebraPresentation, kind: MatchedPairKind
) -> MatchedPairData:
    """Pattern pair with annihilator-type cross actions for ``kind``."""
    names = MATCHED_ACTIONS[kind]
    ctx = left.context
    ab = ActionBundle(
        left.space, right.space, right.alpha, ctx, cross_action_family(rng, left, right, names)
    )
    ba = ActionBundle(
        right.space, left.space, left.alpha, ctx, cross_action_family(rng, right, left, names)
    )
    return MatchedPairData(left, right, ab, ba)


def perturbation_cells(A: AlgebraPresentation) -> list[tuple[str, int, int, int]]:
    """Every grading-legal unit bump of the first role, in lexicographic order."""
    role = sorted(A.roles, key=role_sort_key)[0]
    return [
        (role, i, j, k)
        for i, j in iter_product(range(A.dim), repeat=2)
        for k in graded_targets(A, i, j)
    ]


def relabel(A: AlgebraPresentation, rng: random.Random) -> AlgebraPresentation:
    """Isomorphic copy under a random basis permutation and fresh basis names."""
    n = A.dim
    order = list(range(n))
    rng.shuffle(order)  # new position p holds old basis element order[p]
    new_of = {old: new for new, old in enumerate(order)}
    tags = rng.sample(range(100), n)
    names = [f"b{tags[p]}" for p in range(n)]
    space = GradedSpace(A.space.group, names, [A.space.degree(order[p]) for p in range(n)])

    def move(cell):
        return {new_of[k]: s for k, s in cell}

    products = {
        role: BilinearProduct(
            space,
            A.context,
            {(new_of[i], new_of[j]): move(cell) for (i, j), cell in product.table.items()},
        )
        for role, product in A.products.items()
    }
    alpha = LinearMap(
        space, space, A.context, [move(A.alpha.image(order[p]).items()) for p in range(n)]
    )
    return AlgebraPresentation(space, A.bichar, A.context, products, alpha)
