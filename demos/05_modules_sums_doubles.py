"""Bimodules, semidirect sums, and matched-pair doubles.

A bundle is a bimodule exactly when its semidirect sum A (+) V is an
algebra of the kind, so the bimodule check is the kind's suite run on that
sum: an algebra passing its suite has a regular bundle (the algebra acting
on itself) that passes, and a bundle over an algebra failing its suite
fails too.  Once the check passes, the semidirect sum is that same sum.
Matched pairs carry actions in both directions and are checked the same
way, as their double, which must pass the kind's suite; the double
collapses to the semidirect sum when one side acts by zero.
"""

import pathlib

from homcolor import (
    ActionBundle,
    BimoduleKind,
    MatchedPairData,
    MatchedPairKind,
    StructureKind,
    check_bimodule,
    check_matched_pair,
    matched_pair_double,
    regular_bundle,
    run_suite,
    semidirect_sum,
)
from homcolor.core import AlgebraPresentation, LinearMap
from homcolor.serialize import load_presentation_file

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

A, _ = load_presentation_file(FIXTURES / "hnp_4dim.json")
bundle = regular_bundle(A, BimoduleKind.HNP_BIMODULE)
print(check_bimodule(A, bundle, BimoduleKind.HNP_BIMODULE).describe())

total = semidirect_sum(A, bundle, BimoduleKind.HNP_BIMODULE)
print("semidirect sum: dim", total.dim, "basis", total.names)
print("semidirect suite:", run_suite(total, StructureKind.HNP).status)
print()

# An algebra that is not eps-commutative (its dot is perturbed) has no
# bimodule of the kind, not even its regular one: the sum fails on A's block.
P, _ = load_presentation_file(FIXTURES / "hnp_4dim_perturbed.json")
print(check_bimodule(P, regular_bundle(P, BimoduleKind.HNP_BIMODULE), BimoduleKind.HNP_BIMODULE).describe())
print()

# Matched pair with a zero-product partner acting by zero: the double
# passes the suite and restricts to A on its block.
from homcolor.core import BilinearProduct, GradedSpace

ctx = A.context
Bspace = GradedSpace(A.space.group, ["f1", "f2"], [[0], [1]])
B = AlgebraPresentation(
    Bspace, A.bichar, ctx,
    {role: BilinearProduct(Bspace, ctx, {}) for role in A.roles},
    LinearMap.identity(Bspace, ctx),
)
names = ("s", "l", "r")
ab = ActionBundle(A.space, Bspace, B.alpha, ctx, {
    n: tuple(LinearMap.zero(Bspace, Bspace, ctx, A.space.degree(i)) for i in range(A.dim))
    for n in names
})
ba = ActionBundle(Bspace, A.space, A.alpha, ctx, {
    n: tuple(LinearMap.zero(A.space, A.space, ctx, Bspace.degree(j)) for j in range(B.dim))
    for n in names
})
pair = MatchedPairData(A, B, ab, ba)
print("matched pair:", check_matched_pair(pair, MatchedPairKind.HNP).status)
double = matched_pair_double(pair, MatchedPairKind.HNP)
print("double: dim", double.dim, "suite:", run_suite(double, StructureKind.HNP).status)
