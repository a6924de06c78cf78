"""homcolor: exact verification of graded (color) Hom-algebra structures.

Finite-dimensional algebras graded by an abelian group, with a sign-valued
commutation factor and an even twisting map, are represented by structure
constants over an exact scalar tower (rationals, adjoined square roots,
polynomial parameters).  The package checks every defining identity system
of the commutative-associative / Novikov / Lie / Novikov-Poisson /
transposed-Poisson / Gelfand-Dorfman families by exact zero tests, checks
the matching bimodule and representation axioms, and implements the closure
constructions (commutator brackets, twists, derived algebras, semidirect
sums, matched-pair doubles, tensor products, quotients) together with the
hypothesis checks their theorems assume.
"""

from .scalars import Scalar, ScalarContext, ScalarError, ContextMismatchError, ScalarParseError
from .grading import (
    AbelianGroup,
    Bicharacter,
    super_z2,
    z2_pow,
    z2xz2_sympl,
    zxz_total,
    trivial_grading,
)
from .reports import CheckReport, SuiteReport, PreconditionError, PASS, FAIL, PRECONDITION_FAILED
from .core import (
    AlgebraPresentation,
    BilinearProduct,
    GradedSpace,
    LinearMap,
    MissingRoleError,
    is_derivation,
    is_morphism,
    is_multiplicative,
    morphism_suite,
)
from .identities import (
    IDENTITY_CATALOG,
    StructureKind,
    check_gi_identities,
    check_identity,
    run_suite,
)
from .representations import (
    ActionBundle,
    BimoduleKind,
    check_bimodule,
    pullback_bundle,
    regular_bundle,
)
from .constructions import (
    MatchedPairData,
    MatchedPairKind,
    check_matched_pair,
    commutator_bracket,
    derived_algebra,
    double_suite_kind,
    is_ideal,
    is_subalgebra,
    matched_pair_double,
    novikov_from_derivation,
    quotient,
    semidirect_sum,
    tensor_product,
    yau_twist,
)
from .serialize import (
    LoadError,
    dump_presentation,
    dump_presentation_file,
    load_bundle,
    load_linear_map,
    load_matched_pair_file,
    load_presentation,
    load_presentation_file,
    substitute_presentation,
)

__version__ = "0.1.0"
