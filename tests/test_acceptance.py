"""Acceptance gate: one test per exit criterion, all exact (zero tolerance).

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; timing bounds are asserted where the criterion states one.
"""

import json
import time
from itertools import product as iter_product

import pytest

import homcolor as hc
from homcolor.core import is_multiplicative
from homcolor.identities import IDENTITY_CATALOG, StructureKind, check_identity
from homcolor.serialize import LoadError, load_presentation_file

from tests import test_properties as props
from tests.conftest import FIXTURES, load
from tests.dense_oracle import DenseOracle
from tests.util import graded_targets, perturb


def _announce(number: int, label: str):
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def test_criterion_01_fixture_verification():
    """3-dim commutative associative fixture passes exactly, sqrt(2) included."""
    A = load("assoc_3dim.json")
    started = time.perf_counter()
    suite = hc.run_suite(A, StructureKind.EPS_COMM_ASSOC)
    elapsed = time.perf_counter() - started
    assert suite.passed, suite.describe()
    assert A.alpha_image(0) == {0: A.context.root("sqrt2")}
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _announce(1, "fixture verification")


def test_criterion_02_parametric_verification():
    """Parametric fixtures pass identically in their parameters."""
    for name, kind in (
        ("novikov_4dim.json", StructureKind.HOM_NOVIKOV),
        ("hnp_4dim.json", StructureKind.HNP),
    ):
        A = load(name)
        assert A.context.params, "fixture must be parametric"
        started = time.perf_counter()
        suite = hc.run_suite(A, kind)
        elapsed = time.perf_counter() - started
        assert suite.passed, suite.describe()
        assert elapsed < 1.0, f"{name} took {elapsed:.3f}s"
    _announce(2, "parametric verification")


def test_criterion_03_commutator_functor():
    """Commutator brackets reproduce the worked values and pass their suites."""
    lie = hc.commutator_bracket(load("novikov_3dim.json"), "dot")
    assert lie.mul_basis("bracket", 0, 1) == lie.vector({"e3": 2})
    assert lie.mul_basis("bracket", 1, 0) == lie.vector({"e3": -2})
    assert hc.run_suite(lie, StructureKind.HOM_LIE).passed

    pair = hc.commutator_bracket(load("hnp_transposed_4dim.json"), "diamond")
    assert pair.mul_basis("bracket", 1, 3) == pair.vector({"e3": -2})
    assert pair.mul_basis("bracket", 3, 3) == pair.vector({"e1": 4})
    # skew symmetry fixes the remaining value: [e4,e2] = -[e2,e4] = 2 e3
    assert pair.mul_basis("bracket", 3, 1) == pair.vector({"e3": 2})
    assert hc.run_suite(pair, StructureKind.TRANSPOSED_POISSON).passed
    _announce(3, "commutator functor")


def test_criterion_04_derived_algebras():
    """Derived tables: e2 .(n) e2 = 2^(2n) e1; type 2 at n = type 1 at 2^n - 1."""
    A = load("hnp_admissible_multiplicative_4dim.json")
    for n in (1, 2, 3):
        derived = hc.derived_algebra(A, 1, n, force=True)
        assert derived.mul_basis("dot", 1, 1) == {0: A.context.scalar(2 ** (2 * n))}
    for n in (1, 2):
        assert hc.derived_algebra(A, 2, n, force=True) == hc.derived_algebra(
            A, 1, 2**n - 1, force=True
        )
    _announce(4, "derived algebras")


def test_criterion_05_theorem_backed_closures():
    """Closure property family: >= 100 generated instances per construction
    (delegated to the hypothesis strategies), plus every applicable fixture."""
    # generated instances, 100 each
    props.test_twist_closure()
    props.test_semidirect_closure_with_regular_bundle()
    props.test_matched_pair_closure()
    props.test_tensor_closure()
    props.test_quotient_closure()

    # fixture instances
    synth = load("hnp_admissible_mult_synth_4dim.json")
    twisted = hc.yau_twist(synth, synth.alpha)
    assert hc.run_suite(twisted, StructureKind.ADMISSIBLE_HNP).passed

    for name, bim_kind, suite_kind in (
        ("assoc_3dim.json", hc.BimoduleKind.ASSOC_BIMODULE, StructureKind.EPS_COMM_ASSOC),
        ("novikov_4dim.json", hc.BimoduleKind.NOVIKOV_BIMODULE, StructureKind.HOM_NOVIKOV),
        ("hnp_4dim.json", hc.BimoduleKind.HNP_BIMODULE, StructureKind.HNP),
        ("gd_4dim.json", hc.BimoduleKind.GD_REP, StructureKind.HOM_GD),
        ("poly_deriv_3dim.json", hc.BimoduleKind.HNP_BIMODULE, StructureKind.HNP),
    ):
        A = load(name)
        bundle = hc.regular_bundle(A, bim_kind)
        total = hc.semidirect_sum(A, bundle, bim_kind)
        assert hc.run_suite(total, suite_kind).passed, name

    assert hc.is_ideal(load("gd_4dim.json"), ["e4"]).passed
    assert hc.run_suite(hc.quotient(load("gd_4dim.json"), ["e4"]), StructureKind.HOM_GD).passed

    # the 16-dim fixture (x) fixture case, bounded at 30 s
    A = load("hnp_admissible_4dim.json")
    started = time.perf_counter()
    tensor = hc.tensor_product(A, A)
    suite = hc.run_suite(tensor, StructureKind.ADMISSIBLE_HNP)
    elapsed = time.perf_counter() - started
    assert tensor.dim == 16 and suite.passed
    assert elapsed < 30.0, f"tensor check took {elapsed:.2f}s"
    _announce(5, "theorem-backed closures")


def test_criterion_06_admissibility_criterion():
    """Mixed left associator vanishes iff the commutator pair satisfies the
    Leibniz suite, on fixtures and on a non-admissible instance."""
    cases = [
        "hnp_4dim.json",
        "hnp_transposed_4dim.json",
        "hnp_admissible_4dim.json",
        "hnp_admissible_multiplicative_4dim.json",
        "hnp_admissible_mult_synth_4dim.json",
        "hnp_to_gd_4dim.json",
        "poly_deriv_3dim.json",
    ]
    seen_negative = False
    for name in cases:
        A = load(name)
        assert hc.run_suite(A, StructureKind.HNP).passed, name
        left = check_identity(A, "LEFT_ASSOCIATOR").passed
        pair = hc.commutator_bracket(A, "diamond")
        poisson = hc.run_suite(pair, StructureKind.HOM_POISSON).passed
        assert left == poisson, f"{name}: associator={left}, leibniz={poisson}"
        seen_negative |= not left
    assert seen_negative, "battery must include a non-admissible instance"
    _announce(6, "admissibility criterion")


ORACLE_FIXTURES = [
    "assoc_3dim.json",
    "novikov_3dim.json",
    "novikov_4dim.json",
    "hnp_4dim.json",
    "hnp_4dim_perturbed.json",
    "hnp_transposed_4dim.json",
    "hnp_admissible_4dim.json",
    "hnp_admissible_multiplicative_4dim.json",
    "hnp_admissible_mult_synth_4dim.json",
    "gd_4dim.json",
    "hnp_to_gd_4dim.json",
    "gd_multiplicative_4dim.json",
    "zero_2dim.json",
    "poly_deriv_3dim.json",
]


def test_criterion_07_oracle_equivalence():
    """Dense naive evaluator agrees with the sparse kernel on every verdict
    and witness for every fixture of dimension <= 4."""
    compared = 0
    for name in ORACLE_FIXTURES:
        A = load(name)
        assert A.dim <= 4
        oracle = DenseOracle(A)
        for tag, spec in IDENTITY_CATALOG.items():
            binding = dict(spec.defaults)
            if not set(binding.values()) <= set(A.roles):
                continue
            kernel = check_identity(A, tag)
            if kernel.status == hc.PRECONDITION_FAILED:
                continue  # the oracle has no precondition notion
            expected = oracle.check(tag, binding, spec.arity)
            if expected is None:
                assert kernel.passed, f"{name}:{tag}"
            else:
                assert not kernel.passed, f"{name}:{tag}"
                assert kernel.witness == tuple(A.names[i] for i in expected), f"{name}:{tag}"
            compared += 1
    assert compared > 100
    _announce(7, "oracle equivalence")


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


def _first_failing_perturbation(A, kind):
    """First grading-legal unit bump of a single structure constant that
    breaks the suite, scanning cells in lexicographic order."""
    role = sorted(A.roles, key=hc.core.role_sort_key)[0]
    for i, j in iter_product(range(A.dim), repeat=2):
        for k in graded_targets(A, i, j):
            candidate = perturb(A, role, i, j, k, 1)
            suite = hc.run_suite(candidate, kind)
            if not suite.passed:
                return candidate, suite
    return None, None


def test_criterion_08_negative_determinism():
    """Single-constant perturbations fail with the lexicographically smallest
    witness, identically across repeated runs."""
    exercised = 0
    for name, kind in SUITE_FOR_FIXTURE.items():
        A = load(name)
        candidate, suite = _first_failing_perturbation(A, kind)
        if candidate is None:
            continue  # no grading-legal cell can break this fixture's suite
        exercised += 1
        failing = next(c for c in suite.checks if not c.passed)
        spec = IDENTITY_CATALOG[failing.check]
        oracle = DenseOracle(candidate)
        smallest = oracle.check(failing.check, dict(failing.roles), spec.arity)
        assert failing.witness == tuple(candidate.names[i] for i in smallest), name
        again = hc.run_suite(candidate, kind)
        repeat = next(c for c in again.checks if not c.passed)
        assert (repeat.check, repeat.witness, repeat.defect) == (
            failing.check, failing.witness, failing.defect,
        ), name
    assert exercised >= 8, f"only {exercised} fixtures had breaking perturbations"
    _announce(8, "negative determinism")


def test_criterion_09_discrepancy_ledger():
    """The 'multiplicative' table's twist fails multiplicativity exactly at
    (e2, e4); the manifest records it and the tools report, never repair."""
    A = load("hnp_admissible_multiplicative_4dim.json")
    report = is_multiplicative(A, "dot")
    assert report.status == hc.FAIL
    assert report.witness == ("e2", "e4")

    manifest = json.loads((FIXTURES / "manifest.json").read_text())
    entry = next(
        e for e in manifest["fixtures"]
        if e["file"] == "hnp_admissible_multiplicative_4dim.json"
    )
    assert entry["multiplicative"]["dot"]["expected"] == "discrepancy"
    assert entry["multiplicative"]["dot"]["witness"] == ["e2", "e4"]

    # consumers surface the failure as a precondition, not a crash or a pass
    with pytest.raises(hc.PreconditionError):
        hc.derived_algebra(A, 1, 1)
    gi = hc.check_gi_identities(hc.commutator_bracket(A, "diamond"))
    assert gi.status == hc.PRECONDITION_FAILED
    witnesses = {
        r.witness for r in gi.checks[0].preconditions if r.check.startswith("multiplicative")
    }
    assert ("e2", "e4") in witnesses

    # the verbatim transcription of the diamond table cannot even load
    with pytest.raises(LoadError, match="not graded"):
        load_presentation_file(FIXTURES / "hnp_admissible_multiplicative_4dim_verbatim.json")
    _announce(9, "discrepancy ledger")


def test_criterion_10_gi_identity_suite():
    """GI_1..GI_4 pass on multiplicative transposed pairs; arity-4 checks on
    a 4-dim basis complete inside 10 s."""
    for name in ("hnp_admissible_mult_synth_4dim.json", "poly_deriv_3dim.json"):
        pair = hc.commutator_bracket(load(name), "diamond")
        for role in ("dot", "bracket"):
            assert is_multiplicative(pair, role).passed, name
        started = time.perf_counter()
        suite = hc.check_gi_identities(pair)
        elapsed = time.perf_counter() - started
        assert suite.passed, suite.describe()
        assert [c.check for c in suite.checks] == ["GI_1", "GI_2", "GI_3", "GI_4"]
        assert elapsed < 10.0, f"{name} took {elapsed:.2f}s"
    _announce(10, "gi identity suite")
