"""Verdicts do not depend on the basis.

Every fixture is rewritten in a seeded even integer basis
(``tests/util.change_basis``), which makes its sparse tables denser.  Under
every applicable structure kind and the GI suite, each check keeps its
status, preconditions included, and each report that does not pass gives
the dense oracle's smallest failing tuple and defect on the new data.
The twist's multiplicativity for every role, checked on its own, keeps its
status too, and a failure gives the smallest failing pair of a direct
computation of alpha(x o y) - alpha(x) o alpha(y).
"""

import pytest
from hypothesis import given, settings, strategies as st

from homcolor.core import multiplicative_checks
from homcolor.identities import (
    IDENTITY_CATALOG,
    StructureKind,
    check_gi_identities,
    required_roles,
    run_suite,
)
from homcolor.reports import PRECONDITION_FAILED
from homcolor.serialize import LoadError, load_presentation_file

from tests.conftest import FIXTURES
from tests.dense_oracle import DenseOracle, d_basis, d_sub
from tests.util import assert_reports_failure, change_basis, smallest_failure


def _fixtures():
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        if path.name == "manifest.json":
            continue
        try:
            out.append((path.name, load_presentation_file(path)[0]))
        except LoadError:
            continue
    return out


def _suites(A):
    """(name, run) for each structure kind whose roles ``A`` has, and GI."""
    out = [
        (kind.value, lambda B, kind=kind: run_suite(B, kind))
        for kind in StructureKind
        if set(required_roles(kind)) <= set(A.roles)
    ]
    if {"dot", "bracket"} <= set(A.roles):
        out.append(("gi", check_gi_identities))
    return out


def _statuses(report):
    return (report.check, report.status, tuple(_statuses(p) for p in report.preconditions))


def _vec(dense):
    return {k: s for k, s in enumerate(dense) if s.terms}


def _assert_oracle_agrees(B, oracle, report):
    """A report that does not pass gives the oracle's smallest failing
    tuple and its defect; a precondition report, each of its checks."""
    if report.status == PRECONDITION_FAILED:
        for pre in report.preconditions:
            _assert_oracle_agrees(B, oracle, pre)
        return
    if report.passed:
        return
    if report.check.startswith("multiplicative["):
        role = report.check[len("multiplicative["):-1]

        def defect(t):
            x, y = (d_basis(B, i) for i in t)
            return _vec(d_sub(
                oracle.al(oracle.mul(role, x, y)), oracle.mul(role, oracle.al(x), oracle.al(y))
            ))

        found, arity = smallest_failure((B.dim, B.dim), defect), 2
    else:
        spec, roles = IDENTITY_CATALOG[report.check], dict(report.roles)
        t = oracle.check(report.check, roles, spec.arity)
        found = None if t is None else (t, _vec(oracle.defect(report.check, roles, t)))
        arity = spec.arity
    assert found is not None, report.describe()
    assert_reports_failure(report, found, [B.names] * arity, B.space)


@pytest.mark.parametrize("name, A", _fixtures(), ids=[name for name, _ in _fixtures()])
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_verdicts_survive_an_even_change_of_basis(name, A, seed):
    B = change_basis(A, seed)
    oracle = DenseOracle(B)
    for kind, run in _suites(A):
        before, after = run(A), run(B)
        assert [_statuses(c) for c in after.checks] == [_statuses(c) for c in before.checks], kind
        for report in after.checks:
            _assert_oracle_agrees(B, oracle, report)


@pytest.mark.parametrize("name, A", _fixtures(), ids=[name for name, _ in _fixtures()])
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_multiplicativity_survives_an_even_change_of_basis(name, A, seed):
    B = change_basis(A, seed)
    before, after = multiplicative_checks(A, A.roles), multiplicative_checks(B, B.roles)
    assert [(c.check, c.status) for c in after] == [(c.check, c.status) for c in before]
    oracle = DenseOracle(B)
    for report in after:
        _assert_oracle_agrees(B, oracle, report)
