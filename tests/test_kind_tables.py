"""What the bimodule and matched-pair kind tables decide, pinned by behaviour.

For every matched-pair kind: the ordered check names of
``check_matched_pair`` on a pair of regular bundles (the member identities
of the double's suite), the digest of its reports, and
``double_suite_kind``.  For
every bimodule kind: the actions ``check_bimodule`` requires, the actions of
its regular bundle, its check names (the member identities of its
semidirect sum's suite) and the digest of its reports.  Only
public names are used, so the pins hold whatever tables produce them.
"""

import hashlib
import json

import pytest

import homcolor as hc
from homcolor.constructions import MatchedPairData, MatchedPairKind
from homcolor.core import LinearMap
from homcolor.representations import ActionBundle, BimoduleKind, regular_bundle

from tests.conftest import load
from tests.util import bump_corner

BIMODULE_ACTIONS = {
    BimoduleKind.ASSOC_BIMODULE: {"s"},
    BimoduleKind.NOVIKOV_BIMODULE: {"l", "r"},
    BimoduleKind.LIE_REP: {"rho"},
    BimoduleKind.HNP_BIMODULE: {"s", "l", "r"},
    BimoduleKind.GD_REP: {"l", "r", "rho"},
}

# Per matched-pair kind: the bimodule kind of its cross bundles, the suite
# its double must pass and that suite's checks.
NOVIKOV = ["NOVIKOV_LSYM", "NOVIKOV_RCOMM"]
MATCHED = {
    MatchedPairKind.ASSOC: (
        BimoduleKind.ASSOC_BIMODULE, hc.StructureKind.EPS_COMM_ASSOC, ["EPS_COMM", "HOM_ASSOC"],
    ),
    MatchedPairKind.NOVIKOV: (BimoduleKind.NOVIKOV_BIMODULE, hc.StructureKind.HOM_NOVIKOV, NOVIKOV),
    MatchedPairKind.LIE: (BimoduleKind.LIE_REP, hc.StructureKind.HOM_LIE, ["LIE_SKEW", "LIE_JACOBI"]),
    MatchedPairKind.HNP: (
        BimoduleKind.HNP_BIMODULE,
        hc.StructureKind.HNP,
        ["EPS_COMM", "HOM_ASSOC", *NOVIKOV, "HNP_COMPAT_1", "HNP_COMPAT_2"],
    ),
    MatchedPairKind.GD: (
        BimoduleKind.GD_REP, hc.StructureKind.HOM_GD, [*NOVIKOV, "LIE_SKEW", "LIE_JACOBI", "GD_COMPAT"],
    ),
}
# A bimodule's checks are its semidirect sum's suite: the suite the double
# of its matched-pair kind must pass.
BIMODULE_CHECKS = {bimodule: checks for bimodule, _, checks in MATCHED.values()}

# Fixtures for each kind: each acting on itself, plain and with a corner
# structure constant bumped (``tests/util.bump_corner``), so that reports
# carry witnesses.
FIXTURES = {
    BimoduleKind.ASSOC_BIMODULE: ("assoc_3dim.json", "novikov_3dim.json"),
    BimoduleKind.NOVIKOV_BIMODULE: ("novikov_3dim.json", "hnp_4dim.json"),
    BimoduleKind.LIE_REP: ("gd_4dim.json", "zero_2dim.json"),
    BimoduleKind.HNP_BIMODULE: ("hnp_4dim.json", "hnp_4dim_perturbed.json"),
    BimoduleKind.GD_REP: ("gd_4dim.json", "gd_multiplicative_4dim.json"),
}

# sha256 of the JSON of every report, over the presentations of FIXTURES
# in order (each plain, then bumped), cut to 16 hex digits.
BIMODULE_DIGESTS = {
    BimoduleKind.ASSOC_BIMODULE: "1c68d62d701f7219",
    BimoduleKind.NOVIKOV_BIMODULE: "b947c479bbdbed67",
    BimoduleKind.LIE_REP: "424ffb16cd40b9dd",
    BimoduleKind.HNP_BIMODULE: "70527273e30a5006",
    BimoduleKind.GD_REP: "f538aba4626fe1fc",
}
MATCHED_DIGESTS = {
    MatchedPairKind.ASSOC: "1c68d62d701f7219",
    MatchedPairKind.NOVIKOV: "b947c479bbdbed67",
    MatchedPairKind.LIE: "424ffb16cd40b9dd",
    MatchedPairKind.HNP: "ada0431a39850ec6",
    MatchedPairKind.GD: "f538aba4626fe1fc",
}


def _presentations(kind: BimoduleKind):
    out = []
    for name in FIXTURES[kind]:
        P = load(name)
        out += [P, bump_corner(P)]
    return out


def _digest(reports) -> str:
    text = json.dumps([[c.to_dict() for c in report.checks] for report in reports])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _matched_pair_reports(kind: MatchedPairKind):
    bimodule_kind = MATCHED[kind][0]
    reports = []
    for P in _presentations(bimodule_kind):
        bundle = regular_bundle(P, bimodule_kind)
        reports.append(hc.check_matched_pair(MatchedPairData(P, P, bundle, bundle), kind))
    return reports


@pytest.mark.parametrize("kind", list(MatchedPairKind), ids=lambda k: k.value)
def test_matched_pair_check_order(kind):
    _, suite, want = MATCHED[kind]
    reports = _matched_pair_reports(kind)
    for report in reports:
        assert report.kind == f"matched_pair[{kind.value}]"
        assert [c.check for c in report.checks] == want
    assert _digest(reports) == MATCHED_DIGESTS[kind]
    assert hc.double_suite_kind(kind) is suite


@pytest.mark.parametrize("kind", list(BimoduleKind), ids=lambda k: k.value)
def test_bimodule_actions_and_check_order(kind):
    presentations = _presentations(kind)
    reports = []
    for P in presentations:
        bundle = regular_bundle(P, kind)
        assert set(bundle.actions) == BIMODULE_ACTIONS[kind]
        report = hc.check_bimodule(P, bundle, kind)
        assert [c.check for c in report.checks] == BIMODULE_CHECKS[kind]
        reports.append(report)
    assert _digest(reports) == BIMODULE_DIGESTS[kind]

    # An action is required when a bundle without it is refused.
    P = presentations[0]
    zero = tuple(LinearMap.zero(P.space, P.space, P.context, d) for d in P.space.degrees)
    every = {"s": zero, "l": zero, "r": zero, "rho": zero}
    required = set()
    for name in every:
        rest = {other: family for other, family in every.items() if other != name}
        bundle = ActionBundle(P.space, P.space, P.alpha, P.context, rest)
        try:
            hc.check_bimodule(P, bundle, kind)
        except ValueError as exc:
            assert f"no action {name!r}" in str(exc)
            required.add(name)
    assert required == BIMODULE_ACTIONS[kind]
