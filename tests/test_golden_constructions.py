"""Golden construction outputs: the sha256 of ``json.dumps(dump_presentation(P),
indent=2)`` for every construction case over the fixtures, or the exception
class and message of a refused case, compared with
``tests/golden_constructions.json``.  The file that ``dump_presentation_file``
writes must be the same text and a newline; a refused ``force=False`` case
writes no file, and its ``force=True`` case the pinned one.

Regenerate the file (only when an output is meant to change) with::

    PYTHONPATH=src python tests/test_golden_constructions.py --write
"""

import functools
import hashlib
import json
import pathlib
import sys

import pytest

import homcolor as hc
from homcolor.constructions import MATCHED_PAIR_TABLE, MatchedPairData, MatchedPairKind
from homcolor.reports import PreconditionError
from homcolor.representations import BIMODULE_TABLE, BimoduleKind, regular_bundle
from homcolor.serialize import (
    LoadError,
    dump_presentation,
    dump_presentation_file,
    load_presentation_file,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_constructions.json"


@functools.cache
def _fixtures() -> dict:
    """Every loadable fixture by file name: (presentation, module bundle)."""
    out = {}
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        if path.name == "manifest.json":
            continue
        try:
            out[path.name] = load_presentation_file(path)
        except LoadError:
            continue
    return out


def _applicable(P, kind: BimoduleKind) -> bool:
    return set(BIMODULE_TABLE[kind].slots.values()) <= set(P.roles)


def _first_ideal(P) -> list[str]:
    """The first basis element whose span is an ideal, else the last one
    (a refused quotient)."""
    for name in P.names:
        if hc.is_ideal(P, [name]).passed:
            return [name]
    return [P.names[-1]]


def _self_pair(P, kind: MatchedPairKind) -> MatchedPairData:
    bundle = regular_bundle(P, MATCHED_PAIR_TABLE[kind])
    return MatchedPairData(P, P, bundle, bundle)


@functools.cache
def cases() -> dict:
    """Case id -> a call that builds the case's presentation."""
    out = {}
    fixtures = _fixtures()
    for name, (P, module) in fixtures.items():
        for role in P.roles:
            out[f"{name} commutator {role}"] = lambda P=P, role=role: hc.commutator_bracket(
                P, role, "commutator"
            )
        out[f"{name} yau_twist forced"] = lambda P=P: hc.yau_twist(P, P.alpha, force=True)
        for type_ in (1, 2):
            for n in (1, 2, 3):
                out[f"{name} derived type {type_} n {n} forced"] = (
                    lambda P=P, t=type_, n=n: hc.derived_algebra(P, t, n, force=True)
                )
        for kind in BimoduleKind:
            if not _applicable(P, kind):
                continue
            for force in (False, True):
                out[f"{name} semidirect regular {kind.value} force={force}"] = (
                    lambda P=P, k=kind, f=force: hc.semidirect_sum(P, regular_bundle(P, k), k, force=f)
                )
                if module is not None:
                    out[f"{name} semidirect module {kind.value} force={force}"] = (
                        lambda P=P, M=module, k=kind, f=force: hc.semidirect_sum(P, M, k, force=f)
                    )
        for kind in MatchedPairKind:
            if not _applicable(P, MATCHED_PAIR_TABLE[kind]):
                continue
            for force in (False, True):
                out[f"{name} double {kind.value} force={force}"] = (
                    lambda P=P, k=kind, f=force: hc.matched_pair_double(_self_pair(P, k), k, force=f)
                )
        out[f"{name} quotient"] = lambda P=P: hc.quotient(P, _first_ideal(P))
        out[f"{name} derivation-product alpha forced"] = lambda P=P: hc.novikov_from_derivation(
            P, P.alpha, "derived", force=True
        )
    for left, (L, _) in fixtures.items():
        for right, (R, _) in fixtures.items():
            if L.context == R.context:
                out[f"{left} tensor {right}"] = lambda L=L, R=R: hc.tensor_product(L, R)
    return out


def outcome(build) -> dict:
    """The sha256 of the built presentation's dump, or the refusal."""
    try:
        P = build()
    except (PreconditionError, ValueError, KeyError) as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    text = json.dumps(dump_presentation(P), indent=2)
    return {"sha256": hashlib.sha256(text.encode()).hexdigest()}


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())["cases"]


def test_golden_file_covers_every_case():
    assert list(_golden()) == list(cases())


@pytest.mark.parametrize("case", list(cases()))
def test_construction_matches_golden(case):
    assert outcome(cases()[case]) == _golden()[case]


def _forced(case: str) -> str | None:
    """The ``force=True`` case of a refused ``force=False`` case that builds."""
    if "error" not in _golden().get(case, {}) or not case.endswith(" force=False"):
        return None
    forced = case.removesuffix("False") + "True"
    return forced if "sha256" in _golden().get(forced, {}) else None


@pytest.mark.parametrize(
    "case", [case for case in cases() if "sha256" in _golden().get(case, {}) or _forced(case)]
)
def test_dumped_file_matches_golden(case, tmp_path):
    path = tmp_path / "out.json"
    if _forced(case):
        # A refused build writes nothing; forced, it writes its force=True file.
        with pytest.raises(PreconditionError) as info:
            dump_presentation_file(cases()[case](), path)
        assert str(info.value) == _golden()[case]["message"]
        assert not path.exists()
        case = _forced(case)
    dump_presentation_file(cases()[case](), path)
    text = path.read_text()
    assert text.endswith("\n")
    assert hashlib.sha256(text[:-1].encode()).hexdigest() == _golden()[case]["sha256"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_constructions.py --write")
    doc = {"format": 1, "cases": {case: outcome(build) for case, build in cases().items()}}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
