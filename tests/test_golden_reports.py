"""Golden reports: the exit code and the ``--report`` bytes of ``homcolor
check`` for every applicable fixture x kind pair, compared byte for byte
with ``tests/golden_reports.json``.

Regenerate the file (only when a report is meant to change) with::

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import functools
import json
import os
import pathlib
import sys

import pytest

from homcolor import cli
from homcolor.identities import StructureKind, required_roles
from homcolor.representations import BimoduleKind
from homcolor.serialize import LoadError, load_presentation_file

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_reports.json"


def applicable_pairs() -> list[tuple[str, str]]:
    """Every (fixture, kind) pair ``homcolor check`` accepts, in a fixed order."""
    pairs = []
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        if path.name == "manifest.json":
            continue
        try:
            presentation, bundle = load_presentation_file(path)
        except LoadError:
            continue
        roles = set(presentation.roles)
        kinds = [k.value for k in StructureKind if set(required_roles(k)) <= roles]
        if {"dot", "bracket"} <= roles:
            kinds.append("gi")
        if bundle is not None:
            kinds.extend(k.value for k in BimoduleKind)
        pairs.extend((path.name, kind) for kind in kinds)
    return pairs


def run_check(name: str, kind: str, report: pathlib.Path) -> tuple[int, str]:
    """Exit code and report text of ``homcolor check fixtures/<name>``, run
    from the repository root so the report's ``input`` field is stable."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        code = cli.main(["check", f"fixtures/{name}", "--kind", kind, "--report", str(report)])
    finally:
        os.chdir(cwd)
    return code, report.read_text()


@functools.cache
def _golden() -> dict[tuple[str, str], dict]:
    doc = json.loads(GOLDEN.read_text())
    return {(entry["file"], entry["kind"]): entry for entry in doc["reports"]}


def test_golden_file_covers_every_applicable_pair():
    assert list(_golden()) == applicable_pairs()
    assert len(_golden()) == 61


@pytest.mark.parametrize("name,kind", applicable_pairs())
def test_report_bytes_match_golden(name, kind, tmp_path, capsys):
    entry = _golden()[(name, kind)]
    code, text = run_check(name, kind, tmp_path / "report.json")
    capsys.readouterr()
    assert code == entry["exit"]
    assert text == entry["report"]


def _write(scratch: pathlib.Path) -> None:
    reports = []
    for name, kind in applicable_pairs():
        code, text = run_check(name, kind, scratch / "report.json")
        reports.append({"file": name, "kind": kind, "exit": code, "report": text})
    GOLDEN.write_text(json.dumps({"format": 1, "reports": reports}, indent=1) + "\n")


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_reports.py --write")
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
        _write(pathlib.Path(scratch))
    print(f"wrote {GOLDEN}")
