"""Batch front end: load JSON inputs, run suites or constructions, emit reports.

Exit codes: 0 all checks pass, 1 an identity fails, 2 a precondition fails,
3 parse, usage or validation error, or out of memory.  Reports are JSON with
a fixed field order; identical inputs give byte-identical reports (timings
opt in via --timings).
"""

from __future__ import annotations

import argparse
import functools
import sys
from enum import Enum
from typing import Callable, Mapping, NamedTuple

from .constructions import (
    MatchedPairKind,
    _checked_double,
    commutator_bracket,
    derived_algebra,
    double_suite_kind,
    novikov_from_derivation,
    quotient,
    tensor_product,
    yau_twist,
    semidirect_sum,
)
from .core import AlgebraPresentation
from .identities import StructureKind, check_gi_identities, run_suite
from .reports import FAIL, PASS, PRECONDITION_FAILED, PreconditionError, SuiteReport, json_text
from .representations import BIMODULE_TABLE, BimoduleKind, check_bimodule
from .serialize import (
    LoadError,
    _read_json,
    _reason,
    dump_presentation_file,
    load_linear_map,
    load_matched_pair_file,
    load_presentation_file,
    substitute_presentation,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PRECONDITION = 2
EXIT_ERROR = 3

_STATUS_EXIT = {PASS: EXIT_PASS, FAIL: EXIT_FAIL, PRECONDITION_FAILED: EXIT_PRECONDITION}

STRUCTURE_KINDS = {kind.value: kind for kind in StructureKind}
BIMODULE_KINDS = {kind.value: kind for kind in BimoduleKind}
MATCHED_KINDS = {kind.value: kind for kind in MatchedPairKind}


def _parse_subst(items: list[str]) -> dict[str, str]:
    out = {}
    for item in items:
        if "=" not in item:
            raise LoadError(f"expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        out[name.strip()] = value.strip()
    return out


def _report_doc(input_path: str, kind: str, suite: SuiteReport, include_timing: bool) -> dict:
    return {
        "format": 1,
        "input": str(input_path),
        "kind": kind,
        "status": suite.status,
        "passed": suite.passed,
        "report": suite.to_dict(include_timing),
    }


def _emit(suite: SuiteReport, args, kind: str) -> int:
    print(suite.describe())
    if getattr(args, "report", None):
        doc = _report_doc(args.input, kind, suite, args.timings)
        with open(args.report, "w") as handle:
            handle.write(json_text(doc) + "\n")
    return _STATUS_EXIT[suite.status]


def cmd_check(args) -> int:
    kind = args.kind
    presentation, bundle = load_presentation_file(args.input)
    if args.subst:
        try:
            presentation = substitute_presentation(presentation, _parse_subst(args.subst))
        except ValueError as exc:
            raise LoadError(f"--subst: {_reason(exc)}") from exc
    if kind in STRUCTURE_KINDS:
        suite = run_suite(presentation, STRUCTURE_KINDS[kind])
    elif kind in BIMODULE_KINDS:
        if bundle is None:
            raise LoadError("input has no 'module' block, required for bimodule kinds")
        suite = check_bimodule(presentation, bundle, BIMODULE_KINDS[kind])
    else:
        suite = check_gi_identities(presentation)
    return _emit(suite, args, kind)


# Each construct builder reads its inputs and options from ``args``, which
# its subparser declares with the construction's defaults.  It returns the
# result and, when the build checked the result with a structure suite,
# that suite's report, labelled as run_suite labels it; otherwise None.
Built = tuple[AlgebraPresentation, SuiteReport | None]


def _input(path: str) -> AlgebraPresentation:
    return load_presentation_file(path)[0]


def _twist(args) -> Built:
    presentation = _input(args.input)
    twist_map = load_linear_map(args.map, presentation) if args.map else presentation.alpha
    return yau_twist(presentation, twist_map, force=args.force), None


def _semidirect(args) -> Built:
    presentation, bundle = load_presentation_file(args.input)
    if bundle is None:
        raise LoadError("input has no 'module' block, required for semidirect")
    kind = BIMODULE_KINDS[args.kind]
    total = semidirect_sum(presentation, bundle, kind, force=args.force)
    # The bundle keeps the reports of the kind's suite on the sum, so this
    # check evaluates nothing.
    checks = check_bimodule(presentation, bundle, kind).checks
    return total, SuiteReport(BIMODULE_TABLE[kind].suite.value, checks)


def _matched_pair(args) -> Built:
    kind = MATCHED_KINDS[args.kind]
    pair = load_matched_pair_file(args.input)
    double, report = _checked_double(pair, kind, refuse=not args.force)
    return double, SuiteReport(double_suite_kind(kind).value, report.checks)


def _derivation_product(args) -> Built:
    presentation = _input(args.input)
    derivation = load_linear_map(args.map, presentation)
    return novikov_from_derivation(presentation, derivation, args.to_role, args.force), None


def _tensor(args) -> Built:
    # A factor named twice is read once; tensor_product then checks it once.
    left = _input(args.left)
    right = left if args.right == args.left else _input(args.right)
    return tensor_product(left, right, force=args.force), None


def _names(text: str) -> list[str]:
    """The basis names of a comma-separated list, none of them empty."""
    names = [n.strip() for n in text.split(",")]
    if not all(names):
        raise argparse.ArgumentTypeError(f"expected NAME[,NAME...], got {text!r}")
    return names


class _Construction(NamedTuple):
    """A construction: its builder, the options it reads besides --out and
    --verify, its defaults for them by destination, its positional inputs,
    its --kind choices, the suite that --verify auto runs for a kind, if it
    has one, and the options it cannot run without."""

    build: Callable[[argparse.Namespace], Built]
    reads: tuple[str, ...]
    defaults: Mapping[str, str] = {}
    inputs: tuple[str, ...] = ("input",)
    kinds: Mapping[str, Enum] = {}
    auto: Callable[[Enum], StructureKind] | None = None
    requires: tuple[str, ...] = ()


_CONSTRUCTIONS = {
    "commutator": _Construction(
        lambda args: (commutator_bracket(_input(args.input), args.from_role, args.to_role), None),
        ("--from", "--to"), {"to_role": "bracket"},
    ),
    "twist": _Construction(_twist, ("--force", "--map")),
    "derived": _Construction(
        lambda args: (derived_algebra(_input(args.input), args.type, args.n, force=args.force), None),
        ("--force", "--type", "--n"),
    ),
    "semidirect": _Construction(
        _semidirect, ("--force", "--kind"), {"kind": "assoc_bimodule"}, kinds=BIMODULE_KINDS
    ),
    "matched-pair": _Construction(
        _matched_pair, ("--force", "--kind"), {"kind": "hnp"}, kinds=MATCHED_KINDS,
        auto=double_suite_kind,
    ),
    "tensor": _Construction(_tensor, ("--force",), inputs=("left", "right")),
    "quotient": _Construction(
        lambda args: (quotient(_input(args.input), args.ideal), None), ("--ideal",),
        requires=("--ideal",),
    ),
    "derivation-product": _Construction(
        _derivation_product, ("--force", "--to", "--map"), {"to_role": "diamond"},
        requires=("--map",),
    ),
}
# The flags and add_argument keywords of each construct option; a row adds
# its defaults and, for --kind, its choices.
_OPTIONS = {
    "--force": (("--force",), {"action": "store_true", "help": "build even if preconditions fail"}),
    "--from": (("--from", "--from-role"), {"dest": "from_role", "default": "dot"}),
    "--to": (("--to", "--to-role"), {"dest": "to_role"}),
    "--type": (("--type",), {"type": int, "default": 1, "choices": (1, 2)}),
    "--n": (("--n",), {"type": int, "default": 1}),
    "--kind": (("--kind",), {"help": "bimodule or matched-pair kind"}),
    "--ideal": (("--ideal",), {"type": _names, "help": "comma-separated basis names"}),
    "--map": (("--map",), {"help": "JSON file with a 'map' matrix"}),
}


def cmd_construct(args) -> int:
    spec = _CONSTRUCTIONS[args.name]
    result, checked = spec.build(args)

    if args.out:
        dump_presentation_file(result, args.out)
        print(f"wrote {args.out}")
    if not args.verify:
        return EXIT_PASS
    verify = args.verify
    kind = spec.auto(spec.kinds[args.kind]) if verify == "auto" else STRUCTURE_KINDS[verify]
    # A build that checked its result with this suite hands its report on.
    suite = checked if checked is not None and checked.kind == kind.value else run_suite(result, kind)
    print(suite.describe())
    return _STATUS_EXIT[suite.status]


_TYPE_NAMES = {str: "a string", list: "a list"}


def _fields(where: str, doc, fields: dict[str, type]) -> list:
    """The values of ``fields`` in the object ``doc``, each checked to be
    present and of its type; ``where`` names the document in errors."""
    if not isinstance(doc, dict):
        raise LoadError(f"{where}: expected an object, got {type(doc).__name__}")
    for field, kind in fields.items():
        if field not in doc:
            raise LoadError(f"{where}: missing field {field!r}")
        if not isinstance(doc[field], kind):
            raise LoadError(
                f"{where}: field {field!r} must be {_TYPE_NAMES[kind]}, "
                f"got {type(doc[field]).__name__}"
            )
    return [doc[field] for field in fields]


def _manifest(path: str) -> dict[tuple[str, str], str]:
    """The manifest's expected verdicts keyed by (fixture file, kind)."""
    where = f"malformed manifest {path}"
    [fixtures] = _fields(where, _read_json(path), {"fixtures": list})
    expected = {}
    for e, entry in enumerate(fixtures):
        file, checks = _fields(f"{where}: fixtures[{e}]", entry, {"file": str, "checks": list})
        for c, check in enumerate(checks):
            kind, verdict = _fields(
                f"{where}: fixtures[{e}].checks[{c}]", check, {"kind": str, "expected": str}
            )
            expected[(file, kind)] = verdict
    return expected


def cmd_report(args) -> int:
    expected = _manifest(args.manifest) if args.manifest else {}
    rows = []
    worst = EXIT_PASS
    for path in args.inputs:
        where = f"malformed report file {path}"
        fields = {"input": str, "kind": str, "status": str}
        fixture, kind, status = _fields(where, _read_json(path), fields)
        if status not in _STATUS_EXIT:
            raise LoadError(
                f"{where}: field 'status' is {status!r}, not one of {', '.join(_STATUS_EXIT)}"
            )
        note = ""
        want = expected.get((fixture.rsplit("/", 1)[-1], kind))
        if want == "discrepancy":
            note = (
                "expected discrepancy" if status != PASS else "MANIFEST MISMATCH: discrepancy expected"
            )
        elif want is not None and want != status:
            note = f"MANIFEST MISMATCH: expected {want}"
        if not note.startswith("expected"):
            worst = max(worst, _STATUS_EXIT[status])
        rows.append((fixture, kind, status, note))
    if rows:
        width = max(len(r[0]) for r in rows)
        kwidth = max(len(r[1]) for r in rows)
        for fixture, kind, status, note in rows:
            line = f"{fixture:<{width}}  {kind:<{kwidth}}  {status.upper()}"
            if note:
                line += f"  [{note}]"
            print(line)
    return worst


# The namespace attribute that collects the unread options and their values.
_UNREAD = "_unread"


class _Unread(argparse.Action):
    """An option that this parser does not read: a construct option of
    another construction, or an option of the other subcommand.  It takes
    the value that follows it, as the option does where it is read, so that
    the value is not taken for an input; ``_Parser`` refuses both."""

    def __call__(self, parser, namespace, values, option_string=None):
        unread = vars(namespace).setdefault(_UNREAD, [])
        unread.append(option_string)
        if isinstance(values, str):
            unread.append(values)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error like every other parse error: exit 3 and an
    ``error:`` line, after the usage.  Subparsers are built by this class
    too, and each refuses the arguments it does not recognize, and the
    construct options it does not read, with its own usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        refused = vars(namespace).pop(_UNREAD, []) + extras
        if refused:
            self.error(f"unrecognized arguments: {' '.join(refused)}")
        return namespace, extras


def _unread(parser: argparse.ArgumentParser, flags: tuple[str, ...], keywords: dict) -> None:
    """Declare ``flags`` on ``parser`` as a hidden :class:`_Unread` option
    that takes a value unless the option is a switch.  It sets no namespace
    attribute, not even a default, since nothing reads one."""
    nargs = 0 if keywords.get("action") == "store_true" else "?"
    hide = argparse.SUPPRESS
    parser.add_argument(*flags, action=_Unread, nargs=nargs, dest=hide, default=hide, help=hide)


# The options of ``check`` besides its input and --kind.
_CHECK_OPTIONS = {
    "--report": {"help": "write a JSON report to this path"},
    "--subst": {"action": "append", "default": [], "metavar": "NAME=VALUE"},
    "--timings": {"action": "store_true", "help": "include timings in reports"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="homcolor",
        description="Exact identity checking and constructions for graded Hom-algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run an identity or bimodule suite on an input file")
    check.add_argument("input")
    check.add_argument(
        "--kind",
        required=True,
        choices=sorted(STRUCTURE_KINDS) + sorted(BIMODULE_KINDS) + ["gi"],
    )
    for flag, keywords in _CHECK_OPTIONS.items():
        check.add_argument(flag, **keywords)
    for flag, (flags, keywords) in _OPTIONS.items():
        if flag != "--kind":
            _unread(check, flags, keywords)
    for flag in ("--out", "--verify"):
        _unread(check, (flag,), {})
    check.set_defaults(func=cmd_check)

    construct = sub.add_parser("construct", help="run a construction and emit the result")
    construct.set_defaults(func=cmd_construct)
    constructions = construct.add_subparsers(dest="name", required=True)
    for name, spec in _CONSTRUCTIONS.items():
        one = constructions.add_parser(name)
        for positional in spec.inputs:
            one.add_argument(positional)
        one.add_argument("--out", help="write the constructed presentation here")
        one.add_argument(
            "--verify",
            choices=sorted(STRUCTURE_KINDS) + (["auto"] if spec.auto else []),
            help="run this structure suite on the output",
        )
        for flag, keywords in _CHECK_OPTIONS.items():
            _unread(one, (flag,), keywords)
        for flag, (flags, keywords) in _OPTIONS.items():
            if flag not in spec.reads:
                _unread(one, flags, keywords)
                continue
            if flag == "--kind":
                keywords = {**keywords, "choices": sorted(spec.kinds)}
            one.add_argument(*flags, required=flag in spec.requires, **keywords)
        # After the options: a parser default replaces its option's default.
        one.set_defaults(**spec.defaults)

    report = sub.add_parser("report", help="aggregate JSON reports into a summary table")
    report.add_argument("inputs", nargs="*")
    report.add_argument("--manifest", default=None, help="fixture manifest with expected verdicts")
    report.set_defaults(func=cmd_report)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call to ``main``, not at import, and reused: parsing
    # leaves no state in the parser (append actions copy their default list).
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition failure: {exc.describe()}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message.
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print(f"error: homcolor {args.command} ran out of memory", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
