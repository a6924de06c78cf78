"""Traced run: wrappers around homcolor's functions, installed from outside.

The package itself has no instrumentation, so the benchmark wraps functions
of each layer (the modules ``cli``, ``serialize``, ``reports``,
``constructions``, ``representations``, ``identities``, ``core``, ``grading``
and ``scalars``) and rebinds every name under which a caller looks one up:
module globals imported by name (``identities`` imports ``vec_add`` and
``is_multiplicative``, ``cli`` imports ``run_suite``) and class attributes
(``Scalar.__radd__`` is the same function as ``__add__``).  Everything is
restored by :meth:`Tracer.uninstall`.

Coarse calls record spans (name, start, end, parent span) kept in memory;
hot functions (scalar arithmetic, signs, products, map application) record
only counts and self time, since a span per call would mean millions of
spans.  Self time comes from one call stack shared by both kinds: a frame's
self time is its duration minus the time of the wrapped calls nested in it.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

from homcolor import cli, constructions, core, grading, identities, representations, scalars, serialize
from homcolor.identities import IDENTITY_CATALOG
from homcolor.reports import FAIL, PRECONDITION_FAILED, PreconditionError

LAYERS = (
    "cli", "serialize", "reports", "constructions", "representations",
    "identities", "core", "grading", "scalars",
)

# (key, owner, attribute): keys are "<layer>.<name>"; owner is a module or class
COARSE = (
    ("cli.main", cli, "main"),
    ("reports.emit", cli, "_emit"),  # describe + to_dict + json.dump of --report
    ("serialize.load", serialize, "load_presentation_file"),
    ("serialize.dump", serialize, "dump_presentation_file"),
    ("identities.run_suite", identities, "run_suite"),
    ("identities.check_identity", identities, "check_identity"),
    ("identities.check_gi_identities", identities, "check_gi_identities"),
    ("representations.check_bimodule", representations, "check_bimodule"),
    ("representations.regular_bundle", representations, "regular_bundle"),
    ("representations.pullback_bundle", representations, "pullback_bundle"),
    ("core.is_multiplicative", core, "is_multiplicative"),
    ("core.is_derivation", core, "is_derivation"),
    ("core.is_morphism", core, "is_morphism"),
) + tuple(
    (f"constructions.{name}", constructions, name)
    for name in (
        "commutator_bracket", "yau_twist", "derived_algebra", "semidirect_sum",
        "check_matched_pair", "matched_pair_double", "tensor_product", "quotient",
        "is_ideal", "is_subalgebra", "novikov_from_derivation",
    )
)

HOT = (
    ("scalars.mul", scalars.Scalar, "__mul__"),
    ("scalars.add", scalars.Scalar, "__add__"),
    ("scalars.sub", scalars.Scalar, "__sub__"),
    ("scalars.rsub", scalars.Scalar, "__rsub__"),
    ("scalars.neg", scalars.Scalar, "__neg__"),
    ("scalars.parse", scalars.ScalarContext, "parse"),
    ("grading.sign", grading.Bicharacter, "sign"),
    ("core.mul", core.AlgebraPresentation, "mul"),
    ("core.mul_basis", core.AlgebraPresentation, "mul_basis"),
    ("core.eps", core.AlgebraPresentation, "eps"),
    ("core.eps_deg", core.AlgebraPresentation, "eps_deg"),
    ("core.alpha_image", core.AlgebraPresentation, "alpha_image"),
    ("core.apply", core.LinearMap, "apply"),
    ("core.vec_add", core, "vec_add"),
    ("core.vec_sub", core, "vec_sub"),
    ("core.vec_neg", core, "vec_neg"),
    ("core.vec_scale", core, "vec_scale"),
)

STRUCTURAL = {"core.is_multiplicative", "core.is_derivation", "core.is_morphism"}
VERIFICATION = STRUCTURAL | {
    "identities.run_suite", "identities.check_identity", "identities.check_gi_identities",
    "representations.check_bimodule", "constructions.check_matched_pair",
    "constructions.is_ideal", "constructions.is_subalgebra",
}


class Tracer:
    """Owns the wrappers, the call stack, spans and counters of one traced run."""

    def __init__(self):
        self.stack: list[list] = []  # [start, child seconds, span index or -1]
        self.spans: list[list] = []  # [key, start, end, parent span index]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.max_terms = 0
        # per scanned check: (tuples scanned, tuple space, seconds, arity, failed)
        self.check_tuples: list[tuple[int, int, float, int, bool]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------------

    def _wrap(self, key: str, fn, span: bool, observe=None):
        stack, spans, calls, self_s = self.stack, self.spans, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            index = -1
            if span:
                parent = next((f[2] for f in reversed(stack) if f[2] >= 0), -1)
                index = len(spans)
                spans.append([key, start, 0.0, parent])
            frame = [start, 0.0, index]
            stack.append(frame)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                stack.pop()
                if observe is not None:
                    observe(args, result, error, clock() - start)
                # The wrapper's own bookkeeping is charged to this call, not
                # to its caller: the caller's child time is read last.
                calls[key] += 1
                if span:
                    spans[index][2] = clock()
                self_s[key] += clock() - start - frame[1]
                if stack:
                    stack[-1][1] += clock() - start

        return wrapper

    def _observers(self) -> dict:
        """Per-key hooks that read a wrapped call's arguments, result and
        duration; their own time is charged to the wrapped call."""

        def terms(args, result, error, elapsed):
            if result is not None and result is not NotImplemented:
                if len(result.terms) > self.max_terms:
                    self.max_terms = len(result.terms)

        def mul(args, result, error, elapsed):
            if result:
                self.counts["core.mul.nonzero"] += 1

        def load(args, result, error, elapsed):
            self.counts["serialize.load.bytes"] += os.path.getsize(args[0])

        def emit(args, result, error, elapsed):
            path = getattr(args[1], "report", None)
            if path:
                self.counts["reports.bytes"] += os.path.getsize(path)

        def check(args, result, error, elapsed):
            if result is None or result.status == PRECONDITION_FAILED:
                return
            presentation, tag = args[0], args[1]
            arity, n = IDENTITY_CATALOG[tag].arity, presentation.dim
            space = n**arity
            scanned = space
            if result.status == FAIL:
                rank = 0
                for name in result.witness:
                    rank = rank * n + presentation.space.index(name)
                scanned = rank + 1
            self.check_tuples.append((scanned, space, elapsed, arity, result.status == FAIL))

        def construction(args, result, error, elapsed):
            if isinstance(error, PreconditionError):
                self.counts["constructions.refused"] += 1

        found = {
            "scalars.mul": terms,
            "scalars.add": terms,
            "core.mul": mul,
            "serialize.load": load,
            "reports.emit": emit,
            "identities.check_identity": check,
        }
        for key, _, _ in COARSE:
            if key.startswith("constructions."):
                found[key] = construction
        return found

    def install(self) -> None:
        observers = self._observers()
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "homcolor" or name.startswith(("homcolor.", "bench.")))]
        for key, owner, attr in COARSE + HOT:
            original = getattr(owner, attr)
            wrapper = self._wrap(key, original, (key, owner, attr) in COARSE, observers.get(key))
            targets = modules if isinstance(owner, type(sys)) else [owner]
            for target in targets:
                for name, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, name, wrapper)
                        self._restore.append((target, name, original))

    def uninstall(self) -> None:
        while self._restore:
            target, name, original = self._restore.pop()
            setattr(target, name, original)

    # -- results ------------------------------------------------------------------

    def span_seconds(self, keys, parents=None, outermost=False) -> float:
        """Total duration of spans with a key in ``keys``; optionally only
        those whose parent span has a key in ``parents``, or only those with
        no ancestor in ``keys``."""
        total = 0.0
        for key, start, end, parent in self.spans:
            if key not in keys:
                continue
            if parents is not None and (parent < 0 or self.spans[parent][0] not in parents):
                continue
            if outermost:
                up = parent
                while up >= 0 and self.spans[up][0] not in keys:
                    up = self.spans[up][3]
                if up >= 0:
                    continue
            total += end - start
        return total

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    def metrics(self, wall_s: float, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of a traced loop that made ``passes`` whole passes
        over the op list in ``wall_s`` seconds.  Counts and times are per
        pass, so for one seed the counts repeat exactly."""
        c = self.calls
        builds = {k for k, _, _ in COARSE if k.startswith("constructions.")} - VERIFICATION
        scanned = sum(t[0] for t in self.check_tuples)
        check_s = sum(t[2] for t in self.check_tuples)
        fails = [t[0] / t[1] for t in self.check_tuples if t[4]]
        layers = {layer: self.layer_self(layer) for layer in LAYERS}
        per_pass = {
            "cli.main.calls": c["cli.main"],
            "cli.main.self_s": self.self_s["cli.main"],
            "serialize.load.calls": c["serialize.load"],
            "serialize.load.s": self.span_seconds({"serialize.load"}),
            "serialize.load.bytes": self.counts["serialize.load.bytes"],
            "serialize.dump.s": self.span_seconds({"serialize.dump"}),
            "serialize.self_s": layers["serialize"],
            "reports.serialize.s": self.span_seconds({"reports.emit"}),
            "reports.bytes": self.counts["reports.bytes"],
            "reports.self_s": layers["reports"],
            "scalars.mul.calls": c["scalars.mul"],
            "scalars.add.calls": c["scalars.add"],
            "scalars.parse.calls": c["scalars.parse"],
            "scalars.self_s": layers["scalars"],
            "core.mul.calls": c["core.mul"],
            "core.mul.self_s": self.self_s["core.mul"],
            "core.apply.calls": c["core.apply"],
            "core.structural.s": self.span_seconds(STRUCTURAL, outermost=True),
            "core.self_s": layers["core"],
            "grading.sign.calls": c["grading.sign"],
            "grading.self_s": layers["grading"],
            "identities.checks": c["identities.check_identity"],
            "identities.tuples": scanned,
            "identities.self_s": layers["identities"],
            "identities.arity4.s": sum(t[2] for t in self.check_tuples if t[3] >= 4),
            "identities.fails": len(fails),
            "representations.bimodule.checks": c["representations.check_bimodule"],
            "representations.bimodule.s": self.span_seconds({"representations.check_bimodule"}),
            "representations.bundle.s": self.span_seconds(
                {"representations.regular_bundle", "representations.pullback_bundle"}),
            "representations.self_s": layers["representations"],
            "constructions.build.self_s": sum(self.self_s[k] for k in builds),
            "constructions.hypothesis.s": self.span_seconds(VERIFICATION, parents=builds),
            "constructions.refused": self.counts["constructions.refused"],
            "constructions.self_s": layers["constructions"],
            "harness.self_s": wall_s - sum(layers.values()),
        }
        out = {}
        for name, value in per_pass.items():
            kind = name.rsplit(".", 1)[1]
            unit = "s/pass" if kind in ("s", "self_s") else "bytes/pass" if kind == "bytes" else "count/pass"
            out[name] = (value / passes, unit)
        out["scalars.max_terms"] = (self.max_terms, "count")
        out["core.mul.nonzero_ratio"] = (
            self.counts["core.mul.nonzero"] / c["core.mul"] if c["core.mul"] else 0.0, "ratio")
        out["identities.tuples_per_s"] = (scanned / check_s if check_s else 0.0, "1/s")
        out["identities.fail_depth"] = (sum(fails) / len(fails) if fails else 0.0, "ratio")
        out["identities.arity4.share"] = (per_pass["identities.arity4.s"] / wall_s, "ratio")
        return out

    def write_spans(self, path: Path) -> None:
        path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": self.spans}
        ) + "\n")
