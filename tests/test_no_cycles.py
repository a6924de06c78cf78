"""The check path leaves no reference cycle.

Every identity suite, bimodule and matched-pair condition and closure
hypothesis is decided by one ``core.term_failures`` pass, whose node maps
reference counting frees the moment the pass returns.  So each call below,
made a second time with the cyclic garbage collector off, leaves nothing
for ``gc.collect()`` to find.  A ``ScalarContext`` and its shared ``zero``
and ``one`` refer to each other, but contexts are interned, so a load makes
no new one.

The tests need neither pytest nor hypothesis; to run them under an
interpreter that lacks those::

    PYTHONPATH=src python tests/test_no_cycles.py
"""

import contextlib
import gc
import io
import json
import pathlib
import sys
from collections import Counter

from homcolor import cli, core
from homcolor.constructions import (
    MatchedPairData,
    MatchedPairKind,
    check_matched_pair,
    derived_algebra,
    matched_pair_double,
    quotient,
    semidirect_sum,
    tensor_product,
    yau_twist,
)
from homcolor.core import (
    LinearMap,
    is_derivation,
    morphism_suite,
    multiplicative_checks,
    operation,
    positions,
    term_failures,
    twisted,
)
from homcolor.identities import IDENTITY_CATALOG, StructureKind, check_gi_identities, required_roles, run_suite
from homcolor.representations import BimoduleKind, check_bimodule, regular_bundle
from homcolor.scalars import ScalarContext
from homcolor.serialize import LoadError, load_presentation, load_presentation_file

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def load(name: str):
    return load_presentation_file(FIXTURES / name)[0]


def collected(call) -> list:
    """The objects ``gc.collect()`` finds after a second call of ``call``
    made with the collector off.  The first call warms caches (compiled
    plans, sign tables, the command-line parser) and what it leaves is
    collected before the second."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        gc.collect()
        call()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    return found


def assert_no_cycles(call):
    found = collected(call)
    assert not found, f"reference cycles left: {dict(Counter(type(o).__name__ for o in found))}"


def test_suites():
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            A = load(path.name)
        except LoadError:  # the manifest itself and a fixture the loader refuses
            continue
        for kind in StructureKind:
            if set(required_roles(kind)) <= set(A.roles):
                assert_no_cycles(lambda: run_suite(A, kind))
    gd = load("gd_multiplicative_4dim.json")
    assert_no_cycles(lambda: check_gi_identities(gd))


def test_bimodule_and_semidirect_sum():
    A = load("hnp_4dim.json")
    kind = BimoduleKind.HNP_BIMODULE

    def check_and_sum():
        # A new bundle each time: a bundle keeps its reports.
        bundle = regular_bundle(A, kind)
        assert check_bimodule(A, bundle, kind).passed
        semidirect_sum(A, bundle, kind)

    assert_no_cycles(check_and_sum)


def test_matched_pair_and_double():
    A = load("hnp_4dim.json")

    def check_and_double():
        pair = MatchedPairData(A, A, *(regular_bundle(A, BimoduleKind.HNP_BIMODULE) for _ in "ab"))
        check_matched_pair(pair, MatchedPairKind.HNP)
        matched_pair_double(pair, MatchedPairKind.HNP, force=True)

    assert_no_cycles(check_and_double)


def test_constructions():
    A = load("hnp_4dim.json")
    identity = LinearMap.identity(A.space, A.context)
    M = load("hnp_admissible_mult_synth_4dim.json")
    gd = load("gd_4dim.json")
    factor = load("hnp_admissible_4dim.json")
    assert_no_cycles(lambda: yau_twist(A, identity))
    assert_no_cycles(lambda: derived_algebra(M, 1, 1))
    assert_no_cycles(lambda: quotient(gd, ["e4"]))
    assert_no_cycles(lambda: tensor_product(factor, factor))


def test_structural_checks():
    A = load("hnp_4dim.json")
    identity = LinearMap.identity(A.space, A.context)
    M = load("hnp_admissible_mult_synth_4dim.json")
    assert_no_cycles(lambda: multiplicative_checks(M, M.roles))
    assert_no_cycles(lambda: morphism_suite(identity, A, A))
    assert_no_cycles(lambda: is_derivation(A, "dot", identity))


def test_compiling_new_plans():
    spec = IDENTITY_CATALOG["GI_2"]
    plans = ((spec.terms, spec.defaults),)

    def compile_anew():
        core._compile.cache_clear()
        core._compile(plans)

    assert_no_cycles(compile_anew)


def test_contexts():
    """A load, a declaration equal to an earlier one and a union of two
    contexts return interned contexts, so they leave nothing."""
    assert_no_cycles(lambda: load("hnp_4dim.json"))
    assert_no_cycles(lambda: ScalarContext(["lambda1"], {"sqrt2": "2"}))
    first, second = ScalarContext(["lambda1"]), ScalarContext(["mu2"], {"sqrt3": 3})
    assert_no_cycles(lambda: first.union(second))


def test_a_cli_check_leaves_nothing():
    """One ``homcolor check`` loads one presentation, whose context is the
    interned one its first load made, so it leaves nothing."""
    manifest = json.loads((FIXTURES / "manifest.json").read_text())
    for entry in manifest["fixtures"]:
        for check in entry["checks"]:
            if check["expected"] == "load_error":
                continue
            argv = ["check", str(FIXTURES / entry["file"]), "--kind", check["kind"]]

            def run():
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv)

            found = collected(run)
            assert not found, (argv, Counter(type(o).__name__ for o in found))


@contextlib.contextmanager
def node_evaluations():
    """Count the bilinear (``_join``) and linear-map (``_apply``) nodes
    that ``term_failures`` evaluates."""
    calls = Counter()
    originals = {name: getattr(core, name) for name in ("_join", "_apply")}

    def counted(name):
        def call(*args):
            calls[name] += 1
            return originals[name](*args)
        return call

    try:
        for name in originals:
            setattr(core, name, counted(name))
        yield calls
    finally:
        for name, original in originals.items():
            setattr(core, name, original)


def test_evaluated_nodes_pinned():
    """Each suite evaluates exactly the nodes it evaluated before the pass
    became cycle-free."""
    with node_evaluations() as calls:
        run_suite(load("poly_deriv_3dim.json"), StructureKind.HNP)
        assert calls == {"_join": 9}
        calls.clear()
        check_gi_identities(load("gd_multiplicative_4dim.json"))
        assert calls == {"_join": 6, "_apply": 3}


# alpha(e1) = e1 + e2 and e1.e1 = -e2.e1 = e3, so alpha(x).y cancels on
# every pair though its support, {e3}, is not empty.
_CANCELLING = {
    "format": 1,
    "group": {"torsion": [2], "free": 0},
    "bichar": [[-1]],
    "basis": [{"name": f"e{i}", "deg": [0]} for i in (1, 2, 3)],
    "products": {"dot": [
        ["e1", "e1", [["e3", "1"]]], ["e2", "e1", [["e3", "-1"]]], ["e3", "e1", [["e1", "1"]]],
    ]},
    "alpha": [[1, 0, 0], [1, 0, 0], [0, 0, 0]],
}


def test_an_empty_left_operand_is_not_applied():
    """A node whose left subtree's map is empty is empty: neither the
    operation nor its right subtree is evaluated."""
    A = load_presentation(_CANCELLING)
    x, y, z = positions(3)
    a, f = operation("a"), operation("f")
    inner = a(twisted(x), y)
    binding = (("a", "a"), ("f", "f"))
    plans = [(((1, (), a(inner, z)),), binding), (((1, (), f(inner)),), binding)]
    ops = {"a": A.product("dot").row_cells, "f": LinearMap.identity(A.space, A.context).columns}
    with node_evaluations() as calls:
        assert term_failures(plans, A, ops) == {}
    assert calls == {"_join": 1}


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_") and callable(f)]
    for test in tests:
        test()
        print(f"{test.__name__}: ok")
    print(f"{len(tests)} passed on Python {sys.version.split()[0]}")
