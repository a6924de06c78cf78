"""Command-line front end: exit codes, reports, constructions, round trips."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import homcolor as hc
from homcolor import cli, core
from homcolor.cli import main
from homcolor.serialize import dump_matrix, dump_presentation, load_presentation_file


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(*argv):
    return main([str(a) for a in argv])


def refusal(capsys, *argv) -> str:
    """The ``error:`` line of an argv that argparse refuses, after checking
    that the refusal exits 3 and prints the usage first and nothing else."""
    with pytest.raises(SystemExit) as exited:
        run(*argv)
    assert exited.value.code == 3
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and lines[0].startswith("usage: homcolor")
    assert [line for line in lines if line.startswith("error: ")] == lines[-1:]
    return lines[-1]


# Each construction option with a value other than its default, and the
# options each construction reads besides --out and --verify.
OPTION_VALUES = {
    "--force": [], "--from": ["diamond"], "--to": ["pair"], "--type": ["2"],
    "--n": ["2"], "--kind": ["hnp"], "--ideal": ["e1"], "--map": ["map.json"],
}
CONSTRUCT_READS = {
    "commutator": {"--from", "--to"},
    "twist": {"--force", "--map"},
    "derived": {"--force", "--type", "--n"},
    "semidirect": {"--force", "--kind"},
    "matched-pair": {"--force", "--kind"},
    "tensor": {"--force"},
    "quotient": {"--ideal"},
    "derivation-product": {"--force", "--to", "--map"},
}
ALIASES = {"--from": "--from-role", "--to": "--to-role"}
# The options a construction cannot run without, with a value.
CONSTRUCT_REQUIRES = {"quotient": ["--ideal", "e1"], "derivation-product": ["--map", "map.json"]}
# The options of one subcommand that the other does not have, with a value:
# check's, and construct's under every flag (--kind is on both).
CHECK_ONLY = {"--report": ["r.json"], "--subst": ["a=1"], "--timings": []}
CONSTRUCT_ONLY = {
    **{flag: v for flag, v in OPTION_VALUES.items() if flag != "--kind"},
    **{alias: OPTION_VALUES[flag] for flag, alias in ALIASES.items()},
    "--out": ["o.json"], "--verify": ["hnp"],
}


def module_doc(A) -> dict:
    """``A``'s document with the module block of its regular HNP bundle."""
    bundle = hc.regular_bundle(A, hc.BimoduleKind.HNP_BIMODULE)
    doc = dump_presentation(A)
    doc["module"] = {
        "basis": [{"name": f"v{i}", "deg": list(d)} for i, d in enumerate(A.space.degrees)],
        "beta": dump_matrix(A.alpha),
        "actions": {
            name: {A.names[i]: dump_matrix(op) for i, op in enumerate(family)}
            for name, family in bundle.actions.items()
        },
    }
    return doc


def _trivial(basis: list[str], products: dict) -> dict:
    """A document over the trivial grading."""
    return {
        "format": 1, "group": {"torsion": [], "free": 0}, "bichar": [],
        "basis": [{"name": name, "deg": []} for name in basis], "products": products,
    }


DOCS = {
    # A Novikov algebra split into two subalgebras: its double passes.
    "nov_split": {
        "a": _trivial(["x0"], {"dot": []}),
        "b": _trivial(["a0", "a1"], {"dot": [["a1", "a1", [["a0", "-1"], ["a1", "1"]]]]}),
        "actions_a_on_b": {"l": {"x0": [["0", "-2"], ["0", "0"]]}, "r": {}},
        "actions_b_on_a": {"l": {}, "r": {"a1": [["1"]]}},
    },
    # A pair whose double fails the Novikov suite.
    "nov_rcomm": {
        "a": _trivial(["x0"], {"dot": []}),
        "b": _trivial(["a0", "a1"], {"dot": [["a1", "a1", [["a1", "1"]]]]}),
        "actions_a_on_b": {"l": {}, "r": {"x0": [["0", "2"], ["0", "0"]]}},
        "actions_b_on_a": {"l": {}, "r": {}},
    },
    # A zero module over A with x0.x1 = x1, which fails EPS_COMM.
    "assoc_module": {
        **_trivial(["x0", "x1"], {"dot": [["x0", "x1", [["x1", "1"]]]]}),
        "module": {"basis": [{"name": "v0", "deg": []}], "beta": [["1"]], "actions": {"s": {}}},
    },
}


class TestCheck:
    def test_passing_suite_exits_zero(self, fixtures_dir, capsys):
        assert run("check", fixtures_dir / "hnp_4dim.json", "--kind", "hnp") == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_zero_fixture_any_kind(self, fixtures_dir):
        assert run("check", fixtures_dir / "zero_2dim.json", "--kind", "hom_gd") == 0

    def test_identity_failure_exits_one_with_witness(self, fixtures_dir, tmp_path):
        report_path = tmp_path / "report.json"
        code = run(
            "check", fixtures_dir / "hnp_4dim_perturbed.json", "--kind", "hnp",
            "--report", report_path,
        )
        assert code == 1
        doc = json.loads(report_path.read_text())
        assert doc["status"] == "fail"
        failing = [c for c in doc["report"]["checks"] if c["status"] == "fail"]
        assert failing[0]["check"] == "EPS_COMM"
        assert failing[0]["witness"] == ["e2", "e4"]

    def test_parse_error_exits_three(self, fixtures_dir, capsys):
        code = run(
            "check",
            fixtures_dir / "hnp_admissible_multiplicative_4dim_verbatim.json",
            "--kind", "hnp",
        )
        assert code == 3
        assert "not graded" in capsys.readouterr().err

    def test_square_radicand_exits_three(self, tmp_path, capsys):
        # With r = sqrt(4) = 2 this product is commutative, but r*r = 4 does
        # not make r - 2 zero in the canonical form, so the loader must
        # refuse the root instead of reporting an EPS_COMM failure.
        doc = {
            "format": 1,
            "group": {"torsion": [], "free": 0},
            "bichar": [],
            "basis": [{"name": name, "deg": []} for name in ("e1", "e2", "e3")],
            "products": {"dot": [["e1", "e2", [["e3", "r"]]], ["e2", "e1", [["e3", "2"]]]]},
            "roots": {"r": "4"},
        }
        path = tmp_path / "square_radicand.json"
        path.write_text(json.dumps(doc))
        assert run("check", path, "--kind", "eps_comm_assoc") == 3
        assert "rational square" in capsys.readouterr().err

    def test_non_bimultiplicative_factor_exits_three(self, tmp_path, capsys):
        # On Z_3 a -1 generator value is no bicharacter: eps(1 + 2, 1) = 1 but
        # eps(1, 1) * eps(2, 1) = -1, so the loader refuses the document.
        doc = {
            "format": 1,
            "group": {"torsion": [3], "free": 0},
            "bichar": [[-1]],
            "basis": [{"name": name, "deg": [d]} for name, d in (("e0", 0), ("e1", 1), ("e2", 2))],
            "products": {"dot": [["e1", "e2", [["e0", "1"]]], ["e2", "e1", [["e0", "-1"]]]]},
        }
        path = tmp_path / "z3.json"
        path.write_text(json.dumps(doc))
        assert run("check", path, "--kind", "eps_comm_assoc") == 3
        err = capsys.readouterr().err
        assert "not bimultiplicative" in err
        assert err == (
            "error: bichar: not bimultiplicative on generators (g0, g0): "
            "eps(g0, g0) = -1 involves g0 of odd order 3\n"
        )

    def test_commutation_factor_axiom_exits_three(self, tmp_path, capsys):
        # eps(g0, g1) * eps(g1, g0) = -1 breaks axiom (1); without the load
        # check this document got EPS_COMM: FAIL and exit code 1.
        doc = {
            "format": 1,
            "group": {"torsion": [], "free": 2},
            "bichar": [[1, -1], [1, 1]],
            "basis": [
                {"name": name, "deg": deg}
                for name, deg in (("e1", [1, 0]), ("e2", [0, 1]), ("e3", [1, 1]))
            ],
            "products": {"dot": [["e1", "e2", [["e3", "1"]]], ["e2", "e1", [["e3", "-1"]]]]},
        }
        path = tmp_path / "zxz.json"
        path.write_text(json.dumps(doc))
        assert run("check", path, "--kind", "eps_comm_assoc") == 3
        assert capsys.readouterr().err == (
            "error: bichar: not a commutation factor on generators (g0, g1): "
            "eps(g0, g1) * eps(g1, g0) = -1\n"
        )

    @pytest.mark.parametrize("side, group, bichar, named", [
        ("a", {"torsion": [3]}, [[-1]], "not bimultiplicative on generators (g0, g0)"),
        ("b", {"free": 2}, [[1, -1], [1, 1]], "not a commutation factor on generators (g0, g1)"),
    ], ids=["a-odd-order", "b-asymmetric"])
    def test_matched_pair_factor_refusal_names_its_side(self, tmp_path, capsys, side, group, bichar, named):
        rank = len(bichar)
        doc = {
            name: {
                "group": group,
                "bichar": bichar if name == side else [[1] * rank] * rank,
                "basis": [{"name": f"{name}1", "deg": [0] * rank}],
                "products": {"dot": []},
            }
            for name in ("a", "b")
        }
        doc.update(actions_a_on_b={}, actions_b_on_a={})
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        assert run("construct", "matched-pair", path) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {side}.bichar: {named}: ")

    def test_missing_input_exits_three(self, tmp_path, capsys):
        assert run("check", tmp_path / "absent.json", "--kind", "hnp") == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_gi_precondition_exits_two(self, fixtures_dir, tmp_path):
        pair = tmp_path / "pair.json"
        assert run(
            "construct", "commutator", fixtures_dir / "hnp_transposed_4dim.json",
            "--from-role", "diamond", "--out", pair,
        ) == 0
        assert run("check", pair, "--kind", "gi") == 2

    def test_arity4_cap_is_unrecognized(self, fixtures_dir, capsys):
        with pytest.raises(SystemExit) as exited:
            run("check", fixtures_dir / "zero_2dim.json", "--kind", "gi", "--arity4-cap", "16")
        assert exited.value.code == 3
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: unrecognized arguments: --arity4-cap 16"

    @pytest.mark.parametrize("flag", sorted(CONSTRUCT_ONLY))
    def test_construct_option_exits_three(self, tmp_path, capsys, flag):
        # The input does not exist: the option is refused before it is read.
        # Before the input, it takes its value, not the input after it.
        inputs = [tmp_path / "missing.json", "--kind", "hnp"]
        option = [flag, *CONSTRUCT_ONLY[flag]]
        for argv in (inputs + option, option + inputs):
            error = refusal(capsys, "check", *argv)
            assert error == f"error: unrecognized arguments: {' '.join(option)}"

    def test_gi_passes_on_the_16_dim_tensor_square(self, fixtures_dir, tmp_path, capsys):
        # The arity-4 members GI_2..GI_4 are decided at dim 16 as at dim 4.
        factor = fixtures_dir / "hnp_admissible_mult_synth_4dim.json"
        square, pair = tmp_path / "square.json", tmp_path / "pair.json"
        assert run("construct", "tensor", factor, factor, "--out", square) == 0
        assert run("construct", "commutator", square, "--from-role", "diamond", "--out", pair) == 0
        capsys.readouterr()
        assert run("check", pair, "--kind", "gi") == 0
        assert capsys.readouterr().out.splitlines()[0] == "suite gi: PASS"

    def test_gi_passes_on_multiplicative_pair(self, fixtures_dir, tmp_path):
        pair = tmp_path / "pair.json"
        run(
            "construct", "commutator", fixtures_dir / "hnp_admissible_mult_synth_4dim.json",
            "--from-role", "diamond", "--out", pair,
        )
        assert run("check", pair, "--kind", "gi") == 0

    def test_subst_spot_check(self, fixtures_dir):
        assert run(
            "check", fixtures_dir / "hnp_4dim.json", "--kind", "hnp",
            "--subst", "lambda1=3/2", "--subst", "mu4=-7",
        ) == 0

    def test_bimodule_kind_requires_module_block(self, fixtures_dir, capsys):
        code = run("check", fixtures_dir / "hnp_4dim.json", "--kind", "hnp_bimodule")
        assert code == 3
        assert "module" in capsys.readouterr().err

    def test_bimodule_kind_with_module_block(self, fixtures_dir, tmp_path, hnp_4dim):
        A = hnp_4dim
        bundle = hc.regular_bundle(A, hc.BimoduleKind.HNP_BIMODULE)
        doc = dump_presentation(A)
        doc["module"] = {
            "basis": [{"name": f"v{i}", "deg": list(d)} for i, d in enumerate(A.space.degrees)],
            "beta": dump_matrix(A.alpha),
            "actions": {
                name: {
                    A.names[i]: dump_matrix(op)
                    for i, op in enumerate(family)
                }
                for name, family in bundle.actions.items()
            },
        }
        path = tmp_path / "with_module.json"
        path.write_text(json.dumps(doc))
        assert run("check", path, "--kind", "hnp_bimodule") == 0

    def test_report_bytes_are_deterministic(self, fixtures_dir, tmp_path):
        first, second = tmp_path / "r1.json", tmp_path / "r2.json"
        run("check", fixtures_dir / "hnp_4dim.json", "--kind", "hnp", "--report", first)
        run("check", fixtures_dir / "hnp_4dim.json", "--kind", "hnp", "--report", second)
        assert first.read_bytes() == second.read_bytes()

    def test_timings_flag_adds_seconds(self, fixtures_dir, tmp_path):
        timed = tmp_path / "timed.json"
        bare = tmp_path / "bare.json"
        run("check", fixtures_dir / "hnp_4dim.json", "--kind", "hnp",
            "--report", timed, "--timings")
        run("check", fixtures_dir / "hnp_4dim.json", "--kind", "hnp", "--report", bare)
        assert '"seconds"' in timed.read_text()
        assert '"seconds"' not in bare.read_text()


class TestParserReuse:
    """``main`` builds its parser once per process; no call sees another's
    options, and help and usage errors read as from a fresh parser."""

    def test_subst_does_not_leak_into_the_next_call(self, fixtures_dir, tmp_path, capsys):
        path = fixtures_dir / "hnp_4dim_perturbed.json"
        spot, plain, fresh = (tmp_path / f"{name}.json" for name in ("spot", "plain", "fresh"))
        assert run("check", path, "--kind", "hnp", "--report", spot, "--subst", "lambda2=7") == 1
        assert run("check", path, "--kind", "hnp", "--report", plain) == 1
        cli._parser.cache_clear()
        assert run("check", path, "--kind", "hnp", "--report", fresh) == 1
        assert plain.read_bytes() == fresh.read_bytes()
        assert "14" in spot.read_text() and "2*lambda2" in plain.read_text()
        assert cli._parser().parse_args(["check", str(path), "--kind", "hnp"]).subst == []

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--help"], 0),
            (["check", "--help"], 0),
            (["construct", "--help"], 0),
            (["construct", "tensor", "--help"], 0),
            (["construct", "commutator", "x.json", "--kind", "hnp"], 3),
            (["check"], 3),
            (["check", "x.json", "--kind", "nope"], 3),
            (["frobnicate"], 3),
        ],
    )
    def test_help_and_usage_errors_match_a_fresh_parser(self, fixtures_dir, capsys, argv, code):
        run("check", fixtures_dir / "zero_2dim.json", "--kind", "hom_gd")  # parser in use
        capsys.readouterr()
        with pytest.raises(SystemExit) as reused:
            main(argv)
        assert reused.value.code == code
        reused_out = capsys.readouterr()
        if code == 3:
            assert any(line.startswith("error: ") for line in reused_out.err.splitlines())
        with pytest.raises(SystemExit) as fresh:
            cli.build_parser().parse_args(argv)
        assert fresh.value.code == code
        assert capsys.readouterr() == reused_out

    def test_parser_is_not_built_at_import(self):
        probe = "import homcolor.cli as c; print(c._parser.cache_info().currsize)"
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.stdout.strip() == "0"


class TestConstruct:
    def test_commutator_with_verify(self, fixtures_dir, tmp_path):
        out = tmp_path / "lie.json"
        code = run(
            "construct", "commutator", fixtures_dir / "novikov_3dim.json",
            "--from-role", "dot", "--to-role", "bracket",
            "--out", out, "--verify", "hom_lie",
        )
        assert code == 0
        built, _ = load_presentation_file(out)
        assert built.mul_basis("bracket", 0, 1) == built.vector({"e3": 2})

    def test_derived_requires_multiplicative(self, fixtures_dir, tmp_path, capsys):
        code = run(
            "construct", "derived", fixtures_dir / "hnp_admissible_multiplicative_4dim.json",
            "--type", "1", "--n", "2",
        )
        assert code == 2
        assert "multiplicative" in capsys.readouterr().err

    def test_derived_forced_table(self, fixtures_dir, tmp_path):
        out = tmp_path / "derived.json"
        code = run(
            "construct", "derived", fixtures_dir / "hnp_admissible_multiplicative_4dim.json",
            "--type", "1", "--n", "2", "--force", "--out", out,
        )
        assert code == 0
        built, _ = load_presentation_file(out)
        assert built.mul_basis("dot", 1, 1) == {0: built.context.scalar(16)}

    def test_derived_verify_on_multiplicative_fixture(self, fixtures_dir):
        assert run(
            "construct", "derived", fixtures_dir / "hnp_admissible_mult_synth_4dim.json",
            "--type", "2", "--n", "2", "--verify", "admissible_hnp",
        ) == 0

    def test_derived_type_two_builds_high_twist_powers(self, fixtures_dir):
        # alpha^(2^16 - 1) and alpha^(2^16), with entries of about 40,000
        # digits, by repeated squaring.
        assert run(
            "construct", "derived", fixtures_dir / "hnp_admissible_mult_synth_4dim.json",
            "--type", "2", "--n", "16",
        ) == 0

    def test_derived_type_two_of_order_1200_on_an_identity_twist(self, fixtures_dir, tmp_path):
        # k = 2^1200 - 1 is 1200 halvings deep; the twist is the identity, so
        # the derived algebra is the input.  Run as the console script runs.
        out = tmp_path / "derived.json"
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from homcolor.cli import main; sys.exit(main())",
             "construct", "derived", str(fixtures_dir / "poly_deriv_3dim.json"),
             "--type", "2", "--n", "1200", "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        built, _ = load_presentation_file(out)
        fixture, _ = load_presentation_file(fixtures_dir / "poly_deriv_3dim.json")
        assert built.products == fixture.products and built.alpha == fixture.alpha

    def test_failed_dump_leaves_the_out_file_as_it_was(self, fixtures_dir, tmp_path, capsys):
        # At n = 14 the twist's entries have about 9,900 digits, past the
        # integer-to-text limit, so the document cannot be written.
        out = tmp_path / "derived.json"
        out.write_text("keep\n")
        code = run(
            "construct", "derived", fixtures_dir / "hnp_admissible_mult_synth_4dim.json",
            "--type", "2", "--n", "14", "--out", out,
        )
        assert code == 3
        assert out.read_text() == "keep\n"
        captured = capsys.readouterr()
        assert "wrote" not in captured.out
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: cannot write {out}: Exceeds the limit")
        # Python's advice to raise its digit limit is not something a
        # command-line user can follow.
        assert "set_int_max_str_digits" not in captured.err
        assert errors[0].endswith("; the loader refuses such constants too")

    @pytest.mark.parametrize("where", ["string", "literal", "--subst"])
    def test_input_past_the_digit_limit_is_refused_where_it_stands(
        self, fixtures_dir, tmp_path, capsys, where
    ):
        # A 5001-digit constant, past the 4300-digit limit on integer text, as
        # a scalar string, as a JSON integer literal, or as a --subst value.
        digits = "7" * 5001
        path = tmp_path / "big.json"
        argv = [path, "--kind", "eps_comm_assoc"]
        if where == "--subst":
            argv = [fixtures_dir / "hnp_4dim.json", "--kind", "hnp", "--subst", f"lambda1={digits}"]
        else:
            doc = json.loads((fixtures_dir / "assoc_3dim.json").read_text())
            doc["products"]["dot"][0][2][0][1] = digits
            text = json.dumps(doc)
            path.write_text(text if where == "string" else text.replace(f'"{digits}"', digits))
        assert run("check", *argv) == 3
        location = {"string": "products.dot[0] component 0", "literal": str(path)}.get(where, where)
        err = capsys.readouterr().err
        assert err.startswith(f"error: {location}: Exceeds the limit")
        assert err.endswith("value has 5001 digits\n")
        assert "set_int_max_str_digits" not in err

    def test_tensor_verify(self, fixtures_dir, tmp_path):
        out = tmp_path / "tensor.json"
        code = run(
            "construct", "tensor",
            fixtures_dir / "hnp_admissible_4dim.json",
            fixtures_dir / "hnp_admissible_4dim.json",
            "--out", out, "--verify", "admissible_hnp",
        )
        assert code == 0
        built, _ = load_presentation_file(out)
        assert built.dim == 16

    @pytest.fixture
    def loads(self, monkeypatch):
        """The paths that ``construct`` reads presentations from, in order."""
        paths = []

        def counted(path):
            paths.append(path)
            return load_presentation_file(path)

        monkeypatch.setattr(cli, "load_presentation_file", counted)
        return paths

    def test_a_factor_named_twice_is_read_and_checked_once(self, fixtures_dir, loads, capsys):
        factor = str(fixtures_dir / "hnp_admissible_4dim.json")
        assert run("construct", "tensor", factor, factor) == 0
        assert loads == [factor]
        refused = str(fixtures_dir / "poly_deriv_3dim.json")
        assert run("construct", "tensor", refused, refused) == 2
        assert capsys.readouterr().err.count("suite admissible_hnp: FAIL") == 1

    def test_distinct_factors_are_read_and_checked_both(self, fixtures_dir, tmp_path, loads, capsys):
        # A copy of the factor under another path is a second factor.
        refused = fixtures_dir / "poly_deriv_3dim.json"
        copy = tmp_path / "copy.json"
        copy.write_text(refused.read_text())
        assert run("construct", "tensor", refused, copy) == 2
        assert loads == [str(refused), str(copy)]
        assert capsys.readouterr().err.count("suite admissible_hnp: FAIL") == 2

    def test_quotient_verify(self, fixtures_dir):
        assert run(
            "construct", "quotient", fixtures_dir / "gd_4dim.json",
            "--ideal", "e4", "--verify", "hom_gd",
        ) == 0

    def test_quotient_non_ideal_exits_two(self, fixtures_dir):
        assert run(
            "construct", "quotient", fixtures_dir / "assoc_3dim.json", "--ideal", "e1"
        ) == 2

    def test_twist_by_alpha_requires_morphism(self, fixtures_dir):
        assert run(
            "construct", "twist", fixtures_dir / "novikov_3dim.json",
        ) == 2
        # forcing past the hypothesis lets the output suite show the theorem
        # really needed it: the twisted product fails the Novikov identities
        assert run(
            "construct", "twist", fixtures_dir / "novikov_3dim.json", "--force",
            "--verify", "hom_novikov",
        ) == 1

    def test_twist_by_map_file(self, fixtures_dir, tmp_path):
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps({"map": [["1", "0", "0"], ["0", "3", "0"], ["0", "0", "9"]]}))
        assert run(
            "construct", "twist", fixtures_dir / "poly_deriv_3dim.json",
            "--map", map_path, "--verify", "hnp",
        ) == 0

    def test_twist_by_an_odd_map_file_exits_three(self, fixtures_dir, tmp_path, capsys):
        # assoc_3dim.json: e1 has degree 0, e2 and e3 degree 1.
        map_path = tmp_path / "odd.json"
        map_path.write_text(json.dumps({"map": [[0, 0, 1], [0, 0, 1], [1, 0, 0]]}))
        assert run(
            "construct", "twist", fixtures_dir / "assoc_3dim.json", "--map", map_path, "--force",
        ) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: map: map is not homogeneous of degree (0,): e1 -> e3\n"

    def test_derivation_product(self, fixtures_dir, tmp_path):
        map_path = tmp_path / "derivation.json"
        map_path.write_text(json.dumps({"map": [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]]}))
        base = tmp_path / "base.json"
        P, _ = load_presentation_file(fixtures_dir / "poly_deriv_3dim.json")
        doc = dump_presentation(P)
        del doc["products"]["diamond"]
        base.write_text(json.dumps(doc))
        out = tmp_path / "with_diamond.json"
        code = run(
            "construct", "derivation-product", base, "--map", map_path,
            "--out", out, "--verify", "hnp",
        )
        assert code == 0
        built, _ = load_presentation_file(out)
        assert built.products["diamond"] == P.products["diamond"]

    def test_semidirect_from_module_block(self, tmp_path, hnp_4dim):
        path = tmp_path / "with_module.json"
        path.write_text(json.dumps(module_doc(hnp_4dim)))
        assert run(
            "construct", "semidirect", path, "--kind", "hnp_bimodule", "--verify", "hnp"
        ) == 0

    @pytest.fixture
    def passes(self, monkeypatch):
        """The evaluator passes (``core.term_failures`` calls) made so far."""
        calls = []
        original = core.term_failures

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(core, "term_failures", counted)
        return calls

    @pytest.mark.parametrize("doc, argv, suite, evaluations", [
        ("hnp_module", ["semidirect", "--kind", "hnp_bimodule"], "hnp", 1),
        ("assoc_module", ["semidirect", "--kind", "assoc_bimodule", "--force"], "eps_comm_assoc", 1),
        ("nov_split", ["matched-pair", "--kind", "novikov"], "auto", 1),
        ("nov_split", ["matched-pair", "--kind", "novikov"], "hom_novikov", 1),
        ("nov_rcomm", ["matched-pair", "--kind", "novikov", "--force"], "auto", 1),
        ("hnp_module", ["semidirect", "--kind", "hnp_bimodule"], "admissible_hnp", 2),
        ("nov_split", ["matched-pair", "--kind", "novikov"], "eps_comm_assoc", 2),
    ])
    def test_verify_of_the_suite_the_build_checked_reuses_its_verdict(
        self, tmp_path, capsys, passes, hnp_4dim, doc, argv, suite, evaluations
    ):
        """``--verify`` of the suite that the build checked its result with
        makes no second pass; another suite is evaluated.  Either way the
        output and the exit code are those of a fresh check of the written
        result."""
        path, out = tmp_path / "input.json", tmp_path / "out.json"
        path.write_text(json.dumps(module_doc(hnp_4dim) if doc == "hnp_module" else DOCS[doc]))
        code = run("construct", argv[0], path, *argv[1:], "--out", out, "--verify", suite)
        assert len(passes) == evaluations
        built = capsys.readouterr().out
        kind = "hom_novikov" if suite == "auto" else suite
        assert run("check", out, "--kind", kind) == code
        assert built == f"wrote {out}\n" + capsys.readouterr().out

    def test_matched_pair_file(self, fixtures_dir, tmp_path, assoc_3dim):
        A = assoc_3dim
        doc_a = dump_presentation(A)
        doc_b = {
            "format": 1,
            "group": doc_a["group"],
            "bichar": doc_a["bichar"],
            "basis": [{"name": "f1", "deg": [0]}],
            "products": {"dot": []},
            "alpha": [["1"]],
            "roots": doc_a.get("roots", {}),
        }
        pair_doc = {
            "a": doc_a,
            "b": doc_b,
            "actions_a_on_b": {"s": {}},
            "actions_b_on_a": {"s": {}},
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(pair_doc))
        out = tmp_path / "double.json"
        code = run(
            "construct", "matched-pair", path, "--kind", "assoc",
            "--out", out, "--verify", "eps_comm_assoc",
        )
        assert code == 0
        built, _ = load_presentation_file(out)
        assert built.dim == 4

    @pytest.mark.parametrize("name, count, want", [
        ("tensor", 1, "the following arguments are required: right"),
        ("tensor", 3, "unrecognized arguments: {missing}"),
        ("commutator", 2, "unrecognized arguments: {missing}"),
        ("matched-pair", 2, "unrecognized arguments: {missing}"),
    ])
    def test_wrong_input_count_exits_three(self, tmp_path, capsys, name, count, want):
        missing = tmp_path / "missing.json"
        error = refusal(capsys, "construct", name, *[missing] * count)
        assert error == "error: " + want.format(missing=missing)

    @pytest.mark.parametrize("name, verify", [("commutator", "gi")] + [
        (name, "auto") for name in CONSTRUCT_READS if name != "matched-pair"
    ])
    def test_unknown_verify_suite_exits_three(self, tmp_path, capsys, name, verify):
        out = tmp_path / "never.json"
        inputs = [tmp_path / "missing.json"] * (2 if name == "tensor" else 1)
        error = refusal(capsys, "construct", name, *inputs, "--verify", verify, "--out", out)
        assert error.startswith(f"error: argument --verify: invalid choice: {verify!r}")
        assert "hom_lie" in error and "transposed_poisson" in error
        assert not out.exists()  # refused before the construction runs

    @pytest.mark.parametrize("name, kind, choices", [
        ("semidirect", "hnp", "assoc_bimodule, gd_rep, hnp_bimodule, lie_rep, novikov_bimodule"),
        ("matched-pair", "bogus", "assoc, gd, hnp, lie, novikov"),
    ])
    def test_unknown_kind_exits_three(self, tmp_path, capsys, name, kind, choices):
        # The input does not exist: the kind is refused before it is read.
        error = refusal(capsys, "construct", name, tmp_path / "missing.json", "--kind", kind)
        head, listed = error.split(" (choose from ")
        assert head == f"error: argument --kind: invalid choice: {kind!r}"
        assert re.findall(r"\w+", listed) == choices.split(", ")

    def test_unknown_kind_refused_before_module_check(self, fixtures_dir, capsys):
        # hnp_4dim.json has no module block, which semidirect would report.
        path = fixtures_dir / "hnp_4dim.json"
        error = refusal(capsys, "construct", "semidirect", path, "--kind", "hnp")
        assert error.startswith("error: argument --kind: invalid choice: 'hnp'")

    @pytest.mark.parametrize("name, flag", [
        (name, flag) for name, reads in CONSTRUCT_READS.items() for flag in OPTION_VALUES if flag not in reads
    ])
    def test_unread_option_exits_three(self, tmp_path, capsys, name, flag):
        # The inputs do not exist: the option is refused before they are read.
        # Before the inputs, it takes its value, not the input after it.
        inputs = [tmp_path / "missing.json"] * (2 if name == "tensor" else 1)
        inputs += CONSTRUCT_REQUIRES.get(name, [])
        option = [flag, *OPTION_VALUES[flag]]
        for argv in (inputs + option, option + inputs):
            error = refusal(capsys, "construct", name, *argv)
            assert error == f"error: unrecognized arguments: {' '.join(option)}"

    @pytest.mark.parametrize("name, flag", [
        (name, flag) for name in CONSTRUCT_READS for flag in CHECK_ONLY
    ])
    def test_check_option_exits_three(self, tmp_path, capsys, name, flag):
        inputs = [tmp_path / "missing.json"] * (2 if name == "tensor" else 1)
        inputs += CONSTRUCT_REQUIRES.get(name, [])
        option = [flag, *CHECK_ONLY[flag]]
        for argv in (inputs + option, option + inputs):
            error = refusal(capsys, "construct", name, *argv)
            assert error == f"error: unrecognized arguments: {' '.join(option)}"

    def test_unread_options_are_named_together(self, tmp_path, capsys):
        argv = ["--kind", "bogus", "--ideal", "zz", "--type", "2", "--force"]
        error = refusal(capsys, "construct", "commutator", tmp_path / "missing.json", *argv)
        assert error == "error: unrecognized arguments: --kind bogus --ideal zz --type 2 --force"

    @pytest.mark.parametrize("name", sorted(CONSTRUCT_READS))
    def test_arity4_cap_is_a_usage_error(self, tmp_path, capsys, name):
        # No --verify suite has an arity-4 member, so construct has no cap.
        inputs = [tmp_path / "missing.json"] * (2 if name == "tensor" else 1)
        inputs += CONSTRUCT_REQUIRES.get(name, [])
        error = refusal(capsys, "construct", name, *inputs, "--verify", "hom_lie", "--arity4-cap", "3")
        assert error == "error: unrecognized arguments: --arity4-cap 3"

    @pytest.mark.parametrize("argv", [["--type", "1"], ["--n", "1"], ["--ideal", ""]])
    def test_unread_options_are_refused_at_their_default(self, tmp_path, capsys, argv):
        error = refusal(capsys, "construct", "commutator", tmp_path / "missing.json", *argv)
        assert error == f"error: unrecognized arguments: {' '.join(argv)}"

    @pytest.mark.parametrize("name", sorted(CONSTRUCT_READS))
    def test_help_lists_only_the_options_read(self, capsys, name):
        with pytest.raises(SystemExit) as exited:
            run("construct", name, "--help")
        assert exited.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out))
        reads = CONSTRUCT_READS[name] | {ALIASES[flag] for flag in CONSTRUCT_READS[name] & set(ALIASES)}
        assert listed == {"--help", "--out", "--verify"} | reads

    def test_unknown_basis_name_prints_unquoted(self, fixtures_dir, capsys):
        path = fixtures_dir / "assoc_3dim.json"
        assert run("construct", "quotient", path, "--ideal", "e9") == 3
        assert capsys.readouterr().err == "error: unknown basis element 'e9'\n"

    @pytest.mark.parametrize("command, builder, argv", [
        ("construct", "derived_algebra",
         ["derived", "hnp_admissible_mult_synth_4dim.json", "--type", "2", "--n", "30"]),
        ("check", "run_suite", ["hnp_4dim.json", "--kind", "hnp"]),
    ])
    def test_out_of_memory_exits_three(self, fixtures_dir, monkeypatch, capsys, command, builder, argv):
        # A builder that runs out of memory; nothing is allocated for real.
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, builder, exhausted)
        argv = [fixtures_dir / a if a.endswith(".json") else a for a in argv]
        assert run(command, *argv) == 3
        assert capsys.readouterr().err == f"error: homcolor {command} ran out of memory\n"

    @pytest.mark.parametrize("ideal", [None, "", "e4,", " , e4"])
    def test_quotient_without_ideal_names_exits_three(self, tmp_path, capsys, ideal):
        # The input does not exist: argparse refuses the option before any read.
        extra = [] if ideal is None else ["--ideal", ideal]
        error = refusal(capsys, "construct", "quotient", tmp_path / "missing.json", *extra)
        if ideal is None:
            assert error == "error: the following arguments are required: --ideal"
        else:
            assert error == f"error: argument --ideal: expected NAME[,NAME...], got {ideal!r}"

    def test_derivation_product_without_map_exits_three(self, tmp_path, capsys):
        error = refusal(capsys, "construct", "derivation-product", tmp_path / "missing.json")
        assert error == "error: the following arguments are required: --map"

    @pytest.mark.parametrize("argv, usage", [
        (["construct", "commutator", "x.json", "--kind", "hnp"], "homcolor construct commutator"),
        (["check", "x.json", "--kind", "hnp", "--force"], "homcolor check"),
    ], ids=["construct-commutator", "check"])
    def test_unrecognized_arguments_print_the_subcommand_usage(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as exited:
            run(*argv)
        assert exited.value.code == 3
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith(f"usage: {usage} [-h]")
        assert lines[-1].startswith("error: unrecognized arguments: ")


class TestReport:
    def test_empty_inputs_exit_zero(self, capsys):
        assert run("report") == 0
        assert capsys.readouterr().out == ""

    def test_mixed_reports_exit_mirrors_worst(self, fixtures_dir, tmp_path, capsys):
        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        run("check", fixtures_dir / "hnp_4dim.json", "--kind", "hnp", "--report", good)
        run("check", fixtures_dir / "hnp_4dim_perturbed.json", "--kind", "hnp", "--report", bad)
        capsys.readouterr()
        assert run("report", good) == 0
        assert run("report", good, bad) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "PASS" in out

    def test_manifest_annotates_rows(self, fixtures_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        run("check", fixtures_dir / "hnp_4dim_perturbed.json", "--kind", "hnp", "--report", bad)
        capsys.readouterr()
        code = run("report", bad, "--manifest", fixtures_dir / "manifest.json")
        assert code == 1  # expected failures still mirror the verdict
        assert "FAIL" in capsys.readouterr().out

    def test_malformed_report_exits_three(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{")
        assert run("report", path) == 3

    @pytest.mark.parametrize("doc, field", [
        ([], "expected an object, got list"),
        ("pass", "expected an object, got str"),
        ({"kind": "hnp", "status": "pass"}, "missing field 'input'"),
        ({"input": 3, "kind": "hnp", "status": "pass"}, "field 'input' must be a string"),
        ({"input": "a.json", "kind": ["hnp"], "status": "pass"}, "field 'kind' must be a string"),
        ({"input": "a.json", "kind": "hnp", "status": "weird"}, "field 'status' is 'weird'"),
        ({"input": "a.json", "kind": "hnp", "status": None}, "field 'status' must be a string"),
    ])
    def test_mistyped_report_exits_three(self, tmp_path, capsys, doc, field):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        assert run("report", path) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed report file {path}: ") and field in err

    @pytest.mark.parametrize("doc, message", [
        ([], "expected an object, got list"),
        ({}, "missing field 'fixtures'"),
        ({"fixtures": {}}, "field 'fixtures' must be a list, got dict"),
        ({"fixtures": [3]}, "fixtures[0]: expected an object, got int"),
        ({"fixtures": [{"checks": []}]}, "fixtures[0]: missing field 'file'"),
        ({"fixtures": [{"file": 3, "checks": []}]}, "fixtures[0]: field 'file' must be a string"),
        ({"fixtures": [{"file": "a.json"}]}, "fixtures[0]: missing field 'checks'"),
        ({"fixtures": [{"file": "a.json", "checks": "hnp"}]}, "field 'checks' must be a list"),
        ({"fixtures": [{"file": "a.json", "checks": [{"expected": "pass"}]}]},
         "fixtures[0].checks[0]: missing field 'kind'"),
        ({"fixtures": [{"file": "a.json", "checks": [{"kind": 1, "expected": "pass"}]}]},
         "fixtures[0].checks[0]: field 'kind' must be a string"),
        ({"fixtures": [{"file": "a.json", "checks": [{"kind": "hnp", "expected": None}]}]},
         "fixtures[0].checks[0]: field 'expected' must be a string, got NoneType"),
    ])
    def test_mistyped_manifest_exits_three(self, tmp_path, capsys, doc, message):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        assert run("report", "--manifest", path) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed manifest {path}: ") and message in err

    def test_undecodable_manifest_exits_three(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text("{")
        assert run("report", "--manifest", path) == 3
        assert capsys.readouterr().err.startswith(f"error: {path}: line 1")
