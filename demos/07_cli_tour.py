"""The batch front end, driven in-process.

Equivalent shell commands are printed before each call; exit codes are
0 = pass, 1 = identity failure, 2 = precondition failure, 3 = parse error.
"""

import pathlib
import tempfile

from homcolor.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run(*argv):
    argv = [str(a) for a in argv]
    print(f"\n$ homcolor {' '.join(argv)}")
    code = main(argv)
    print(f"[exit {code}]")
    return code


with tempfile.TemporaryDirectory() as scratch_dir:
    scratch = pathlib.Path(scratch_dir)
    run("check", FIXTURES / "hnp_4dim.json", "--kind", "hnp",
        "--report", scratch / "hnp.json")
    run("check", FIXTURES / "hnp_4dim_perturbed.json", "--kind", "hnp",
        "--report", scratch / "perturbed.json")
    run("check", FIXTURES / "hnp_4dim.json", "--kind", "hnp", "--subst", "lambda1=3/2")
    run("construct", "commutator", FIXTURES / "novikov_3dim.json",
        "--from-role", "dot", "--out", scratch / "lie.json", "--verify", "hom_lie")
    run("construct", "derived", FIXTURES / "hnp_admissible_mult_synth_4dim.json",
        "--type", "1", "--n", "2", "--verify", "admissible_hnp")
    run("construct", "tensor", FIXTURES / "hnp_admissible_4dim.json",
        FIXTURES / "hnp_admissible_4dim.json", "--verify", "admissible_hnp")
    run("construct", "quotient", FIXTURES / "gd_4dim.json", "--ideal", "e4",
        "--verify", "hom_gd")
    run("report", scratch / "hnp.json", scratch / "perturbed.json",
        "--manifest", FIXTURES / "manifest.json")
