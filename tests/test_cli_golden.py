"""Golden CLI records: each case's stdout must match the committed file
byte for byte.

The records in tests/golden/ pin the CLI output across refactors and
speedups.  `selftest` is left out because its records carry wall times.
To write the records again (only when an output change is intended and
recorded), run from the root of a checkout:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import math
import os
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from dynheights.cli import _build_parser, _parse_argv, dispatch

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
GRAPH = "tests/golden/graph.json"  # relative, since the record echoes it
LARGE_PRIME_MAP = "(x^3 + 1234567891)/(x^2 + 987654323*x + 1)"

CASES = {
    "height": ["height", "--point=-22/7"],
    "canheight_poly": ["canheight", "--map", "x^2 - 29/16",
                       "--point", "1/4", "--per-place"],
    "canheight_rational": ["canheight", "--map",
                           "(3*x^4 - 7*x + 11)/(5*x^3 + 2*x^2 - 13)",
                           "--point=-5/7", "--per-place"],
    "canheight_large_prime": ["canheight", "--map",
                              "(x^3 + 1234567*x + 89)/(x^2 + 98765*x + 4321)",
                              "--point", "2/9", "--per-place",
                              "--eps", "1e-7"],
    # sum() of floats is compensated from Python 3.12 on; this record
    # pins the left-to-right sums of the Green ledger on every version
    "canheight_sum_order": ["canheight", "--map",
                            "x^6 + 8*x^5 + 10*x^4 + 15/4*x^3 - 12*x^2"
                            " - 37/4*x + 11/3",
                            "--point=-19/23", "--per-place"],
    # the 2-adic term is -log 2 * 127/256; closing the ledger at the first
    # repeat of a state modulo 2^(2m+2) printed -log 2 / 2
    "canheight_2adic_closure": ["canheight", "--map",
                                "(-43*x^2 + 90*x + 39)/(10*x^2 - 27*x + 21)",
                                "--point=-16/21", "--per-place"],
    # 14 -> 13 -> -3/2 -> 13, a 2-cycle with multiplier -209.25: every
    # place sums its series over the exact cycle, so no double iteration
    # runs and the height is 0
    "canheight_preperiodic_repelling": ["canheight", "--map",
                                        "x^2 - 25/2*x - 8", "--point", "14",
                                        "--per-place"],
    "preperiodic_cycle": ["preperiodic", "--map", "x^2 - 29/16",
                          "--point", "1/4"],
    # Res is -2^2 3^4 times a 34-digit prime, which factorize could only
    # prove by trial division; neither command reads the primes of Res
    "preperiodic_large_prime": ["preperiodic", "--map",
                                LARGE_PRIME_MAP, "--point", "0"],
    "preperiodic_escape": ["preperiodic", "--map", "(x^2 - 1)/(4*x)",
                           "--point", "3"],
    # an 80 x 80 Sylvester matrix: the threshold carries the largest
    # cofactor of its elimination, taken with Res in one Bareiss pass
    "preperiodic_degree_40": ["preperiodic", "--map",
                              "((x+1)^40 + 3)/((x-1)^39*(x+7))",
                              "--point", "2"],
    "scan_pair": ["scan-pair", "--phi", "x^2", "--psi", "x^2 - 1",
                  "--max-height", "2"],
    # the escape threshold is (C_arch + log|Res|) / (d - 1) = 4.14, so the
    # box stops at 63 a side: 8 002 candidates, not 3 766 141
    "scan_pair_rational": ["scan-pair", "--phi", "(x^2 - 2)/(x + 3)",
                           "--psi", "(x^2 - 2)/(x + 3)",
                           "--max-height", "30"],
    "mahler_both": ["mahler", "--poly", "x^3 - x - 1", "--method", "both",
                    "--nodes", "4096"],
    # the roots of x^8 + 1 are the nodes of the coarse grid of 8: P and
    # 1 + b^8 vanish there together (a traceback when the quadrature
    # divided |P|^2 by the product of the factors z - a)
    "mahler_root_on_node": ["mahler", "--poly", "x^8 + 1", "--method",
                            "both", "--nodes", "16"],
    "bound": ["bound", "--ell", "2", "--psi", "1 - x", "--nodes", "4096"],
    "energy": ["energy", "--phi", "x^2", "--psi", "1 - x",
               "--nodes", "1024"],
    "scan_quadratic": ["scan", "--ell", "2", "--psi", "x + 1",
                       "--threshold", "0.8", "--max-height", "2",
                       "--quadratic"],
    "equidist": ["equidist", "--map", "(x^2 - 1)/(2*x + 3)", "--target",
                 "1/2", "--level", "3", "--moments", "4"],
    "equidist_large_prime": ["equidist", "--map", LARGE_PRIME_MAP,
                             "--target", "0", "--level", "3",
                             "--moments", "4"],
    # a level-3 preimage has a subnormal imaginary part, whose angle
    # underflows (cmath.phase raised OverflowError on it)
    "equidist_subnormal_phase": ["equidist", "--map", LARGE_PRIME_MAP,
                                 "--target", "1/2", "--level", "3"],
    "graph_curvature": ["graph", "curvature", "--file", GRAPH],
    "graph_energy": ["graph", "energy", "--file", GRAPH],
    # fractional coefficients outside a map: each command clears the
    # denominators of its polynomial before any float is formed
    "mahler_fractional": ["mahler", "--poly", "x^2/3 - 7/2*x + 5/6",
                          "--method", "both", "--nodes", "4096"],
    "bound_fractional": ["bound", "--ell", "1", "--psi", "3/2*x^2 - 1/3",
                         "--nodes", "4096"],
    # |psi| > 1 on the whole circle, at a root of multiplicity 4 that
    # `complex_roots` refuses: M^+ is the trapezoid mean of the grid
    "bound_repeated_root": ["bound", "--ell", "1", "--psi", "(x-9)^4"],
    "energy_fractional": ["energy", "--phi", "x^2/2 - 1",
                          "--psi", "3/4*x + 1/5", "--nodes", "1024"],
    "scan_quadratic_fractional": ["scan", "--ell", "1", "--psi",
                                  "x/2 + 1/2", "--threshold", "1.0",
                                  "--max-height", "2", "--quadratic"],
    # Res(x^3/3 - x/3, x^2 - 1) = 0: the parse divides out the gcd
    "mahler_common_factor": ["mahler", "--poly", "(x^3/3 - x/3)/(x^2 - 1)"],
    "canheight_common_factor": ["canheight", "--map",
                                "((x+2)^5)/((x+2)^3*(x-5))",
                                "--point", "1/3", "--per-place"],
    "parse_error": ["canheight", "--map", "(x^2 + 3)/(x - ", "--point", "1"],
    "degenerate_map": ["preperiodic", "--map", "(x^2 - 1)/(x + 1)",
                       "--point", "2"],
}


def expected_code(name):
    """The exit code of a case: 1 for the two error records, else 0."""
    return 1 if name in ("parse_error", "degenerate_map") else 0


def _record(argv):
    """(exit code, stdout) of one dispatch, run from the checkout root."""
    buf = StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(buf):
            code = dispatch(argv)
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name):
    code, out = _record(CASES[name])
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert code == expected_code(name)
    assert out == expected


def test_bound_repeated_root_is_jensen():
    """The record's bound is log M^+((x - 9)^4) / 5 = 4 log 9 / 5."""
    import json
    rec = json.loads((GOLDEN / "bound_repeated_root.out").read_text())
    expected = 4 * math.log(9) / 5
    assert abs(rec["outputs"]["bound"] - expected) <= 1e-15 * expected


def test_golden_argv_take_the_table_path():
    """Every golden argv is read through the table, to the Namespace that
    argparse returns."""
    for argv in CASES.values():
        args = _parse_argv(argv)
        assert args is not None, argv
        assert vars(args) == vars(_build_parser().parse_args(argv))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        _, out = _record(argv)
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
        sys.stdout.write(f"{name}: {len(out)} bytes\n")
