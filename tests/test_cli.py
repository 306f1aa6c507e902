"""CLI dispatch: JSON shape, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dynheights

from dynheights import cli
from dynheights.cli import dispatch, to_json


def _escape_by_character(s):
    """The JSON string escape, one character at a time."""
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


@settings(max_examples=200, deadline=None)
@given(st.text(st.characters(max_codepoint=0x2FF)) | st.text())
def test_to_json_string_escapes(s):
    assert to_json(s) == _escape_by_character(s)
    assert json.loads(to_json(s)) == s


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_to_json_formatting():
    from fractions import Fraction
    assert to_json({"b": 1.5, "a": Fraction(2, 3)}) == '{"a": "2/3", "b": 1.5}'
    assert to_json(0.1) == "0.10000000000000001"
    assert to_json(-0.0) == "0"
    assert to_json([True, None, "x\"y"]) == '[true, null, "x\\"y"]'
    with pytest.raises(ValueError):
        to_json(float("nan"))


def test_height(capsys):
    code, rec = run(capsys, "height", "--point", "2/3")
    assert code == 0
    assert rec["command"] == "height"
    assert rec["inputs"] == {"point": "2/3"}
    assert abs(rec["outputs"]["height"] - 1.0986122886681098) < 1e-15
    assert rec["versions"]["format_version"] == 1


def test_canheight_per_place(capsys):
    code, rec = run(capsys, "canheight", "--map", "x^2 - 29/16",
                    "--point", "1/4", "--per-place")
    assert code == 0
    out = rec["outputs"]
    assert abs(out["height"]) <= 1e-9
    assert set(out["per_place"]) == {"inf", "2"}
    assert out["tail_bound"] <= 1e-9


def test_preperiodic_true_and_false(capsys):
    code, rec = run(capsys, "preperiodic", "--map", "x^2 - 29/16",
                    "--point", "1/4")
    assert code == 0
    assert rec["outputs"]["preperiodic"] is True
    assert rec["outputs"]["cycle"] == ["-7/4", "5/4", "-1/4"]
    code, rec = run(capsys, "preperiodic", "--map", "x^2", "--point", "3")
    assert rec["outputs"]["preperiodic"] is False
    assert "escape_certificate" in rec["outputs"]


def test_scan_pair(capsys):
    code, rec = run(capsys, "scan-pair", "--phi", "x^2", "--psi", "x^2-1",
                    "--max-height", "2")
    assert code == 0
    assert set(rec["outputs"]["points"]) == {"0", "1", "-1", "inf"}


def test_mahler_both_methods(capsys):
    code, rec = run(capsys, "mahler", "--poly", "x^2-x-1",
                    "--method", "both", "--nodes", "4096")
    assert code == 0
    r = rec["outputs"]["roots"]["log_value"]
    q = rec["outputs"]["quad"]["log_value"]
    assert abs(r - 0.48121182505960347) < 1e-12
    assert abs(r - q) < 1e-7


def test_mahler_both_solves_once(capsys, monkeypatch):
    from dynheights import mahler
    argv = ["mahler", "--poly", "x^4 - 3*x + 1", "--nodes", "2048"]
    _, by_roots = run(capsys, *argv, "--method", "roots")
    _, by_quad = run(capsys, *argv, "--method", "quad")
    calls = []
    real = mahler.complex_roots
    monkeypatch.setattr(mahler, "complex_roots",
                        lambda P: calls.append(P) or real(P))
    code, both = run(capsys, *argv, "--method", "both")
    assert code == 0 and len(calls) == 1
    assert both["outputs"] == {"roots": by_roots["outputs"],
                               "quad": by_quad["outputs"]}


def test_bound_and_energy(capsys):
    code, rec = run(capsys, "bound", "--ell", "1", "--psi", "1-x")
    assert code == 0
    assert abs(rec["outputs"]["bound"] - 0.1615329736) < 1e-7
    code, rec = run(capsys, "energy", "--phi", "x", "--psi", "1-x",
                    "--nodes", "1024")
    assert code == 0
    assert abs(rec["outputs"]["energy"] - 0.6461318944) < 1e-3


def test_scan_and_equidist(capsys):
    code, rec = run(capsys, "scan", "--ell", "1", "--psi", "1-x",
                    "--threshold", "0.16", "--max-height", "2")
    assert code == 0
    assert rec["outputs"]["count"] == 3
    code, rec = run(capsys, "equidist", "--map", "x^2", "--target", "1",
                    "--level", "3", "--moments", "8")
    assert code == 0
    assert rec["outputs"]["point_count"] == 8
    assert abs(rec["outputs"]["discrepancy"] - 0.125) < 1e-12


def test_graph_commands(tmp_path, capsys):
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps({
        "vertices": ["a", "b"],
        "edges": [{"u": "a", "v": "b", "length": 1},
                  {"u": "a", "v": "b", "length": 1}],
        "divisor": [{"coeff": 1, "vertex": "a"}],
        "f": {"a": 0, "b": 1},
    }))
    code, rec = run(capsys, "graph", "curvature", "--file", str(gfile))
    assert code == 0
    assert rec["outputs"]["vertex_masses"] == {"a": "3", "b": "-2"}
    assert rec["outputs"]["total_mass"] == "1"
    code, rec = run(capsys, "graph", "energy", "--file", str(gfile))
    assert rec["outputs"]["energy"] == "2"


def test_determinism_byte_identical(capsys):
    dispatch(["canheight", "--map", "x^2 - 29/16", "--point", "1/4"])
    first = capsys.readouterr().out
    dispatch(["canheight", "--map", "x^2 - 29/16", "--point", "1/4"])
    second = capsys.readouterr().out
    assert first == second


def test_timing_flag_adds_field(capsys):
    code, rec = run(capsys, "--timing", "height", "--point", "1")
    assert code == 0
    assert "timing_ms" in rec


def test_map_factored_once_across_dispatches(capsys, monkeypatch):
    from dynheights import dynamics, polys
    calls = []
    real = polys.factorize
    spy = lambda n: calls.append(n) or real(n)  # noqa: E731
    monkeypatch.setattr(dynamics, "factorize", spy)
    monkeypatch.setattr(polys, "factorize", spy)
    argv = ["canheight", "--map=(x^2 - 29/16)/(3*x)", "--per-place"]
    for point in ("1/4", "9/4"):
        code, rec = run(capsys, *argv, "--point=" + point)
        assert code == 0
        assert set(rec["outputs"]["per_place"]) == {"inf", "2", "3", "29"}
    assert len(calls) == 1


@pytest.mark.parametrize("text, error", [
    ("x^^2", "ParseError"),
    ("x + 1", "DegenerateMapError"),
])
def test_rejected_map_rejected_on_every_dispatch(capsys, text, error):
    outs = []
    for _ in range(2):
        code = dispatch(["preperiodic", "--map", text, "--point", "0"])
        out = capsys.readouterr().out
        assert code == 1
        assert json.loads(out)["outputs"]["error"] == error
        outs.append(out)
    assert outs[0] == outs[1]


def test_usage_error_exit_2(capsys):
    assert dispatch(["no-such-command"]) == 2
    capsys.readouterr()
    assert dispatch(["height"]) == 2  # missing --point
    capsys.readouterr()


def test_computational_failure_exit_1(capsys):
    code, rec = run(capsys, "canheight", "--map", "x + 1", "--point", "0")
    assert code == 1
    assert rec["outputs"]["error"] == "DegenerateMapError"


def test_parse_failure_exit_1(capsys):
    code, rec = run(capsys, "mahler", "--poly", "x^^2")
    assert code == 1
    assert rec["outputs"]["error"] == "ParseError"


def test_coefficient_range_failure_exit_1(capsys):
    """A leading coefficient that underflows when scaled by the largest
    is a typed error naming the range, on every mahler route."""
    for method in ("roots", "quad", "both"):
        code, rec = run(capsys, "mahler", "--poly", "x^2 + 10^400",
                        "--method", method, "--nodes", "64")
        assert code == 1
        assert rec["outputs"]["error"] == "CoefficientRangeError"
        assert "10^0.0 (leading) to 10^400.0" in rec["outputs"]["message"]
    # an underflowing constant term only loses a root of modulus 10^-200
    code, rec = run(capsys, "mahler", "--poly", "10^400*x^2 + 1")
    assert code == 0
    assert abs(rec["outputs"]["log_value"] - 400 * math.log(10)) < 1e-12


def test_huge_psi_coefficients_bound_and_energy(capsys):
    """psi beyond the double range stays prescaled: a value that is
    defined comes back, otherwise the record is a typed error."""
    # |psi| >= 10^400 - 1 on the circle: log M^+ = log M = 400 log 10
    code, rec = run(capsys, "bound", "--ell", "1", "--psi",
                    "10^400*x^2 + 1", "--nodes", "64")
    assert code == 0
    assert abs(rec["outputs"]["bound"] * 3 - 400 * math.log(10)) < 1e-12
    code, rec = run(capsys, "energy", "--phi", "x^2", "--psi",
                    "x^2 + 10^400", "--nodes", "64")
    assert code == 1
    assert rec["outputs"]["error"] == "CoefficientRangeError"
    # log|psi| = 400 log 10 on the level curve: energy 2 l m 400 log 10
    code, rec = run(capsys, "energy", "--phi", "x^2", "--psi",
                    "10^400*x^2 + 1", "--nodes", "64")
    assert code == 0
    assert abs(rec["outputs"]["energy"] / (8 * 400 * math.log(10)) - 1) < 1e-12


@pytest.mark.parametrize("argv", [
    # the leading coefficient underflows once scaled by the largest: the
    # quadratic's closed form divided by zero, and the cubic's Newton
    # polygon gave too few start points
    ["energy", "--phi", "10^-200*x^2 + 10^200", "--psi", "x",
     "--nodes", "64"],
    ["energy", "--phi", "10^-200*x^3 + 10^200", "--psi", "x",
     "--nodes", "64"],
    # the leading coefficient of phi converts to 0.0 (a degree drop)
    ["energy", "--phi", "10^-400*x^2 + 1", "--psi", "x"],
    # the map's integer form holds 10^400, which float() cannot convert
    ["equidist", "--map", "10^-200*x^2 + 10^200", "--target", "1",
     "--level", "1"],
])
def test_coefficient_span_beyond_double_range(capsys, argv):
    code, rec = run(capsys, *argv)
    assert code == 1
    assert rec["outputs"]["error"] == "CoefficientRangeError"


@pytest.mark.parametrize("argv", [
    # near |z| = 10^40 (10^60) P(z) overflows to NaN, which passed the
    # convergence test, and the NaN roots reached the JSON writer
    ["mahler", "--poly", "(x - 10^40)*(x^8 + 1)"],
    ["mahler", "--poly", "(x - 10^40)*(x^8 + 1)", "--method", "both"],
    ["mahler", "--poly", "(x - 10^60)*(x^9 - 3)"],
])
def test_overflowing_iterate_is_root_finding_error(capsys, argv):
    code = dispatch(argv)
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    rec = json.loads(out)
    assert rec["outputs"]["error"] == "RootFindingError"


_CANHEIGHT = ["canheight", "--map", "x^2-2", "--point", "1/3", "--eps"]
_SCAN = ["scan", "--ell", "1", "--psi", "1-x"]
_SCAN_PAIR = ["scan-pair", "--phi", "x^2", "--psi", "x^2-1", "--max-height"]


@pytest.mark.parametrize("argv", [
    # a tolerance of 0 divided by zero, 1e-320 overflowed the step count,
    # and -1, inf and nan failed inside math
    _CANHEIGHT + ["0"], _CANHEIGHT + ["1e-320"], _CANHEIGHT + ["-1"],
    _CANHEIGHT + ["inf"], _CANHEIGHT + ["nan"],
    # a non-finite threshold was echoed into the record, and e^H or the
    # quadratic box overflowed
    _SCAN + ["--max-height", "1", "--threshold", "nan"],
    _SCAN + ["--max-height", "1", "--threshold", "inf"],
    _SCAN + ["--threshold", "1", "--max-height", "1000"],
    _SCAN + ["--threshold", "1000", "--max-height", "1", "--quadratic"],
    _SCAN_PAIR + ["1000"], _SCAN_PAIR + ["inf"],
])
def test_out_of_range_numbers_exit_1(capsys, argv):
    code = dispatch(argv)
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    rec = json.loads(out)
    assert rec["outputs"]["error"] == "ValueError"
    assert rec["inputs"] == {}


@pytest.mark.parametrize("argv", [
    ["scan-pair", "--phi", "x^2", "--psi", "x^2-1"],
    ["scan", "--ell", "2", "--psi", "1-x", "--threshold", "3"],
])
def test_scans_stop_at_their_height_certificates(capsys, argv):
    # no point above an escape threshold is preperiodic, and no point with
    # l h(x) >= threshold is an exception, so a larger box adds nothing
    code, at_2 = run(capsys, *argv, "--max-height", "2")
    assert code == 0
    code, at_8 = run(capsys, *argv, "--max-height", "8")
    assert code == 0
    assert at_8["outputs"] == at_2["outputs"]


@pytest.mark.parametrize("argv, count", [
    # 2 + 4 + ... + 2^40 solves, and the box of e^10 (2 e^10 + 1) pairs
    (["equidist", "--map", "x^2+1", "--target", "3", "--level", "40"],
     "2199023255550"),
    (["scan", "--ell", "1", "--psi", "1-x", "--threshold", "10",
      "--max-height", "10"], "970311379"),
])
def test_work_beyond_budget_refused_before_it_starts(capsys, argv, count):
    start = time.perf_counter()
    code = dispatch(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    rec = json.loads(out)
    assert rec["outputs"]["error"] == "WorkBudgetError"
    assert f" {count} " in rec["outputs"]["message"]
    assert elapsed < 0.5


def test_selftest_filter(capsys):
    code = dispatch(["selftest", "--filter", "level-curve"])
    out = capsys.readouterr().out
    rec = json.loads(out)
    assert code == 0
    names = [c["name"] for c in rec["outputs"]["criteria"]]
    assert names == ["level-curve-energy"]
    assert rec["outputs"]["all_passed"] is True


def test_parser_kept_across_dispatches(capsys):
    calls = [["height", "--point", "2/3"],
             ["mahler", "--poly", "x^2 - x - 1", "--method", "both",
              "--nodes", "64"],
             ["no-such-command"],
             ["energy", "--phi", "x^2", "--psi", "1 - x", "--nodes", "256"],
             ["height"],
             ["bound", "--ell", "2", "--psi", "1 - x", "--nodes", "256"],
             ["height", "--point", "inf"]]

    def outcome(argv):
        code = dispatch(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cli._build_parser.cache_clear()
    kept = [outcome(argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert kept == fresh
    assert [code for code, _, _ in kept] == [0, 0, 2, 0, 2, 0, 0]


def test_cli_runs_without_numpy():
    """Importing the CLI, and the subcommands that need no quadrature,
    leave numpy unloaded; so does a roots-only Mahler measure below the
    degree of the eigenvalue start."""
    script = "\n".join([
        "import sys",
        "import dynheights.cli",
        "assert 'numpy' not in sys.modules, 'import'",
        "for argv in (['height', '--point', '2/3'],",
        "             ['canheight', '--map', 'x^2 - 1', '--point', '1/2'],",
        "             ['scan', '--ell', '1', '--psi', '1 - x',",
        "              '--threshold', '0.99', '--quadratic'],",
        "             ['equidist', '--map', 'x^2 - 1', '--target', '2',",
        "              '--level', '4'],",
        "             ['mahler', '--poly', 'x^3 - x - 1', '--method', 'roots'],",
        "             ['mahler', '--poly', 'x^7 - x - 1', '--method', 'roots']):",
        "    assert dynheights.cli.dispatch(argv) == 0, argv",
        "    assert 'numpy' not in sys.modules, argv",
    ])
    src = str(Path(dynheights.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    assert proc.returncode == 0, proc.stderr
