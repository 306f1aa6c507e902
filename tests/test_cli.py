"""CLI dispatch: JSON shape, determinism, exit codes."""

import json

import pytest

from dynheights.cli import dispatch, to_json


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
    dispatch(["--threads", "4", "canheight", "--map", "x^2 - 29/16",
              "--point", "1/4"])
    assert capsys.readouterr().out == first


def test_timing_flag_adds_field(capsys):
    code, rec = run(capsys, "--timing", "height", "--point", "1")
    assert code == 0
    assert "timing_ms" in rec


def test_usage_error_exit_2(capsys):
    assert dispatch(["no-such-command"]) == 2
    capsys.readouterr()
    assert dispatch(["height"]) == 2  # missing --point
    capsys.readouterr()


def test_computational_failure_exit_1(capsys):
    code, rec = run(capsys, "canheight", "--map", "x + 1", "--point", "0")
    assert code == 1
    assert rec["outputs"]["error"] == "DegenerateMapError"


def test_distortion_failure_exit_1(capsys, monkeypatch):
    # a tiny cofactor bound lowers C_arch below the map's real distortion
    from dynheights import dynamics
    monkeypatch.setattr(dynamics, "_cofactor_max", lambda F: 1e-12)
    code, rec = run(capsys, "canheight", "--map",
                    "(2*x^2 - 3)/(3*x^2 - 2*x - 2)", "--point", "1")
    assert code == 1
    assert rec["outputs"]["error"] == "DistortionBoundError"


def test_parse_failure_exit_1(capsys):
    code, rec = run(capsys, "mahler", "--poly", "x^^2")
    assert code == 1
    assert rec["outputs"]["error"] == "ParseError"


def test_selftest_filter(capsys):
    code = dispatch(["selftest", "--filter", "level-curve"])
    out = capsys.readouterr().out
    rec = json.loads(out)
    assert code == 0
    names = [c["name"] for c in rec["outputs"]["criteria"]]
    assert names == ["level-curve-energy"]
    assert rec["outputs"]["all_passed"] is True
