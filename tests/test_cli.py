"""CLI dispatch: JSON shape, determinism, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
import time
import types
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import dynheights

from dynheights import cli
from dynheights.cli import dispatch, to_json
from dynheights.errors import RootFindingError
from dynheights.polys import parse_poly
from dynheights.roots import complex_roots


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


# the encoder before its single-function form, kept as the reference
_REF_ESCAPES = {0x22: '\\"', 0x5C: "\\\\",
                **{c: "\\u%04x" % c for c in range(0x20)}}


def _ref_float(x):
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite real in output: {x}")
    s = "%.17g" % x
    return "0" if s == "-0" else s


def _ref_dict(obj):
    items = sorted([(str(k), v) for k, v in obj.items()], key=itemgetter(0))
    return "{%s}" % ", ".join(
        '"%s": %s' % (k.translate(_REF_ESCAPES), _ref_to_json(v))
        for k, v in items)


def _ref_list(obj):
    return "[%s]" % ", ".join(_ref_to_json(v) for v in obj)


_REF_ENCODERS = {
    type(None): lambda obj: "null",
    bool: lambda obj: "true" if obj else "false",
    Fraction: lambda obj: '"%s"' % obj,
    int: str,
    float: _ref_float,
    str: lambda obj: '"%s"' % obj.translate(_REF_ESCAPES),
    complex: lambda obj: _ref_to_json({"re": obj.real, "im": obj.imag}),
    dict: _ref_dict,
    list: _ref_list,
    tuple: _ref_list,
}


def _ref_to_json(obj):
    encode = _REF_ENCODERS.get(type(obj))
    if encode is None:
        encode = next((_REF_ENCODERS[t] for t in type(obj).__mro__
                       if t in _REF_ENCODERS), None)
        if encode is None:
            raise TypeError(f"cannot serialize {type(obj).__name__}")
    return encode(obj)


_reals = st.floats(allow_nan=False, allow_infinity=False)
_scalars = st.one_of(
    _reals, st.sampled_from([0.0, -0.0, 1e-320, -1.5e308]),
    _reals.map(np.float64), st.just(np.float64(-0.0)),
    st.text(), st.integers(), st.booleans(), st.none(),
    st.fractions(), st.complex_numbers(allow_nan=False,
                                       allow_infinity=False))
_records = st.recursive(_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4) | st.integers(-3, 3)
                    | st.sampled_from(["1", "-1", "inf", "2"]),
                    inner, max_size=5)), max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(_records)
def test_to_json_matches_reference_encoder(obj):
    assert to_json(obj) == _ref_to_json(obj)


def _echo(args):
    """A handler that writes the parsed arguments back as the record
    (with the flag `dispatch` reads from a selftest record)."""
    return {}, {"all_passed": True, **{
        k: repr(v) for k, v in vars(args).items() if k != "handler"}}


@pytest.fixture
def echo_parser(monkeypatch):
    """The CLI's parser with every handler replaced by `_echo`, for the
    table and argparse alike; the clock is stopped at 0, so a timing
    record is reproducible.  Yields the subparsers action."""
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    saved = {name: dict(p._defaults)
             for name, p in subparsers.choices.items()}
    for p in subparsers.choices.values():
        p._defaults["handler"] = _echo
    monkeypatch.setattr(cli, "time",
                        types.SimpleNamespace(perf_counter=lambda: 0.0))
    cli._argv_table.cache_clear()
    yield subparsers
    for name, p in subparsers.choices.items():
        p._defaults.update(saved[name])
    cli._argv_table.cache_clear()


_VALUES = ["1/2", "-5/7", "-3", "2", "0", "1e-3", "nan", "abc", "1.5", " 7",
           "3_0", "", "x^2 - 1", "x^2-2", "roots", "quad", "both", "nope",
           "curvature", "laplacian", "energy", "tests/golden/graph.json",
           "--point", "-", "--", "-h", "a--b", "=", "---"]
_NOISE = ["--", "-h", "--help", "--timing", "--po", "--per", "--meth",
          "--bogus", "-x", "heig", "height", "selftest", "-1"]


def _good_values(action):
    """Values that pass the action's type and choices."""
    if action.choices is not None:
        return sorted(action.choices)
    if action.type is float:
        return ["0.5", "1e-3", "2", "nan", "inf", " 3 "]
    if action.type is int:
        return ["1", "2", "64", "1_0"]
    return ["1/2", "x^2 - 1", "a=b", "x y"]


@st.composite
def _argv(draw, subparsers):
    """An argv around one subcommand: its required arguments and some
    others with values that pass, in either form, in any order, repeats
    among them, and sometimes noise: bad values, abbreviations, help,
    `--`, values that start with `-`, unknown words."""
    names = sorted(subparsers.choices)
    argv = ["--timing"] * draw(st.integers(0, 2))
    name = draw(st.sampled_from(names + ["heig", "--help"]))
    argv.append(name)
    parser = subparsers.choices.get(name, subparsers.choices["height"])
    actions = [a for a in parser._actions
               if not isinstance(a, argparse._HelpAction)]

    def good(action):
        value = draw(st.sampled_from(_good_values(action)))
        if not action.option_strings:
            return [value]
        option = draw(st.sampled_from(action.option_strings))
        if action.nargs == 0:
            return [option]
        return draw(st.sampled_from([[option, value],
                                     [option + "=" + value]]))

    pieces = [good(a) for a in actions if a.required]
    pieces += [good(draw(st.sampled_from(actions)))
               for _ in range(draw(st.integers(0, 3)))]
    options = sorted(s for a in actions for s in a.option_strings)
    noise = st.one_of(
        st.tuples(st.sampled_from(options), st.sampled_from(_VALUES)),
        st.builds(lambda o, v: (o + "=" + v,), st.sampled_from(options),
                  st.sampled_from(_VALUES)),
        st.tuples(st.sampled_from(_NOISE + _VALUES)))
    pieces += draw(st.lists(noise, max_size=2))
    for piece in draw(st.permutations(pieces)):
        argv.extend(piece)
    return argv


def _outcome(capsys, argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the fixtures hold no state that one example could leave to the next:
# the echo parser is fixed, and each outcome reads capsys empty
@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_table_parse_matches_argparse(echo_parser, capsys, monkeypatch,
                                      data):
    """Random argv, valid and invalid, give the same exit code, stdout and
    stderr through `dispatch` as through argparse alone."""
    argv = data.draw(_argv(echo_parser))
    got = _outcome(capsys, argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "_parse_argv", lambda argv: None)
        want = _outcome(capsys, argv)
    assert got == want


def test_leading_timing_takes_the_table_path(echo_parser, capsys):
    argv = ["--timing", "height", "--point=1/2"]
    args = cli._parse_argv(argv)
    assert vars(args) == vars(cli._build_parser().parse_args(argv))
    assert args.timing is True and args.point == "1/2"
    code, out, _ = _outcome(capsys, argv)
    assert code == 0 and json.loads(out)["timing_ms"] == 0


def test_repeated_option_last_wins(capsys):
    argv = ["mahler", "--poly", "x - 2", "--nodes", "64", "--method=quad",
            "--poly=x - 3", "--method", "roots"]
    args = cli._parse_argv(argv)
    assert vars(args) == vars(cli._build_parser().parse_args(argv))
    assert args.poly == "x - 3" and args.method == "roots"
    code, rec = run(capsys, *argv)
    assert code == 0 and rec["inputs"]["poly"] == "x - 3"
    assert abs(rec["outputs"]["log_value"] - math.log(3)) < 1e-12


@pytest.mark.parametrize("argv", [
    ["canheight", "--map=--", "--point", "1"],
    ["equidist", "--map=--", "--target", "1", "--level", "2"],
    ["height", "--point=--"],
])
def test_double_dash_value_is_a_parse_error_record(capsys, argv):
    """`--opt=--` gives a str option the literal "--" on every Python, as
    argparse does from 3.13 (before, it stored [] and the handler raised
    TypeError or AttributeError): a ParseError record, nothing on stderr."""
    code, out, err = _outcome(capsys, argv)
    assert (code, err) == (1, "")
    assert json.loads(out)["outputs"]["error"] == "ParseError"


@pytest.mark.parametrize("argv, message", [
    (["equidist", "--map=x^2", "--target=1", "--level=--"],
     "argument --level: invalid int value: '--'"),
    (["mahler", "--poly=x", "--method=--"],
     "argument --method: invalid choice: '--'"),
])
def test_double_dash_value_of_a_typed_option_is_a_usage_error(capsys, argv,
                                                              message):
    code, out, err = _outcome(capsys, argv)
    assert (code, out) == (2, "")
    assert message in err


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
    # a subclass is encoded as its nearest base (numpy's float64 is one of
    # float); a type with no base in the table is refused
    assert to_json({1: type("F", (float,), {})(0.1), (2,): (-3, 2j)}) == \
        '{"(2,)": [-3, {"im": 2, "re": 0}], "1": 0.10000000000000001}'
    with pytest.raises(TypeError, match="cannot serialize set"):
        to_json({1})


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


@pytest.mark.parametrize("poly, nodes", [
    ("x^16 + 1", 16), ("x^16 + 1", 32), ("x^32 + 1", 32)])
def test_mahler_roots_on_grid_nodes(capsys, poly, nodes):
    """Roots that are nodes of the fine or the coarse offset grid give a
    record: the quadrature divided |P|^2 by the product of the factors
    z - a, which vanished there, and raised on the inf.  The grid with
    the roots on it is off; the node-doubling estimate covers that."""
    code = dispatch(["mahler", "--poly", poly, "--method", "both",
                     "--nodes", str(nodes)])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    rec = json.loads(out)["outputs"]
    roots, quad = rec["roots"]["log_value"], rec["quad"]["log_value"]
    assert math.isfinite(roots) and math.isfinite(quad)
    assert math.isfinite(rec["quad"]["error_estimate"])
    assert abs(quad - roots) <= rec["quad"]["error_estimate"] + 1e-15


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


_EDGE = '{"u": "a", "v": "b", "length": "1"}'


@pytest.mark.parametrize("text", [
    "{}",                                                  # no vertices
    '{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b"}]}',
    "[1, 2]",                                              # not an object
    '{"vertices": ["a", "b"], "edges": [%s], '
    '"divisor": [{"coeff": [1], "vertex": "a"}]}' % _EDGE,
    '{"vertices": [["a"]]}',                               # unhashable name
    '{"vertices": ["a", "b"], '
    '"edges": [{"u": "a", "v": "b", "length": 1e400}]}',   # inf
])
def test_malformed_graph_file_is_shape_error(tmp_path, capsys, text):
    """A file of another shape is a GraphShapeError record; these printed
    a KeyError, TypeError or OverflowError traceback."""
    gfile = tmp_path / "g.json"
    gfile.write_text(text)
    code = dispatch(["graph", "curvature", "--file", str(gfile)])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert json.loads(out)["outputs"]["error"] == "GraphShapeError"


@pytest.mark.parametrize("value", ["1_000", "2 / 3", "1.5", "1e3", "1/0"])
@pytest.mark.parametrize("field", ["length", "f"])
def test_graph_rationals_share_one_grammar(tmp_path, capsys, value, field):
    """A string length or f value is read as `places.parse_rational`
    reads it, on every Python version: Fraction's own grammar took
    "1_000" and "1.5", and "2 / 3" from Python 3.12 on."""
    edge = {"u": "a", "v": "b", "length": 1}
    data = {"vertices": ["a", "b"], "edges": [edge], "f": {"a": "2/3"}}
    if field == "length":
        edge["length"] = value
    else:
        data["f"]["b"] = value
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps(data))
    code = dispatch(["graph", "energy", "--file", str(gfile)])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    rec = json.loads(out)["outputs"]
    assert rec["error"] == "GraphShapeError" and repr(value) in rec["message"]


@pytest.mark.parametrize("poly, error", [
    # the parser recursed once per parenthesis, to a RecursionError
    ("(" * 260 + "x" + ")" * 260, "ParseError"),
    # a 10^11-entry coefficient tuple, and a 3.3-gigabit constant
    ("x^99999999999", "WorkBudgetError"),
    ("10^1000000000", "WorkBudgetError"),
    # products of many terms within the degree and bit limits: unbudgeted,
    # these took 3.5 s, 7.7 s and 1.0 s on a 2-vCPU x86 VM, and the last
    # did not finish in 100 s
    ("(x+1)^3000", "WorkBudgetError"),
    ("(x^2+x+1)^2000", "WorkBudgetError"),
    ("(x+1)^1000*(x-1)^1000", "WorkBudgetError"),
    ("(10^1000*x+1)^300", "WorkBudgetError"),
])
def test_parse_bounds_its_own_work(capsys, poly, error):
    start = time.perf_counter()
    code = dispatch(["mahler", "--poly", poly])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert json.loads(out)["outputs"]["error"] == error
    assert elapsed < 1.0


@pytest.mark.parametrize("argv", [
    ["height", "--point", "1.5"],     # printed the point 3/2
    ["equidist", "--map", "x^2", "--target", "1.5", "--level", "1"],
])
def test_points_and_targets_share_one_rational_grammar(capsys, argv):
    code = dispatch(argv)
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert json.loads(out)["outputs"]["error"] == "ParseError"


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
    # |psi| <= 2 10^-400 on the level curve, so log max(|psi|, 1) = 0; the
    # floor 1/scale of the first is beyond the double range
    for psi in ("x/10^400", "(x^2 + 1)/10^400"):
        code, rec = run(capsys, "energy", "--phi", "x^2", "--psi", psi,
                        "--nodes", "64")
        assert code == 0 and rec["outputs"]["energy"] == 0


_BIG = "1" + "0" * 400  # 10^400, beyond the double range
# every float command at the edges of the double range: the error type of
# its record, None for a value, or the height a canheight record prints
# (within its eps of 1e-9)
_DOUBLE_RANGE_EDGES = [
    # the leading coefficient underflows once scaled by the largest: the
    # quadratic's closed form divided by zero, and the cubic's Newton
    # polygon gave too few start points
    (["energy", "--phi", "10^-200*x^2 + 10^200", "--psi", "x",
      "--nodes", "64"], "CoefficientRangeError"),
    (["energy", "--phi", "10^-200*x^3 + 10^200", "--psi", "x",
      "--nodes", "64"], "CoefficientRangeError"),
    # the leading coefficient of phi converts to 0.0 (a degree drop)
    (["energy", "--phi", "10^-400*x^2 + 1", "--psi", "x"],
     "CoefficientRangeError"),
    # the map's integer form holds 10^400, which float() cannot convert
    (["equidist", "--map", "10^-200*x^2 + 10^200", "--target", "1",
      "--level", "1"], "CoefficientRangeError"),
    # these three printed a traceback and no record: the map's
    # coefficient, the point's coordinate and 1/scale of psi overflowed;
    # the map's Green function iterates F on ints, so it has a height
    (["canheight", "--map", "x^2 + 10^400", "--point", "1"], None),
    (["canheight", "--map", "x^2 - 1", "--point", _BIG], None),
    (["energy", "--phi", "x^2", "--psi", "x/10^400", "--nodes", "64"], None),
    (["canheight", "--map", "x^2 - 1", "--point", "1/" + _BIG], None),
    (["equidist", "--map", "x^2", "--target", _BIG, "--level", "1"],
     "CoefficientRangeError"),
    (["equidist", "--map", "x^2", "--target", "1/" + _BIG, "--level", "2"],
     None),
    (["mahler", "--poly", "x^2 + 10^400", "--method", "both",
      "--nodes", "64"], "CoefficientRangeError"),
    # psi tiny everywhere: every quotient of its coefficients underflows
    (["mahler", "--poly", "(x^2 + x + 1)/10^400", "--method", "both",
      "--nodes", "64"], None),
    (["bound", "--ell", "1", "--psi", "(x^2 + 1)/10^400", "--nodes", "64"],
     None),
    (["energy", "--phi", "x^2", "--psi", "(x^2 + 1)/10^400",
      "--nodes", "64"], None),
    (["scan", "--ell", "1", "--psi", "(x^2 + 1)/10^400", "--threshold", "1",
      "--max-height", "1", "--quadratic"], None),
    (["scan", "--ell", "1", "--psi", "10^400*x^2 + 1", "--threshold", "1",
      "--max-height", "1", "--quadratic"], None),
    # the map's coefficients 2 658 bits apart, which no one scaling puts
    # into doubles: the orbit 1, 10^800 + 1, ... has height 400 log 10
    (["canheight", "--map", "x^2 + 10^800", "--point", "1"],
     400 * math.log(10)),
]


@pytest.mark.parametrize(
    "argv, error", _DOUBLE_RANGE_EDGES,
    ids=[f"argv{i}" for i in range(len(_DOUBLE_RANGE_EDGES))])
def test_coefficient_span_beyond_double_range(capsys, argv, error):
    code = dispatch(argv)
    out, err = capsys.readouterr()
    assert err == ""
    rec = json.loads(out)
    if error is None:
        assert code == 0 and "error" not in rec["outputs"]
    elif isinstance(error, float):
        assert code == 0 and abs(rec["outputs"]["height"] - error) <= 1e-9
    else:
        assert code == 1 and rec["outputs"]["error"] == error


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
    # degree 9 or 10, so the numpy kernel raised it, with every iterate
    P = parse_poly(argv[2])
    with pytest.raises(RootFindingError) as info:
        complex_roots(P)
    assert len(info.value.best) == P.degree()


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
    # the lower escape threshold, 15.2, is above H: the box of e^10
    (["scan-pair", "--phi", "x^2 - 1000000", "--psi", "x^2 - 1000000",
      "--max-height", "10"], "970311379"),
    # 200 units a quadratic candidate (it ran for 30 s at one unit)
    (["scan", "--ell", "1", "--psi", "x^200", "--threshold", "2",
      "--max-height", "4", "--quadratic"], "1002937"),
    # grid nodes, refused before a grid is allocated
    (["energy", "--phi", "x^2", "--psi", "x", "--nodes", "100000000"],
     "100000000"),
    (["mahler", "--poly", "x^2 - 2", "--method", "quad", "--nodes",
      str(2 ** 30)], str(2 ** 30)),
    (["mahler", "--poly", "x^2 - 2", "--method", "both", "--nodes",
      str(2 ** 20)], str(2 ** 20)),
    (["bound", "--ell", "1", "--psi", "x - 2", "--nodes", str(2 ** 30)],
     str(2 ** 30)),
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


def test_equidist_moments_beyond_budget(capsys):
    # 10^7 moments of the 16 level-4 preimages of 1 under x^2, all on the
    # unit circle: refused after the 30 solves, before the first moment
    start = time.perf_counter()
    code = dispatch(["equidist", "--map", "x^2", "--target", "1",
                     "--level", "4", "--moments", "10000000"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    rec = json.loads(out)
    assert rec["outputs"]["error"] == "WorkBudgetError"
    assert " 160000000 terms" in rec["outputs"]["message"]
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


@pytest.mark.parametrize("argv", [["height", "--point", "1/2"],
                                  ["selftest", "--filter", "graph"]])
def test_broken_pipe_exits_without_traceback(argv):
    """A reader that is gone before the record is written (`| head -c 0`):
    exit 1, and no traceback on stderr.  `selftest` writes its progress
    lines there, and nothing else."""
    src = str(Path(dynheights.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "dynheights.cli", *argv],
                              env=env, stdout=write, stderr=subprocess.PIPE,
                              text=True)
    finally:
        os.close(write)
    assert proc.returncode == 1
    if argv[0] == "selftest":
        assert proc.stderr and all(" PASS " in line
                                   for line in proc.stderr.splitlines())
    else:
        assert proc.stderr == ""
