"""Command-line front end: every subcommand prints one deterministic JSON
run record (sorted keys, 17-significant-digit reals, rationals as "a/b")
and exits 0 on success, 1 on computational failure, 2 on usage errors.

The options are declared once, in the argparse parser (`_build_parser`).
`dispatch` reads argv through a table taken off that parser's actions
(`_argv_table`): exact subcommand and option names, `--opt value` and
`--opt=value`, flags, positionals within their choices, the last of a
repeated option.  Anything else, help and every usage error among it,
goes to argparse itself, so their text and exit codes are argparse's.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .acceptance import run_all
from .bounds import (energy_level_curve, pair_bound_power,
                     preimage_measure_stats, scan_exceptions)
from .dynamics import (DynSystem, common_preperiodic_scan, green_ledger,
                       is_preperiodic)
from .errors import DynheightsError
from .graphs import (curvature, dirichlet_energy, laplacian_pl,
                     load_graph_json)
from .mahler import mahler_both, mahler_via_quadrature, mahler_via_roots
from .places import parse_point, parse_rational, weil_height
from .polys import parse_poly

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# deterministic JSON

def _fmt_float(x: float) -> str:
    if x - x != 0.0:                        # inf - inf and nan are nan
        raise ValueError(f"non-finite real in output: {x}")
    s = "%.17g" % x
    # normalize negative zero for byte-identical reruns
    return "0" if s == "-0" else s


# the quote, the backslash and the control characters, as JSON escapes
_ESCAPES = {0x22: '\\"', 0x5C: "\\\\",
            **{c: "\\u%04x" % c for c in range(0x20)}}


def _quote(s: str) -> str:
    """s as a JSON string.  A printable string holds no control character,
    so without a quote or a backslash it needs no `translate` pass, which
    costs several times these tests."""
    if s.isprintable() and '"' not in s and "\\" not in s:
        return '"%s"' % s
    return '"%s"' % s.translate(_ESCAPES)


# the encoded types a subclass can derive from (bool and None have none)
_BASES = (float, str, dict, int, list, tuple, Fraction, complex)


def to_json(obj) -> str:
    """Serialize to JSON with sorted keys and pinned number formatting.
    The exact type is tested with `is`, in the order of frequency in the
    records, which is cheaper than isinstance (a Fraction test goes
    through ABCMeta); a subclass (numpy's float64, say) is converted to
    its nearest encoded base first."""
    t = type(obj)
    if t is float:
        return _fmt_float(obj)
    if t is str:
        return _quote(obj)
    if t is dict:
        # a stable sort on str(k), as the keys are written
        return "{%s}" % ", ".join([
            "%s: %s" % (_quote(str(k)), to_json(obj[k]))
            for k in sorted(obj, key=str)])
    if t is int:
        return str(obj)
    if t is list or t is tuple:
        return "[%s]" % ", ".join([to_json(v) for v in obj])
    if t is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if t is Fraction:
        return '"%s"' % obj
    if t is complex:
        return to_json({"re": obj.real, "im": obj.imag})
    base = next((b for b in t.__mro__ if b in _BASES), None)
    if base is None:
        raise TypeError(f"cannot serialize {t.__name__}")
    return to_json(base(obj))


def _emit(command: str, inputs: dict, outputs: dict, timing_ms=None):
    record = {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "versions": {"tool": __version__, "format_version": FORMAT_VERSION},
    }
    if timing_ms is not None:
        record["timing_ms"] = timing_ms
    print(to_json(record))


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (inputs, outputs)

def _cmd_height(args):
    P = parse_point(args.point)
    return {"point": str(P)}, {"height": weil_height(P)}


def _cmd_canheight(args):
    S = DynSystem.from_expr(args.map)
    P = parse_point(args.point)
    ledger = green_ledger(S, P, args.eps / 4)
    out = {"height": ledger.total(), "tail_bound": ledger.tail_bound}
    if args.per_place:
        out["per_place"] = {str(v): g for v, g in ledger.per_place.items()}
    return {"map": args.map, "point": str(P), "eps": args.eps}, out


def _cmd_preperiodic(args):
    S = DynSystem.from_expr(args.map)
    P = parse_point(args.point)
    ok, cert = is_preperiodic(S, P)
    out = {"preperiodic": ok}
    if ok:
        out["tail"] = cert["tail"]
        out["cycle"] = cert["cycle"]
    else:
        out["escape_certificate"] = cert
    return {"map": args.map, "point": str(P)}, out


def _cmd_scan_pair(args):
    S1 = DynSystem.from_expr(args.phi)
    S2 = DynSystem.from_expr(args.psi)
    pts = common_preperiodic_scan(S1, S2, args.max_height)
    return ({"phi": args.phi, "psi": args.psi,
             "max_height": args.max_height},
            {"points": [str(P) for P in pts]})


def _cmd_mahler(args):
    P = parse_poly(args.poly)
    results = {}
    if args.method == "both":
        results["roots"], results["quad"] = mahler_both(P, nodes=args.nodes)
    elif args.method == "roots":
        results["roots"] = mahler_via_roots(P)
    else:
        results["quad"] = mahler_via_quadrature(P, nodes=args.nodes)
    out = {name: {"log_value": r.log_value, "method": r.method,
                  "error_estimate": r.error_estimate}
           for name, r in results.items()}
    if args.method != "both":
        out = out[args.method]
    return ({"poly": args.poly, "method": args.method,
             "nodes": args.nodes}, out)


def _cmd_bound(args):
    psi = parse_poly(args.psi)
    val = pair_bound_power(args.ell, psi, nodes=args.nodes)
    return ({"ell": args.ell, "psi": args.psi, "nodes": args.nodes},
            {"bound": val})


def _cmd_energy(args):
    phi = parse_poly(args.phi)
    psi = parse_poly(args.psi)
    val = energy_level_curve(phi, psi, nodes=args.nodes)
    return ({"phi": args.phi, "psi": args.psi, "nodes": args.nodes},
            {"energy": val})


def _cmd_scan(args):
    psi = parse_poly(args.psi)
    recs = scan_exceptions(args.ell, psi, args.threshold, args.max_height,
                           include_quadratic=args.quadratic)
    return ({"ell": args.ell, "psi": args.psi, "threshold": args.threshold,
             "max_height": args.max_height, "quadratic": args.quadratic},
            {"exceptions": recs, "count": len(recs)})


def _cmd_equidist(args):
    S = DynSystem.from_expr(args.map)
    a = parse_rational(args.target)
    mu, moments, disc = preimage_measure_stats(S, a, args.level,
                                               args.moments)
    return ({"map": args.map, "target": str(a), "level": args.level,
             "moments": args.moments},
            {"point_count": len(mu.points),
             "moments": [{"k": k + 1, "re": m.real, "im": m.imag}
                         for k, m in enumerate(moments)],
             "discrepancy": disc})


def _cmd_graph(args):
    with open(args.file, encoding="utf-8") as fh:
        G, D, f = load_graph_json(fh.read())
    inputs = {"operation": args.operation, "file": args.file}
    if args.operation == "curvature":
        mu = curvature(G, D, f)
        return inputs, {"vertex_masses": dict(mu.vertex_masses),
                        "total_mass": mu.total_mass(G)}
    if args.operation == "laplacian":
        mu = laplacian_pl(G, f)
        return inputs, {"vertex_masses": dict(mu.vertex_masses),
                        "total_mass": mu.total_mass(G)}
    return inputs, {"energy": dirichlet_energy(G, f)}


def _cmd_selftest(args):
    results = run_all(args.filter)
    width = max(len(r.name) for r in results) if results else 4
    for r in results:
        line = "%2d  %-*s  %s  (%d checks, %.2f s)" % (
            r.number, width, r.name, "PASS" if r.passed else "FAIL",
            r.checks, r.elapsed_s)
        print(line, file=sys.stderr)
        for f in r.failures:
            print("      " + f, file=sys.stderr)
    inputs = {"filter": args.filter}
    outputs = {"criteria": [r.as_dict() for r in results],
               "all_passed": all(r.passed for r in results)}
    return inputs, outputs


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first dispatch and kept: building
    it costs milliseconds, more than many subcommands.  The handlers it
    stores look package functions up as module globals at call time."""
    ap = argparse.ArgumentParser(
        prog="dynheights",
        description="Canonical heights, Mahler measures, metrized-graph "
                    "curvature and dynamical height bounds over Q.",
        epilog="Polynomial/map expressions use a single variable with "
               "+ - * / ^ and integer or a/b rational coefficients, "
               'e.g. "x^2 - 29/16" or "(x^2 + 1)/x".')
    ap.add_argument("--timing", action="store_true",
                    help="include wall-clock milliseconds in the record "
                         "(off by default so reruns are byte-identical)")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("height", help="Weil height of a point of P^1(Q)")
    p.add_argument("--point", required=True, help='"a/b", "inf" or "[a:b]"')
    p.set_defaults(handler=_cmd_height)

    p = sub.add_parser("canheight", help="canonical height for a rational map")
    p.add_argument("--map", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--eps", type=float, default=1e-9)
    p.add_argument("--per-place", action="store_true", dest="per_place")
    p.set_defaults(handler=_cmd_canheight)

    p = sub.add_parser("preperiodic", help="decide preperiodicity with a "
                                           "cycle or escape certificate")
    p.add_argument("--map", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(handler=_cmd_preperiodic)

    p = sub.add_parser("scan-pair", help="rational points preperiodic under "
                                         "two maps simultaneously")
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--max-height", type=float, default=3.0,
                   dest="max_height")
    p.set_defaults(handler=_cmd_scan_pair)

    p = sub.add_parser("mahler", help="log Mahler measure of an integer "
                                      "polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--method", choices=("roots", "quad", "both"),
                   default="roots")
    p.add_argument("--nodes", type=int, default=16384)
    p.set_defaults(handler=_cmd_mahler)

    p = sub.add_parser("bound", help="height lower bound for the pair "
                                     "(x^ell, psi)")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--nodes", type=int, default=16384)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("energy", help="archimedean Dirichlet energy by "
                                      "level-curve quadrature")
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--nodes", type=int, default=16384)
    p.set_defaults(handler=_cmd_energy)

    p = sub.add_parser("scan", help="points violating the height bound")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--max-height", type=float, default=3.0,
                   dest="max_height")
    p.add_argument("--quadratic", action="store_true")
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("equidist", help="preimage equidistribution "
                                        "diagnostics")
    p.add_argument("--map", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--moments", type=int, default=8)
    p.set_defaults(handler=_cmd_equidist)

    p = sub.add_parser("graph", help="metrized-graph curvature, Laplacian "
                                     "or Dirichlet energy")
    p.add_argument("operation", choices=("curvature", "laplacian", "energy"))
    p.add_argument("--file", required=True)
    p.set_defaults(handler=_cmd_graph)

    p = sub.add_parser("selftest", help="run the built-in acceptance "
                                        "criteria")
    p.add_argument("--filter", default=None,
                   help="only run criteria whose name contains this string")
    p.set_defaults(handler=_cmd_selftest)

    return ap


def _table_reads(action) -> bool:
    """Whether `_parse_argv` parses this action as argparse does: a
    store_true flag, or a store of one value whose default argparse
    leaves as it is (it converts a str default with a type)."""
    if type(action) is argparse._StoreTrueAction:
        return True
    return (type(action) is argparse._StoreAction and action.nargs is None
            and not (action.type and isinstance(action.default, str)))


@functools.cache
def _argv_table():
    """The parser's declarations as a table for `_parse_argv`, read off the
    actions of `_build_parser()`, so the options are declared once:
    (top-level flag -> dest, {subcommand: (defaults, option string ->
    action, positional actions, required dests)}).  A subcommand with an
    action that `_table_reads` refuses, or with a mutually exclusive
    group, is left out, and argparse parses it; a top-level action other
    than help, a flag or the subcommands empties the table."""
    ap = _build_parser()
    flags, top = {}, dict(ap._defaults)
    for action in ap._actions:
        if isinstance(action, argparse._SubParsersAction):
            sub_dest, parsers = action.dest, action.choices
        elif type(action) is argparse._StoreTrueAction:
            flags.update(dict.fromkeys(action.option_strings, action.dest))
            top[action.dest] = action.default
        elif type(action) is not argparse._HelpAction:
            return {}, {}
    commands = {}
    for name, sub in parsers.items():
        actions = [a for a in sub._actions
                   if type(a) is not argparse._HelpAction]
        if sub._mutually_exclusive_groups or not all(map(_table_reads,
                                                         actions)):
            continue
        defaults = {**top, sub_dest: name, **sub._defaults,
                    **{a.dest: a.default for a in actions}}
        options = {s: a for a in actions for s in a.option_strings}
        positionals = [a for a in actions if not a.option_strings]
        required = {a.dest for a in actions if a.required}
        commands[name] = (defaults, options, positionals, required)
    return flags, commands


def _parse_argv(argv):
    """The Namespace argparse returns for argv, read through `_argv_table`,
    or None when argv is not one the table reads: help, `--` (also as the
    value of `--opt=--`), an abbreviation, an unknown option, a separate
    value that starts with `-`, an empty value, a failed type or choice,
    a missing or extra argument, `=` on a flag.  Those go to argparse,
    which alone prints help and usage errors."""
    flags, commands = _argv_table()
    i = 0
    while i < len(argv) and argv[i] in flags:
        i += 1
    entry = commands.get(argv[i]) if i < len(argv) else None
    if entry is None:
        return None
    defaults, options, positionals, required = entry
    args = dict(defaults)
    for flag in argv[:i]:
        args[flags[flag]] = True
    seen, npos = set(), 0
    rest = iter(argv[i + 1:])
    for token in rest:
        if token[:1] == "-":
            option, eq, value = token.partition("=")
            action = options.get(option)
            if action is None:
                return None
            if action.nargs == 0:           # a store_true flag
                if eq:
                    return None
                value = True
            elif not eq:
                value = next(rest, "")
                if value[:1] in ("", "-"):
                    return None
            elif value in ("", "--"):           # argparse drops a "--"
                return None
        elif npos < len(positionals):
            action, value = positionals[npos], token
            npos += 1
        else:
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        args[action.dest] = value
        seen.add(action.dest)
    if npos < len(positionals) or not required <= seen:
        return None
    return argparse.Namespace(**args)


def _parse_args(argv):
    """argparse's Namespace for argv.  Before Python 3.13 argparse stores
    the value of `--opt=--` as [] and skips its type and choices; here the
    option gets the literal "--" through its type and choices instead, as
    3.13 does, so a str option reaches its handler as "--" and an int,
    float or choice option is a usage error."""
    ap = _build_parser()
    args = ap.parse_args(argv)
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    parser = sub.choices[args.subcommand]
    for action in parser._actions:
        if type(getattr(args, action.dest, None)) is list:
            try:
                value = parser._get_value(action, "--")
                parser._check_value(action, value)
            except argparse.ArgumentError as exc:
                parser.error(str(exc))
            setattr(args, action.dest, value)
    return args


def dispatch(argv) -> int:
    args = _parse_argv(argv) if argv else None
    if args is None:
        try:
            args = _parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
    t0 = time.perf_counter()
    try:
        inputs, outputs = args.handler(args)
    except (DynheightsError, ValueError, OSError) as exc:
        diag = {"error": type(exc).__name__, "message": str(exc)}
        _emit(args.subcommand, {}, diag)
        return 1
    timing = ((time.perf_counter() - t0) * 1000.0 if args.timing else None)
    _emit(args.subcommand, inputs, outputs, timing)
    if args.subcommand == "selftest" and not outputs["all_passed"]:
        return 1
    return 0


def main() -> None:
    """The console script.  A reader that closes the pipe early (`| head`)
    ends it with exit 1 and no traceback: stdout is flushed here, and on a
    broken pipe pointed at devnull, so the flush at exit cannot raise
    again (the Python docs' recipe, signal module, "Note on SIGPIPE")."""
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
