"""Checks of one item's JSON output against its reference.

`check(item, out, ref)` returns (reason, error) where reason is None when
the answer is right, "inaccurate" for a float outside the accuracy the
routine states by no more than a known package defect explains, and
"wrong" for a wrong exact answer, a malformed record, or any other float
outside its tolerance; error is the measured float error (None for exact
kinds).  A run with a "wrong" item is not correct.

Known defects (see README.md), which give "inaccurate":
* `green_finite` declares the p-adic ledger periodic too early on some
  maps.  Its first extracted valuation c_0 is still exact, so the error
  at a finite place p is at most log p * v_p(Res) / (d (d - 1)); a larger
  one is "wrong".
* `green_archimedean` iterates in double precision, and an orbit on a
  repelling cycle loses digits at every step; the error has no useful
  bound, so any error at the archimedean place is "inaccurate".
* A repeated root on |z| = 1 costs `mahler_via_roots` about half its
  digits (errors of 1e-8 to 4.4e-6 seen, mahler items of the "double"
  stratum); errors up to 1e-3 are "inaccurate", larger ones "wrong".  On
  some of these items Aberth does not converge at all and the CLI exits
  with a RootFindingError record (`expected_exit`); the runner counts
  any other non-zero exit as "wrong".
* `bound` states no error estimate, and its 16384-node rule meets the
  kinks of log max(|psi|, 1) at |psi| = 1 (errors up to 2.1e-7 seen
  against the 1e-6 tolerance); errors up to 1e-4 are "inaccurate".
Any other float outside its tolerance is "wrong", so a fast but broken
kernel cannot pass as a speed-up.  A canheight record whose places differ
from the reference's, or whose total is not the sum of its places, is
"wrong" too.

Tolerances:
* canheight: the requested eps (1e-9), on the total and on every place,
  and the total equals the sum of the places to eps;
* height, mahler: 1e-9 absolute (the routines state residuals near
  machine precision; the mahler quadrature also states a node-doubling
  estimate, which widens its tolerance when larger);
* scan: the rational and quadratic exception sets exactly; the record
  values, for which no accuracy is stated, to 1e-6 (a point whose image
  has a double root loses about half the digits: 1.5e-9 is seen);
* bound: 1e-6 on log M+, the error scale of the 16384-node default (the
  CLI record states no estimate; the traced run compares the estimate
  log_mahler_plus states with the true error);
* energy: no estimate is stated; the O(h^2) corner error of the
  level-curve rule is allowed 1e-6 relative (absolute below 1) at 16384
  nodes, scaled by (16384 / nodes)^2;
* equidist: exact point count; the circle moments and the star
  discrepancy of the reference's 30-digit preimages to 1e-9.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

ABS_TOL = 1e-9
SCAN_TOL = 1e-6
BOUND_TOL = 1e-6
ENERGY_REL_TOL = 1e-6


def parse_point(s):
    if s == "inf":
        return (1, 0)
    x = Fraction(s)
    return (x.numerator, x.denominator)


def apply_map(spec, P):
    """[a:b] -> [F0(a,b) : F1(a,b)], normalized exactly."""
    a, b = P
    d = len(spec["f0"]) - 1
    u = sum(c * a ** i * b ** (d - i) for i, c in enumerate(spec["f0"]))
    v = sum(c * a ** i * b ** (d - i) for i, c in enumerate(spec["f1"]))
    g = math.gcd(u, v)
    u, v = u // g, v // g
    if v < 0 or (v == 0 and u < 0):
        u, v = -u, -v
    return (u, v)


def _check_canheight(spec, out, ref):
    eps = spec["eps"]
    err = abs(out["height"] - ref["height"])
    places = out.get("per_place", {})
    if (set(places) != set(ref["per_place"])
            or abs(out["height"] - sum(places.values())) > eps):
        return "wrong", err
    d = len(spec["f0"]) - 1
    reason = None
    for k, g in places.items():
        e = abs(g - ref["per_place"][k])
        err = max(err, e)
        if e <= eps:
            continue
        if k != "inf":
            p = int(k)
            if e > eps + math.log(p) * _vp(spec["res"], p) / (d * (d - 1)):
                return "wrong", err
        reason = "inaccurate"
    return reason, err


def _vp(n, p):
    n, v = abs(n), 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _check_preperiodic(spec, out, ref):
    P = tuple(spec["point"])
    if out["preperiodic"]:
        orbit = [parse_point(s) for s in out["tail"] + out["cycle"]]
        if not out["cycle"] or orbit[0] != P or len(set(orbit)) != len(orbit):
            return "wrong", None
        for x, y in zip(orbit, orbit[1:] + [orbit[len(out["tail"])]]):
            if apply_map(spec, x) != y:
                return "wrong", None
        return None, None
    cert = out["escape_certificate"]
    if ref["hhat"] < 1e-6 or cert["weil_height"] <= cert["threshold"]:
        return "wrong", None
    target, Q = parse_point(cert["escaped_at"]), P
    for _ in range(64):
        if Q == target:
            return None, None
        Q = apply_map(spec, Q)
    return "wrong", None


def _check_mahler(spec, out, ref):
    err = 0.0
    for method in ("roots", "quad"):
        e = abs(out[method]["log_value"] - ref["log_value"])
        if e > max(ABS_TOL, 10 * out[method]["error_estimate"]):
            return "inaccurate", e
        err = max(err, e)
    return None, err


def _check_equidist(spec, out, ref):
    if (out["point_count"] != ref["point_count"]
            or len(out["moments"]) != len(ref["moments"])):
        return "wrong", None
    err = min(abs(out["discrepancy"] - d) for d in ref["discrepancy"])
    for m, (re_, im) in zip(out["moments"], ref["moments"]):
        err = max(err, abs(complex(m["re"], m["im"]) - complex(re_, im)))
    return (None if err <= ABS_TOL else "inaccurate"), err


_TERM = re.compile(r"([+-]?)\s*(\d*)\*?(x(?:\^(\d+))?)?")


def parse_minpoly(text):
    """(a, b, c) of "a*x^2 + b*x + c" as printed by the scan."""
    coeffs = [0, 0, 0]
    for sign, num, var, exp in _TERM.findall(text.replace(" ", "")):
        if not num and not var:
            continue
        c = int(num) if num else 1
        k = (int(exp) if exp else 1) if var else 0
        coeffs[k] = -c if sign == "-" else c
    return tuple(reversed(coeffs))


def _check_scan(spec, out, ref):
    recs = out["exceptions"]
    rational = {r["point"]: r["value"] for r in recs if r["kind"] == "rational"}
    if set(rational) != set(ref["rational"]):
        return "wrong", None
    err = max([abs(v - ref["rational"][p]) for p, v in rational.items()]
              + [0.0])
    quad_ref = {tuple(k): v for k, v in ref["quadratic"]}
    seen = {}
    for r in recs:
        if r["kind"] != "quadratic":
            continue
        key = parse_minpoly(r["minpoly"])
        if key not in quad_ref:
            return "wrong", err
        seen[key] = seen.get(key, 0) + 1
        err = max(err, abs(r["value"] - quad_ref[key]))
    if seen != {k: 2 for k in quad_ref} or out["count"] != len(recs):
        return "wrong", err
    return (None if err <= SCAN_TOL else "inaccurate"), err


def expected_exit(item, record):
    """Whether a known defect explains the error record of an item that
    exited non-zero."""
    return (item["kind"] == "mahler" and item["spec"]["stratum"] == "double"
            and record["outputs"].get("error") == "RootFindingError")


def defect_max(item):
    """Largest float error a known defect explains (0.0: none); canheight
    items are classified by _check_canheight."""
    if item["kind"] == "mahler" and item["spec"]["stratum"] == "double":
        return 1e-3
    return 1e-4 if item["kind"] == "bound" else 0.0


def check(item, out, ref):
    reason, err = _check(item, out, ref)
    if (reason == "inaccurate" and item["kind"] != "canheight"
            and err > defect_max(item)):
        reason = "wrong"
    return reason, err


def _check(item, out, ref):
    kind, spec = item["kind"], item["spec"]
    outputs = out["outputs"]
    if kind == "height":
        err = abs(outputs["height"] - ref["height"])
        return (None if err <= ABS_TOL else "inaccurate"), err
    if kind == "canheight":
        return _check_canheight(spec, outputs, ref)
    if kind == "preperiodic":
        return _check_preperiodic(spec, outputs, ref)
    if kind == "scan-pair":
        ok = set(outputs["points"]) == set(ref["points"])
        return (None if ok else "wrong"), None
    if kind == "graph":
        if spec["op"] == "energy":
            ok = Fraction(outputs["energy"]) == Fraction(ref["energy"])
        else:
            ok = (Fraction(outputs["total_mass"]) == Fraction(ref["total_mass"])
                  and {k: Fraction(v) for k, v in outputs["vertex_masses"].items()}
                  == {k: Fraction(v) for k, v in ref["vertex_masses"].items()})
        return (None if ok else "wrong"), None
    if kind == "mahler":
        return _check_mahler(spec, outputs, ref)
    if kind == "bound":
        m = len(spec["psi"]) - 1
        err = abs(outputs["bound"] * (spec["ell"] + m) - ref["log_mplus"])
        return (None if err <= BOUND_TOL else "inaccurate"), err
    if kind == "energy":
        err = abs(outputs["energy"] - ref["energy"]) / max(abs(ref["energy"]),
                                                           1.0)
        tol = ENERGY_REL_TOL * (16384 / spec["nodes"]) ** 2
        return (None if err <= tol else "inaccurate"), err
    if kind == "equidist":
        return _check_equidist(spec, outputs, ref)
    if kind == "scan":
        return _check_scan(spec, outputs, ref)
    raise ValueError(f"unknown item kind {kind!r}")
