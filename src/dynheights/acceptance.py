"""Self-test criteria: golden constants, cross-method agreement, exactness
and property checks at fixed seeds.

Each criterion is a standalone callable returning a CriterionResult; the
registry drives both the ``selftest`` CLI subcommand and the acceptance
test suite.  Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .bounds import (energy_arch_power, energy_level_curve, pair_bound_power,
                     preimage_measure_stats, roots_of_unity_height_sequence,
                     scan_exceptions)
from .dynamics import (DynSystem, canonical_height, common_preperiodic_scan,
                       homog_step, is_preperiodic, local_green,
                       rational_points_up_to_height)
from .graphs import (MetrizedGraph, PLFunction, VertexDivisor,
                     circle_haar_measure, curvature, dirichlet_energy,
                     extend_pl, laplacian_pl, pairing, subdivide)
from .mahler import (height_from_minpoly, log_mahler_plus, mahler_via_quadrature,
                     mahler_via_roots, two_variable_grid_oracle)
from .places import ARCH, Place, ProjPointQ, weil_height
from .polys import Poly, int_poly, parse_poly
from .roots import complex_roots


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed_s: float
    checks: int
    failures: list = field(default_factory=list)

    def as_dict(self):
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "elapsed_s": self.elapsed_s,
            "checks": self.checks,
            "failures": list(self.failures),
        }


class _Recorder:
    """Collects (label, ok, detail) checks for one criterion."""

    def __init__(self):
        self.checks = 0
        self.failures = []

    def expect(self, label: str, ok: bool, detail: str = ""):
        self.checks += 1
        if not ok:
            self.failures.append(f"{label}: {detail}" if detail else label)

    def close(self, label: str, actual: float, expected: float, tol: float):
        err = abs(actual - expected)
        self.expect(label, err <= tol,
                    f"expected {expected!r} +- {tol!r}, got {actual!r} "
                    f"(err {err:.3e})")


_PSI_ONE_MINUS_X = int_poly([1, -1])

# log M^+(1 - x) by Smyth's closed form (Bull. Austral. Math. Soc. 23, 1981).
# By Jensen's formula in y, log M^+(psi) = log M(psi(x) - y), so for
# psi = 1 - x this is m(1 - x - y); the torus rotation (x, y) -> (-x, -y)
# turns it into m(1 + x + y) = (3 sqrt(3) / (4 pi)) L(chi_{-3}, 2).
_LOG_M_PLUS_ONE_MINUS_X = 0.32306594721945051409


def criterion_1_golden_constants() -> _Recorder:
    """Headline constants of the height-bound example, each in < 1 s."""
    r = _Recorder()
    t0 = time.perf_counter()
    bound = pair_bound_power(1, _PSI_ONE_MINUS_X)
    t1 = time.perf_counter()
    mplus = log_mahler_plus(_PSI_ONE_MINUS_X).log_value
    t2 = time.perf_counter()
    golden = height_from_minpoly(parse_poly("x^2 - x - 1"))
    t3 = time.perf_counter()
    # pair_bound_power(1, psi) = log M(psi(x) - y) / (l + m) with l = m = 1
    r.close("pair_bound_power(1, 1-x)", bound, _LOG_M_PLUS_ONE_MINUS_X / 2,
            5e-6)
    r.close("log_mahler_plus(1-x)", mplus, _LOG_M_PLUS_ONE_MINUS_X, 1e-5)
    r.close("height_from_minpoly(x^2-x-1)", golden, 0.240606, 1e-6)
    r.expect("each golden constant computes in < 1 s",
             max(t1 - t0, t2 - t1, t3 - t2) < 1.0,
             f"times {t1 - t0:.2f}/{t2 - t1:.2f}/{t3 - t2:.2f} s")
    return r


def criterion_2_mahler_cross_method() -> _Recorder:
    """Roots and quadrature Mahler measures agree on random polynomials."""
    r = _Recorder()
    rng = random.Random(20260826)
    t0 = time.perf_counter()
    for i in range(50):
        deg = rng.randint(1, 8)
        coeffs = [rng.randint(-100, 100) for _ in range(deg + 1)]
        while coeffs[-1] == 0:
            coeffs[-1] = rng.randint(-100, 100)
        P = int_poly(coeffs)
        a = mahler_via_roots(P).log_value
        b = mahler_via_quadrature(P, nodes=2 ** 14).log_value
        r.expect(f"poly #{i} {P.to_str()}", abs(a - b) <= 1e-6,
                 f"roots {a!r} vs quadrature {b!r}")
    r.expect("50 cross-checks in < 30 s", time.perf_counter() - t0 < 30.0,
             f"took {time.perf_counter() - t0:.1f} s")
    return r


def criterion_3_two_variable_oracle() -> _Recorder:
    """log M(1-x-y) against the independent tensor-grid quadrature."""
    r = _Recorder()
    res = log_mahler_plus(_PSI_ONE_MINUS_X)
    oracle = two_variable_grid_oracle(_PSI_ONE_MINUS_X, 1024, 1024)
    gap = abs(res.log_value - oracle)
    r.expect("within 1e-3 absolute", gap <= 1e-3,
             f"{res.log_value!r} vs grid {oracle!r}")
    # the 1024^2 half-offset grid converges like O(n^-2) away from the
    # root; budget 1e-3 for it, combined with the method's own estimate
    r.expect("within combined error estimates",
             gap <= res.error_estimate + 1e-3,
             f"gap {gap:.3e} > {res.error_estimate:.3e} + 1e-3")
    return r


_MAP_EXPRS = ("x^2", "x^2 - 1", "x^2 + 1", "x^2 - 2", "(x^2 + 1)/x")


def _sample_points(count: int, height_bound: float, seed: int):
    rng = random.Random(seed)
    bound = int(math.exp(height_bound))
    pts = []
    while len(pts) < count:
        a = rng.randint(-bound, bound)
        b = rng.randint(1, bound)
        g = math.gcd(abs(a), b)
        if g == 0:
            continue
        pts.append(ProjPointQ(a // g, b // g))
    return pts


def criterion_4_canonical_height_properties() -> _Recorder:
    """Functional equation, power-map identity and local-global sum."""
    r = _Recorder()
    eps = 1e-9
    pts = _sample_points(100, 10.0, 20260826)
    for expr in _MAP_EXPRS:
        S = DynSystem.from_expr(expr)
        d = S.degree
        worst_fe = worst_lg = 0.0
        worst_w = 0.0
        for P in pts:
            h = canonical_height(S, P, eps)
            img, _ = homog_step(S.F, P)
            h_img = canonical_height(S, img, eps)
            worst_fe = max(worst_fe, abs(h_img - d * h))
            total = local_green(S, P, ARCH, eps)
            for p in S.bad_primes:
                total += local_green(S, P, Place(p), eps)
            worst_lg = max(worst_lg, abs(total - h))
            if expr == "x^2":
                worst_w = max(worst_w, abs(h - weil_height(P)))
        r.expect(f"{expr}: |hhat(phi(x)) - d hhat(x)| <= 2e-9",
                 worst_fe <= 2e-9, f"worst {worst_fe:.3e}")
        r.expect(f"{expr}: sum of local greens = hhat within 1e-8",
                 worst_lg <= 1e-8, f"worst {worst_lg:.3e}")
        if expr == "x^2":
            r.expect("x^2: hhat = Weil height within eps",
                     worst_w <= eps, f"worst {worst_w:.3e}")
    return r


def criterion_5_good_reduction() -> _Recorder:
    """Local Green functions vanish identically at good primes."""
    r = _Recorder()
    pts = _sample_points(100, 10.0, 20260826)
    for expr in _MAP_EXPRS:
        S = DynSystem.from_expr(expr)
        good = [p for p in (2, 3, 5, 7, 11) if p not in S.bad_primes]
        bad_val = None
        for P in pts:
            for p in good:
                if local_green(S, P, Place(p), 1e-9) != 0.0:
                    bad_val = (P, p)
        r.expect(f"{expr}: green == 0 at primes {good}",
                 bad_val is None, f"failed at {bad_val}")
    return r


def criterion_6_preperiodicity() -> _Recorder:
    r = _Recorder()
    S29 = DynSystem.from_expr("x^2 - 29/16")
    ok, cert = is_preperiodic(S29, ProjPointQ.from_rational(Fraction(1, 4)))
    r.expect("1/4 preperiodic under x^2 - 29/16", ok, str(cert))
    if ok:
        r.expect("tail is [1/4]", cert["tail"] == ["1/4"], str(cert))
        r.expect("3-cycle {-7/4, 5/4, -1/4}",
                 cert["cycle"] == ["-7/4", "5/4", "-1/4"], str(cert))
    S1 = DynSystem.from_expr("x^2")
    S2 = DynSystem.from_expr("x^2 - 1")
    found = {str(P) for P in common_preperiodic_scan(S1, S2, 2.0)}
    r.expect("common preperiodic scan at H=2 gives {0, 1, -1, inf}",
             found == {"0", "1", "-1", "inf"}, str(sorted(found)))
    worst_true = 0.0
    bad_false = None
    for P in rational_points_up_to_height(2.0):
        for S in (S1, S2):
            ok, cert = is_preperiodic(S, P)
            if ok:
                worst_true = max(worst_true,
                                 abs(canonical_height(S, P, 1e-9)))
            else:
                esc = cert["weil_height"] > cert["threshold"]
                if not esc:
                    bad_false = (str(P), cert)
    # Res = 1 for both maps, so every gcd of the walk is 1 and each exact
    # series over the cycle is 0
    r.expect("every preperiodic point has hhat = 0 exactly",
             worst_true == 0.0, f"worst {worst_true:.3e}")
    worst_cycle = max(abs(canonical_height(S29, ProjPointQ.from_rational(x),
                                           1e-9))
                      for x in (Fraction(-7, 4), Fraction(5, 4),
                                Fraction(-1, 4)))
    r.expect("the 3-cycle of x^2 - 29/16 has |hhat| <= 1e-15",
             worst_cycle <= 1e-15, f"worst {worst_cycle:.3e}")
    r.expect("every wandering point has a valid escape certificate",
             bad_false is None, str(bad_false))
    return r


def _random_graph(rng: random.Random):
    n = rng.randint(2, 20)
    vs = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):  # spanning tree keeps things connected
        j = rng.randrange(i)
        edges.append((vs[i], vs[j],
                      Fraction(rng.randint(1, 12), rng.randint(1, 12))))
    while len(edges) < min(40, rng.randint(n - 1, 40)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        edges.append((vs[i], vs[j],
                      Fraction(rng.randint(1, 12), rng.randint(1, 12))))
    G = MetrizedGraph.of(vs, edges)
    D = VertexDivisor.of([(rng.randint(-3, 3), rng.choice(vs))
                          for _ in range(rng.randint(0, 4))])
    f = PLFunction({v: Fraction(rng.randint(-8, 8), rng.randint(1, 8))
                    for v in vs})
    return G, D, f


def criterion_7_graph_exactness() -> _Recorder:
    r = _Recorder()
    rng = random.Random(31415926)
    t0 = time.perf_counter()
    fails = {"mass": None, "lap": None, "energy": None, "subdiv": None}
    for _ in range(200):
        G, D, f = _random_graph(rng)
        curv = curvature(G, D, f)
        degD = sum(n for n, _ in D.entries)
        if curv.total_mass(G) != degD:
            fails["mass"] = (G, D)
        lap = laplacian_pl(G, f)
        if lap.total_mass(G) != 0:
            fails["lap"] = (G, f)
        if dirichlet_energy(G, f) != pairing(f, lap):
            fails["energy"] = (G, f)
        for e in (2, 3, 5):
            refined, embed = subdivide(G, e)
            f2 = extend_pl(G, refined, f, e)
            D2 = VertexDivisor.of([(n, embed[v]) for n, v in D.entries])
            c2 = curvature(refined, D2, f2)
            old = {embed[v]: m for v, m in curv.vertex_masses.items()}
            same = all(c2.mass_at(v) == old.get(v, Fraction(0))
                       for v in refined.vertices)
            if not same:
                fails["subdiv"] = (G, e)
    r.expect("total curvature mass = deg D exactly", fails["mass"] is None)
    r.expect("Laplacian total mass = 0 exactly", fails["lap"] is None)
    r.expect("E(f) = <f, Delta f> exactly", fails["energy"] is None)
    r.expect("curvature invariant under subdivision e in {2,3,5}",
             fails["subdiv"] is None, str(fails["subdiv"]))
    cyc = MetrizedGraph.of(["a", "b", "c"],
                           [("a", "b", Fraction(1, 2)),
                            ("b", "c", Fraction(3, 4)),
                            ("c", "a", Fraction(5, 4))])
    mu = circle_haar_measure(cyc, Fraction(7, 3))
    r.expect("circle Haar density = mass/length exactly",
             all(d == Fraction(7, 3) / Fraction(5, 2)
                 for d in mu.edge_densities.values()))
    r.expect("200 graph rounds in < 10 s", time.perf_counter() - t0 < 10.0,
             f"took {time.perf_counter() - t0:.1f} s")
    return r


def criterion_8_equidistribution() -> _Recorder:
    r = _Recorder()
    S = DynSystem.from_expr("x^2")
    _, moments, disc = preimage_measure_stats(S, Fraction(1), 4, 10)
    worst = max(abs(m) for m in moments)
    r.expect("level-4 preimages of 1: |m_k| <= 1e-12 for k=1..10",
             worst <= 1e-12, f"worst {worst:.3e}")
    r.close("angular star discrepancy", disc, 1.0 / 16.0, 1e-12)
    h499 = roots_of_unity_height_sequence(_PSI_ONE_MINUS_X, 499)
    r.close("h(1 - zeta_499)", h499, _LOG_M_PLUS_ONE_MINUS_X, 0.02)
    return r


def criterion_9_level_curve_energy() -> _Recorder:
    r = _Recorder()
    for ell in (1, 2, 3):
        phi = int_poly([0] * ell + [1])
        ref = energy_arch_power(ell, _PSI_ONE_MINUS_X)
        lc = energy_level_curve(phi, _PSI_ONE_MINUS_X, nodes=4096)
        r.expect(f"x^{ell}: level curve within 1e-3 relative",
                 abs(lc - ref) <= 1e-3 * abs(ref),
                 f"{lc!r} vs {ref!r}")
    return r


def criterion_10_exception_scan() -> _Recorder:
    r = _Recorder()
    rational = scan_exceptions(1, _PSI_ONE_MINUS_X, 0.16, 3.0)
    pts = {rec["point"] for rec in rational}
    r.expect("rational scan at H=3 gives {0, 1, inf}",
             pts == {"0", "1", "inf"}, str(sorted(pts)))
    full = scan_exceptions(1, _PSI_ONE_MINUS_X, 0.2406, 3.0,
                           include_quadratic=True)
    quads = [rec for rec in full if rec["kind"] == "quadratic"]
    r.expect("quadratic scan adds exactly the 2 roots of x^2 - x + 1",
             len(quads) == 2 and
             all(q["minpoly"] == "x^2 - x + 1" for q in quads),
             str(quads))
    r.expect("5 points total", len(full) == 5, str(full))
    stable = scan_exceptions(1, _PSI_ONE_MINUS_X, 0.2406, 4.0,
                             include_quadratic=True)
    r.expect("stable under H = 4",
             [(rec["kind"], rec.get("minpoly", rec["point"]))
              for rec in stable] ==
             [(rec["kind"], rec.get("minpoly", rec["point"]))
              for rec in full],
             f"H=4 gave {len(stable)} records")
    return r


CRITERIA = (
    (1, "golden-constants", criterion_1_golden_constants),
    (2, "mahler-cross-method", criterion_2_mahler_cross_method),
    (3, "two-variable-oracle", criterion_3_two_variable_oracle),
    (4, "canonical-height-properties", criterion_4_canonical_height_properties),
    (5, "good-reduction", criterion_5_good_reduction),
    (6, "preperiodicity", criterion_6_preperiodicity),
    (7, "graph-exactness", criterion_7_graph_exactness),
    (8, "equidistribution", criterion_8_equidistribution),
    (9, "level-curve-energy", criterion_9_level_curve_energy),
    (10, "exception-scan", criterion_10_exception_scan),
)


def run_criterion(number: int) -> CriterionResult:
    for num, name, fn in CRITERIA:
        if num == number:
            t0 = time.perf_counter()
            rec = fn()
            return CriterionResult(num, name, not rec.failures,
                                   time.perf_counter() - t0, rec.checks,
                                   rec.failures)
    raise ValueError(f"no criterion number {number}")


def run_all(name_filter: str = None):
    """Run every criterion (optionally only those whose name contains the
    filter string); returns a list of CriterionResult."""
    out = []
    for num, name, _ in CRITERIA:
        if name_filter and name_filter not in name:
            continue
        out.append(run_criterion(num))
    return out
