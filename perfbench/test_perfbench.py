"""Tests of the benchmark itself: tracer coverage and restore, seeded item
lists, the per-item deadline, and the references against closed forms.

    python3 -m pytest perfbench -q
"""

import math
import os
import sys
from fractions import Fraction

import mpmath
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import dynheights.polys as polys  # noqa: E402
import layertrace  # noqa: E402
import references as R  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from dynheights.cli import dispatch  # noqa: E402


def snapshot():
    """Every attribute of every package module and traced class."""
    snap = {(m.__name__, a): v for m in layertrace.package_modules()
            for a, v in vars(m).items()}
    for _, target, _ in layertrace.originals():
        if isinstance(target, tuple):
            owner, attr, raw = target
            snap[(owner.__qualname__, attr)] = owner.__dict__[attr]
    return snap


def assert_restored(before):
    after = snapshot()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key


def test_install_patches_every_binding_and_uninstall_restores():
    before = snapshot()
    targets = layertrace.originals()
    plain = [t for _, t, _ in targets if not isinstance(t, tuple)]
    # the wrapped functions are reached through more than one module
    assert len(layertrace.bindings(polys.factorize)) >= 2
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        for fn in plain:
            assert layertrace.bindings(fn) == [], fn.__name__
        for _, target, _ in targets:
            if isinstance(target, tuple):
                owner, attr, raw = target
                assert owner.__dict__[attr] is not raw
        dispatch(["canheight", "--map=x^2 - 29/16", "--point=1/4",
                  "--per-place"])
        names = {s[0] for s in tracer.spans}
        assert {"polys.parse", "polys.resultant", "polys.factorize",
                "dynamics.system_of", "dynamics.green_arch",
                "dynamics.green_finite"} <= names
    finally:
        tracer.uninstall()
    assert_restored(before)


def test_untraced_run_leaves_originals(capsys):
    before = snapshot()
    rnd = [{"kind": "height", "argv": ["height", "--point=2/3"],
            "deadline_s": 5.0, "spec": {"point": [2, 3]}}]
    results, n, _ = run.run_rounds([rnd], 0.0, dispatch)
    assert n == 1 and results[0][4] is None
    assert_restored(before)
    plain, traced, n, tracer = run.run_traced([rnd], 0.0, dispatch)
    assert len(plain) == len(traced) == 1 and tracer.spans
    assert_restored(before)


def test_deadline_stops_a_stalled_item():
    # the 37-digit resultant of this map stalls trial division
    item = {"argv": ["canheight", "--map=(x^3 + 1234567891)/"
                     "(x^2 + 987654323*x + 1)", "--point=2"],
            "deadline_s": 0.2}
    import signal
    signal.signal(signal.SIGALRM, run._on_alarm)
    latency, _, _, reason = run.run_item(dispatch, item)
    assert reason == "deadline" and latency < 1.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_items_follow_the_seed(workload, tmp_path):
    a = workloads.make_items(workload, 7, 2, str(tmp_path / "a"))["rounds"]
    b = workloads.make_items(workload, 7, 2, str(tmp_path / "a"))["rounds"]
    c = workloads.make_items(workload, 8, 2, str(tmp_path / "c"))["rounds"]
    argv = [[item["argv"] for item in rnd] for rnd in a]
    assert argv == [[item["argv"] for item in rnd] for rnd in b]
    assert argv != [[item["argv"] for item in rnd] for rnd in c]
    # the composition of a round does not depend on the seed
    kinds = sorted(run.item_label(i) for i in a[0])
    assert kinds == sorted(run.item_label(i) for i in c[0])


def test_split_small_finds_every_factor_below_the_bound():
    n = 2 ** 3 * 257 * 1619 ** 2 * 149993 * 1000000007
    assert workloads.split_small(n, 1500) == ([2, 2, 2, 257], n // 2056)
    assert workloads.split_small(-n, 150000) == (
        [2, 2, 2, 257, 1619, 1619, 149993], 1000000007)


def test_conditioning_rejects_a_known_ledger_defect():
    # at p = 2 the orbit of -15/2 repeats its class modulo 2^6 before its
    # ledger is periodic; green_finite's geometric series is off by 1e-3
    num, den = [-56, 93, -12], [-3, 77, -18]
    f0, f1 = workloads.forms_of(num, den)
    res = workloads.form_resultant(f0, f1)
    spec = {"f0": f0, "f1": f1, "res": res,
            "primes": sorted(workloads.factor_with_reach(res, 10 ** 5)[0])}
    arch, padic = R.canheight_conditioning(spec, [-15, 2], 1e-9)
    assert arch < 1e-10 and padic > 1e-3
    # x^2 + 1/2: the orbit of 0 tends 2-adically to the fixed point
    # infinity, whose class repeats once reached; its ledger is 0, 1, 1, ...
    f0, f1 = workloads.forms_of([Fraction(1, 2), 0, 1], [1])
    res = workloads.form_resultant(f0, f1)
    assert R.ledger_mismatch(f0, f1, res, 2, [0, 1]) == 0.0


def test_float_errors_beyond_known_defects_are_wrong():
    import checks
    energy = {"kind": "energy", "spec": {"psi": [2, -1], "ell": 2,
                                         "shift": 1, "nodes": 16384}}
    ref = {"energy": 1.0}
    assert checks.check(energy, {"outputs": {"energy": 1.0 + 1e-7}},
                        ref)[0] is None
    assert checks.check(energy, {"outputs": {"energy": 1.001}},
                        ref)[0] == "wrong"
    bound = {"kind": "bound", "spec": {"psi": [2, -1], "ell": 1}}
    ref = {"log_mplus": 2.0}
    for value, reason in ((1.0, None), (1.00001, "inaccurate"),
                          (1.001, "wrong")):
        assert checks.check(bound, {"outputs": {"bound": value}},
                            ref)[0] == reason
    # green_finite's known defect (at most log 2 * v_2(Res) / (d (d - 1))
    # = 1.39 here) and green_archimedean's fail only as inaccurate; a
    # larger error at the finite place is wrong
    item = {"kind": "canheight",
            "spec": {"eps": 1e-9, "f0": [0, 0, 1], "res": 4}}
    ref = {"height": 0.7, "per_place": {"inf": 1.0, "2": -0.3}}
    for e_inf, e_2, reason in ((0, 1e-10, None), (0, 1e-3, "inaccurate"),
                               (0, 2.0, "wrong"), (1e-4, 0, "inaccurate")):
        out = {"outputs": {"height": 0.7 + e_inf + e_2,
                           "per_place": {"inf": 1.0 + e_inf,
                                         "2": -0.3 + e_2}}}
        assert checks.check(item, out, ref)[0] == reason
    out["outputs"]["height"] += 1e-6       # not the sum of its places
    assert checks.check(item, out, ref)[0] == "wrong"
    # an error exit is wrong unless a known defect explains it
    failed = '{"outputs": {"error": "RootFindingError"}}'
    double = {"kind": "mahler", "spec": {"stratum": "double"}}
    cyclo = {"kind": "mahler", "spec": {"stratum": "cyclo"}}
    results = [("0:0", double, 0.1, failed, "exit"),
               ("0:1", cyclo, 0.1, failed, "exit")]
    assert [c[3] for c in run.check_results(results, {})] == ["exit", "wrong"]


def test_mahler_references():
    assert abs(R.log_mahler_plus([1, -1]) - R.SMYTH) < 1e-18
    # Smyth's closed form (3 sqrt 3 / 4 pi) L(chi_-3, 2)
    L = (mpmath.psi(1, mpmath.mpf(1) / 3) - mpmath.psi(1, mpmath.mpf(2) / 3)) / 9
    assert abs(3 * mpmath.sqrt(3) / (4 * mpmath.pi) * L - R.SMYTH) < 1e-19
    golden = (1 + mpmath.sqrt(5)) / 2
    assert abs(R.log_mahler([-1, -1, 1]) - mpmath.log(golden)) < 1e-25
    lehmer = mpmath.mpf("1.17628081825991750654407033847")
    assert abs(R.log_mahler(list(workloads.LEHMER)) - mpmath.log(lehmer)) < 1e-25
    # cyclotomic factors have measure 1; M is multiplicative
    factors = [workloads.cyclotomic(n) for n in (1, 6, 12)] + [[-1, -1, 1]]
    assert abs(R.log_mahler_factors(factors) - mpmath.log(golden)) < 1e-25
    # |psi| <= 1 everywhere, and |psi| = 2 everywhere
    assert R.log_mahler_plus([0, 1]) == 0
    assert abs(R.log_mahler_plus([0, 0, 2]) - mpmath.log(2)) < 1e-25


def test_energy_reference_is_the_power_map_closed_form():
    item = {"kind": "energy",
            "spec": {"psi": [2, -1], "ell": 2, "shift": 1, "nodes": 4096}}
    # phi = (x - 1)^2, psi(x + 1) = 1 - x: E = 2 l m log M+(1 - x)
    assert abs(R.reference(item)["energy"] - float(4 * R.SMYTH)) < 1e-15


def test_height_references():
    x2 = {"f0": [0, 0, 1], "f1": [1, 0, 0], "res": 1, "primes": []}
    assert abs(R.hhat(x2, (3, 5)) - mpmath.log(5)) < 1e-20
    # 2x^2 is conjugate to y^2 by y = 2x: hhat(x) = h(2x), with a bad place 2
    two_x2 = {"f0": [0, 0, 2], "f1": [1, 0, 0], "res": 4, "primes": [2]}
    ledger = R.green_ledger(two_x2, (3, 4))
    assert set(ledger) == {"inf", "2"}
    assert abs(sum(ledger.values()) - mpmath.log(3)) < 1e-12
    # 1/4 is preperiodic for x^2 - 29/16
    pre = {"f0": [-29, 0, 16], "f1": [16, 0, 0], "res": 16 ** 4,
           "primes": [2]}
    assert abs(R.hhat(pre, (1, 4))) < 1e-12


def test_equidist_graph_and_scan_references(tmp_path):
    item = {"kind": "equidist", "spec": {"degree": 2, "level": 5,
                                         "family": "x^2", "target": [-1, 1],
                                         "moments": 8}}
    item["spec"].update(f0=[0, 0, 1], f1=[1, 0, 0])
    ref = R.reference(item)
    assert ref["point_count"] == 32 and ref["discrepancy"] == [1 / 64]
    assert max(abs(complex(*m)) for m in ref["moments"]) < 1e-25
    # x^3 at level 2 has the 9th roots of unity as preimages of 1 ...
    ref = R.equidist_reference([0, 0, 0, 1], [1, 0, 0, 0], [1, 1], 2, 9)
    assert ref["point_count"] == 9 and ref["discrepancy"] == [1 / 9]
    assert max(abs(complex(*m)) for m in ref["moments"][:8]) < 1e-25
    assert abs(complex(*ref["moments"][8]) - 1) < 1e-25
    # ... and (x^2 + 1)/x has the double preimage 1 of 2, whose angle may
    # come out as 0 or as 1
    ref = R.equidist_reference([1, 0, 1], [0, 1, 0], [2, 1], 1, 3)
    assert ref["discrepancy"] == [0.5, 1.0]
    assert all(abs(complex(*m) - 1) < 1e-25 for m in ref["moments"])
    path = tmp_path / "g.json"
    path.write_text('{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b",'
                    ' "length": "1/2"}], "divisor": [{"coeff": 1, '
                    '"vertex": "a"}], "f": {"b": "1/3"}}')
    assert R.graph_reference(str(path), "curvature") == {
        "vertex_masses": {"a": "5/3", "b": "-2/3"}, "total_mass": "1"}
    assert R.graph_reference(str(path), "energy") == {"energy": "2/9"}
    # h(x) + h(1 - x) < 0.2406: 0, 1, inf and the primitive 6th roots of 1
    rational, quadratic = R.scan_reference(1, [1, -1], 0.2406, 3.0)
    assert set(rational) == {"0", "1", "inf"}
    assert set(quadratic) == {(1, -1, 1)}
    assert math.isclose(quadratic[(1, -1, 1)], 0.0, abs_tol=1e-25)
