"""In-memory span tracing of the dynheights layers for the traced run.

`Tracer.install()` replaces each traced function at every module attribute
of the package that holds it (for example `polys.factorize` and
`dynamics.factorize`, `roots.aberth` and `bounds.aberth`), and the methods
in their class; `uninstall()` puts the originals back.  A span is
(name, start, end, parent index, item id, exception name, info).  A
layer's self time is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

PACKAGE = "dynheights"

# (span name, module, attribute or Class.attribute, info hook)
TARGETS = (
    ("polys.parse", "polys", "parse_expr", None),
    ("polys.resultant", "polys", "resultant", None),
    ("polys.resultant", "polys", "resultant_univ", None),
    ("polys.factorize", "polys", "factorize",
     lambda args, out: abs(args[0])),
    ("polys.homog_step", "polys", "homog_step", None),
    ("polys.compose", "polys", "HomogPair.compose", None),
    ("dynamics.system_of", "dynamics", "DynSystem.of", None),
    ("dynamics.green_arch", "dynamics", "green_archimedean", None),
    ("dynamics.green_finite", "dynamics", "green_finite", None),
    ("dynamics.preperiodic", "dynamics", "is_preperiodic", None),
    ("roots.aberth", "roots", "aberth", lambda args, out: len(args[0]) - 1),
    ("roots.complex_roots", "roots", "complex_roots", None),
    ("mahler.roots", "mahler", "mahler_via_roots", None),
    ("mahler.quad", "mahler", "mahler_via_quadrature", None),
    ("mahler.plus", "mahler", "log_mahler_plus",
     lambda args, out: None if out is None else (out.log_value,
                                                 out.error_estimate)),
    ("bounds.pair_bound", "bounds", "pair_bound_power", None),
    ("bounds.energy", "bounds", "energy_level_curve", None),
    ("bounds.equidist", "bounds", "preimage_measure_stats", None),
    ("bounds.scan", "bounds", "scan_exceptions", None),
    ("graphs.load", "graphs", "load_graph_json", None),
    ("graphs.curvature", "graphs", "curvature", None),
    ("graphs.laplacian", "graphs", "laplacian_pl", None),
    ("graphs.energy", "graphs", "dirichlet_energy", None),
)


def package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")]


def originals():
    """[(span name, function object, info hook)] for every target; class
    attributes are given as (owner class, attribute, raw class value)."""
    out = []
    for name, mod, path, hook in TARGETS:
        module = sys.modules[f"{PACKAGE}.{mod}"]
        if "." in path:
            cls, attr = path.split(".")
            owner = getattr(module, cls)
            out.append((name, (owner, attr, owner.__dict__[attr]), hook))
        else:
            out.append((name, getattr(module, path), hook))
    return out


def bindings(fn):
    """(module, attribute) pairs of the package that hold fn."""
    return [(m, a) for m in package_modules()
            for a, v in list(vars(m).items()) if v is fn]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self._patches = []

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            err = out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                info = hook(args, out) if hook else None
                spans[idx] = (name, t0, t1, parent, self.item, err, info)
        return traced

    def install(self):
        for name, target, hook in originals():
            if isinstance(target, tuple):
                owner, attr, raw = target
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(name, raw.__func__, hook))
                else:
                    new = self.wrap(name, raw, hook)
                self._patch(owner, attr, raw, new)
            else:
                new = self.wrap(name, target, hook)
                for module, attr in bindings(target):
                    self._patch(module, attr, target, new)

    def _patch(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._patches.append((owner, attr, old))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# per-layer metrics

def _totals(spans):
    """Per span name: (calls, inclusive seconds without double counting
    nested spans of the same name, self seconds); per layer: self
    seconds."""
    spans = [s or ("", 0.0, 0.0, -1, None, "lost", None) for s in spans]
    child = [0.0] * len(spans)
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls, incl, self_by_name, self_by_layer = {}, {}, {}, {}
    for idx, (name, t0, t1, parent, *_) in enumerate(spans):
        if not name:
            continue
        dur = t1 - t0
        calls[name] = calls.get(name, 0) + 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            incl[name] = incl.get(name, 0.0) + dur
        own = dur - child[idx]
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        layer = name.split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own
    return calls, incl, self_by_name, self_by_layer


# (metric, unit, span name, quantity): quantities are per traced round
TIME_METRICS = (
    ("polys.factorize_ms", "polys.factorize"),
    ("polys.resultant_ms", "polys.resultant"),
    ("polys.compose_ms", "polys.compose"),
    ("polys.parse_ms", "polys.parse"),
    ("polys.homog_step_ms", "polys.homog_step"),
    ("dynamics.system_of_ms", "dynamics.system_of"),
    ("dynamics.green_arch_ms", "dynamics.green_arch"),
    ("dynamics.green_finite_ms", "dynamics.green_finite"),
    ("dynamics.preperiodic_ms", "dynamics.preperiodic"),
    ("roots.aberth_ms", "roots.aberth"),
    ("roots.complex_roots_ms", "roots.complex_roots"),
    ("mahler.plus_ms", "mahler.plus"),
    ("mahler.quad_ms", "mahler.quad"),
    ("mahler.roots_ms", "mahler.roots"),
    ("bounds.energy_ms", "bounds.energy"),
    ("bounds.equidist_ms", "bounds.equidist"),
    ("bounds.scan_ms", "bounds.scan"),
    ("graphs.load_ms", "graphs.load"),
    ("graphs.curvature_ms", "graphs.curvature"),
    ("graphs.energy_ms", "graphs.energy"),
)
CALL_METRICS = (
    ("polys.factorize_calls", "polys.factorize"),
    ("polys.resultant_calls", "polys.resultant"),
    ("polys.homog_step_calls", "polys.homog_step"),
    ("dynamics.green_finite_calls", "dynamics.green_finite"),
    ("roots.aberth_calls", "roots.aberth"),
    ("cli.dispatch_calls", "cli.dispatch"),
)
LAYERS = ("cli", "polys", "dynamics", "roots", "mahler", "bounds", "graphs")


def layer_metrics(spans, rounds):
    """{metric: (value, unit)} from the spans of `rounds` traced rounds."""
    calls, incl, _, self_layer = _totals(spans)
    out = {}
    for metric, name in TIME_METRICS:
        out[metric] = (incl.get(name, 0.0) * 1e3 / rounds, "ms/round")
    for metric, name in CALL_METRICS:
        out[metric] = (calls.get(name, 0) / rounds, "calls/round")
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (self_layer.get(layer, 0.0) * 1e3 / rounds,
                                   "ms/round")
    seen, repeats, n_fact = set(), 0, 0
    aberth_fail, degrees = 0, []
    for name, _, _, _, _, err, info in filter(None, spans):
        if name == "polys.factorize":
            n_fact += 1
            repeats += info in seen
            seen.add(info)
        elif name == "roots.aberth":
            degrees.append(info)
            aberth_fail += err == "RootFindingError"
    out["polys.factorize_repeat_frac"] = (repeats / max(n_fact, 1), "frac")
    out["roots.aberth_fail_frac"] = (aberth_fail / max(len(degrees), 1),
                                     "frac")
    out["roots.aberth_degree_mean"] = (
        sum(degrees) / len(degrees) if degrees else 0.0, "degree")
    return out


def plus_estimates(spans):
    """{item id: (log M+, stated error estimate)} of the outermost
    log_mahler_plus call of each item."""
    out = {}
    for name, _, _, parent, item, err, info in filter(None, spans):
        if name == "mahler.plus" and err is None and item not in out:
            out[item] = info
    return out
