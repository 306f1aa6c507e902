"""Metrized graphs, piecewise-linear Laplacians, Zhang curvature,
Dirichlet energy, subdivision and the circle Haar measure.

Everything here is exact rational arithmetic.  Edge lengths are abstract
positive rationals; the reduction-graph normalization (each intersection
point contributing an edge of length log|pi|^-1) is applied only when
converting to real-valued measures at an output boundary.

Conventions: the Laplacian of a vertex-valued function f (linearly
interpolated along edges) is the atomic measure with mass
-sum_e slope_e(u) at the vertex u; Zhang's curvature of O(D+f) is
mu_D - Delta f, whose total mass is deg D.  The Dirichlet form kept here
is E(f) = sum_e len_e * slope_e^2 = <f, Delta f> >= 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import GraphShapeError, ParseError
from .places import parse_rational


@dataclass(frozen=True)
class MetrizedGraph:
    """Finite multigraph with positive rational edge lengths.

    vertices: tuple of names; edges: tuple of (u, v, length) with u != v
    (loops are excluded; model a self-intersection via subdivision).
    """

    vertices: tuple
    edges: tuple

    @staticmethod
    def of(vertices, edges) -> "MetrizedGraph":
        vs = tuple(vertices)
        vset = set(vs)
        if len(vset) != len(vs):
            raise GraphShapeError("duplicate vertex names")
        out = []
        for u, v, length in edges:
            if u not in vset or v not in vset:
                raise GraphShapeError(f"edge endpoint not a vertex: {(u, v)}")
            if u == v:
                raise GraphShapeError("loops are not allowed")
            length = Fraction(length)
            if length <= 0:
                raise GraphShapeError("edge lengths must be positive")
            out.append((u, v, length))
        return MetrizedGraph(vs, tuple(out))

    def total_length(self) -> Fraction:
        return sum((e[2] for e in self.edges), Fraction(0))

    def degree_map(self) -> dict:
        deg = {v: 0 for v in self.vertices}
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def is_cycle(self) -> bool:
        """Single closed cycle: connected, every vertex of degree 2, and
        the edge count equals the vertex count (2-cycles from parallel
        edges are allowed)."""
        if not self.edges:
            return False
        deg = self.degree_map()
        if any(d != 2 for d in deg.values()):
            return False
        if len(self.edges) != len(self.vertices):
            return False
        # connectivity
        adj = {v: [] for v in self.vertices}
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)


@dataclass(frozen=True)
class PLFunction:
    """Vertex values of a function that is linear along each edge."""

    values: dict

    @staticmethod
    def of(values: dict) -> "PLFunction":
        return PLFunction({k: Fraction(v) for k, v in values.items()})

    def __call__(self, vertex):
        return self.values[vertex]

    def check_total(self, G: MetrizedGraph):
        missing = [v for v in G.vertices if v not in self.values]
        if missing:
            raise GraphShapeError(f"function undefined at vertices {missing}")


@dataclass(frozen=True)
class VertexDivisor:
    """Formal sum of reduction vertices with integer coefficients."""

    entries: tuple  # of (coefficient, vertex)

    @staticmethod
    def of(entries) -> "VertexDivisor":
        return VertexDivisor(tuple((int(n), v) for n, v in entries))

    def degree(self) -> int:
        return sum(n for n, _ in self.entries)

    def check_on(self, G: MetrizedGraph):
        vset = set(G.vertices)
        for _, v in self.entries:
            if v not in vset:
                raise GraphShapeError(f"divisor vertex {v!r} not in graph")


@dataclass(frozen=True)
class DiscreteMeasure:
    """Vertex masses plus optional uniform densities along edges."""

    vertex_masses: dict
    edge_densities: dict = None

    def total_mass(self, G: MetrizedGraph):
        total = sum(self.vertex_masses.values(), Fraction(0))
        if self.edge_densities:
            for idx, dens in self.edge_densities.items():
                total += dens * G.edges[idx][2]
        return total

    def mass_at(self, vertex):
        return self.vertex_masses.get(vertex, Fraction(0))


def laplacian_pl(G: MetrizedGraph, f: PLFunction) -> DiscreteMeasure:
    """Delta f: atomic mass -sum of outgoing slopes at each vertex."""
    f.check_total(G)
    masses = {v: Fraction(0) for v in G.vertices}
    for u, v, length in G.edges:
        slope_u = (f(v) - f(u)) / length  # slope leaving u
        masses[u] -= slope_u
        masses[v] += slope_u
    return DiscreteMeasure(masses)


def divisor_measure(D: VertexDivisor) -> DiscreteMeasure:
    masses = {}
    for n, v in D.entries:
        masses[v] = masses.get(v, Fraction(0)) + n
    return DiscreteMeasure(masses)


def curvature(G: MetrizedGraph, D: VertexDivisor, f: PLFunction) -> DiscreteMeasure:
    """Zhang curvature mu_D - Delta f; total mass is deg D.

    On unit-length edges the vertex mass reproduces the intersection-theory
    count: sum of divisor multiplicities reducing to the vertex plus
    sum_{j != i} m_ij (f(V_j) - f(V_i)); checked by the test suite.
    """
    D.check_on(G)
    lap = laplacian_pl(G, f)
    mu = divisor_measure(D)
    masses = {v: mu.mass_at(v) - lap.mass_at(v) for v in G.vertices}
    return DiscreteMeasure(masses)


def dirichlet_energy(G: MetrizedGraph, f: PLFunction) -> Fraction:
    """E(f) = sum_e len_e * slope_e^2 >= 0 (exact rational).

    The admissible-pairing Dirichlet form of the theory is -E(f); the
    nonnegative normalization is used throughout this package.
    """
    f.check_total(G)
    total = Fraction(0)
    for u, v, length in G.edges:
        slope = (f(v) - f(u)) / length
        total += length * slope * slope
    return total


def subdivide(G: MetrizedGraph, e: int):
    """Replace every edge by a path of e edges of length len/e.

    Returns (refined graph, vertex embedding dict old->new).  Inserted
    vertices are named "u|v#k/idx" and are deterministic.
    """
    if e < 1:
        raise ValueError("ramification index must be >= 1")
    if e == 1:
        return G, {v: v for v in G.vertices}
    vertices = list(G.vertices)
    edges = []
    for idx, (u, v, length) in enumerate(G.edges):
        chain = [u]
        for k in range(1, e):
            name = f"{u}|{v}#{k}/{idx}"
            vertices.append(name)
            chain.append(name)
        chain.append(v)
        piece = length / e
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b, piece))
    refined = MetrizedGraph.of(vertices, edges)
    return refined, {v: v for v in G.vertices}


def extend_pl(G: MetrizedGraph, refined: MetrizedGraph, f: PLFunction,
              e: int) -> PLFunction:
    """Linear extension of f to the subdivision vertices of subdivide(G, e)."""
    values = {v: f(v) for v in G.vertices}
    for idx, (u, v, _) in enumerate(G.edges):
        for k in range(1, e):
            name = f"{u}|{v}#{k}/{idx}"
            values[name] = f(u) + (f(v) - f(u)) * Fraction(k, e)
    return PLFunction(values)


def circle_haar_measure(G: MetrizedGraph, total_mass) -> DiscreteMeasure:
    """Uniform measure of prescribed total mass on a cycle graph: density
    total_mass / total_length on every edge, no vertex masses."""
    if not G.is_cycle():
        raise GraphShapeError("graph is not a single cycle")
    total_mass = Fraction(total_mass)
    density = total_mass / G.total_length()
    return DiscreteMeasure({v: Fraction(0) for v in G.vertices},
                           {idx: density for idx in range(len(G.edges))})


def pairing(f: PLFunction, mu: DiscreteMeasure) -> Fraction:
    """<f, mu> = sum f(u) * mass(u) over atomic masses."""
    return sum((f(v) * m for v, m in mu.vertex_masses.items()), Fraction(0))


# ---------------------------------------------------------------------------
# JSON interface
#
# {"vertices": ["v1", ...],
#  "edges": [{"u": ..., "v": ..., "length": "a/b"}, ...],
#  "divisor": [{"coeff": n, "vertex": ...}, ...],      (optional)
#  "f": {"v1": "a/b", ...}}                            (optional)

def _fraction_from_json(x) -> Fraction:
    """A length or f value: a JSON integer (2 or 2.0), or a string "a" or
    "a/b" in the grammar of `places.parse_rational`, the same on every
    Python version (no decimals, exponents, underscores or inner
    spaces)."""
    if isinstance(x, str):
        try:
            return parse_rational(x)
        except ParseError:
            pass
    elif isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    elif isinstance(x, float) and x.is_integer():
        return Fraction(int(x))
    raise GraphShapeError(f"expected an exact rational, found {x!r}")


def _typed(x, kind, what: str):
    """x, or GraphShapeError naming what when x is not of type kind (a
    bool is no int here)."""
    if not isinstance(x, kind) or isinstance(x, bool):
        raise GraphShapeError(f"{what} has the wrong type "
                              f"({type(x).__name__})")
    return x


def _entry(obj: dict, key: str, kind, what: str):
    """obj[key], of type kind; GraphShapeError when it is missing."""
    if key not in obj:
        raise GraphShapeError(f"{what} has no {key!r}")
    return _typed(obj[key], kind, f"{key!r} of {what}")


_NAME = (str, int)  # a vertex name


def load_graph_json(text: str):
    """Parse the graph file format; returns (graph, divisor, f).  A file
    of another shape (not an object, a missing key, an entry of the wrong
    type, a length or value that is not an exact rational) raises
    GraphShapeError."""
    data = _typed(json.loads(text), dict, "the graph file")
    vertices = [_typed(v, _NAME, "a vertex name")
                for v in _entry(data, "vertices", list, "the graph file")]
    edges = [_typed(e, dict, "an edge")
             for e in _typed(data.get("edges", []), list, "'edges'")]
    G = MetrizedGraph.of(
        vertices,
        [(_entry(e, "u", _NAME, "an edge"), _entry(e, "v", _NAME, "an edge"),
          _fraction_from_json(_entry(e, "length", object, "an edge")))
         for e in edges])
    entries = [_typed(t, dict, "a divisor term")
               for t in _typed(data.get("divisor", []), list, "'divisor'")]
    D = VertexDivisor.of([(_entry(t, "coeff", int, "a divisor term"),
                           _entry(t, "vertex", _NAME, "a divisor term"))
                          for t in entries])
    fvals = {v: _fraction_from_json(x) for v, x in
             _typed(data.get("f", {}), dict, "'f'").items()}
    for v in G.vertices:
        fvals.setdefault(v, Fraction(0))
    return G, D, PLFunction(fvals)
