"""Curvature, critical-point indices, the unit-sphere classifier and level curves: the local invariants.

Everything is exact: curvature and index expectations are rationals, built by
the functions that import ``fractions``, so ``graph classify`` never loads it.
Curvature and Poincare-Hopf indices are read from the simplices in one pass
each; the index expectation is a local enumeration at each vertex.  The
classifier reads each unit sphere once, as a ball or sphere of one dimension,
and a level curve reads the triangles' rows of the face table.  The Euler
characteristic and the Betti numbers, the global invariants, are in
``discalc.homology``; classify and the index expectation take the Euler
characteristic from there.
"""

from __future__ import annotations

import itertools
import math

from . import DomainError, record
from .complexes import Graph, GraphComplex, build_complex
from .homology import euler_characteristic


MAX_EXPECTATION_DEGREE = 10  # index_expectation sums 2^degree subsets per vertex; complete:11 takes about 1 s


def curvature_vector(c: GraphComplex) -> tuple:
    """K(x) = sum_k (-1)^k V_{k-1}(x)/(k+1), V_{k-1}(x) counting the k-simplices that contain x, in one
    pass (about 1 ms on hexpatch:12): a (k-1)-simplex of the unit sphere S(x) plus x is a k-simplex of G."""
    from fractions import Fraction

    denominator = math.lcm(*range(1, c.top_dim + 2))
    totals = [0] * c.graph.vertex_count
    for k, level in enumerate(c.simplices):
        weight = (-1) ** k * denominator // (k + 1)
        for x in itertools.chain.from_iterable(level):
            totals[x] += weight
    return tuple(Fraction(t, denominator) for t in totals)


def curvature(c: GraphComplex, x: int) -> Fraction:
    """K(x), entry x of ``curvature_vector``."""
    c.graph.neighbors(x)  # DomainError for a vertex out of range
    return curvature_vector(c)[x]


# ---------------------------------------------------------------------------
# Poincare-Hopf indices


def _check_injective(f, n: int) -> list:
    """The values f[0..n-1]; DomainError when two are equal."""
    values = [f[v] for v in range(n)]
    if len(set(values)) != len(values):
        raise DomainError("function must be injective")
    return values


def sub_level_sphere(c: GraphComplex, f, x: int) -> Graph:
    """S^-(x): the part of the unit sphere where f is smaller than at x."""
    return c.graph.induced({y for y in c.graph.neighbors(x) if f[y] < f[x]})


def _indices(c: GraphComplex, f) -> list:
    """i_f(x) = 1 - chi(S^-(x)) for every x in one pass: a (k-1)-simplex of S^-(x) plus x is a
    k-simplex whose f-largest vertex is x, and the 0-simplex x gives the 1."""
    _check_injective(f, c.graph.vertex_count)
    totals = [0] * c.graph.vertex_count
    for k, level in enumerate(c.simplices):
        sign = (-1) ** k
        for s in level:
            totals[max(s, key=f.__getitem__)] += sign
    return totals


def _critical_class(sub: Graph, i: int) -> str:
    """Critical class of a vertex x with S^-(x) = sub and i_f(x) = i."""
    if sub.vertex_count == 0:
        return "min"
    if is_cycle_graph(sub):
        return "max"
    if i == -2:
        return "monkey"
    if i < 0:
        return f"saddle({len(connected_components(sub))})"
    return "regular" if i == 0 else "critical"


def index(c: GraphComplex, f, x: int) -> int:
    """i_f(x) = 1 - chi(S^-(x))."""
    c.graph.neighbors(x)  # DomainError for a vertex out of range
    return _indices(c, f)[x]


@record
class IndexReport:
    indices: tuple
    classes: tuple
    total: int


def classify_critical(c: GraphComplex, f, x: int) -> str:
    """min / max / saddle(m) / monkey / regular taxonomy of a vertex."""
    i = index(c, f, x)
    return _critical_class(sub_level_sphere(c, f, x), i)


def poincare_hopf(c: GraphComplex, f) -> IndexReport:
    """Per-vertex indices; the total equals the Euler characteristic."""
    indices = tuple(_indices(c, f))
    classes = tuple(_critical_class(sub_level_sphere(c, f, x), i) for x, i in enumerate(indices))
    return IndexReport(indices, classes, sum(indices))


def index_expectation(c: GraphComplex) -> tuple:
    """Average of i_f(x) over all vertex orderings f, as exact rationals.

    i_f(x) = 1 - chi(S^-(x)) depends only on the set A of neighbours below x, and an
    ordering puts exactly A below x with probability |A|!(d-|A|)!/(d+1)! (Knill,
    arXiv:1202.4514).  So a vertex of degree d sums over the 2^d subsets of its unit
    sphere (the empty set's complex has chi 0); d above MAX_EXPECTATION_DEGREE raises DomainError.
    This enumeration is not the curvature formula restated: it checks Gauss-Bonnet.
    """
    from fractions import Fraction

    g = c.graph
    spheres = [sorted(g.neighbors(x)) for x in range(g.vertex_count)]
    if any(len(sphere) > MAX_EXPECTATION_DEGREE for sphere in spheres):
        raise DomainError(f"index expectation enumerates 2^degree subsets; degree capped at {MAX_EXPECTATION_DEGREE}")
    out = []
    for sphere in spheres:
        d, total = len(sphere), 0
        for size in range(d + 1):
            for below in itertools.combinations(sphere, size):
                chi = euler_characteristic(build_complex(g.induced(below)))
                total += math.factorial(size) * math.factorial(d - size) * (1 - chi)
        out.append(Fraction(total, math.factorial(d + 1)))
    return tuple(out)


def umlaufsatz_sum(c: GraphComplex) -> Fraction:
    """Sum of boundary curvatures of a flat surface with boundary: 1 - #holes."""
    from fractions import Fraction

    cls = classify(c)
    if cls.kind != "surface" or not cls.flat or not cls.boundary:
        raise DomainError("umlaufsatz needs a flat surface with non-empty boundary")
    curvatures = curvature_vector(c)
    return sum((curvatures[x] for x in cls.boundary), Fraction(0))


# ---------------------------------------------------------------------------
# Geometric classifiers


def unit_sphere(c: GraphComplex, v: int) -> Graph:
    """Induced subgraph on the neighbors of v, relabelled in increasing order."""
    return c.graph.induced(c.graph.neighbors(v))


def connected_components(g: Graph) -> list:
    adj = g.adjacency()
    seen = [False] * g.vertex_count
    components = []
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        components.append(sorted(comp))
    return components


def is_cycle_graph(g: Graph) -> bool:
    if g.vertex_count < 3 or len(g.edges) != g.vertex_count:
        return False
    if len(connected_components(g)) != 1:
        return False
    return all(len(g.neighbors(v)) == 2 for v in range(g.vertex_count))


@record
class Classification:
    kind: str  # "curve" | "surface" | "solid" | "other"
    boundary: tuple  # boundary vertex indices
    flat: bool = False


def _sphere_shape(s: Graph):
    """(d, is_ball) when the unit sphere s is a d-ball or a d-sphere, d <= 2, else None.

    d = 0: one point (ball) or two (sphere); d = 1: a path (ball) or a cycle of at least 4 vertices
    (sphere); d = 2: a surface with boundary and chi = 1 (ball) or without boundary and chi = 2 (sphere).
    """
    n, e = s.vertex_count, len(s.edges)
    if e == 0 and n in (1, 2):
        return 0, n == 1
    if (e == n - 1 >= 1 or e == n >= 4) and all(len(s.neighbors(v)) <= 2 for v in range(n)) \
            and len(connected_components(s)) == 1:
        return 1, e == n - 1
    sphere = build_complex(s)
    sub = classify(sphere)
    if sub.kind == "surface" and euler_characteristic(sphere) == (1 if sub.boundary else 2):
        return 2, bool(sub.boundary)
    return None


def classify(c: GraphComplex) -> Classification:
    """Curve / surface / solid by the shape of the unit spheres, read once each in one pass.

    Every sphere must be a ball or a sphere of one dimension d (``_sphere_shape``), else the graph is
    "other"; the kind is curve, surface or solid for d = 0, 1, 2, the boundary is the vertices whose
    sphere is a ball, and a surface is flat when every interior vertex has degree 6.
    """
    d, boundary, flat = None, [], True
    for v in range(c.graph.vertex_count):
        s = unit_sphere(c, v)
        shape = _sphere_shape(s)
        if shape is None or d not in (None, shape[0]):
            return Classification("other", ())
        d, ball = shape
        if ball:
            boundary.append(v)
        elif s.vertex_count != 6:
            flat = False
    kind = "other" if d is None else ("curve", "surface", "solid")[d]  # None: no vertices
    return Classification(kind, tuple(boundary), flat=d == 1 and flat)


# ---------------------------------------------------------------------------
# Level curves


def level_curve(c: GraphComplex, f, cut) -> Graph:
    """Graph of sign-change edges, linked when two such edges share a triangle.

    A triangle's edges are its row of ``c.faces[2]``.  On a boundaryless
    surface the result is a finite union of cycles.
    """
    g = c.graph
    values = _check_injective(f, g.vertex_count)
    if any(v == cut for v in values):
        raise DomainError("cut collides with a function value")
    edges = c.simplices[1] if c.top_dim >= 1 else ()
    crossing = [r for r, (a, b) in enumerate(edges) if (values[a] - cut) * (values[b] - cut) < 0]
    back = {r: i for i, r in enumerate(crossing)}
    triangles = c.faces[2] if c.top_dim >= 2 else ()
    new_edges = {e for row in triangles
                 for e in itertools.combinations(sorted(back[r] for r in row if r in back), 2)}
    return Graph(len(crossing), frozenset(new_edges), tuple("{}-{}".format(*edges[r]) for r in crossing))
