"""Integrals, Stokes, orientations and vector calculus on the forms of a clique complex.

The exact layer over the signed face table ``GraphComplex.faces``, whose rows
are the rows of d, in plain Python: ``orient_region`` propagates signs over
the table, ``apply_d`` adds the signed face values of each simplex along its
row, ``boundary_faces`` counts face positions mod 2, and the Stokes boundary
sum uses the propagated signs.  The vector-calculus products, gradient ascent
and ``potential`` read edge values.  Of the commands only ``forms stokes``
runs this module.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from functools import reduce
from operator import add

from . import DomainError, record
from .complexes import GraphComplex
from .forms import Form, exterior_derivative


class NonOrientableError(DomainError):
    """Sign propagation hit a clash: the region carries no orientation."""


# ---------------------------------------------------------------------------
# Orientations


@record
class Orientation:
    """Per-simplex signs (relative to ascending order) on a region, plus the
    induced orientation of the free boundary faces."""

    degree: int
    signs: dict  # simplex tuple -> +1/-1
    boundary_signs: dict  # face tuple -> +1/-1


def orient_region(c: GraphComplex, k: int, region) -> Orientation:
    """Propagate consistent orientations over a connected set of k-simplices.

    Adjacent simplices (sharing a (k-1)-face) must induce opposite
    orientations on the shared face.  The first region simplex is seeded +1.
    Signs travel over the signed rows of ``c.faces[k]``.
    """
    if k < 1:
        raise DomainError("orientation needs degree >= 1")
    rows = c.positions(k, region)
    if not rows:
        raise DomainError("empty region")
    faces, face_rows = c.simplices[k - 1], c.faces[k]
    incidences = {}  # face position -> [(row, incidence sign)] in region order
    for r in rows:
        for f, sign in face_rows[r].items():
            incidences.setdefault(f, []).append((r, sign))

    signs, stack = {rows[0]: 1}, [rows[0]]
    while stack:
        r = stack.pop()
        for f, sign in face_rows[r].items():
            for t, other in incidences[f]:
                if t == r:
                    continue
                want = -signs[r] * sign * other
                if t in signs:
                    if signs[t] != want:
                        raise NonOrientableError(f"orientation clash on face {faces[f]}")
                else:
                    signs[t] = want
                    stack.append(t)
    if len(signs) != len(rows):
        raise DomainError("region is not connected")

    boundary_signs = {faces[f]: signs[r] * sign for f, [(r, sign), *others] in incidences.items() if not others}
    return Orientation(k, {c.simplices[k][r]: sign for r, sign in signs.items()}, boundary_signs)


# ---------------------------------------------------------------------------
# The exterior derivative of a form


def apply_d(F: Form) -> Form:
    """dF(s) = sum_i (-1)^i F(s without vertex i), read along the signed rows of the face table."""
    c, k = F.complex_ref, F.degree
    # faces in ascending position, i.e. column i from k+1 down to 0, added left to right from the
    # first term: the summation order of d_k @ F.  Not sum(), which compensates float sums on 3.12+.
    values = F.values
    return Form(c, k + 1, [reduce(add, [s * values[f] for f, s in reversed(row.items())])
                           for row in exterior_derivative(c, k).rows])


# ---------------------------------------------------------------------------
# Integration and the integral theorems


def integrate(form: Form, region, orientation: Orientation):
    """Signed sum of form values over an oriented region of its degree."""
    if orientation.degree != form.degree:
        raise DomainError("orientation degree does not match form degree")
    idx = form.complex_ref.index[form.degree]
    total = 0
    for s in region:
        s = tuple(s)
        if s not in orientation.signs:
            raise DomainError(f"orientation does not cover {s}")
        total = total + orientation.signs[s] * form.values[idx[s]]
    return total


def edge_value(F: Form, a: int, b: int):
    """F on the directed edge a -> b (sign-flipped when a > b)."""
    if F.degree != 1:
        raise DomainError("edge_value needs a 1-form")
    idx = F.complex_ref.index[1]
    key = (min(a, b), max(a, b))
    if key not in idx:
        raise DomainError(f"({a},{b}) is not an edge")
    v = F.values[idx[key]]
    return v if a < b else -v


def line_integral(F: Form, path) -> object:
    """Integral of a 1-form along a vertex path v_0, ..., v_m."""
    total = 0
    for a, b in zip(path, path[1:]):
        total = total + edge_value(F, a, b)
    return total


def boundary_faces(c: GraphComplex, k: int, region) -> list:
    """Faces incident to an odd number of region k-simplices (mod-2 boundary),
    in table order: the region's face positions in ``c.faces[k]`` counted mod 2."""
    counts = Counter(f for r in c.positions(k, region) for f in c.faces[k][r])
    return [c.simplices[k - 1][f] for f in sorted(counts) if counts[f] % 2]


def stokes_sides(c: GraphComplex, region, F: Form):
    """(int_region dF, int_boundary F); equal in exact arithmetic.

    ``region`` is a set of (k+1)-simplices for a k-form F.
    """
    k = F.degree
    orientation = orient_region(c, k + 1, region)
    boundary = orientation.boundary_signs
    return integrate(apply_d(F), region, orientation), integrate(F, boundary, Orientation(k, boundary, {}))


def stokes_residual(c: GraphComplex, region, F: Form):
    """int_region dF - int_boundary F; zero in exact arithmetic."""
    lhs, rhs = stokes_sides(c, region, F)
    return lhs - rhs


# ---------------------------------------------------------------------------
# Vector-calculus products


def dot_at_vertex(F: Form, G: Form, x: int):
    """Sum of F(e) G(e) over the edges attached to x."""
    if F.degree != 1 or G.degree != 1:
        raise DomainError("dot product is defined for 1-forms")
    idx = F.complex_ref.index[1]
    total = 0
    for y in sorted(F.complex_ref.graph.neighbors(x)):
        i = idx[(min(x, y), max(x, y))]
        total = total + F.values[i] * G.values[i]
    return total


def form_length(F: Form, x: int) -> float:
    return math.sqrt(float(dot_at_vertex(F, F, x)))


def form_angle(F: Form, G: Form, x: int) -> float:
    lf = form_length(F, x)
    lg = form_length(G, x)
    if lf == 0 or lg == 0:
        raise DomainError("angle undefined for a zero-length form")
    cosine = float(dot_at_vertex(F, G, x)) / (lf * lg)
    return math.acos(max(-1.0, min(1.0, cosine)))


def cross_on_triangle(F: Form, G: Form, triangle) -> object:
    """F(x,y) G(x,z) - F(x,z) G(x,y) on a triangle anchored at its first vertex."""
    x, y, z = triangle
    key = tuple(sorted(triangle))
    if key not in F.complex_ref.index[2]:
        raise DomainError(f"{triangle} is not a triangle")
    return edge_value(F, x, y) * edge_value(G, x, z) - edge_value(F, x, z) * edge_value(G, x, y)


def triple_product(F: Form, G: Form, H: Form, tet) -> object:
    """3x3 determinant of edge values from the anchor of a tetrahedron."""
    x, y, z, w = tet
    key = tuple(sorted(tet))
    if len(F.complex_ref.index) < 4 or key not in F.complex_ref.index[3]:
        raise DomainError(f"{tet} is not a tetrahedron")
    m = [[edge_value(P, x, v) for v in (y, z, w)] for P in (F, G, H)]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


# ---------------------------------------------------------------------------
# Directional derivative and gradient ascent


def directional_derivative(c: GraphComplex, f, edge):
    """df on a directed edge (a, b): f(b) - f(a)."""
    a, b = edge
    if (min(a, b), max(a, b)) not in c.index[1]:
        raise DomainError(f"({a},{b}) is not an edge")
    return f[b] - f[a]


def gradient_ascent(c: GraphComplex, f, start: int) -> list:
    """Follow the steepest positive directional derivative to a local maximum."""
    path = [start]
    current = start
    for _ in range(c.graph.vertex_count):
        candidates = [(f[w] - f[current], w) for w in c.graph.neighbors(current)]
        gain, best = max(candidates) if candidates else (0, None)
        if best is None or gain <= 0:
            return path
        current = best
        path.append(current)
    return path


# ---------------------------------------------------------------------------
# Potentials


class NotGradientFieldError(DomainError):
    """The 1-form has nonzero circulation; carries a witness cycle."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


def potential(c: GraphComplex, F: Form) -> list:
    """Solve d0 f = F by spanning-tree propagation; f(v0) = 0.

    Raises NotGradientFieldError with a violated cycle when F has
    circulation on some non-tree edge.
    """
    g = c.graph
    if g.vertex_count == 0:
        raise DomainError("empty graph")
    adj = g.adjacency()
    f = [None] * g.vertex_count
    parent = [None] * g.vertex_count
    f[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in sorted(adj[v]):
            if f[w] is None:
                f[w] = f[v] + edge_value(F, v, w)
                parent[w] = v
                queue.append(w)
    if any(v is None for v in f):
        raise DomainError("graph is not connected")
    for (a, b), i in c.index[1].items():
        if f[b] - f[a] != F.values[i]:
            cycle = _tree_cycle(parent, a, b)
            raise NotGradientFieldError(f"circulation on cycle through edge ({a},{b})", cycle)
    return f


def _tree_cycle(parent, a, b) -> list:
    def root_path(v):
        path = [v]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    pa, pb = root_path(a), root_path(b)
    on_a = set(pa)
    j = next(i for i, v in enumerate(pb) if v in on_a)  # pb[j] is the lowest common ancestor of a and b
    return pa[:pa.index(pb[j]) + 1] + pb[:j][::-1] + [a]
