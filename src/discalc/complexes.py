"""Finite simple graphs, their clique complexes and geometric classifiers.

Simplices of dimension k are the complete subgraphs K_{k+1}, stored as
ascending vertex tuples; the ascending order is the reference orientation.
The face table ``GraphComplex.faces``, tuples of Python ints, is the one face
walk: operators, orientations and level curves read it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional

from .numcore import DomainError


class NonOrientableError(DomainError):
    """Sign propagation hit a clash: the region carries no orientation."""


@dataclass(frozen=True)
class Graph:
    """Finite simple graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: frozenset
    labels: Optional[tuple] = None

    def __post_init__(self):
        normalized = set()
        adj = [set() for _ in range(self.vertex_count)]
        for a, b in self.edges:
            if a == b:
                raise DomainError(f"loop at vertex {a}")
            if not (0 <= a < self.vertex_count and 0 <= b < self.vertex_count):
                raise DomainError(f"edge ({a},{b}) outside vertex range")
            normalized.add((min(a, b), max(a, b)))
            adj[a].add(b)
            adj[b].add(a)
        object.__setattr__(self, "edges", frozenset(normalized))
        object.__setattr__(self, "_adjacency", tuple(frozenset(s) for s in adj))

    def neighbors(self, v: int) -> frozenset:
        if not 0 <= v < self.vertex_count:
            raise DomainError(f"vertex {v} out of range")
        return self._adjacency[v]

    def adjacency(self) -> tuple:
        return self._adjacency

    def induced(self, vertices) -> tuple:
        """Induced subgraph; returns (graph, map new index -> old vertex)."""
        order = sorted(vertices)
        if order and not (0 <= order[0] and order[-1] < self.vertex_count):
            raise DomainError("induced subgraph needs vertices in range")
        back = {old: new for new, old in enumerate(order)}
        edges = {(back[a], back[b]) for a in order for b in self._adjacency[a] if a < b and b in back}
        return Graph(len(order), frozenset(edges)), tuple(order)

    def to_json(self) -> str:
        payload = {"vertices": self.vertex_count, "edges": sorted(list(e) for e in self.edges)}
        if self.labels is not None:
            payload["labels"] = list(self.labels)
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "Graph":
        payload = json.loads(text)
        labels = tuple(payload["labels"]) if "labels" in payload else None
        return Graph(payload["vertices"], frozenset(tuple(e) for e in payload["edges"]), labels)


@dataclass(frozen=True)
class GraphComplex:
    """A graph together with its enumerated simplex sets G_k."""

    graph: Graph
    simplices: tuple  # simplices[k] = lexicographically ordered ascending (k+1)-tuples

    @property
    def top_dim(self) -> int:
        return len(self.simplices) - 1

    def count(self, k: int) -> int:
        return len(self.simplices[k]) if 0 <= k <= self.top_dim else 0

    def counts(self) -> tuple:
        return tuple(len(s) for s in self.simplices)

    def positions(self, k: int, simplices) -> list:
        """Positions in ``simplices[k]``; DomainError for a simplex not in the complex."""
        if not 0 <= k <= self.top_dim:
            raise DomainError(f"the complex has no {k}-simplices")
        try:
            return [self.index[k][tuple(s)] for s in simplices]
        except KeyError as exc:
            raise DomainError(f"{exc.args[0]} is not a {k}-simplex of the complex") from None

    @cached_property
    def index(self) -> tuple:
        """``index[k]`` maps each k-simplex to its position in ``simplices[k]``."""
        return tuple({s: i for i, s in enumerate(level)} for level in self.simplices)

    @cached_property
    def faces(self) -> tuple:
        """Signed incidence, built once: ``faces[k][r][i]`` is the position in
        ``simplices[k-1]`` of the face of ``simplices[k][r]`` that drops vertex
        i, with sign (-1)^i.  The rows of ``faces[0]`` are empty tuples."""
        table = [((),) * self.count(0)]
        for k in range(1, self.top_dim + 1):
            below = self.index[k - 1]
            table.append(tuple(tuple(below[s[:i] + s[i + 1:]] for i in range(k + 1)) for s in self.simplices[k]))
        return tuple(table)


def build_complex(g: Graph) -> GraphComplex:
    """Enumerate all complete subgraphs by clique extension, in lexicographic order: each simplex
    carries its common neighbours above its last vertex, and each of them, w, extends it."""
    above = [frozenset(w for w in neighbours if w > v) for v, neighbours in enumerate(g.adjacency())]
    level = [((v,), above[v]) for v in range(g.vertex_count)]
    simplices = []
    while True:
        simplices.append(tuple(s for s, _ in level))
        level = [(s + (w,), common & above[w]) for s, common in level for w in sorted(common)]
        if not level:
            return GraphComplex(g, tuple(simplices))


# ---------------------------------------------------------------------------
# Generators

_OCTAHEDRON_EDGES = [
    (0, 2), (0, 3), (0, 4), (0, 5),
    (1, 2), (1, 3), (1, 4), (1, 5),
    (2, 4), (2, 5), (3, 4), (3, 5),
]

# Icosahedron: top vertex 0, upper ring 1-5, lower ring 6-10, bottom 11.
_ICOSAHEDRON_EDGES = (
    [(0, i) for i in range(1, 6)]
    + [(1 + i, 1 + (i + 1) % 5) for i in range(5)]
    + [(6 + i, 6 + (i + 1) % 5) for i in range(5)]
    + [(1 + i, 6 + i) for i in range(5)]
    + [(1 + (i + 1) % 5, 6 + i) for i in range(5)]
    + [(11, 6 + i) for i in range(5)]
)

_CUBE_EDGES = [
    (0, 1), (1, 2), (2, 3), (0, 3),
    (4, 5), (5, 6), (6, 7), (4, 7),
    (0, 4), (1, 5), (2, 6), (3, 7),
]


def hex_patch(radius: int) -> Graph:
    """Flat triangular-lattice disc: all hex-lattice points within a radius."""
    if radius < 1:
        raise DomainError("hex_patch needs radius >= 1")
    points = []
    for q in range(-radius, radius + 1):
        for r in range(-radius, radius + 1):
            if max(abs(q), abs(r), abs(q + r)) <= radius:
                points.append((q, r))
    points.sort()
    back = {p: i for i, p in enumerate(points)}
    directions = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]
    edges = set()
    for (q, r), i in back.items():
        for dq, dr in directions:
            j = back.get((q + dq, r + dr))
            if j is not None:
                edges.add((min(i, j), max(i, j)))
    return Graph(len(points), frozenset(edges))


def hex_annulus(radius: int = 2) -> Graph:
    """Hex patch with the central vertex removed; one hole (b_1 = 1)."""
    patch = hex_patch(radius)
    # the origin is the middle of hex_patch's sorted, negation-symmetric point list
    return patch.induced(set(range(patch.vertex_count)) - {patch.vertex_count // 2})[0]


def moebius_strip() -> Graph:
    """Triangulated Moebius band: the square of C_9 (9 triangles, odd twist)."""
    n = 9
    edges = set()
    for i in range(n):
        edges.add(tuple(sorted((i, (i + 1) % n))))
        edges.add(tuple(sorted((i, (i + 2) % n))))
    return Graph(n, frozenset(edges))


def generate(name: str, n: Optional[int] = None) -> Graph:
    """Standard graph families; fixed tables for the named polyhedra.

    ``linear`` follows the n+1-vertices convention; ``path`` takes an
    explicit vertex count instead.
    """
    if name == "complete":
        if n is None or n < 1:
            raise DomainError("complete needs n >= 1 vertices")
        return Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))
    if name == "cycle":
        if n is None or n < 3:
            raise DomainError("cycle needs n >= 3")
        return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))
    if name == "wheel":
        if n is None or n < 4:
            raise DomainError("wheel needs n >= 4 rim vertices")
        rim = {(i, (i + 1) % n) for i in range(n)}
        spokes = {(i, n) for i in range(n)}
        return Graph(n + 1, frozenset(rim | spokes))
    if name == "star":
        if n is None or n < 1:
            raise DomainError("star needs n >= 1 rays")
        return Graph(n + 1, frozenset((i, n) for i in range(n)))
    if name == "linear":
        if n is None or n < 1:
            raise DomainError("linear needs n >= 1 edges")
        return Graph(n + 1, frozenset((i, i + 1) for i in range(n)))
    if name == "path":
        if n is None or n < 1:
            raise DomainError("path needs n >= 1 vertices")
        return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))
    if name == "octahedron":
        return Graph(6, frozenset(_OCTAHEDRON_EDGES))
    if name == "icosahedron":
        return Graph(12, frozenset(_ICOSAHEDRON_EDGES))
    if name == "cube":
        return Graph(8, frozenset(_CUBE_EDGES))
    if name == "hexpatch":
        return hex_patch(n if n is not None else 2)
    if name == "annulus":
        return hex_annulus(n if n is not None else 2)
    if name == "moebius":
        return moebius_strip()
    raise DomainError(f"unknown generator {name!r}")


def parse_generator(spec: str) -> Graph:
    """Parse a 'name' or 'name:param' generator string, e.g. 'cycle:7'."""
    if ":" in spec:
        name, _, param = spec.partition(":")
        return generate(name, int(param))
    return generate(spec)


# ---------------------------------------------------------------------------
# Geometric classifiers


def unit_sphere(c: GraphComplex, v: int) -> tuple:
    """Induced subgraph on the neighbors of v; returns (graph, relabel map)."""
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


def is_path_graph(g: Graph) -> bool:
    """A single path P_m with m >= 2 vertices (a chain of 1-simplices)."""
    if g.vertex_count < 2 or len(g.edges) != g.vertex_count - 1:
        return False
    if len(connected_components(g)) != 1:
        return False
    degrees = sorted(len(g.neighbors(v)) for v in range(g.vertex_count))
    return degrees.count(1) == 2 and all(d <= 2 for d in degrees)


def is_cycle_graph(g: Graph, min_len: int = 3) -> bool:
    if g.vertex_count < min_len or len(g.edges) != g.vertex_count:
        return False
    if len(connected_components(g)) != 1:
        return False
    return all(len(g.neighbors(v)) == 2 for v in range(g.vertex_count))


@dataclass(frozen=True)
class Classification:
    kind: str  # "curve" | "surface" | "solid" | "other"
    boundary: tuple  # boundary vertex indices
    flat: bool = False


def classify(c: GraphComplex) -> Classification:
    """Curve / surface / solid classification by unit-sphere shape."""
    g = c.graph
    if g.vertex_count == 0:
        return Classification("other", ())
    sphere_cache = [unit_sphere(c, v)[0] for v in range(g.vertex_count)]

    def all_curve():
        boundary = []
        for v, s in enumerate(sphere_cache):
            if len(s.edges) != 0 or s.vertex_count not in (1, 2):
                return None
            if s.vertex_count == 1:
                boundary.append(v)
        return Classification("curve", tuple(boundary))

    def all_surface():
        boundary = []
        interior_c6 = True
        for v, s in enumerate(sphere_cache):
            if is_path_graph(s):
                boundary.append(v)
            elif is_cycle_graph(s, min_len=4):
                if s.vertex_count != 6:
                    interior_c6 = False
            else:
                return None
        return Classification("surface", tuple(boundary), flat=interior_c6)

    def all_solid():
        boundary = []
        for v, s in enumerate(sphere_cache):
            sphere = build_complex(s)
            sub = classify(sphere)
            if sub.kind != "surface":
                return None
            chi = sum((-1) ** k * v for k, v in enumerate(sphere.counts()))
            if sub.boundary and chi == 1:
                boundary.append(v)  # sphere is a disc: boundary point
            elif not sub.boundary and chi == 2:
                pass  # sphere is a 2-sphere: interior point
            else:
                return None
        return Classification("solid", tuple(boundary))

    for attempt in (all_curve, all_surface, all_solid):
        result = attempt()
        if result is not None:
            return result
    return Classification("other", ())


# ---------------------------------------------------------------------------
# Orientations


@dataclass(frozen=True)
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
    Signs travel over the face positions in ``c.faces[k]``, entry i with sign (-1)^i.
    """
    if k < 1:
        raise DomainError("orientation needs degree >= 1")
    rows = c.positions(k, region)
    if not rows:
        raise DomainError("empty region")
    faces, face_rows = c.simplices[k - 1], c.faces[k]
    incidences = {}  # face position -> [(row, column)] in region order
    for r in rows:
        for i, f in enumerate(face_rows[r]):
            incidences.setdefault(f, []).append((r, i))

    signs, stack = {rows[0]: 1}, [rows[0]]
    while stack:
        r = stack.pop()
        for i, f in enumerate(face_rows[r]):
            for t, j in incidences[f]:
                if t == r:
                    continue
                want = -signs[r] * (-1) ** (i + j)
                if t in signs:
                    if signs[t] != want:
                        raise NonOrientableError(f"orientation clash on face {faces[f]}")
                else:
                    signs[t] = want
                    stack.append(t)
    if len(signs) != len(rows):
        raise DomainError("region is not connected")

    boundary_signs = {faces[f]: signs[r] * (-1) ** i for f, [(r, i), *others] in incidences.items() if not others}
    return Orientation(k, {c.simplices[k][r]: sign for r, sign in signs.items()}, boundary_signs)


# ---------------------------------------------------------------------------
# Level curves


def level_curve(c: GraphComplex, f, cut) -> Graph:
    """Graph of sign-change edges, linked when two such edges share a triangle.

    A triangle's edges are its row of ``c.faces[2]``.  On a boundaryless
    surface the result is a finite union of cycles.
    """
    g = c.graph
    values = [f[v] for v in range(g.vertex_count)]
    if len(set(values)) != len(values):
        raise DomainError("level_curve needs an injective function")
    if any(v == cut for v in values):
        raise DomainError("cut collides with a function value")
    edges = c.simplices[1] if c.top_dim >= 1 else ()
    crossing = [r for r, (a, b) in enumerate(edges) if (values[a] - cut) * (values[b] - cut) < 0]
    back = {r: i for i, r in enumerate(crossing)}
    triangles = c.faces[2] if c.top_dim >= 2 else ()
    new_edges = {e for row in triangles for e in combinations(sorted(back[r] for r in row if r in back), 2)}
    return Graph(len(crossing), frozenset(new_edges), tuple("{}-{}".format(*edges[r]) for r in crossing))
