"""Finite simple graphs, their clique complexes and the graph generators.

Simplices of dimension k are the complete subgraphs K_{k+1}, stored as
ascending vertex tuples; the ascending order is the reference orientation.
The face table ``GraphComplex.faces`` is the signed incidence, built once per
complex in Python ints: its rows are the rows of each d_k, and operators, Betti
numbers, orientations and level curves read them as they are.  Every graph
command runs this module; the classifiers live in ``discalc.topology`` and the
orientations in ``discalc.vector``.
"""

from __future__ import annotations

from functools import cached_property

from . import DomainError, record

# Most vertices of a graph.  A vertex costs about 460 bytes before any edge (its adjacency set and the
# frozen copy; 10^6 isolated vertices took 464 MB).  hexpatch:90 (24 571 vertices) is the largest hexpatch
# within the bound: graph info took 0.8 s and 86 MB, against 3.5 s and 305 MB for hexpatch:182 (99 919).
MAX_VERTICES = 25_000
# Most simplices build_complex enumerates, checked before each level is built.  graph info refuses
# complete:30 in 0.55 s at 111 MB (2.3 s and 417 MB with a bound of 10^6) and complete:18 (262 143
# simplices) in 0.65 s; complete:17 (131 071) takes 0.21 s.  The tests reach complete:12 (4095 simplices)
# and the benchmark hexpatch:12 (2665).
MAX_SIMPLICES = 250_000


def _check_vertex_count(count: int):
    """DomainError when count passes MAX_VERTICES."""
    if count > MAX_VERTICES:
        raise DomainError(f"{count} vertices; a graph is bounded to {MAX_VERTICES}")


@record
class Graph:
    """Finite simple graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: frozenset
    labels: tuple | None = None

    def __post_init__(self):
        if self.vertex_count < 0:
            raise DomainError(f"vertex count {self.vertex_count} is negative")
        _check_vertex_count(self.vertex_count)
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

    def induced(self, vertices) -> "Graph":
        """Induced subgraph; its vertex i is the i-th smallest of ``vertices``."""
        order = sorted(vertices)
        for v in order[:1] + order[-1:]:  # the range rule of neighbors, on the smallest and the largest
            self.neighbors(v)
        back = {old: new for new, old in enumerate(order)}
        edges = {(back[a], back[b]) for a in order for b in self._adjacency[a] if a < b and b in back}
        return Graph(len(order), frozenset(edges))

    def to_json(self) -> str:
        import json

        payload = {"vertices": self.vertex_count, "edges": sorted(list(e) for e in self.edges)}
        if self.labels is not None:
            payload["labels"] = list(self.labels)
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "Graph":
        import json

        payload = json.loads(text)
        labels = tuple(payload["labels"]) if "labels" in payload else None
        edges = frozenset(tuple(e) for e in payload["edges"])
        # bool is a subclass of int: without this, true and false would read as 1 and 0
        if any(isinstance(v, bool) for v in (payload["vertices"], *(v for e in edges for v in e))):
            raise TypeError("a vertex count or an edge endpoint is a boolean, not an integer")
        return Graph(payload["vertices"], edges, labels)


@record
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
        """Signed incidence, built once: ``faces[k][r]`` is row r of d_{k-1}, the dict that maps the
        position in ``simplices[k-1]`` of the face of ``simplices[k][r]`` that drops vertex i to (-1)^i,
        in column order i = 0..k.  The rows of ``faces[0]`` are empty.  Rows are shared by every
        reader, so none may change one."""
        table = [({},) * self.count(0)]
        for k in range(1, self.top_dim + 1):
            below = self.index[k - 1]
            table.append(tuple({below[s[:i] + s[i + 1:]]: (-1) ** i for i in range(k + 1)}
                               for s in self.simplices[k]))
        return tuple(table)


def build_complex(g: Graph) -> GraphComplex:
    """Enumerate all complete subgraphs by clique extension, in lexicographic order: each simplex
    carries its common neighbours above its last vertex, and each of them, w, extends it.

    The next level has one simplex per common neighbour, so its size is known before it is built:
    DomainError when the count would pass MAX_SIMPLICES."""
    above = [frozenset(w for w in neighbours if w > v) for v, neighbours in enumerate(g.adjacency())]
    level = [((v,), above[v]) for v in range(g.vertex_count)]
    simplices, total = [], len(level)
    while True:
        simplices.append(tuple(s for s, _ in level))
        total += sum(len(common) for _, common in level)
        if total > MAX_SIMPLICES:
            raise DomainError(f"the clique complex has more than {MAX_SIMPLICES} simplices")
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
    _check_vertex_count(3 * radius * (radius + 1) + 1)
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
    return patch.induced(set(range(patch.vertex_count)) - {patch.vertex_count // 2})


def moebius_strip() -> Graph:
    """Triangulated Moebius band: the square of C_9 (9 triangles, odd twist)."""
    n = 9
    edges = set()
    for i in range(n):
        edges.add(tuple(sorted((i, (i + 1) % n))))
        edges.add(tuple(sorted((i, (i + 2) % n))))
    return Graph(n, frozenset(edges))


def generate(name: str, n: int | None = None) -> Graph:
    """Standard graph families; fixed tables for the named polyhedra.

    ``linear`` follows the n+1-vertices convention; ``path`` takes an
    explicit vertex count instead.  A vertex count past MAX_VERTICES is refused before any edge is built.
    """
    if n is not None and name in ("complete", "cycle", "wheel", "star", "linear", "path"):
        _check_vertex_count(n)  # each of these has n or n + 1 vertices; hex_patch checks its own count
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
