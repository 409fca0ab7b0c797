"""Reference graphs and topology oracles for the benchmark's output checks.

Everything here is written apart from ``discalc`` so that a check never
trusts the code it times: clique enumeration, Euler characteristic,
curvature and Poincare-Hopf indices are recomputed from plain edge sets.
Vertex numbering need not match ``discalc``'s generators; graphs built
here reach the program as JSON files.
"""

from __future__ import annotations

import json
from fractions import Fraction

# Known Betti numbers and Euler characteristics of the ladder families.
# complete:n is contractible, so its Betti vector is (1, 0, ..., 0) with
# one entry per dimension 0..n-1.
FAMILY_BETTI = {
    "hexpatch": (1, 0, 0),
    "wheel": (1, 0, 0),
    "annulus": (1, 1, 0),
    "moebius": (1, 1, 0),
    "icosahedron": (1, 0, 1),
    "octahedron": (1, 0, 1),
}


def family(spec: str) -> tuple:
    name, _, param = spec.partition(":")
    return name, (int(param) if param else None)


def expected_betti(spec: str) -> tuple:
    name, n = family(spec)
    if name == "complete":
        return (1,) + (0,) * (n - 1)
    return FAMILY_BETTI[name]


class RefGraph:
    """Simple graph on 0..n-1 with adjacency sets."""

    def __init__(self, n: int, edges):
        self.n = n
        self.adj = [set() for _ in range(n)]
        for a, b in edges:
            if a != b:
                self.adj[a].add(b)
                self.adj[b].add(a)

    def edges(self) -> list:
        return sorted((a, b) for a in range(self.n) for b in self.adj[a] if a < b)

    def relabel(self, perm) -> "RefGraph":
        """Graph with vertex v renamed perm[v]."""
        return RefGraph(self.n, [(perm[a], perm[b]) for a, b in self.edges()])

    def induced(self, vertices) -> "RefGraph":
        order = sorted(vertices)
        back = {v: i for i, v in enumerate(order)}
        return RefGraph(len(order), [(back[a], back[b]) for a in order for b in self.adj[a] if b in back and a < b])

    def to_json(self) -> str:
        return json.dumps({"vertices": self.n, "edges": [list(e) for e in self.edges()]})

    def cliques(self) -> list:
        """cliques()[k] = sorted list of ascending (k+1)-tuples (all dimensions)."""
        levels = [[(v,) for v in range(self.n)]]
        while True:
            nxt = []
            for s in levels[-1]:
                common = set.intersection(*(self.adj[v] for v in s))
                nxt.extend(s + (w,) for w in sorted(common) if w > s[-1])
            if not nxt:
                return levels if self.n else []
            levels.append(nxt)

    def counts(self) -> tuple:
        return tuple(len(level) for level in self.cliques())


def euler(counts) -> int:
    return sum((-1) ** k * v for k, v in enumerate(counts))


def curvature(g: RefGraph, x: int) -> Fraction:
    """Gauss-Bonnet curvature 1 - V0/2 + V1/3 - ... of the unit sphere."""
    counts = g.induced(g.adj[x]).counts()
    return Fraction(1) + sum((Fraction((-1) ** (k + 1) * v, k + 2) for k, v in enumerate(counts)), Fraction(0))


def index(g: RefGraph, f, x: int) -> int:
    """Poincare-Hopf index 1 - chi(S^-(x))."""
    lower = [y for y in g.adj[x] if f[y] < f[x]]
    return 1 - euler(g.induced(lower).counts())


def is_path(g: RefGraph) -> bool:
    degrees = sorted(len(a) for a in g.adj)
    return g.n >= 2 and len(g.edges()) == g.n - 1 and degrees[:2] == [1, 1] and max(degrees) <= 2 and _connected(g)


def _connected(g: RefGraph) -> bool:
    seen, stack = {0}, [0]
    while stack:
        for w in g.adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


# ---------------------------------------------------------------------------
# Generators (same families as discalc's, numbered independently)


def hexpatch(radius: int) -> RefGraph:
    points = [(q, r) for q in range(-radius, radius + 1) for r in range(-radius, radius + 1)
              if max(abs(q), abs(r), abs(q + r)) <= radius]
    back = {p: i for i, p in enumerate(points)}
    edges = [(i, back[(q + dq, r + dr)]) for (q, r), i in back.items()
             for dq, dr in ((1, 0), (0, 1), (1, -1)) if (q + dq, r + dr) in back]
    return RefGraph(len(points), edges)


def annulus(radius: int) -> RefGraph:
    patch = hexpatch(radius)
    centre = [v for v in range(patch.n) if len(patch.adj[v]) == 6 and all(len(patch.adj[w]) == 6 for w in patch.adj[v])]
    return patch.induced(set(range(patch.n)) - {centre[0]})


def build(spec: str) -> RefGraph:
    name, n = family(spec)
    if name == "hexpatch":
        return hexpatch(n)
    if name == "annulus":
        return annulus(n if n is not None else 2)
    if name == "complete":
        return RefGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if name == "wheel":
        return RefGraph(n + 1, [(i, (i + 1) % n) for i in range(n)] + [(i, n) for i in range(n)])
    if name == "moebius":
        return RefGraph(9, [(i, (i + d) % 9) for i in range(9) for d in (1, 2)])
    if name == "octahedron":
        # K_6 minus the perfect matching {0-3, 1-4, 2-5}
        return RefGraph(6, [(i, j) for i in range(6) for j in range(i + 1, 6) if j - i != 3])
    if name == "icosahedron":
        ring = lambda base, i: base + i % 5  # noqa: E731
        edges = [(0, ring(1, i)) for i in range(5)] + [(11, ring(6, i)) for i in range(5)]
        for i in range(5):
            edges += [(ring(1, i), ring(1, i + 1)), (ring(6, i), ring(6, i + 1)),
                      (ring(1, i), ring(6, i)), (ring(1, i + 1), ring(6, i))]
        return RefGraph(12, edges)
    raise ValueError(f"no reference generator for {spec!r}")
