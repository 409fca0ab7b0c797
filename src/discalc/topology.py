"""Euler characteristic, Betti numbers, curvature and critical-point indices.

Everything is exact: curvature and index expectations are rationals, curvature
read from the simplices at each vertex, the expectation by a local enumeration
at each vertex.  Betti numbers come from the rank over Q of each d_k, read from
the face table ``GraphComplex.faces`` by sparse fraction-free elimination on
Python ints (no matrix, no modular step).  The dense Bareiss ``integer_rank``
is kept as the independent test oracle for that rank.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .complexes import Graph, GraphComplex, build_complex, classify, connected_components, is_cycle_graph
from .numcore import DomainError


MAX_EXPECTATION_DEGREE = 10  # index_expectation sums 2^degree subsets per vertex; complete:11 takes about 1 s


def euler_characteristic(c: GraphComplex) -> int:
    return sum((-1) ** k * v for k, v in enumerate(c.counts()))


def integer_rank(mat) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination."""
    rows = [list(int(x) for x in row) for row in mat]
    if not rows or not rows[0]:
        return 0
    m, n = len(rows), len(rows[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        pivot = None
        for r in range(row, m):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        for r in range(row + 1, m):
            for cc in range(col + 1, n):
                rows[r][cc] = (rows[row][col] * rows[r][cc] - rows[r][col] * rows[row][cc]) // prev
            rows[r][col] = 0
        prev = rows[row][col]
        row += 1
        rank += 1
        if row == m:
            break
    return rank


def _sparse_rank(rows) -> int:
    """Rank over Q of the matrix whose rows are dicts {column: nonzero int}.

    Each row is reduced against stored rows keyed by their pivot (largest)
    column: r <- a*r - b*p, with a the pivot entry of the stored row p and b
    the entry of r in that column, then r is divided by the gcd of its
    entries.  Every step is an invertible row operation over Q on Python
    ints, so the rank is exact.
    """
    pivots = {}
    for row in rows:
        while row:
            col = max(row)
            stored = pivots.get(col)
            if stored is None:
                pivots[col] = row
                break
            a, b = stored[col], row[col]
            reduced = {j: a * v for j, v in row.items()}
            for j, v in stored.items():
                x = reduced.get(j, 0) - b * v
                if x:
                    reduced[j] = x
                else:
                    del reduced[j]
            g = math.gcd(*reduced.values())
            row = {j: v // g for j, v in reduced.items()} if g > 1 else reduced
    return len(pivots)


def _rank_d(c: GraphComplex, k: int) -> int:
    """rank d_k, one row {face position: (-1)^i} per (k+1)-simplex."""
    if k >= c.top_dim:
        return 0
    signs = [(-1) ** i for i in range(k + 2)]
    return _sparse_rank(dict(zip(faces, signs)) for faces in c.faces[k + 1])


def betti(c: GraphComplex) -> tuple:
    """b_k = v_k - rank d_k - rank d_{k-1}; satisfies Euler-Poincare exactly."""
    ranks = [_rank_d(c, k) for k in range(c.top_dim + 1)]
    out = []
    for k in range(c.top_dim + 1):
        below = ranks[k - 1] if k >= 1 else 0
        out.append(c.count(k) - ranks[k] - below)
    return tuple(out)


def curvature_vector(c: GraphComplex) -> tuple:
    """K(x) = sum_k (-1)^k V_{k-1}(x)/(k+1), V_{k-1}(x) counting the k-simplices that contain x, in one
    pass (about 1 ms on hexpatch:12): a (k-1)-simplex of the unit sphere S(x) plus x is a k-simplex of G."""
    denominator = math.lcm(*range(1, c.top_dim + 2))
    totals = [0] * c.graph.vertex_count
    for k, level in enumerate(c.simplices):
        weight = (-1) ** k * denominator // (k + 1)
        for x in itertools.chain.from_iterable(level):
            totals[x] += weight
    return tuple(Fraction(t, denominator) for t in totals)


def curvature(c: GraphComplex, x: int) -> Fraction:
    """K(x), entry x of ``curvature_vector``."""
    if not 0 <= x < c.graph.vertex_count:
        raise DomainError(f"vertex {x} out of range")
    return curvature_vector(c)[x]


# ---------------------------------------------------------------------------
# Poincare-Hopf indices


def _check_injective(f, n: int):
    values = [f[v] for v in range(n)]
    if len(set(values)) != len(values):
        raise DomainError("function must be injective")


def sub_level_sphere(c: GraphComplex, f, x: int) -> Graph:
    """S^-(x): the part of the unit sphere where f is smaller than at x."""
    lower = {y for y in c.graph.neighbors(x) if f[y] < f[x]}
    sub, _ = c.graph.induced(lower)
    return sub


def _index_and_class(c: GraphComplex, f, x: int) -> tuple:
    """(i_f(x), critical class of x) from one S^-(x) and its complex."""
    sub = sub_level_sphere(c, f, x)
    if sub.vertex_count == 0:
        return 1, "min"
    i = 1 - euler_characteristic(build_complex(sub))
    if is_cycle_graph(sub, min_len=3):
        return i, "max"
    if i == -2:
        return i, "monkey"
    if i < 0:
        return i, f"saddle({len(connected_components(sub))})"
    return i, "regular" if i == 0 else "critical"


def index(c: GraphComplex, f, x: int) -> int:
    """i_f(x) = 1 - chi(S^-(x))."""
    _check_injective(f, c.graph.vertex_count)
    return _index_and_class(c, f, x)[0]


@dataclass(frozen=True)
class IndexReport:
    indices: tuple
    classes: tuple
    total: int


def classify_critical(c: GraphComplex, f, x: int) -> str:
    """min / max / saddle(m) / monkey / regular taxonomy of a vertex."""
    _check_injective(f, c.graph.vertex_count)
    return _index_and_class(c, f, x)[1]


def poincare_hopf(c: GraphComplex, f) -> IndexReport:
    """Per-vertex indices; the total equals the Euler characteristic."""
    n = c.graph.vertex_count
    _check_injective(f, n)
    pairs = [_index_and_class(c, f, x) for x in range(n)]
    indices = tuple(i for i, _ in pairs)
    return IndexReport(indices, tuple(kind for _, kind in pairs), sum(indices))


def index_expectation(c: GraphComplex) -> tuple:
    """Average of i_f(x) over all vertex orderings f, as exact rationals.

    i_f(x) = 1 - chi(S^-(x)) depends only on the set A of neighbours below x, and an
    ordering puts exactly A below x with probability |A|!(d-|A|)!/(d+1)! (Knill,
    arXiv:1202.4514).  So a vertex of degree d sums over the 2^d subsets of its unit
    sphere (the empty set's complex has chi 0); d above MAX_EXPECTATION_DEGREE raises DomainError.
    This enumeration is not the curvature formula restated: it checks Gauss-Bonnet.
    """
    g = c.graph
    spheres = [sorted(g.neighbors(x)) for x in range(g.vertex_count)]
    if any(len(sphere) > MAX_EXPECTATION_DEGREE for sphere in spheres):
        raise DomainError(f"index expectation enumerates 2^degree subsets; degree capped at {MAX_EXPECTATION_DEGREE}")
    out = []
    for sphere in spheres:
        d, total = len(sphere), 0
        for size in range(d + 1):
            for below in itertools.combinations(sphere, size):
                chi = euler_characteristic(build_complex(g.induced(below)[0]))
                total += math.factorial(size) * math.factorial(d - size) * (1 - chi)
        out.append(Fraction(total, math.factorial(d + 1)))
    return tuple(out)


def umlaufsatz_sum(c: GraphComplex) -> Fraction:
    """Sum of boundary curvatures of a flat surface with boundary: 1 - #holes."""
    cls = classify(c)
    if cls.kind != "surface" or not cls.flat or not cls.boundary:
        raise DomainError("umlaufsatz needs a flat surface with non-empty boundary")
    curvatures = curvature_vector(c)
    return sum((curvatures[x] for x in cls.boundary), Fraction(0))
