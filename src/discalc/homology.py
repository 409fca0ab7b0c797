"""Exact homology of a clique complex: the Euler characteristic and the Betti numbers.

b_k = n_k - rank d_k - rank d_{k-1}, with each rank taken over Q from the signed rows of the face table
``GraphComplex.faces`` by sparse fraction-free elimination on Python ints (``_echelon``).  The levels are
reduced from the top down with the clearing step of persistent homology (Chen & Kerber, "Persistent
homology computation with a twist", EuroCG 2011; Bauer, Kerber & Reininghaus, "Clear and compress", 2014):
the row of a k-simplex that is a pivot column of level k + 1 is skipped, because it is a combination of the
rows that are not.  The reduced rows of ``faces[k + 1]`` span the boundaries B_k and have distinct pivots P,
each its row's largest column; taken in ascending order, the boundary with pivot s writes the row of s
through rows of smaller simplices, so by induction every row in P lies in the span of the rows outside P.
The tests check the ranks against a dense Bareiss elimination of their own.
"""

from __future__ import annotations

import math

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .complexes import GraphComplex


def euler_characteristic(c: GraphComplex) -> int:
    return sum((-1) ** k * v for k, v in enumerate(c.counts()))


def _echelon(rows, skip=()) -> dict:
    """The echelon of the rows, dicts {column: nonzero int}, whose positions are not in skip, as
    {pivot column: reduced row}; its length is their rank over Q.

    Each row is reduced against stored rows keyed by their pivot (largest)
    column: r <- a*r - b*p, with a the pivot entry of the stored row p and b
    the entry of r in that column, then r is divided by the gcd of its
    entries.  Every step is an invertible row operation over Q on Python
    ints, so the rank is exact.  A reduction builds a new dict, so the rows
    passed in, which may be the face table's own, are never changed.
    """
    pivots = {}
    for i, row in enumerate(rows):
        if i in skip:
            continue
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
    return pivots


def betti(c: GraphComplex) -> tuple:
    """b_k = n_k - rank d_k - rank d_{k-1}, by clearing from the top level down; satisfies Euler-Poincare
    exactly."""
    # ranks[k] = rank d_{k-1}, the rank of faces[k]; d_{-1} and d_top are zero
    ranks, cleared = [0] * (c.top_dim + 2), {}
    for k in range(c.top_dim, 0, -1):
        cleared = _echelon(c.faces[k], cleared)
        ranks[k] = len(cleared)
    return tuple(c.count(k) - ranks[k + 1] - ranks[k] for k in range(c.top_dim + 1))
