"""
Stokes, Green and Gauss on graphs
=================================

Summing a derivative over a region leaves only boundary terms.  On a wheel
graph this is Green's theorem; on a ball built from tetrahedra it is the
divergence theorem.  Everything cancels exactly in integer arithmetic.
"""

import numpy as np

from discalc import complexes as cx, forms as fm, topology as tp, vector as vc

# Green's theorem on the wheel W_6: spokes get value 1, rim edge i -> i+1
# gets value i+1.  Curl summed over triangles = line integral around the rim.
c = cx.build_complex(cx.generate("wheel", 6))
values = np.full(12, 0, dtype=object)
for i in range(6):
    a, b = i, (i + 1) % 6
    values[c.index[1][(min(a, b), max(a, b))]] = (i + 1) if a < b else -(i + 1)
for i in range(6):
    values[c.index[1][(i, 6)]] = 1
F = fm.Form(c, 1, values)

region = list(c.simplices[2])
orientation = vc.orient_region(c, 2, region)
lhs = vc.integrate(vc.apply_d(F), region, orientation)
rhs = sum(sign * F.values[c.index[1][f]] for f, sign in orientation.boundary_signs.items())
print("sum of curls over triangles:", lhs)
print("line integral around the rim:", rhs)

# The divergence theorem: cone over the octahedron = eight tetrahedra
g = cx.generate("octahedron")
apex = g.vertex_count
ball = cx.Graph(apex + 1, frozenset(set(g.edges) | {(v, apex) for v in range(apex)}))
bc = cx.build_complex(ball)
print("\nball classification:", tp.classify(bc).kind)
G = fm.Form(bc, 2, np.arange(1, bc.count(2) + 1, dtype=object))
print("Gauss residual over all 8 tetrahedra:", vc.stokes_residual(bc, bc.simplices[3], G))

# A Moebius band refuses to be oriented, so Stokes does not even start
mo = cx.build_complex(cx.moebius_strip())
try:
    vc.orient_region(mo, 2, mo.simplices[2])
except vc.NonOrientableError as exc:
    print("\nMoebius band:", exc)
