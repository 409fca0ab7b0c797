"""
Exterior calculus on a graph
============================

The complete subgraphs of a finite simple graph play the role of points,
edges, triangles and tetrahedra.  The signed face-sum operator d satisfies
d.d = 0, and D = d + d* packs gradient, curl and divergence into one
symmetric matrix whose square is the form Laplacian.
"""

import numpy as np

from discalc import complexes as cx, forms as fm, vector as vc

# The octahedron: 6 vertices, 12 edges, 8 triangles
c = cx.build_complex(cx.generate("octahedron"))
print("simplex counts:", c.counts())

# d.d = 0 holds exactly (the matrices hold Python integers)
d0 = fm.exterior_derivative(c, 0).data
d1 = fm.exterior_derivative(c, 1).data
print("d1 @ d0 is zero:", bool(np.all(d1 @ d0 == 0)))

# The smallest interesting case: one edge
k2 = cx.build_complex(cx.generate("complete", 2))
print("\nDirac operator of K_2:")
print(fm.dirac(k2).data)
print("Laplacian L = D^2:")
print(fm.laplacian(k2).data)
print("eigenvalues:", np.linalg.eigvalsh(fm.laplacian(k2).data.astype(float)).round(12))

# Block 0 of the Laplacian is the classical Kirchhoff matrix
print("\nvertex Laplacian of C_4:")
print(fm.laplacian_block(cx.build_complex(cx.generate("cycle", 4)), 0).data)

# A gradient field integrates to a potential; circulation is detected
f = np.array([0, 3, 1, 4, 1, 5], dtype=object)
F = fm.Form(c, 1, d0 @ f)
print("\nrecovered potential (anchored at vertex 0):", list(vc.potential(c, F)))
