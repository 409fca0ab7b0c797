"""
Heat, waves and path sums
=========================

The form Laplacian drives heat flow, the Dirac operator drives waves and
the Schroedinger evolution, and matrix powers of D expand into Feynman
sums over paths in the graph.
"""

import numpy as np

from discalc import complexes as cx, evolution as ev, forms as fm, spectral as sp

c = cx.build_complex(cx.generate("cycle", 5))

# Heat flow spreads a point source toward the mean value
f0 = fm.Form(c, 0, np.array([5, 0, 0, 0, 0], dtype=object))
for t in (0.0, 0.5, 2.0, 50.0):
    out = np.asarray(ev.heat_flow(c, 0, f0, t).values, dtype=float)
    print(f"heat t = {t:5.1f}: " + " ".join(f"{v:7.4f}" for v in out))

# Schroedinger evolution is unitary: the norm never changes
octa = cx.build_complex(cx.generate("octahedron"))
psi0 = np.zeros(fm.total_dim(octa))
psi0[0] = 1.0
for t in (0.0, 1.0, 10.0):
    psi = ev.schrodinger_flow(octa, psi0, t)
    print(f"Schroedinger t = {t:4.1f}: norm = {np.linalg.norm(psi):.12f}")

# Wave evolution conserves energy |f'|^2 + |Df|^2
d = fm.dirac(octa).data.astype(float)
g0 = d @ np.linspace(0, 1, fm.total_dim(octa))
for t in (0.0, 1.5, 6.0):
    w, v = (np.asarray(x) for x in ev.wave_flow(octa, psi0, g0, t))
    energy = float(v @ v + (d @ w) @ (d @ w))
    print(f"wave t = {t:3.1f}: energy = {energy:.12f}")

# A velocity in the kernel of D, here a constant on the vertices, has no
# frequency: sin(wt)/w -> t, so the wave drifts as t times it
h = np.zeros(fm.total_dim(octa))
h[:octa.count(0)] = 1.0
print("wave t = 2.5 from velocity h: u[0] =", ev.wave_flow(octa, np.zeros_like(h), h, 2.5)[0][0])

# Matrix powers of the Dirac operator count signed paths: the (j, i) entry
# of D^n is the sum over all n-step walks from simplex i to simplex j of
# the product of the traversed matrix entries
k3 = cx.build_complex(cx.generate("complete", 3))
dk3 = fm.dirac(k3).data
power = dk3 @ dk3 @ dk3
print("\nD^3 entry (0 -> 0) on K_3, by matrix power: ", power[0, 0])
print("D^3 entry (0 -> 0) on K_3, by path summation:",
      sp.feynman_path_sum(dk3, 0, 0, 3))
