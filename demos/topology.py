"""
Curvature, indices and Betti numbers
====================================

Three very different quantities -- curvature summed over vertices, critical
point indices of any injective function, and the alternating Betti sum --
all equal the Euler characteristic.  All three are computed exactly.
"""

import random

from discalc import complexes as cx, homology as hm, topology as tp

for spec in ("octahedron", "icosahedron", "cube", "cycle:7", "wheel:6"):
    c = cx.build_complex(cx.parse_generator(spec))
    chi = hm.euler_characteristic(c)
    print(f"{spec:12s} chi = {chi:3d}  betti = {hm.betti(c)}  "
          f"sum of curvature = {sum(tp.curvature_vector(c))}")

# Poincare-Hopf: indices of a height function on the octahedron
c = cx.build_complex(cx.generate("octahedron"))
f = {0: 0, 1: 9, 2: 1, 3: 2, 4: 3, 5: 4}
report = tp.poincare_hopf(c, f)
print("\noctahedron height function:")
for v in range(6):
    print(f"  vertex {v}: index {report.indices[v]:2d}  ({report.classes[v]})")
print("  total =", report.total, " = chi")

# Averaging the index over every injective ordering recovers curvature:
# Gauss-Bonnet by two routes.  Each vertex only needs the orderings of its
# own neighbours, so the 12! orderings of the icosahedron are never walked.
path3 = cx.build_complex(cx.generate("path", 3))
print("\nindex expectation on the 3-vertex path:", tp.index_expectation(path3))
print("curvature of the same path:            ", tp.curvature_vector(path3))
ico = cx.build_complex(cx.generate("icosahedron"))
print("index expectation on the icosahedron:", " ".join(map(str, tp.index_expectation(ico))))
print("curvature of the icosahedron:        ", " ".join(map(str, tp.curvature_vector(ico))))

# The Umlaufsatz: boundary curvatures of a flat disc sum to 1,
# and of a flat annulus (one hole) to 0
print("\nboundary curvature total, hex disc:   ",
      tp.umlaufsatz_sum(cx.build_complex(cx.hex_patch(2))))
print("boundary curvature total, hex annulus:",
      tp.umlaufsatz_sum(cx.build_complex(cx.hex_annulus(2))))

# Level curves of a random injective function on the icosahedron are
# disjoint unions of cycles
rng = random.Random(0)
values = list(range(12))
rng.shuffle(values)
curve = tp.level_curve(ico, {v: values[v] for v in range(12)}, 5.5)
print("\nlevel curve on the icosahedron:", curve.vertex_count, "vertices,",
      len(curve.edges), "edges; all degree 2:",
      all(len(curve.neighbors(v)) == 2 for v in range(curve.vertex_count)))
