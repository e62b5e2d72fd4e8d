"""Geometry tour: the map family, attractor membership, and contact sets.

The fractal family is generated by the three corner halvings of an
equilateral triangle plus a fourth scaled rotation controlled by a
parameter lambda in (0, 1/2).  For rational lambda everything below is
computed exactly: a point is z = u + v*omega with omega = e^{i pi/3} and
rational u, v, written Point(u, v), and every map is z -> a z + b.
"""

from fractions import Fraction

import agres
from agres.exact import Point, point_decimal_str
from agres.geometry import CENTROID, CORNERS, cell_images, point_in_attractor

ifs = agres.make_ifs("1/4")
print("maps at lambda = 1/4")
corner_images = cell_images(ifs, 1, CORNERS)  # one row of corner images per map
ratios = (0.5, 0.5, 0.5, ifs.added_ratio)
for k, (name, ratio) in enumerate(zip(("F1", "F2", "F3", "F4"), ratios)):
    images = ", ".join(str(point_decimal_str(corner_images.point((k, c)))) for c in range(3))
    print(f"  {name}: ratio {ratio:.4f}, corner images {images}")

print("\nattractor membership (exact pullback descent)")
probes = [
    ("bottom contact (2*lambda, 0)", Point(Fraction(1, 2), Fraction(0))),
    ("centroid (fixed point of F4)", CENTROID),
    ("a point in the central hole", Point(Fraction(7, 16), Fraction(1, 8))),
]
for label, p in probes:
    print(f"  {label}: {point_in_attractor(ifs, p)}")

print("\ncell-contact sets: corners plus rotation orbits of a doubling orbit")
for lam in ("1/4", "1/8", "1/7", "3/16"):
    bset = agres.boundary_set(agres.make_ifs(lam))
    params = ", ".join(str(t) for t in bset.parameter_set())
    print(f"  lambda={lam}: {bset.size} points, edge parameters {{{params}}}")

print("\nfast construction equals the defining-union oracle:")
for lam in ("1/4", "1/7"):
    ifs_l = agres.make_ifs(lam)
    fast = agres.boundary_set(ifs_l, "fast")
    oracle = agres.boundary_set(ifs_l, "oracle")
    same = fast.points == oracle.points
    print(f"  lambda={lam}: {same}")

print("\napproximating graphs")
for m in (0, 1, 2, 3):
    g = agres.approximation_graph(ifs, m)
    print(f"  level {m}: {g.vertex_count} vertices, {g.edge_count} edges, "
          f"connected: {g.is_connected()}")

print("\nattractors move Lipschitz-continuously in the parameter:")
for lam2 in ("5/16", "3/8"):
    est, bound = agres.hausdorff_distance(ifs, agres.make_ifs(lam2), depth=8)
    print(f"  distance(AG(1/4), AG({lam2})) ~ {est:.5f} <= bound {bound:.5f} + 2^-7")
