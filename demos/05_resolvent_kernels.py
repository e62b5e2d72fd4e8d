"""Resolvent kernels of the level traces with self-similar vertex masses.

The kernel matrix inverts L + alpha * diag(masses); its defining identity
makes it reproduce point evaluations in the alpha-shifted energy inner
product.  Entries at shared vertices stabilize as the level grows.
"""

import numpy as np

import agres
from agres.approx import level_form, measure_weights, resolvent_kernel, vertex_masses

ifs = agres.make_ifs("1/4")
sol = agres.solve_r(ifs, 0.5)

ms = measure_weights(ifs)
print(f"dimension-matched cell weights: {tuple(round(w, 6) for w in ms.weights)} "
      f"(dimension {ms.dimension:.6f})")
uni = measure_weights(ifs, "uniform")
print(f"uniform cell weights: {uni.weights}")

print("\nvertex masses at level 3: positive, total 1, rotation-symmetric")
masses = vertex_masses(ifs, ms, 3)
print(f"  count={len(masses)} total={masses.sum():.12f} "
      f"min={masses.min():.6f} max={masses.max():.6f}")

print("\nkernel identities at level 3, alpha = 1:")
lf = level_form(sol, 3)
kernel = resolvent_kernel(lf, 1.0, ms)
print(f"  symmetry error  {kernel.symmetry_error():.2e}")
print(f"  row-mass error  {kernel.row_mass_error():.2e}  (rows sum to 1/alpha)")

print("\nsmoothness: |u(x,y1)-u(x,y2)|^2 <= R(y1,y2) u(x,x) on sampled triples")
from agres.network import resistance_matrix

R = resistance_matrix(lf.form)
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(500):
    x, y1, y2 = rng.integers(0, lf.form.n, size=3)
    lhs = (kernel.matrix[x, y1] - kernel.matrix[x, y2]) ** 2
    worst = max(worst, lhs - R[y1, y2] * kernel.matrix[x, x])
print(f"  max violation over 500 triples: {worst:.2e}")

print("\nkernel entries at the corner pair stabilize across levels:")
prev = None
for m in (1, 2, 3, 4):
    lf = level_form(sol, m)
    kernel = resolvent_kernel(lf, 1.0, ms)
    v1, v2 = lf.vid_of_address((), 1), lf.vid_of_address((), 2)
    val = kernel.matrix[v1, v2]
    delta = "" if prev is None else f"  (change {abs(val - prev):.2e})"
    print(f"  m={m}: u(p1,p2) = {val:.10f}{delta}")
    prev = val
