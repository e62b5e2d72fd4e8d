"""Level realizations of the solved form and the resistance estimates.

The level-m trace decomposes into one weighted traced copy of the solved
boundary form per length-m cell, so it is assembled without any global
elimination.  Fine-scale boundary-pair resistances come from a nested
trace tower that refines the bottom edge only.  The solution carries its
IFS, and every level diagnostic reads the one level form it is handed.
"""

from fractions import Fraction

import agres
from agres.approx import (EdgeTraceTower, boundary_resistance_check,
                          decimation_identity, envelope_check, level_form,
                          resistance_metric, scaling_exponent)
from agres.network import effective_resistance

sol = agres.solve_r(agres.make_ifs("1/4"), 0.5)

print("level forms (vertex growth, corner resistance is level-independent):")
for m in range(0, 5):
    lf = level_form(sol, m)
    v1, v2 = lf.vid_of_address((), 1), lf.vid_of_address((), 2)
    r12 = effective_resistance(lf.form, v1, v2) if m else 2 / 3
    print(f"  m={m}: {lf.form.n:5d} vertices  R(p1,p2)={r12:.10f}")

print("\nresistances between addressed vertices (level-consistent):")
pairs = [(((4,), 1), ((4,), 2)), (((1,), 2), ((2,), 1))]
for m in (3, 4):
    rows = resistance_metric(level_form(sol, m), pairs)
    vals = "  ".join(f"{v:.8f}" for _, v in rows)
    print(f"  m={m}: {vals}")

print("\ntop corner to grounded bottom edge, against the lower bound s*r/(2(s+r)):")
for m in (4, 5, 6):
    value, bound, ok = boundary_resistance_check(level_form(sol, m))
    print(f"  m={m}: value={value:.6f} >= bound={bound:.6f}: {ok}")

print("\nresistance-distance exponent on the bottom edge (nested trace tower):")
tfit, theta, env = scaling_exponent(sol, range(4, 10))
print(f"  fitted slope {tfit:.5f} vs model theta {theta:.5f}; "
      f"envelope spread {env.spread:.2f}")

tower = EdgeTraceTower(sol)
tower.refine_to(6)
vals = tower.bottom_resistances([(Fraction(0), Fraction(1, 2 ** k)) for k in (2, 4, 6)])
print("  R(corner, first dyadic point) at scales 1/4, 1/16, 1/64:",
      "  ".join(f"{v:.6f}" for v in vals))

print("\nwhole-attractor envelope (two-exponent bounds, fitted constants):")
genv = envelope_check(level_form(sol, 4))
print(f"  {genv.c1:.4f} * d^{genv.eta_star:.4f} <= R <= {genv.c2:.4f} * d^{genv.eta_sub:.4f}")

print("\none-step energy decomposition for harmonic extensions (exact identity):")
for m in (1, 2, 3):
    rep = decimation_identity(level_form(sol, m), (1.0, 0.0, 0.0))
    print(f"  m={m}: E(h)={rep.lhs:.12f}  sum r_i^-1 E(h o F_i)={rep.rhs:.12f}  "
          f"gap={rep.relative_gap:.1e}")
