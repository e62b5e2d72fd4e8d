"""Solving the renormalization fixed point.

One subdivision step glues four weighted copies of a boundary form along
the cell contacts and reduces back by a Schur trace.  At unit corner
weights the map has a one-dimensional fixed ray with scale factor C
depending on the added-cell weight; solving x * C(x) = s and setting
r = C(x*) yields the self-similar weights (r, r, r, s).
"""

import math

import agres
from agres.network import effective_resistance

ifs = agres.make_ifs("1/4")

print("scale factor profile (decreasing), and x * C(x) (increasing):")
for x in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
    res = agres.eigen_solve(ifs, x)
    print(f"  x={x:5.2f}  C={res.C:.12f}  x*C={x * res.C:.12f}  "
          f"iters={res.iterations}")

res_inf = agres.eigen_solve(ifs, math.inf)
print(f"open circuit (added copy removed): C = {res_inf.C!r}  "
      f"(the classic corner-gasket constant 3/5)")

print("\nsolve for the corner weight at several added weights:")
for s in (0.2, 0.5, 0.8):
    sol = agres.solve_r(ifs, s)
    print(f"  s={s}: r={sol.r:.12f}  theta={sol.theta:.6f}  "
          f"residual={sol.residual:.2e}")

sol = agres.solve_r(ifs, 0.5)
print("\nthe solved boundary form is normalized to corner resistance 2/3:")
for pair in ((0, 1), (1, 2), (0, 2)):
    print(f"  R{pair} = {effective_resistance(sol.D.form, *pair):.12f}")

print("\nscanning off-solution corner weights (energy scale factor C(s/r')/r'):")
for rp, factor in agres.uniqueness_scan(sol, [sol.r - 0.05, sol.r, sol.r + 0.05]):
    print(f"  r'={rp:.6f}  factor={factor:.6f}"
          + ("   <- fixed point" if abs(factor - 1) < 1e-6 else ""))

print("\npreserved rotation-invariant relations (dyadic parameters: trivial only):")
for lam in ("1/4", "1/8", "1/16"):
    rels = agres.enumerate_preserved_relations(agres.make_ifs(lam), k=2)
    kinds = ["full" if r.is_full else "empty" if r.is_empty else "NONTRIVIAL"
             for r in rels]
    print(f"  lambda={lam}: {kinds}")
print("non-dyadic parameters can differ, e.g. lambda=1/7:")
rels = agres.enumerate_preserved_relations(agres.make_ifs("1/7"))
print(f"  lambda=1/7: {len(rels)} preserved relations "
      f"({sum(1 for r in rels if not r.is_trivial)} nontrivial)")
