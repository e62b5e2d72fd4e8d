"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria with stated runtime budgets assert them.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

import agres
import exact_reference as ref
from agres.approx import (boundary_resistance_check, decimation_identity, level_form,
                          scaling_exponent)
from agres.geometry import CORNERS, boundary_set, cell_images
from agres.network import (FiniteForm, effective_resistance, resistance_matrix,
                           resolvent, trace)
from agres.renorm import (eigen_solve, enumerate_preserved_relations, solve_r,
                          symmetric_start, uniqueness_scan, _glue_context)

GRID_LAMBDAS = ("1/4", "1/8", "3/8", "5/16", "3/16")
GRID_S = (0.2, 0.5, 0.8)

_cache: dict = {}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _grid_solutions():
    if "grid" not in _cache:
        t0 = time.time()
        out = {}
        for lam in GRID_LAMBDAS:
            ifs = agres.make_ifs(lam)
            for s in GRID_S:
                out[(lam, s)] = (ifs, solve_r(ifs, s))
        _cache["grid"] = out
        _cache["grid_seconds"] = time.time() - t0
    return _cache["grid"]


def test_criterion_01_gasket_baseline():
    worst_err = 0.0
    worst_dt = 0.0
    for lam in ("1/4", "1/8", "3/8"):
        ifs = agres.make_ifs(lam)
        t0 = time.time()
        res = eigen_solve(ifs, math.inf)
        dt = time.time() - t0
        worst_err = max(worst_err, abs(res.C - 0.6))
        worst_dt = max(worst_dt, dt)
    ok = worst_err <= 1e-10 and worst_dt < 1.0
    _report(1, ok, f"open-circuit scale factor |C - 3/5| <= {worst_err:.2e}, "
                   f"slowest run {worst_dt:.3f}s (< 1 s)")


def test_criterion_02_range_and_residual():
    sols = _grid_solutions()
    elapsed = _cache["grid_seconds"]
    worst_res = max(sol.residual for _, sol in sols.values())
    rs = [sol.r for _, sol in sols.values()]
    ok = all(0.6 <= r < 1.0 for r in rs) and worst_res <= 1e-8 and elapsed < 30.0
    _report(2, ok, f"{len(sols)} solutions: r in [{min(rs):.4f}, {max(rs):.4f}] "
                   f"within [3/5, 1), max residual {worst_res:.2e} <= 1e-8, "
                   f"grid solved in {elapsed:.1f}s (< 30 s)")


def test_criterion_03_monotonicity():
    grid = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    ok = True
    details = []
    for lam in GRID_LAMBDAS:
        ifs = agres.make_ifs(lam)
        cs = [eigen_solve(ifs, x).C for x in grid]
        dec = all(b < a for a, b in zip(cs, cs[1:]))
        prods = [x * c for x, c in zip(grid, cs)]
        inc = all(b >= a - 1e-12 for a, b in zip(prods, prods[1:]))
        sols = _grid_solutions()
        r_order = sols[(lam, 0.8)][1].r < sols[(lam, 0.2)][1].r
        ok = ok and dec and inc and r_order
        details.append(f"{lam}: C-dec={dec} prod-inc={inc} r(0.8)<r(0.2)={r_order}")
    _report(3, ok, "; ".join(details))


def test_criterion_04_uniqueness():
    ifs, sol = _grid_solutions()[("1/4", 0.5)]
    offsets = (0.02, 0.05, 0.1)
    rvals = [sol.r - d for d in offsets] + [sol.r] + [sol.r + d for d in offsets]
    rows = uniqueness_scan(sol, rvals)
    gaps_away = [abs(f - 1.0) for rp, f in rows if abs(rp - sol.r) > 1e-12]
    gap_at_r = [abs(f - 1.0) for rp, f in rows if abs(rp - sol.r) <= 1e-12]
    scan_ok = min(gaps_away) >= 1e-4 and gap_at_r[0] <= 1e-8

    bset = boundary_set(ifs)
    ctx = _glue_context(ifs, bset, True)
    vecs = []
    for seed in range(10):
        start = symmetric_start(bset, np.random.default_rng(seed))
        vecs.append(eigen_solve(ifs, sol.rtilde4, initial=start).D.vector(ctx.pairs))
    spread = max(float(np.abs(v - vecs[0]).max()) for v in vecs[1:])
    multi_ok = spread <= 1e-8
    _report(4, scan_ok and multi_ok,
            f"scale factor gap away from r >= {min(gaps_away):.2e} (>= 1e-4), "
            f"at r <= {gap_at_r[0]:.2e}; multistart spread {spread:.2e} <= 1e-8")


def test_criterion_05_normalization():
    worst = 0.0
    for (lam, s), (ifs, sol) in _grid_solutions().items():
        for pair in ((0, 1), (1, 2), (0, 2)):
            worst = max(worst, abs(effective_resistance(sol.D.form, *pair) - 2 / 3))
    ok = worst <= 1e-10
    _report(5, ok, f"max |R(corner pair) - 2/3| = {worst:.2e} <= 1e-10 over "
                   f"{len(_grid_solutions())} solutions")


def _random_connected(rng, n):
    verts = list(range(n))
    cond = {}
    order = verts[:]
    rng.shuffle(order)
    for i in range(1, n):
        a, b = order[i], order[int(rng.integers(0, i))]
        cond[(min(a, b), max(a, b))] = float(rng.uniform(0.1, 10.0))
    for _ in range(n):
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        if a != b:
            cond[(min(a, b), max(a, b))] = float(rng.uniform(0.1, 10.0))
    return FiniteForm(verts, cond)


def test_criterion_06_network_algebra():
    rng = np.random.default_rng(101)
    tower_err = resist_err = markov_viol = metric_viol = 0.0
    for _ in range(20):
        n = int(rng.integers(6, 12))
        form = _random_connected(rng, n)
        v1 = sorted(rng.choice(n, size=max(4, n - 3), replace=False).tolist())
        v0 = sorted(rng.choice(v1, size=3, replace=False).tolist())
        once = trace(form, v0)
        twice = trace(trace(form, v1), v0)
        for x, y in itertools.combinations(v0, 2):
            tower_err = max(tower_err, abs(once.conductance(x, y) -
                                           twice.conductance(x, y)))
        traced = trace(form, v1)
        for x, y in itertools.combinations(v0, 2):
            resist_err = max(resist_err, abs(
                effective_resistance(form, x, y) -
                effective_resistance(traced, x, y)))
        R = resistance_matrix(form)
        metric_viol = max(metric_viol, float(np.abs(R - R.T).max()))
        for i, j, k in itertools.islice(itertools.permutations(range(n), 3), 60):
            metric_viol = max(metric_viol, R[i, j] - R[i, k] - R[k, j])
        f = rng.uniform(-2, 2, size=n)
        markov_viol = max(markov_viol,
                          form.energy(np.clip(f, 0, 1)) - form.energy(f))

    sandwich_ok = True
    for _ in range(100):
        n = int(rng.integers(3, 7))
        f1 = _random_connected(rng, n)
        f2 = _random_connected(rng, n)
        lo, hi = agres.form_comparison(f1, f2)
        fs = rng.uniform(-1, 1, size=(1000, n))
        L1, L2 = f1.laplacian_dense(), f2.laplacian_dense()
        e1 = np.einsum("ij,jk,ik->i", fs, L1, fs)
        e2 = np.einsum("ij,jk,ik->i", fs, L2, fs)
        if not (np.all(e2 >= lo * e1 - 1e-10) and np.all(e2 <= hi * e1 + 1e-10)):
            sandwich_ok = False
    ok = (tower_err <= 1e-10 and resist_err <= 1e-10 and markov_viol <= 1e-12
          and metric_viol <= 1e-12 and sandwich_ok)
    _report(6, ok, f"trace tower {tower_err:.2e}, resistance preservation "
                   f"{resist_err:.2e} (<= 1e-10); Markov {markov_viol:.2e}, "
                   f"metric axioms {metric_viol:.2e} (<= 1e-12); "
                   f"comparison sandwich on 100 pairs: {sandwich_ok}")


def test_criterion_07_resolvent_identities():
    rng = np.random.default_rng(202)
    sym = mass = holder = 0.0
    for _ in range(12):
        n = int(rng.integers(3, 10))
        form = _random_connected(rng, n)
        masses = rng.uniform(0.2, 1.0, size=n)
        masses /= masses.sum()
        alpha = float(rng.uniform(0.2, 4.0))
        kernel = resolvent(form, masses, alpha)
        sym = max(sym, kernel.symmetry_error())
        mass = max(mass, kernel.row_mass_error())
        R = resistance_matrix(form)
        for x, y1, y2 in itertools.islice(itertools.permutations(range(n), 3), 120):
            lhs = (kernel.matrix[x, y1] - kernel.matrix[x, y2]) ** 2
            holder = max(holder, lhs - R[y1, y2] * kernel.matrix[x, x])
    ok = sym <= 1e-12 and mass <= 1e-10 and holder <= 1e-12
    _report(7, ok, f"symmetry {sym:.2e} <= 1e-12, row mass {mass:.2e} <= 1e-10, "
                   f"smoothness-bound violation {holder:.2e} <= 1e-12")


def test_criterion_08_boundary_sets():
    expected = {"1/4": 6, "1/8": 9, "1/7": 12, "3/16": 12}
    ok = True
    details = []
    for lam, size in expected.items():
        ifs = agres.make_ifs(lam)
        fast = boundary_set(ifs, "fast")
        oracle = boundary_set(ifs, "oracle")
        match = fast.points == oracle.points
        ok = ok and match and fast.size == size
        details.append(f"{lam}: size {fast.size} (want {size}), fast==oracle: {match}")
    _report(8, ok, "; ".join(details))


def test_criterion_09_preserved_relations():
    t0 = time.time()
    ok = True
    details = []
    for lam in ("1/4", "1/8", "1/16"):
        rels = enumerate_preserved_relations(agres.make_ifs(lam), k=2)
        good = len(rels) == 2 and all(r.is_trivial for r in rels) \
            and any(r.is_full for r in rels) and any(r.is_empty for r in rels)
        ok = ok and good
        details.append(f"{lam}: {len(rels)} relations, trivial only: {good}")
    dt = time.time() - t0
    ok = ok and dt < 300.0
    _report(9, ok, "; ".join(details) + f"; total {dt:.1f}s (< 5 min)")


def test_criterion_10_estimates():
    sols = _grid_solutions()
    lower_ok = True
    worst_margin = math.inf
    for (lam, s), (ifs, sol) in sols.items():
        for m in (4, 5, 6):
            value, bound, passed = boundary_resistance_check(level_form(sol, m))
            lower_ok = lower_ok and passed
            worst_margin = min(worst_margin, value - bound)

    sol = sols[("1/4", 0.5)][1]
    tfit, theta, env = scaling_exponent(sol, range(4, 10))
    fit_ok = abs(tfit - theta) <= 0.15 and env.spread <= 50

    worst_r = 0.0
    for den in (8, 16, 32):
        for num in range(1, den):
            lam = Fraction(num, den)
            if lam < Fraction(1, 8) or lam > Fraction(3, 8) or lam.denominator != den:
                continue
            for s in (0.2, 0.5, 0.8, 0.95):
                worst_r = max(worst_r, solve_r(agres.make_ifs(lam), s).r)
    uniform_ok = worst_r < 1.0 - 1e-3
    ok = lower_ok and fit_ok and uniform_ok
    _report(10, ok,
            f"bottom-edge bound holds at m=4..6 on the grid (min margin "
            f"{worst_margin:.3f}); exponent fit |{tfit:.4f} - {theta:.4f}| = "
            f"{abs(tfit - theta):.4f} <= 0.15 with spread {env.spread:.2f} <= 50; "
            f"max r over the parameter box = {worst_r:.6f} < 1 - 1e-3")


def test_criterion_11_decimation_invariance():
    worst = 0.0
    data = (1.0, -0.5, 2.0)
    for (lam, s), (ifs, sol) in _grid_solutions().items():
        for m in (1, 2, 3, 4):
            rep = decimation_identity(level_form(sol, m), data)
            worst = max(worst, rep.relative_gap)
            if not rep.used_cell_sets:
                worst = max(worst, rep.plain_gap)
    ok = worst <= 1e-8
    _report(11, ok, f"max relative gap of the energy decomposition {worst:.2e} "
                    f"<= 1e-8 over the grid at m=1..4")


def test_criterion_12_convergence_experiment():
    t0 = time.time()
    rep = agres.convergence_report(
        "1/sqrt8", 0.5, range(4, 11),
        [(((), 1), ((), 2)), (((4,), 1), ((4,), 2))],
        alpha=1.0, m=3)
    dt = time.time() - t0
    verdicts = rep.compute_verdicts()
    trend_ok = all(v["trend_nonincreasing"] for v in verdicts.values())
    gap_ok = all(v["final_gap"] <= 1e-2 for v in verdicts.values())
    norm_ok = all(abs(row.resistances[0] - 2 / 3) <= 1e-8 for row in rep.rows)
    range_ok = all(0.6 <= row.r < 1.0 for row in rep.rows)
    ok = trend_ok and gap_ok and norm_ok and range_ok and dt < 300.0
    gaps = {k: v["final_gap"] for k, v in verdicts.items()}
    _report(12, ok, f"trailing diffs nonincreasing: {trend_ok}; final gaps "
                    f"{ {k: f'{v:.1e}' for k, v in gaps.items()} } <= 1e-2; "
                    f"R(p1,p2)=2/3 rows: {norm_ok}; r in [3/5,1): {range_ok}; "
                    f"{dt:.1f}s (< 5 min)")


def test_criterion_13_distance_bounds():
    rng = np.random.default_rng(303)
    all_pass = True
    for _ in range(20):
        num1 = int(rng.integers(1, 16))
        num2 = int(rng.integers(1, 16))
        est, bound, ok = agres.hausdorff_check(Fraction(num1, 32),
                                               Fraction(num2, 32), depth=8)
        all_pass = all_pass and ok

    # tracked-point bound for every word of length <= 8, exact arithmetic: over a
    # common denominator, |z1 - z2|^2 = (du^2 + du dv + dv^2) / den^2 <= 4 (lam1 - lam2)^2
    lam1, lam2 = Fraction(1, 4), Fraction(5, 16)
    ifs1, ifs2 = agres.make_ifs(lam1), agres.make_ifs(lam2)
    bound_sq = 4 * (lam1 - lam2) ** 2
    checked = 0
    tracked_ok = True
    sampled = random.Random(13).sample(range(4 ** 8), 200)
    for k in range(9):
        im1, im2 = cell_images(ifs1, k, CORNERS), cell_images(ifs2, k, CORNERS)
        den = math.lcm(im1.den, im2.den)
        diff = im1.rescaled(den).num.astype(object) - im2.rescaled(den).num.astype(object)
        du, dv = diff[..., 0], diff[..., 1]
        norm = du * du + du * dv + dv * dv
        checked += norm.size
        tracked_ok = tracked_ok and bool(
            (norm * bound_sq.denominator <= bound_sq.numerator * den * den).all())
        # the lattice distances are the exact distances of the reference word maps
        for idx in range(4 ** k) if k <= 3 else sampled if k == 8 else ():
            word = tuple(idx // 4 ** (k - 1 - j) % 4 + 1 for j in range(k))
            f1, f2 = ref.word_map(lam1, word), ref.word_map(lam2, word)
            for c, corner in enumerate(ref.CORNERS):
                d2 = ref.distance_sq(ref.apply(f1, corner), ref.apply(f2, corner))
                assert d2 == Fraction(int(norm[idx, c]), den * den), (word, c)
    ok = all_pass and tracked_ok
    _report(13, ok, f"20 random dyadic pairs at depth 8 inside the 2|dl| + 2^-7 "
                    f"bound: {all_pass}; tracked-point bound exact for "
                    f"{checked} corner images over all words of length <= 8: {tracked_ok}")
