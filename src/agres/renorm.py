"""Renormalization of boundary forms under one subdivision step.

One application of the subdivision operator glues weighted copies of a
boundary form along the cell contact points (one copy per map, copy i
scaled by 1/r_i) and reduces back to the boundary set by a Schur trace.
A self-similar form corresponds to a fixed point; at unit corner weights
the operator has a one-dimensional fixed ray whose scale factor C depends
monotonically on the added-cell weight.  ``solve_r`` solves the ray and the
weight together, in one bordered iteration.
"""

from __future__ import annotations

import array
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (CapExceeded, DegenerateLimit, Disconnected, DomainError, GuardExceeded,
                     IdentificationMismatch, NoConvergence, SingularInterior)
from .exact import Point
from .geometry import IFS, BoundarySet, boundary_set, numbered, seeded_copies
from .network import (FiniteForm, _components, _Factor, _laplacian, _pair_conductances,
                      _schur, _scipy)

EIGEN_TOL = 1e-12
EIGEN_MAX_ITERS = 10_000
CHORD_START = 1e-1  # profile change below which eigen_solve switches to chord steps
CHORD_RATE = 0.2    # a chord step contracting the change less than this rebuilds J
BISECT_TOL = 1e-10
RELATION_GUARD = 12
RELATION_GUARD_CAP = 24  # candidates are int64 rows of n: 0.32 GB at n = 24, 4.0 GB at 27
RELATION_CHUNK = 16_384  # candidates a stacked relation check holds at once


def _pair_orbit_ids(perm: Sequence[int]) -> np.ndarray:
    """Rotation-orbit id of every boundary pair (i < j, row-major order), numbered 0, 1, ..."""
    n = len(perm)
    i, j = np.triu_indices(n, 1)
    index = np.zeros((n, n), dtype=np.int64)
    index[i, j] = index[j, i] = np.arange(len(i))
    p = np.asarray(perm, dtype=np.int64)
    rep = np.minimum(index[i, j], np.minimum(index[p[i], p[j]], index[p[p[i]], p[p[j]]]))
    return np.unique(rep, return_inverse=True)[1]


def _orbit_average(cvec: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Replace each pair value by the mean over its rotation orbit."""
    return (np.bincount(ids, cvec) / np.bincount(ids))[ids]


@dataclass(eq=False)
class BoundaryForm:
    """A resistance form on a boundary set, with a rotation-symmetry certificate.

    The form lives on the vertices 0..n-1, the indices of the boundary points,
    and is held as its pair vector: ``c[k]`` is the conductance of the k-th
    pair i < j in row-major order, and pairs with ``c[k] <= 0`` carry no edge.
    ``c`` is a read-only float copy, negative entries held as zero; ``form`` is
    built from it on first read.  Every value must be finite.
    """
    bset: BoundarySet
    c: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        if not np.isfinite(self.c).all():
            raise DomainError("pair values must be finite")
        self.c = np.maximum(self.c, 0.0)
        self.c.flags.writeable = False
        if self.c.shape != (self.n * (self.n - 1) // 2,):
            raise DomainError(f"a form on {self.n} points needs {self.n * (self.n - 1) // 2} "
                              f"pair values, got shape {self.c.shape}")

    @property
    def n(self) -> int:
        return self.bset.size

    @functools.cached_property
    def form(self) -> FiniteForm:
        i, j = np.triu_indices(self.n, 1)
        live = self.c > 0
        return FiniteForm.from_arrays(range(self.n), i[live], j[live], self.c[live])

    def vector(self, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
        """Conductances of the given vertex pairs, zero where there is no edge."""
        dense, (i, j) = np.zeros((self.n, self.n)), np.triu_indices(self.n, 1)
        dense[i, j] = dense[j, i] = self.c
        return dense[tuple(np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T)]

    def symmetrized(self) -> "BoundaryForm":
        ids = _pair_orbit_ids(self.bset.g_permutation)
        return BoundaryForm(self.bset, _orbit_average(self.c, ids), symmetric=True)

    def scaled(self, a: float) -> "BoundaryForm":
        return BoundaryForm(self.bset, a * self.c, self.symmetric)


def symmetric_start(bset: BoundarySet, rng: Optional[np.random.Generator] = None) -> BoundaryForm:
    """A connected rotation-symmetric initial form: unit (or randomized) complete graph."""
    n_pairs = bset.size * (bset.size - 1) // 2
    if rng is None:
        return BoundaryForm(bset, np.ones(n_pairs), symmetric=True)
    return BoundaryForm(bset, rng.uniform(0.2, 5.0, n_pairs)).symmetrized()


class GlueContext:
    """Precomputed gluing pattern of per-cell copies of a boundary set.

    Copy i places the boundary set inside cell i; contact points coincide
    exactly and are deduplicated.  The original boundary points are seeded
    first, so they keep ids 0..N-1 inside the glued vertex set.
    """

    def __init__(self, ifs: IFS, bset: BoundarySet, include_added: bool):
        self.ifs = ifs
        self.bset = bset
        self.include_added = include_added
        n = bset.size
        self.N = n
        self.pair_i, self.pair_j = np.triu_indices(n, 1)
        self.pairs = list(zip(self.pair_i.tolist(), self.pair_j.tolist()))
        self.orbit_ids = _pair_orbit_ids(bset.g_permutation)
        # row k: the k-th pair of each orbit, least first (three each: one point is fixed)
        self.orbit_pairs = np.argsort(self.orbit_ids, kind="stable").reshape(-1, 3).T
        # m0[o]: the pairs of orbit o that touch vertex 0, so m0 @ z is E0 of the orbit values z
        self.m0 = np.bincount(self.orbit_ids[self.pair_i == 0],
                              minlength=self.orbit_pairs.shape[1])
        self.copies = (0, 1, 2, 3) if include_added else (0, 1, 2)

        table, ids = seeded_copies(ifs, bset.points, 1, self.copies)
        self._table, self.ids = table, ids
        self.n_glued = len(table)

        covered = np.zeros(self.n_glued, dtype=bool)
        covered[ids] = True
        if not covered[:n].all():
            missing = np.flatnonzero(~covered[:n]).tolist()
            raise IdentificationMismatch(
                f"boundary points {missing} are not images of any subdivision copy")

        merges = len(self.copies) * n - self.n_glued
        # the three corner-cell midpoints, and the added cell's three contacts if kept
        expected = 3 + 3 * (include_added and 2 * ifs.lam in bset.params)
        if merges != expected:
            raise IdentificationMismatch(
                f"expected {expected} single-point identifications, found {merges}")

        # glued pairs numbered by first occurrence, and each copy's scatter into them, a row each
        a, b = ids[:, self.pair_i], ids[:, self.pair_j]
        if (a == b).any():
            raise IdentificationMismatch("a copy collapsed a conductance pair")
        lo, hi = np.minimum(a, b).reshape(-1), np.maximum(a, b).reshape(-1)
        first, gids = numbered(lo * self.n_glued + hi)
        self.scatter = gids.reshape(a.shape)
        self.gpair_a, self.gpair_b = lo[first], hi[first]
        self.n_gpairs = len(first)
        # flat positions of each glued pair's -g at (a, b) and (b, a), +g at (a, a) and (b, b)
        ga, gb = self.gpair_a, self.gpair_b
        self._laplacian_at = np.ravel_multi_index(([ga, gb, ga, gb], [gb, ga, ga, gb]),
                                                  (self.n_glued,) * 2).ravel()

    @property
    def points(self) -> list[Point]:
        """Exact coordinates of the glued vertices."""
        return self._table.lattice().points()

    # -- numeric application ------------------------------------------------------

    def glued_vector(self, cvec: np.ndarray, weights: Sequence[float]) -> np.ndarray:
        """Sum of the copies' pair vectors, copy i divided by its weight, added in copy order."""
        w = np.array([float(weights[ci]) for ci in self.copies])
        if not (w > 0).all():
            raise DomainError("weights must be positive")
        return np.bincount(self.scatter.reshape(-1), (cvec[None, :] / w[:, None]).reshape(-1),
                           self.n_gpairs)

    def _schur(self, gvec: np.ndarray) -> tuple[np.ndarray, _Factor, np.ndarray]:
        """``network._schur`` of the glued Laplacian onto the boundary vertices."""
        L = np.bincount(self._laplacian_at, np.concatenate([-gvec, -gvec, gvec, gvec]),
                        self.n_glued ** 2).reshape(self.n_glued, -1)
        try:
            return _schur(L, self.N)
        except SingularInterior as exc:
            edges = np.column_stack([self.gpair_a, self.gpair_b])
            if _components(self.n_glued, edges[gvec > 0]).any():
                raise Disconnected("glued network is disconnected") from exc
            raise

    def trace(self, cvec: np.ndarray, weights: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """``apply``'s pair vector, and the X of the glued network's harmonic extension [I; -X]."""
        S, _, X = self._schur(self.glued_vector(cvec, weights))
        return _pair_conductances(S, self.pair_i, self.pair_j)[0], X

    def apply(self, cvec: np.ndarray, weights: Sequence[float]) -> np.ndarray:
        """Glue the weighted copies and trace to the boundary; returns its pair vector."""
        return self.trace(cvec, weights)[0]

    def _derivatives(self, X: np.ndarray, weights: Sequence[float],
                     c: Optional[np.ndarray] = None) -> np.ndarray:
        """Derivative of ``apply``'s orbit values (its least pair per orbit) at a
        rotation-symmetric vector, from the harmonic extension X that ``trace`` returned
        there: a column per input pair orbit (summed over the orbit) and, given that input
        vector c, one more for the added weight x.  The trace's derivative in the glued
        conductance of (p, q) is -h[a] h[b] on the output pair (a, b), h being row p minus
        row q of the harmonic extension (Kigami, Analysis on Fractals, ch. 2); copy 3
        carries c/x, so the derivative in x reads off K Lap(c) K^T / x^2, K being the
        extension's columns at copy 3's points."""
        Ht = np.hstack([np.eye(self.N), -X.T])
        rep = self.orbit_pairs[0]
        a, b = self.pair_i[rep], self.pair_j[rep]
        Jy = np.zeros((len(rep), len(rep)))  # output orbit x input orbit
        for ids, ci in zip(self.ids, self.copies):
            K = Ht[:, ids]
            for m in self.orbit_pairs:
                h = K[:, self.pair_i[m]] - K[:, self.pair_j[m]]  # boundary vertex x input orbit
                Jy -= h[a] * h[b] / float(weights[ci])
        if c is None:
            return Jy
        K = Ht[:, self.ids[3]]
        M = K @ _laplacian(self.N, self.pair_i, self.pair_j, c) @ K.T
        return np.column_stack([Jy, M[a, b] / float(weights[3]) ** 2])

    def _e0_scaled(self, R: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Derivatives R of the orbit values of the image y, taken through
        ``e0_normalized``: a rank-one term."""
        y = self.symmetrize_vector(y)[self.orbit_pairs[0]]
        return R / (self.m0 @ y) - np.outer(y, self.m0 @ R) / (self.m0 @ y) ** 2

    def jacobian(self, X: np.ndarray, y: np.ndarray, weights: Sequence[float]) -> np.ndarray:
        """Jacobian of ``e0_normalized(apply(.))`` at a rotation-symmetric vector, from the
        harmonic extension X and the image y that ``trace`` returned there: a row (its least
        pair) and a column (summed over the orbit) per pair orbit."""
        return self._e0_scaled(self._derivatives(X, weights), y)

    def weight_jacobian(self, X: np.ndarray, y: np.ndarray, c: np.ndarray,
                        weights: Sequence[float]) -> np.ndarray:
        """Jacobian of G(z, x) = (T(z) - z, x E0(y) / E0(z)) in the orbit values z and the
        added weight x, T being ``e0_normalized(apply(.))`` and y = ``apply(z)`` at weights
        (1, 1, 1, x), at the vector c that ``trace`` took to y and X.  Its leading block is
        ``jacobian`` minus I; the last row is the weight equation's."""
        R = self._derivatives(X, weights, c)
        x, n = float(weights[3]), len(R)
        e0y = self.m0 @ self.symmetrize_vector(y)[self.orbit_pairs[0]]
        e0z = self.m0 @ c[self.orbit_pairs[0]]
        row = x * (self.m0 @ R) / e0z
        row[:n] -= x * e0y / e0z ** 2 * self.m0
        row[n] += e0y / e0z
        return np.vstack([self._e0_scaled(R, y) - np.eye(n, n + 1), row])

    def _unit_potential(self, cvec: np.ndarray) -> np.ndarray:
        """Potential of a unit current from corner 2 (vertex 1) to corner 1 (vertex 0),
        grounded there; its value at vertex 1 is the resistance between the two."""
        L = _laplacian(self.N, self.pair_i, self.pair_j, cvec)
        e = np.zeros(self.N - 1)
        e[0] = 1.0  # vertex 1 sits at position 0 once vertex 0 is grounded
        return np.concatenate([[0.0], _Factor(L[1:, 1:]).solve(e)])

    def energy_at_p1_indicator(self, cvec: np.ndarray) -> float:
        """Energy of the indicator of corner 1: the sum of conductances touching vertex 0."""
        return float(cvec[self.pair_i == 0].sum())

    def connected(self, cvec: np.ndarray) -> bool:
        live = cvec > 1e-12 * max(cvec.max(), 1e-300)
        return not _components(self.N, np.column_stack([self.pair_i, self.pair_j])[live]).any()

    def symmetrize_vector(self, cvec: np.ndarray) -> np.ndarray:
        return _orbit_average(cvec, self.orbit_ids)

    def e0_normalized(self, cvec: np.ndarray) -> np.ndarray:
        """The vector symmetrized, then scaled so that the indicator of corner 1 has energy 1."""
        cvec = self.symmetrize_vector(cvec)
        return cvec / self.energy_at_p1_indicator(cvec)

    def normalized(self, cvec: np.ndarray) -> np.ndarray:
        """The vector symmetrized, then scaled to resistance 2/3 between corners 1 and 2."""
        cvec = self.symmetrize_vector(cvec)
        return cvec * (1.5 * float(self._unit_potential(cvec)[1]))


def _glue_context(ifs: IFS, bset: BoundarySet, include_added: bool) -> GlueContext:
    return ifs.cached(("glue", bset, include_added),
                      lambda: GlueContext(ifs, bset, include_added))


def _normalize_weights(weights) -> tuple[tuple[float, ...], bool]:
    """Return per-map weights and whether the added copy participates."""
    ws = list(weights)
    if len(ws) == 3:
        ws.append(math.inf)
    if len(ws) != 4:
        raise DomainError("weights must have 3 or 4 entries")
    vals = tuple(float(w) for w in ws[:3]) + (math.inf if ws[3] is None else float(ws[3]),)
    if not all(w > 0 for w in vals):
        raise DomainError("weights must be positive")
    return vals, vals[3] != math.inf


def glue_level_one(ifs: IFS, D: BoundaryForm, weights) -> FiniteForm:
    """Sum of weighted per-cell copies of D on the once-subdivided contact set.

    Copy i carries multiplier 1/r_i; identified points (three corner-cell
    midpoints plus, when the added copy participates and the contact
    parameter belongs to the set, three added-cell contacts) accumulate
    conductances.  The original boundary points keep ids 0..N-1.
    """
    ws, include_added = _normalize_weights(weights)
    ctx = _glue_context(ifs, D.bset, include_added)
    gvec = ctx.glued_vector(D.c, ws)
    live = gvec > 0
    return FiniteForm.from_arrays(range(ctx.n_glued), ctx.gpair_a[live], ctx.gpair_b[live],
                                  gvec[live])


def renorm_map(ifs: IFS, D: BoundaryForm, weights) -> BoundaryForm:
    """One subdivide-glue-trace step applied to a boundary form."""
    ws, include_added = _normalize_weights(weights)
    ctx = _glue_context(ifs, D.bset, include_added)
    out = ctx.apply(D.c, ws)
    if D.symmetric:
        out = ctx.symmetrize_vector(out)
    new = BoundaryForm(D.bset, out, symmetric=D.symmetric)
    if not new.form.is_connected():
        raise Disconnected("renormalized form is disconnected")
    return new


@dataclass
class EigenResult:
    """Fixed ray of the unit-corner-weight subdivision map at one added weight, D at corner
    resistance 2/3.  In a joint solve (``eigen_solve`` given s), ``rtilde4`` is the solved
    weight x and C is that of the closing application there, so x * C - s is the
    certificate's g."""
    rtilde4: float
    C: float
    D: BoundaryForm
    iterations: int       # map applications, power and chord steps together
    delta: float          # last per-conductance relative change
    residual: float       # max relative deviation of apply(D) from C * D
    jacobians: int = 0


def _rel_delta(new: np.ndarray, old: np.ndarray) -> float:
    """Max per-conductance relative change, with an absolute floor for near-zero entries."""
    floor = 1e-15 * max(1.0, float(old.max()) if old.size else 1.0)
    denom = np.maximum(np.abs(old), floor)
    return float(np.max(np.abs(new - old) / denom))


def _weight_bracket(s: float) -> tuple[float, float]:
    """[s, s/0.58] holds the root of g(x) = x * C(x) - s: ``eigen_solve`` returns only
    3/5 - 1e-9 <= C < 1, so g(s) < 0 < g(s/0.58)."""
    return s, s / 0.58


def eigen_solve(ifs: IFS, rtilde4: float, tol: float = EIGEN_TOL,
                max_iters: int = EIGEN_MAX_ITERS,
                initial: Optional[BoundaryForm] = None,
                s: Optional[float] = None, s_tol: float = BISECT_TOL) -> EigenResult:
    """Fixed conductance profile of the subdivision map at unit corner weights.

    Iterates T = e0_normalized(apply(.)) from a rotation-symmetric start until
    it changes the profile by less than ``tol`` and takes that image.  The
    trace is homogeneous of degree 1, so scaling each image by E0, the energy
    of the corner-1 indicator (no solve), gives the same ray; the limit is
    rescaled once, to resistance 2/3 between corners 1 and 2, before the
    closing application.  Power steps D <- T(D) run until the change is below
    CHORD_START, then chord steps z <- z - (J - I)^-1 (T(z) - z) on one value
    per pair orbit, with J factored once and rebuilt whenever a step contracts
    the change by less than CHORD_RATE; J comes from the harmonic extension of
    the step it follows, so every step factors the glued interior once.  A
    chord step that leaves the positive cone or does not reduce the change
    hands back to power steps.  The scale factor C is the energy ratio of one
    application at the limit; it lies in [3/5, 1).  ``rtilde4 = inf`` or None
    omits the added copy (open circuit).

    Given ``s``, the added weight x is solved too, from the start ``rtilde4``,
    so that g(x) = x * C(x) - s vanishes (Keller's bordered system for a
    parameter-dependent fixed point, 1977): each power step also sets
    x <- s / C, clamped to [s, s/0.58], and the chord steps solve for (z, x)
    with ``GlueContext.weight_jacobian``.  A chord step that takes x out of
    that bracket hands back to power steps too.  The loop stops once the step
    at the final x changes the profile by less than ``tol`` with
    |g| <= ``s_tol``; the result's ``rtilde4`` is that x, and its C, from the
    closing application, is for the caller to check against ``s_tol``.  A
    step that finds the profile settled but cannot move x raises NoConvergence.
    """
    ws, include_added = _normalize_weights((1.0, 1.0, 1.0, rtilde4))
    x = ws[3]
    if s is not None:
        lo, hi = _weight_bracket(check_s(s))
        if not include_added:
            raise DomainError("a weight solve needs a finite start weight")
    bset = boundary_set(ifs)
    ctx = _glue_context(ifs, bset, include_added)

    if initial is not None and initial.n != ctx.N:
        raise DomainError("initial form lives on a different boundary set")
    c = ctx.e0_normalized(np.ones(len(ctx.pairs)) if initial is None else initial.c)

    rep = ctx.orbit_pairs[0]
    size = len(rep) + (s is not None)
    lu = None
    chording = fallen = False
    delta, iters, jacobians, g = math.inf, 0, 0, 0.0
    for iters in range(1, max_iters + 1):
        ws = (1.0, 1.0, 1.0, x)
        y, X = ctx.trace(c, ws)
        new = ctx.e0_normalized(y)
        prev, delta = delta, _rel_delta(new, c)
        if not math.isfinite(delta):
            raise NoConvergence(f"profile change is {delta} after {iters} iterations")
        if s is not None:
            ratio = ctx.energy_at_p1_indicator(y) / ctx.energy_at_p1_indicator(c)
            g = x * ratio - s
        if delta < tol and (s is None or abs(g) <= s_tol):
            c = new
            break
        fallen = fallen or (chording and not delta < prev)  # a chord step that did not help
        if chording and not fallen and delta > CHORD_RATE * prev:
            lu = None
        chording = not fallen and delta < CHORD_START
        if chording and lu is None:
            A = (ctx.jacobian(X, y, ws) - np.eye(size) if s is None
                 else ctx.weight_jacobian(X, y, c, ws))
            lu = _scipy("linalg.lapack").dgetrf(A)[:2]
            jacobians += 1
        c_next, x_next = new, (x if s is None else min(max(s / ratio, lo), hi))
        if chording:
            t, z = new[rep], c[rep]
            live = t > 0  # pairs the map leaves at zero stay there
            step = _scipy("linalg.lapack").dgetrs(*lu, t - z if s is None
                                                  else np.append(t - z, g))[0]
            z = np.where(live, z - step[:len(rep)], 0.0)
            xz = x if s is None else x - float(step[-1])
            fallen = not ((z[live] > 0).all() and (s is None or lo <= xz <= hi))
            if not fallen:
                c_next, x_next = z[ctx.orbit_ids], xz
        if delta < tol and abs(x_next - x) <= 4 * np.finfo(float).eps * x:
            raise NoConvergence(f"the weight stalls at |x * C - s| = {abs(g):.3e}")
        c, x = c_next, x_next
    else:
        raise NoConvergence(f"no fixed profile after {max_iters} iterations (delta={delta:.3e})")

    if not ctx.connected(c):
        raise DegenerateLimit("limit form is disconnected")

    c = ctx.normalized(c)
    raw = ctx.apply(c, ws)
    C = ctx.energy_at_p1_indicator(raw) / ctx.energy_at_p1_indicator(c)
    residual = _rel_delta(raw, C * c)
    if not (0.6 - 1e-9 <= C < 1.0):
        raise DegenerateLimit(f"scale factor {C!r} escapes [3/5, 1)")

    D = BoundaryForm(bset, c, symmetric=True)
    return EigenResult(ws[3], float(C), D, iters, delta, residual, jacobians)


@dataclass
class Solution:
    """Solved renormalization data for one (lambda, s) pair, with the IFS it was solved on.

    ``power_iterations`` and ``jacobians`` count the map applications and the Jacobians
    of the one joint ``eigen_solve``; neither is serialized.
    """
    ifs: IFS
    s: float
    r: float
    C: float
    rtilde4: float
    theta: float
    residual: float
    D: BoundaryForm
    experimental: bool = False
    power_iterations: int = 0
    jacobians: int = 0

    def to_json_obj(self) -> dict:
        lam = self.ifs.lam
        return {
            "lambda": f"{lam.numerator}/{lam.denominator}",
            "s": self.s,
            "r": self.r,
            "C": self.C,
            "rtilde4": self.rtilde4,
            "theta": self.theta,
            "residual": self.residual,
            "experimental": self.experimental,
            "boundary_form": self.D.form.to_json_obj(),
        }


def check_s(s: float) -> float:
    s = float(s)
    if not (0.0 < s < 1.0):
        raise DomainError(f"s must lie in (0, 1), got {s}; irregular cases s >= 1 are out of scope")
    return s


def solve_r(ifs: IFS, s: float, eigen_tol: float = EIGEN_TOL,
            bisect_tol: float = BISECT_TOL, max_iters: int = EIGEN_MAX_ITERS) -> Solution:
    """Solve for the corner weight making a self-similar fixed point exist.

    Finds the root x of g(x) = x * C(x) - s, which is nondecreasing in x, in
    the bracket [s, s/0.58] (``_weight_bracket``), by one joint
    ``eigen_solve`` for the fixed ray and x, started at the bracket's middle;
    its loop has already checked that the step at that x changed the ray by
    less than ``eigen_tol``.  The result is certified when x lies in the
    bracket and |g| <= ``bisect_tol`` with C from the closing application;
    otherwise NoConvergence is raised.  The returned r equals C at the solved
    weight, the fixed form D is normalized to corner resistance 2/3, and the
    residual measures how far D is from being fixed under weights (r, r, r, s).
    """
    s = check_s(s)
    lo, hi = _weight_bracket(s)
    res = eigen_solve(ifs, 0.5 * (lo + hi), tol=eigen_tol, max_iters=max_iters,
                      s=s, s_tol=bisect_tol)
    rtilde4, r, D = res.rtilde4, res.C, res.D
    g = rtilde4 * r - s
    if not (lo <= rtilde4 <= hi and abs(g) <= bisect_tol):
        raise NoConvergence(f"the weight solve is not certified: x = {rtilde4!r} (bracket "
                            f"[{lo!r}, {hi!r}]), |x * C - s| = {abs(g):.3e}")
    ctx = _glue_context(ifs, boundary_set(ifs), include_added=True)
    residual = _rel_delta(ctx.apply(D.c, (r, r, r, s)), D.c)
    theta = -math.log(r) / math.log(2.0)
    return Solution(ifs, s, r, r, rtilde4, theta, residual, D,
                    experimental=not ifs.is_dyadic(), power_iterations=res.iterations,
                    jacobians=res.jacobians)


def uniqueness_scan(sol: Solution, r_values: Sequence[float]) -> list[tuple[float, float]]:
    """Energy scale factor of the subdivision map at corner weights (r', r', r', s),
    with s and the IFS those of the solution.

    The trace is linear in the conductances, so that map is the unit-corner map
    at added weight s/r' divided by r', and normalization ignores scale: the
    factor is C(s/r') / r' on the fixed ray, solved from the solution's form.
    At the solved r it is 1; away from it the factor stays bounded away from 1
    (energies contract for larger weights, expand for smaller), which is the
    numerical face of uniqueness.
    """
    out = []
    for rp in map(float, r_values):
        if not 0 < rp < math.inf:
            raise DomainError("corner weights must be finite and positive")
        res = eigen_solve(sol.ifs, sol.s / rp, initial=sol.D)
        out.append((rp, res.C / rp))
    return out


# -- preserved relations -----------------------------------------------------------


@dataclass(frozen=True)
class Relation:
    """A rotation-invariant partition of the boundary set that one subdivision step reproduces."""
    blocks: tuple[tuple[int, ...], ...]

    @property
    def is_full(self) -> bool:
        return len(self.blocks) == 1

    @property
    def is_empty(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    @property
    def is_trivial(self) -> bool:
        return self.is_full or self.is_empty


def _invariant_partitions(perm: Sequence[int]) -> np.ndarray:
    """Every rotation-invariant partition of 0..n-1, once each, as rows of block ids
    numbered by first occurrence.

    The rotation has no fixed point and order 3, so its orbits are triples, and an
    invariant partition groups them: each group is one block, or three blocks that the
    rotation cycles, each taking one point of every orbit in the group.  The group's
    first orbit fixes which; each later orbit joins a group (at one of three phases)
    or opens one."""
    n = len(perm)
    if sorted(perm) != list(range(n)) or any(p == i or perm[perm[p]] != i
                                             for i, p in enumerate(perm)):
        raise DomainError("the rotation must be a fixed-point-free permutation of order 3")
    orbits = [(i, perm[i], perm[perm[i]]) for i in range(n) if i < min(perm[i], perm[perm[i]])]
    sig, rows = [0] * n, array.array("q")  # rows of n block ids, end to end
    def grow(j: int, groups: list[tuple[int, int, int]], nxt: int) -> None:
        # orbits j.. are left to group; groups holds each group's labels on its first orbit
        if j == len(orbits):
            rows.extend(sig)
            return
        x, y, z = orbits[j]
        for lab in groups:
            for r in range(3 if lab[0] != lab[1] else 1):
                sig[x], sig[y], sig[z] = lab[r], lab[r - 2], lab[r - 1]
                grow(j + 1, groups, nxt)
        for lab in ((nxt,) * 3, (nxt, nxt + 1, nxt + 2)):
            sig[x], sig[y], sig[z] = lab
            grow(j + 1, groups + [lab], lab[2] + 1)

    grow(0, [], 0)
    sigs = np.frombuffer(rows, dtype=np.int64).reshape(-1, n)
    if orbits != [(i, i + 1, i + 2) for i in range(0, n, 3)]:  # renumber by first occurrence
        ids = numbered((np.arange(len(sigs))[:, None] * n + sigs).ravel())[1].reshape(sigs.shape)
        sigs = ids - ids[:, :1]
    return sigs


def _slot_joins(ifs: IFS, bset: BoundarySet) -> tuple[np.ndarray, ...]:
    """The depth-1 copies' slots w * n + i (point i of copy w) as pairs of slots glued
    to one point, then a slot holding each boundary point.  ``GlueContext`` checks
    that the copies cover the boundary set."""
    ids = _glue_context(ifs, bset, True).ids
    order = np.argsort(ids, axis=None)
    glued = ids.reshape(-1)[order]
    same = np.flatnonzero(glued[1:] == glued[:-1])
    return order[same], order[same + 1], order[np.searchsorted(glued, range(bset.size))]


def check_guard(guard: int, n: int) -> None:
    """A guard of at most ``RELATION_GUARD_CAP`` that admits a boundary set of n points."""
    if guard > RELATION_GUARD_CAP:
        raise CapExceeded(f"guard {guard} exceeds cap {RELATION_GUARD_CAP}")
    if n > guard:
        raise GuardExceeded(f"boundary set has {n} points, guard is {guard}")


def enumerate_preserved_relations(ifs: IFS, k: int = 1,
                                  guard: int = RELATION_GUARD) -> list[Relation]:
    """All rotation-invariant equivalence relations reproduced by one subdivision step.

    Generates the rotation-invariant partitions of the boundary set
    (``_invariant_partitions``) and keeps those whose depth-1 copy graph induces exactly
    themselves back on the boundary set.  A copy graph has one node per block of each
    copy, joined where copies share a point; the candidates are checked
    ``RELATION_CHUNK`` at a time, in one stacked union-find per chunk.

    Depth 1 settles every depth k >= 1, which is still accepted and validated.  Let
    Phi_k(R) be the relation that the depth-k copy graph of R induces on the boundary
    set.  The depth-k copies are four depth-1 copies of the depth-(k-1) copies.
    Inside one depth-1 cell they are glued as at depth k-1, so each cell carries
    Phi_{k-1}(R) on its copy of the boundary set; two cells meet only at images
    F_i(u) = F_j(u') of boundary points, which is what defines the contact set.  So
    Phi_k = Phi_1 o Phi_{k-1}, and a fixed point of Phi_1 is one of every Phi_k.
    """
    if k < 1:
        raise DomainError(f"relation depth must be at least 1, got {k}")
    bset = boundary_set(ifs)
    n = bset.size
    check_guard(guard, n)
    sigs = _invariant_partitions(bset.g_permutation)
    joins, size, kept = _slot_joins(ifs, bset), 4 * n, []
    for s in np.split(sigs, range(RELATION_CHUNK, len(sigs), RELATION_CHUNK)):
        # slot w of row t is the node of block s[t, w % n] in copy w // n
        rows = np.arange(len(s))[:, None] * size
        a, b, head = (rows + w - w % n + s[:, w % n] for w in joins)
        labels = _components(len(s) * size, np.column_stack([a.ravel(), b.ravel()]))[head]
        kept.append(s[np.equal(*(np.argmax(x[:, :, None] == x[:, None, :], axis=2)
                                 for x in (labels, s))).all(axis=1)])
    sigs = np.concatenate(kept)
    rels = [Relation(tuple(tuple(i for i, c in enumerate(sig) if c == blk)
                           for blk in range(max(sig) + 1))) for sig in sigs.tolist()]
    return sorted(rels, key=lambda rel: (len(rel.blocks), rel.blocks))
