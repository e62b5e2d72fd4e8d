"""Level realizations of a solved self-similar form and the resistance estimates.

The level-m form on the graph vertices decomposes into one traced copy of
the solved boundary form per length-m cell, weighted by the inverse word
weight.  Cells meet only at graph vertices, so the decomposition is exact
and no global elimination is ever needed; resistances between boundary
edge points at fine scales come from a nested trace tower that refines the
bottom edge only.

Each input is passed once: a ``Solution`` carries the IFS it was solved on,
``level_form(sol, m)`` realizes it at level m, and the level diagnostics
(resistances, the bottom-edge check, the envelope, the resolvent and the
decimation identity) take that ``LevelForm`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional, Sequence

import numpy as np

from .errors import (BadWeights, CapExceeded, DomainError, IdentificationMismatch,
                     InsufficientScales, UnknownVertex)
from .exact import Lattice, Point
from .geometry import (IFS, Address, LevelGeometry, VertexTable, Word, _level_geometry,
                       cell_images, check_level)
from .network import (FiniteForm, _dipole_resistances, effective_resistance,
                      harmonic_extension, resistance_matrix, resolvent, trace)
from .renorm import BoundaryForm, Solution, bracketed_root

LEVEL_CAP = 8
TOWER_CAP = 12
EXPONENT_PAIRS = 8   # adjacent dyadic pairs sampled per scale by scaling_exponent
ENVELOPE_PAIRS = 200  # vertex pairs sampled by envelope_check
ENVELOPE_SEED = 7


@dataclass
class LevelForm:
    """The solved form traced onto the level-m graph vertices of the solution's IFS."""
    m: int
    form: FiniteForm
    geometry: LevelGeometry
    solution: Solution

    @property
    def points(self) -> list[Point]:
        return self.geometry.points

    def vid_of_address(self, word: Word, corner: int) -> int:
        return self.geometry.vid_of_address(word, corner)


def _cell_table(D: BoundaryForm, kept: Sequence[int]) -> np.ndarray:
    """Edges (a, b, c) of the boundary form traced to a kept subset, with a and b
    positions in the kept order."""
    sub = trace(D.form, list(kept)) if len(kept) < D.n else D.form
    return np.rec.fromarrays([sub._a, sub._b, sub._c], names="a,b,c")


def _ragged(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of the given sizes laid end to end: the run of every item and
    its position within the run."""
    run = np.repeat(np.arange(len(sizes)), sizes)
    return run, np.arange(len(run)) - (np.cumsum(sizes) - sizes)[run]


def level_form(sol: Solution, m: int) -> LevelForm:
    """Trace of the solved self-similar form onto the level-m vertex set of its IFS.

    Exact decomposition: one copy of the boundary form per cell, traced to
    the cell's kept vertices and weighted by the inverse word weight.
    """
    check_level(m, LEVEL_CAP)
    geom = _level_geometry(sol.ifs, m)
    tables = [_cell_table(sol.D, kept) for kept in geom.types]
    # one contribution per (cell, row of the cell's table), cell after cell
    sizes = np.array([len(tab) for tab in tables])
    types = np.asarray(geom.cell_type)
    cell, k = _ragged(sizes[types])
    rows = np.concatenate(tables)[(np.cumsum(sizes) - sizes)[types[cell]] + k]
    base = geom.kept_start[cell]
    form = FiniteForm.from_arrays(range(geom.n_vertices), geom.kept_gids[base + rows["a"]],
                                  geom.kept_gids[base + rows["b"]],
                                  geom.cell_multipliers(sol.r, sol.s)[cell] * rows["c"])
    return LevelForm(m, form, geom, sol)


# -- measures -------------------------------------------------------------------


@dataclass
class MeasureSpec:
    """Self-similar measure weights for the four cells, with optional dimension."""
    scheme: str
    weights: tuple[float, float, float, float]
    dimension: Optional[float] = None

    def to_json_obj(self) -> dict:
        return {"scheme": self.scheme, "weights": list(self.weights),
                "dimension": self.dimension}


def measure_weights(ifs: IFS, scheme: Literal["hausdorff", "uniform", "custom"] = "hausdorff",
                    custom: Optional[Sequence[float]] = None) -> MeasureSpec:
    """Cell measure weights: dimension-matched, uniform, or caller supplied.

    The dimension-matched scheme solves 3*(1/2)^d + rho^d = 1 for d in [1, 4] with
    the weight solve's root finder, ``renorm.bracketed_root`` (rho, the added map's
    ratio, lies in [1/4, 1/2) as rho^2 = 3 lambda^2 - 3 lambda/2 + 1/4), and gives
    each cell the d-th power of its ratio, which is the natural normalized volume.
    """
    if scheme == "uniform":
        return MeasureSpec("uniform", (0.25, 0.25, 0.25, 0.25))
    if scheme == "custom":
        if custom is None or len(custom) != 4:
            raise BadWeights("custom scheme needs four weights")
        w = tuple(float(x) for x in custom)
        total = sum(w)
        if not (all(x > 0 for x in w) and total < math.inf):
            raise BadWeights("custom weights must be positive with a finite sum")
        if abs(total - 1.0) > 1e-12:
            w = tuple(x / total for x in w)
        return MeasureSpec("custom", w)
    if scheme != "hausdorff":
        raise BadWeights(f"unknown measure scheme {scheme!r}")
    rho = ifs.added_ratio

    def value(d: float) -> tuple[float, float, None]:
        return d, 1.0 - 3.0 * 0.5 ** d - rho ** d, None

    (d, _, _), _ = bracketed_root(value, 1.0, 4.0, 1e-14)
    w = (0.5 ** d, 0.5 ** d, 0.5 ** d, rho ** d)
    total = sum(w)
    return MeasureSpec("hausdorff", tuple(x / total for x in w), dimension=d)


def vertex_masses(ifs: IFS, mspec: MeasureSpec, m: int) -> np.ndarray:
    """Level-m vertex masses: each cell spreads its measure equally on its three corners."""
    check_level(m, LEVEL_CAP)
    geom = _level_geometry(ifs, m)
    counts = geom.letter_counts.astype(float)
    logw = counts @ np.log(np.array(mspec.weights))
    mu_w = np.exp(logw)
    masses = np.zeros(geom.n_vertices)
    np.add.at(masses, geom.leaf_corners.reshape(-1),
              np.repeat(mu_w / 3.0, 3))
    total = masses.sum()
    return masses / total


# -- resistances and estimates -----------------------------------------------------


def resistance_metric(lf: LevelForm, pairs: Sequence[tuple[Address, Address]]
                      ) -> list[tuple[tuple[Address, Address], float]]:
    """Effective resistances between addressed vertices in the level form.

    Traces preserve resistances, so values are level independent for
    shared vertices (up to the solver residual).  One factorization serves
    all pairs.
    """
    vids = [(lf.vid_of_address(tuple(a1[0]), a1[1]), lf.vid_of_address(tuple(a2[0]), a2[1]))
            for a1, a2 in pairs]
    values = _dipole_resistances(lf.form, vids) if vids else []
    return [(pair, float(v)) for pair, v in zip(pairs, values)]


def bottom_edge_vids(geom: LevelGeometry) -> list[int]:
    """Vertices on the bottom edge: v = 0 in the lattice coordinates."""
    return np.flatnonzero(geom.table.num[:, 1] == 0).tolist()


def boundary_resistance_check(lf: LevelForm) -> tuple[float, float, bool]:
    """Resistance from the top corner to the grounded bottom edge versus its lower bound.

    The bound (1/2) * s * r / (s + r) reflects that current must leave the
    top cell through its own copy and through the added cell.
    """
    if lf.m < 1:
        raise DomainError("level must be at least 1")
    bottom = bottom_edge_vids(lf.geometry)
    top = lf.vid_of_address((), 1)
    value = effective_resistance(lf.form, top, set(bottom))
    r, s = lf.solution.r, lf.solution.s
    bound = 0.5 * s * r / (s + r)
    return value, bound, value >= bound - 1e-12


@dataclass
class ResistanceEnvelope:
    """Fitted two-sided power-law envelope for resistance against distance."""
    theta: float
    eta_star: float     # the larger exponent (lower bound side)
    eta_sub: float      # the smaller exponent (upper bound side)
    c1: float
    c2: float
    basis: str          # 'theta' for boundary fits, 'eta' for whole-attractor checks

    @property
    def spread(self) -> float:
        return self.c2 / self.c1


class EdgeTraceTower:
    """Nested traces keeping the boundary set plus dyadic bottom-edge points.

    Step K holds the exact trace of the solved form onto the contact set
    union the bottom-edge dyadics at scale 2^-K; one refinement step glues
    two copies of the current state into the two bottom cells and one copy
    of the boundary form into each remaining cell, then reduces.
    """

    def __init__(self, sol: Solution):
        self.sol = sol
        self.K = 0
        self._bset = Lattice.of_points(sol.D.bset.points)
        self.table = VertexTable(self._bset)
        self.form: FiniteForm = sol.D.form

    def refine(self) -> None:
        sol = self.sol
        next_k = self.K + 1
        dyadics = np.zeros((2 ** next_k - 1, 2), dtype=np.int64)
        dyadics[:, 0] = np.arange(1, 2 ** next_k)
        keep = VertexTable(Lattice.concat([self._bset, Lattice(dyadics, 2 ** next_k)]))
        n_keep = len(keep)
        # copy i: the boundary form in the top and added cells, the tower state in
        # the two bottom cells, numbered in this order after the kept points
        bset_images = cell_images(sol.ifs, 1, self._bset)
        own_images = cell_images(sol.ifs, 1, self.table.lattice())
        copies = [(bset_images, sol.D.form, sol.r), (own_images, self.form, sol.r),
                  (own_images, self.form, sol.r), (bset_images, sol.D.form, sol.s)]
        glued = VertexTable(Lattice.concat([keep.lattice()] + [
            Lattice(images.num[i], images.den) for i, (images, _, _) in enumerate(copies)]))
        a, b, c = [], [], []
        start = n_keep
        for images, form, w in copies:
            gids = glued.ids[start:start + images.shape[1]]
            start += images.shape[1]
            a.append(gids[form._a])
            b.append(gids[form._b])
            c.append(form._c / w)
        a, b = np.concatenate(a), np.concatenate(b)
        if (a == b).any():
            raise IdentificationMismatch("copy collapsed a conductance pair")
        glued_form = FiniteForm.from_arrays(range(len(glued)), a, b, np.concatenate(c))
        traced = trace(glued_form, list(range(n_keep)))
        self.K = next_k
        self.table = keep
        self.form = traced

    def refine_to(self, K: int) -> None:
        if K > TOWER_CAP:
            raise CapExceeded(f"tower depth {K} exceeds cap {TOWER_CAP}")
        while self.K < K:
            self.refine()

    def bottom_resistances(self, pairs: Sequence[tuple[Fraction, Fraction]]) -> list[float]:
        """Resistances between bottom-edge parameters, one factorization for all pairs."""

        def vid(t: Fraction) -> int:
            g = self.table.index_of(Fraction(t), Fraction(0))
            if g is None:
                raise UnknownVertex(f"bottom parameter {t} not in tower at depth {self.K}")
            return g

        return _dipole_resistances(self.form, [(vid(t1), vid(t2)) for t1, t2 in pairs]).tolist()


def _exponent_pair(sol: Solution) -> tuple[float, float]:
    """The larger and the smaller of theta and eta_s = log s / log rho, rho the added
    map's contraction ratio."""
    eta_s = math.log(sol.s) / math.log(sol.ifs.added_ratio)
    return max(eta_s, sol.theta), min(eta_s, sol.theta)


def scaling_exponent(sol: Solution,
                     levels: Sequence[int]) -> tuple[float, float, ResistanceEnvelope]:
    """Fit the resistance-distance exponent on the bottom edge across dyadic scales.

    Uses adjacent dyadic pairs at each requested scale; the model exponent
    is theta = -log(r)/log(2) and the envelope constants are the extreme
    ratios R / d^theta over all sampled pairs.
    """
    levels = sorted(set(int(k) for k in levels))
    if len(levels) < 4:
        raise InsufficientScales("need at least 4 distinct dyadic scales")
    if levels[0] < 1:
        raise DomainError("levels must be >= 1")
    tower = EdgeTraceTower(sol)
    tower.refine_to(max(levels))

    all_pairs: list[tuple[Fraction, Fraction]] = []
    dists: list[float] = []
    for k in levels:
        nmax = 2 ** k - 1
        count = min(EXPONENT_PAIRS, nmax + 1)
        js = sorted({round(i * nmax / max(1, count - 1)) for i in range(count)})
        for j in js:
            t1 = Fraction(j, 2 ** k)
            t2 = Fraction(j + 1, 2 ** k)
            all_pairs.append((t1, t2))
            dists.append(2.0 ** -k)
    rs = tower.bottom_resistances(all_pairs)

    logd = np.log(np.array(dists))
    logr = np.log(np.array(rs))
    slope, _ = np.polyfit(logd, logr, 1)
    theta = sol.theta
    ratios = np.array(rs) / np.array(dists) ** theta
    env = ResistanceEnvelope(theta, *_exponent_pair(sol), c1=float(ratios.min()),
                             c2=float(ratios.max()), basis="theta")
    return float(slope), theta, env


def envelope_check(lf: LevelForm) -> ResistanceEnvelope:
    """Whole-attractor envelope: sampled resistances against the two-exponent bounds."""
    sol = lf.solution
    n = lf.form.n
    R = resistance_matrix(lf.form)
    rng = np.random.default_rng(ENVELOPE_SEED)
    eta_star, eta_sub = _exponent_pair(sol)
    coords = np.array([p.float_xy() for p in lf.points])
    lo, hi = math.inf, 0.0
    for _ in range(ENVELOPE_PAIRS):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        if i == j:
            continue
        d = float(np.hypot(*(coords[i] - coords[j])))
        lo = min(lo, R[i, j] / d ** eta_star)
        hi = max(hi, R[i, j] / d ** eta_sub)
    return ResistanceEnvelope(sol.theta, eta_star, eta_sub, float(lo), float(hi), basis="eta")


def resolvent_kernel(lf: LevelForm, alpha: float, measure: Optional[MeasureSpec] = None):
    """Resolvent kernel of the level form with the level's vertex masses (by default
    those of the dimension-matched measure)."""
    ifs = lf.solution.ifs
    mspec = measure if measure is not None else measure_weights(ifs)
    return resolvent(lf.form, vertex_masses(ifs, mspec, lf.m), alpha)


@dataclass
class DecimationReport:
    """Both sides of the one-step energy decomposition for a harmonic extension.

    ``rhs`` evaluates each cell's energy on the cell's full kept vertex
    set; ``rhs_plain`` uses the bare level-(m-1) form, which drops contact
    vertices that only appear above the parameter's contact depth (the two
    agree whenever no such vertices exist).
    """
    m: int
    lhs: float
    rhs: float
    rhs_plain: float

    @property
    def relative_gap(self) -> float:
        scale = max(abs(self.lhs), abs(self.rhs), 1e-300)
        return abs(self.lhs - self.rhs) / scale

    @property
    def plain_gap(self) -> float:
        scale = max(abs(self.lhs), abs(self.rhs_plain), 1e-300)
        return abs(self.lhs - self.rhs_plain) / scale

    @property
    def used_cell_sets(self) -> bool:
        return self.plain_gap > 1e-12


def _celled_energy(D: BoundaryForm, weights: np.ndarray, vals: np.ndarray) -> float:
    """Energy of per-cell traced copies of D, one cell per row of ``vals``; each
    cell keeps exactly its boundary points with a value (NaN marks the rest)
    and carries the multiplier in ``weights``.

    Independent evaluation path used to cross-check the level-form
    assembly: fresh kept-set discovery, fresh traces, no level form.
    """
    total = 0.0
    memo: dict[tuple[int, ...], np.ndarray] = {}
    for w, row in zip(weights.tolist(), vals):
        kept = np.flatnonzero(~np.isnan(row))
        key = tuple(kept.tolist())
        tab = memo.get(key)
        if tab is None:
            tab = memo[key] = _cell_table(D, key)
        cell_vals = row[kept]
        d = cell_vals[tab["a"]] - cell_vals[tab["b"]]
        total += w * float(np.dot(tab["c"], d * d))
    return total


def decimation_identity(lf: LevelForm, f_corners: Sequence[float]) -> DecimationReport:
    """Check E(h) = sum_i r_i^{-1} E(h o F_i) for the harmonic extension of corner data
    in the level-m form ``lf``.

    The left side is the energy in the level-m form.  On the right, each
    cell's energy is evaluated at depth m-1 on the cell's own kept vertex
    set (every point whose image under the cell map is a level-m vertex);
    a plain evaluation against the bare level-(m-1) form is reported too.
    """
    m, sol = lf.m, lf.solution
    if m < 1:
        raise DomainError("level must be >= 1")
    if len(f_corners) != 3:
        raise DomainError("corner data must have three values")
    ifs, geom = sol.ifs, lf.geometry
    boundary = {geom.vid_of_address((), i + 1): float(f_corners[i]) for i in range(3)}
    h = harmonic_extension(lf.form, boundary)
    hvec = np.array([h[v] for v in range(geom.n_vertices)])
    lhs = lf.form.energy(hvec)

    r, s = sol.r, sol.s
    weights = (r, r, r, s)
    sub_lf = level_form(sol, m - 1)
    sub_geom = sub_lf.geometry
    cell_w = sub_geom.cell_multipliers(r, s)
    # F_i o F_w applied to the boundary set, for every depth-(m-1) word w
    cell_points = cell_images(ifs, 1, cell_images(ifs, m - 1, sol.D.bset.points))
    cell_gids = geom.table.lookup(cell_points)
    hnan = np.append(hvec, np.nan)  # id -1 reads NaN
    rhs = sum(_celled_energy(sol.D, cell_w, hnan[cell_gids[i]]) / weights[i] for i in range(4))

    sub_gids = geom.table.lookup(cell_images(ifs, 1, sub_geom.table.lattice()))
    if (sub_gids < 0).any():
        raise UnknownVertex("level nesting violated")
    rhs_plain = sum(sub_lf.form.energy(hvec[sub_gids[i]]) / weights[i] for i in range(4))
    return DecimationReport(m, float(lhs), float(rhs), float(rhs_plain))
