"""Geometry of the gasket-with-added-triangle family.

For a rational shape parameter lam in (0, 1/2) the family is generated by
four contractions of the closed unit-side equilateral triangle: the three
corner halvings and a fourth scaled rotation whose image triangle sits in
the central hole, touching each corner cell at a single point.

All geometry runs on the Eisenstein lattice (see ``exact``): in the basis
(1, omega) the maps are z -> a z + b with a, b in Q(omega), and the
reference triangle is u >= 0, v >= 0, u + v <= 1.  ``cell_images`` maps
whole point arrays with integer numerators over one denominator, and a
``VertexTable`` deduplicates them with ``np.unique``.  Level geometries,
glued copies and graphs all come from these two.  The oracle contact set
pulls the deepest level's vertices back, and the direct graph method the
level's vertex table, as whole point arrays under the inverse maps on the
same lattice.  A level vertex pulled back inside the triangle is a point of
the attractor (``_pullbacks``), so neither tests attractor membership.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional, Sequence

import numpy as np

from .errors import (CapExceeded, DepthExceeded, Disconnected, DomainError, NumericalError,
                     OrbitOverflow, UnknownVertex)
from .exact import (Lattice, OmegaMaps, Point, RationalLike, as_fraction, point_decimal_str,
                    point_exact_str)
from .network import _components, _scipy, numbered

# corners of the reference triangle: top (omega), lower left (0), lower right (1)
P1 = Point(Fraction(0), Fraction(1))
P2 = Point(Fraction(0), Fraction(0))
P3 = Point(Fraction(1), Fraction(0))
CORNERS = (P1, P2, P3)
CENTROID = Point(Fraction(1, 3), Fraction(1, 3))

GRAPH_LEVEL_CAP = 10
MEMBERSHIP_CAP = 64
ORBIT_GUARD = 64

Word = tuple[int, ...]
Address = tuple[Word, int]


class IFS:
    """The four-map system at one rational parameter, plus the order-3 rotation group."""

    def __init__(self, lam: Fraction):
        self.lam = lam
        # z -> a z + b, a and b as (c0, c1) for c0 + c1*omega: the corner halvings
        # z -> z/2 + p_i/2 and the added map, pinned by its corner images
        half, zero = Fraction(1, 2), Fraction(0)
        self.omega = OmegaMaps((
            ((half, zero), (zero, half)), ((half, zero), (zero, zero)),
            ((half, zero), (half, zero)), ((lam, half - 2 * lam), (half - lam, lam))))
        self.omega_inverses = self.omega.inverse()
        # Caches keyed by this instance; all results are immutable.  ``_caches``
        # keeps one entry per boundary set, level geometry, glue pattern or copy
        # table built (keyed by its kind and its orbit guard or level) for the
        # lifetime of the IFS; nothing is evicted, so it holds every level asked for.
        self._membership: dict[Point, bool] = {}
        self._caches: dict = {}

    def cached(self, key, build):
        """The cached value for ``key``, made by ``build()`` on first use."""
        value = self._caches.get(key)
        if value is None:
            value = self._caches[key] = build()
        return value

    @property
    def added_ratio_sq(self) -> Fraction:
        """|a|^2 = a0^2 + a0 a1 + a1^2 for the added map's a = a0 + a1*omega."""
        a0, a1 = self.omega.maps[3][:2]
        return a0 * a0 + a0 * a1 + a1 * a1

    @property
    def added_ratio(self) -> float:
        return math.sqrt(float(self.added_ratio_sq))

    def is_dyadic(self) -> bool:
        d = self.lam.denominator
        return d & (d - 1) == 0

    def __repr__(self) -> str:
        return f"IFS(lambda={self.lam})"


def make_ifs(lam: RationalLike) -> IFS:
    """Build the exact iterated function system for a rational lam in (0, 1/2)."""
    if isinstance(lam, float):
        raise DomainError("lambda must be given exactly (int, Fraction or 'p/q'), not float")
    frac = as_fraction(lam, "lambda")
    if not (0 < frac < Fraction(1, 2)):
        raise DomainError(f"lambda must lie in (0, 1/2), got {frac}")
    return IFS(frac)


# -- membership of exact points in the attractor --------------------------------

def point_in_triangle(p: Point) -> bool:
    """Exact containment in the closed reference triangle."""
    return p.u >= 0 and p.v >= 0 and p.u + p.v <= 1


def point_on_triangle_boundary(p: Point) -> bool:
    """Exact containment in the boundary of the reference triangle."""
    return point_in_triangle(p) and (p.u == 0 or p.v == 0 or p.u + p.v == 1)


def point_in_attractor(ifs: IFS, p: Point, cap: int = MEMBERSHIP_CAP) -> bool:
    """Exact attractor membership by recursive pullback.

    A point belongs to the attractor iff some infinite pullback path stays
    inside the reference triangle.  The triangle boundary is absorbed early
    (it lies in the corner subsystem's attractor), and a revisited pullback
    on the current path closes a cycle, which certifies an infinite path.
    Rational parameters make vertex orbits eventually periodic, so the cap
    only guards pathological inputs.
    """
    memo = ifs._membership
    on_path: set[Point] = set()

    def descend(q: Point) -> bool:
        cached = memo.get(q)
        if cached is not None:
            return cached
        if not point_in_triangle(q):
            memo[q] = False
            return False
        if point_on_triangle_boundary(q):
            memo[q] = True
            return True
        if q in on_path:
            return True  # periodic pullback: infinite address exists
        if len(on_path) >= cap:
            raise DepthExceeded(
                f"no resolution after {cap} distinct pullbacks; orbit may not be eventually periodic")
        on_path.add(q)
        res = any(descend(ifs.omega_inverses.apply(k, q)) for k in range(4))
        on_path.discard(q)
        memo[q] = res
        return res

    return descend(p)


# -- the cell-boundary set ------------------------------------------------------

EDGE_NAMES = ("bottom", "right", "left")


@dataclass(frozen=True)
class Label:
    """Vertex label: a corner index, or an edge index with an interior parameter."""
    kind: Literal["corner", "edge"]
    corner: Optional[int] = None      # 1..3
    edge: Optional[int] = None        # 0 bottom, 1 right, 2 left
    t: Optional[Fraction] = None      # parameter in (0, 1) along the directed edge


def edge_point(edge: int, t: Fraction) -> Point:
    """Point at parameter t on a directed boundary edge (bottom p2->p3, right p3->p1, left p1->p2)."""
    if edge == 0:
        return Point(t, Fraction(0))
    if edge == 1:
        return Point(1 - t, t)
    if edge == 2:
        return Point(Fraction(0), 1 - t)
    raise ValueError(f"edge index {edge}")


def classify_boundary_point(p: Point) -> Label:
    """Exact classification of a point of the triangle boundary."""
    for i, c in enumerate(CORNERS):
        if p == c:
            return Label("corner", corner=i + 1)
    u, v = p
    if v == 0:
        return Label("edge", edge=0, t=u)
    if 0 < v < 1:
        if u + v == 1:
            return Label("edge", edge=1, t=v)
        if u == 0:
            return Label("edge", edge=2, t=1 - v)
    raise DomainError("point does not lie on the triangle boundary")


def doubling_orbit(t0: Fraction, guard: int = ORBIT_GUARD) -> list[Fraction]:
    """Forward orbit of an edge parameter under t -> 2t (t<1/2), 2t-1 (t>1/2); 1/2 is terminal."""
    orbit: list[Fraction] = []
    seen: set[Fraction] = set()
    t = t0
    while t not in seen:
        if len(orbit) >= guard:
            raise OrbitOverflow(f"doubling orbit of {t0} exceeds {guard} states")
        seen.add(t)
        orbit.append(t)
        if t == Fraction(1, 2):
            break  # next images are the edge endpoints, absorbed into corners
        t = 2 * t if t < Fraction(1, 2) else 2 * t - 1
    return orbit


@dataclass(frozen=True)
class BoundarySet:
    """The cell-contact set: the three corners, then the bottom, right and left edge
    points of each contact parameter in turn, parameters ascending.  Built from any
    iterable of parameters, which it sorts and deduplicates."""
    params: tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(sorted(set(self.params))))

    @property
    def size(self) -> int:
        return 3 + 3 * len(self.params)

    @functools.cached_property
    def points(self) -> list[Point]:
        return list(CORNERS) + [edge_point(e, t) for t in self.params for e in range(3)]

    @functools.cached_property
    def labels(self) -> list[Label]:
        return [Label("corner", corner=i) for i in (1, 2, 3)] + [
            Label("edge", edge=e, t=t) for t in self.params for e in range(3)]

    @property
    def g_permutation(self) -> tuple[int, ...]:
        """Index permutation induced by the 120-degree rotation: each corner to the
        next, each edge point to the next edge's point of the same parameter."""
        return tuple(i - i % 3 + (i + 1) % 3 for i in range(self.size))

    def parameter_set(self) -> list[Fraction]:
        return list(self.params)


def boundary_set(ifs: IFS, mode: Literal["fast", "oracle"] = "fast",
                 depth: Optional[int] = None, guard: int = ORBIT_GUARD) -> BoundarySet:
    """The set of points where distinct cells can touch, pulled back to the reference cell.

    Fast mode uses the doubling-orbit characterization of the contact
    parameters (the added cell touches the bottom edge's mirror point at
    parameter 2*lam, and pullbacks double the parameter).  Oracle mode
    evaluates the defining union directly down to ``depth`` subdivisions:
    pull the level-``depth`` vertices, which cover every shallower level,
    back inside the triangle on the Eisenstein lattice.  The two must agree;
    tests enforce it, and check the oracle against the union over every
    level and against a reference in Cartesian coordinates (x, y / sqrt(3))
    with rational maps.
    """
    if mode == "fast":
        return ifs.cached(("boundary", guard),
                          lambda: BoundarySet(doubling_orbit(2 * ifs.lam, guard)))
    if mode != "oracle":
        raise DomainError(f"mode must be 'fast' or 'oracle', got {mode!r}")
    if depth is None:
        depth = len(doubling_orbit(2 * ifs.lam, guard)) + 2
    if depth < 0:
        raise DomainError(f"oracle depth must be nonnegative, got {depth}")
    return _boundary_set_oracle(ifs, depth)


def _pullbacks(ifs: IFS, lat: Lattice) -> tuple[Lattice, np.ndarray]:
    """A flat point array pulled back under the four inverse maps (shape (4, N)),
    and the mask of the pullbacks inside the closed reference triangle.

    A masked pullback of a point of the attractor K is a point of K.  Let
    v be in K with F_i^-1(v) in the triangle T, and let v lie in the cell
    F_j(K).  If j = i, F_i^-1(v) is in K.  Otherwise v lies where the
    level-1 triangles F_i(T) and F_j(T) meet, and they meet in one point
    only: two corner cells share one vertex, and the added cell touches
    corner cell i at F_4(p_k) = F_i(e), e the edge point at parameter
    2 lam.  Either way F_i^-1(v) is a corner or an edge point of T, and
    the edges of T lie in the corner maps' gasket, which lies in K.
    Level vertices F_w(p) lie in K, so every pullback of one that stays
    in T, letter after letter, does too.
    """
    images = ifs.omega_inverses.images(lat, headroom=2)  # U + V must not wrap either
    U, V = images.num[..., 0], images.num[..., 1]
    return images, (U >= 0) & (V >= 0) & (U + V <= images.den)


def _boundary_set_oracle(ifs: IFS, depth: int) -> BoundarySet:
    """Evaluate the defining union directly.

    The union is over levels m <= depth of P_m = pull^m(V_m): the level-m
    vertices V_m pulled back m times under the inverse maps, keeping only
    pullbacks inside the closed triangle (a cell whose triangle excludes a
    point cannot contain it).  Each v in V_{m-1} has F_i(v) in V_m and
    F_i^-1(F_i(v)) = v, so V_{m-1} lies in pull(V_m); pull is monotone, so
    P_{m-1} lies in P_m and the union is P_depth.  Level ``depth`` is pulled
    back as one lattice array, deduplicated and reduced after every step.
    Every survivor lies in the attractor (``_pullbacks``), so none is
    tested for membership.
    """
    level = Lattice.of_points(CORNERS)
    for _ in range(depth):
        level = VertexTable(ifs.omega.images(level)).lattice()
    for _ in range(depth):
        images, inside = _pullbacks(ifs, level)
        level = VertexTable(Lattice(images.num[inside], images.den)).lattice().reduced()
    # raises if a contact leaves the edge skeleton
    labels = [classify_boundary_point(p) for p in level.points()]
    return BoundarySet(lab.t for lab in labels if lab.kind == "edge")


# -- approximating graphs --------------------------------------------------------

def _mask_keys(mask: np.ndarray) -> np.ndarray:
    """One key per boolean row, its bits packed into bytes: equal exactly when the rows are."""
    packed = np.packbits(mask, axis=1)
    return packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)


def cell_images(ifs: IFS, m: int, pts) -> Lattice:
    """Images of a point array under every length-m word map F_w = F_{w_1} o ... o F_{w_m}.

    ``pts`` is a sequence of points or a Lattice.  The result has a new
    leading axis of length 4**m in lexicographic word order, and its
    denominator is D**m times that of the points.
    """
    lat = pts if isinstance(pts, Lattice) else Lattice.of_points(pts)
    out = Lattice(lat.num[None], lat.den)
    for _ in range(m):
        out = ifs.omega.images(out)
        out.num = out.num.reshape((-1,) + out.num.shape[2:])
    return out


class VertexTable:
    """Distinct lattice points numbered by first occurrence, with exact lookup.

    ``ids`` holds the vertex id of every input point (in input shape), and
    ``num`` the numerators of each vertex in id order, over ``den``.  A
    point's key packs the ranks of its two numerators among the table's
    values into one int64, whatever the size of the numerators.
    """

    def __init__(self, lat: Lattice):
        rows = lat.num.reshape(-1, 2)
        self.den = lat.den
        self._values = []
        ranks = []
        for k in (0, 1):
            values, rank = np.unique(rows[:, k], return_inverse=True)
            self._values.append(values)
            ranks.append(rank.reshape(-1))
        keys = ranks[0] * len(self._values[1]) + ranks[1]
        first, ids = numbered(keys)
        self.ids = ids.reshape(lat.shape)
        self.num = rows[first]
        self._sorted_ids = np.argsort(keys[first], kind="stable")
        self._sorted = keys[first][self._sorted_ids]

    def __len__(self) -> int:
        return len(self.num)

    def lookup(self, lat: Lattice) -> np.ndarray:
        """Vertex id of every point, -1 where a point is not a vertex."""
        rows = lat.rescaled(self.den).num.reshape(-1, 2)
        found = np.ones(len(rows), dtype=bool)
        ranks = []
        for k, values in enumerate(self._values):
            col = rows[:, k]
            if col.dtype != values.dtype:
                col, values = col.astype(object), values.astype(object)
            rank = np.minimum(np.searchsorted(values, col), len(values) - 1)
            found &= values[rank] == col
            ranks.append(rank)
        keys = ranks[0] * len(self._values[1]) + ranks[1]
        at = np.minimum(np.searchsorted(self._sorted, keys), len(self._sorted) - 1)
        found &= self._sorted[at] == keys
        return np.where(found, self._sorted_ids[at], -1).reshape(lat.shape)

    def index_of(self, u: Fraction, v: Fraction) -> Optional[int]:
        """Id of the vertex u + v*omega, or None."""
        U, V = u * self.den, v * self.den
        if U.denominator != 1 or V.denominator != 1:
            return None
        g = int(self.lookup(Lattice(np.array([[int(U), int(V)]], dtype=object), self.den))[0])
        return None if g < 0 else g

    def lattice(self) -> Lattice:
        return Lattice(self.num, self.den)


def seeded_copies(ifs: IFS, pts, m: int, words: Optional[Sequence[int]] = None
                  ) -> tuple[VertexTable, np.ndarray]:
    """Vertex table of the points followed by their copies under the length-m word
    maps (only the words with the given lexicographic indices, if any), and the
    ids of every copy.  The points come first, so distinct points keep ids 0..N-1.
    """
    base = pts if isinstance(pts, Lattice) else Lattice.of_points(pts)
    images = cell_images(ifs, m, base)
    if words is not None:
        images.num = images.num[list(words)]
    table = VertexTable(Lattice.concat([base, images]))
    n = len(base.num)
    return table, table.ids[n:].reshape(-1, n)


class LevelGeometry:
    """Vertex table and per-cell combinatorics of one subdivision level.

    For every length-m cell this records which boundary-set points map to
    graph vertices (the cell's kept set), the global vertex ids of those
    images, the three corner ids, and the letter counts that determine the
    cell's weight and measure.  Vertices are the distinct corner images,
    numbered by first occurrence in (word, corner) order; all of it comes
    from one lookup of the 4**m x N boundary-set image array.
    """

    def __init__(self, ifs: IFS, m: int):
        self.ifs = ifs
        self.m = m
        bset = boundary_set(ifs)
        self.bset = bset
        # the boundary set starts with the three corners
        images = cell_images(ifs, m, bset.points)
        self.table = VertexTable(Lattice(images.num[:, :3], images.den))
        self.leaf_corners = self.table.ids
        gids = self.table.lookup(images)
        kept = gids >= 0
        first, type_ids = numbered(_mask_keys(kept))
        self.types: list[tuple[int, ...]] = [tuple(np.flatnonzero(kept[f]).tolist())
                                             for f in first]
        self.cell_type: list[int] = type_ids.tolist()
        # the global ids of every cell's kept images, cell after cell
        self.kept_gids = gids[kept]
        counts = kept.sum(axis=1)
        self.kept_start = np.cumsum(counts) - counts
        digits = (np.arange(4 ** m)[:, None] // 4 ** np.arange(m - 1, -1, -1)) % 4
        self.letter_counts = np.stack([(digits == c).sum(axis=1) for c in range(4)],
                                      axis=1).astype(np.int16)

    @property
    def n_vertices(self) -> int:
        return len(self.table)

    def cell_multipliers(self, r: float, s: float) -> np.ndarray:
        """Every cell's conductance multiplier r^-(m-k) s^-k, k its count of added letters."""
        per_count = np.array([r ** -(self.m - k) * s ** -k for k in range(self.m + 1)])
        return per_count[self.letter_counts[:, 3]]

    @functools.cached_property
    def cell_gids(self) -> list[np.ndarray]:
        """Every cell's kept global ids, one array per cell, split on first use."""
        return np.split(self.kept_gids, self.kept_start[1:])

    @functools.cached_property
    def points(self) -> list[Point]:
        """Exact vertex coordinates, built on first use."""
        return self.table.lattice().points()

    def point(self, vid: int) -> Point:
        return self.table.lattice().point(vid)

    def vid_of_address(self, word: Word, corner: int) -> int:
        """Vertex id of F_w(p_corner)."""
        return int(self.leaf_corners[address_leaf(word, corner, self.m), corner - 1])

    def vid_of_point(self, p: Point) -> int:
        g = self.table.index_of(*p)
        if g is None:
            raise UnknownVertex("point is not a vertex at this level")
        return g


def address_leaf(word: Word, corner: int, m: int) -> int:
    """Index of the level-m cell whose corner ``corner`` is F_w(p_corner): the word
    padded with the corner's own letter, in lexicographic word order."""
    if corner not in (1, 2, 3):
        raise UnknownVertex("corner index must be 1, 2 or 3")
    if len(word) > m:
        raise UnknownVertex(f"word longer than level {m}")
    padded = tuple(word) + (corner,) * (m - len(word))
    leaf = 0
    for c in padded:
        if c not in (1, 2, 3, 4):
            raise UnknownVertex(f"bad letter in word {padded}")
        leaf = leaf * 4 + (c - 1)
    return leaf


def _level_geometry(ifs: IFS, m: int) -> LevelGeometry:
    return ifs.cached(("levelgeom", m), lambda: LevelGeometry(ifs, m))


@dataclass
class GraphApprox:
    """Level-m approximating graph: deduplicated vertices, common-cell edges, cell membership."""
    m: int
    points: list[Point]
    edges: set[tuple[int, int]]
    cells: dict[Word, tuple[int, ...]]

    @property
    def vertex_count(self) -> int:
        return len(self.points)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        edges = np.array(list(self.edges))
        return bool(self.points) and not _components(len(self.points), edges).any()

    def edge_list_csv(self) -> str:
        lines = ["vertex_id_1,vertex_id_2"]
        for a, b in sorted(self.edges):
            lines.append(f"{a},{b}")
        return "\n".join(lines) + "\n"

    def vertex_csv(self) -> str:
        lines = ["vertex_id,x,y,x_exact,y_exact"]
        for i, p in enumerate(self.points):
            dx, dy = point_decimal_str(p)
            ex, ey = point_exact_str(p)
            lines.append(f'{i},{dx},{dy},"{ex}","{ey}"')
        return "\n".join(lines) + "\n"


def approximation_graph(ifs: IFS, m: int,
                        method: Literal["fast", "direct"] = "fast") -> GraphApprox:
    """Level-m graph: vertices are corner images of all length-m words, edges join
    vertices sharing a cell.

    Both methods use the level's vertex table.  The fast method reads each
    cell's vertices off the level geometry (a vertex lies in a cell iff it
    is the image of a contact point).  The direct method validates it on
    small levels: it pulls the whole vertex table back under every inverse
    cell map F_w^-1 = F_{w_m}^-1 o ... o F_{w_1}^-1 as lattice arrays, one
    letter at a time, and drops the pullbacks outside the closed triangle
    exactly.  A vertex v lies in cell w iff F_w^-1(v) lies in the attractor,
    and every survivor does (``_pullbacks``), so it is a member of its cell.
    """
    if m < 0:
        raise DomainError("level must be nonnegative")
    if m > GRAPH_LEVEL_CAP:
        raise CapExceeded(f"level {m} exceeds cap {GRAPH_LEVEL_CAP}")
    if method not in ("fast", "direct"):
        raise DomainError(f"unknown method {method!r}")
    geom = _level_geometry(ifs, m)
    if method == "fast":
        members = [gids.tolist() for gids in geom.cell_gids]
    else:
        pulled = geom.table.lattice()
        word = np.zeros(len(geom.table), dtype=np.int64)
        vid = np.arange(len(geom.table))
        for _ in range(m):
            images, inside = _pullbacks(ifs, pulled)
            letter, at = np.nonzero(inside)
            word, vid = 4 * word[at] + letter, vid[at]
            pulled = Lattice(images.num[inside], images.den).reduced()
        members = [[] for _ in range(4 ** m)]
        for w, g in zip(word.tolist(), vid.tolist()):
            members[w].append(g)
    words = itertools.product((1, 2, 3, 4), repeat=m)
    cells = {w: tuple(sorted(ids)) for w, ids in zip(words, members)}
    edges = {pair for ids in cells.values() for pair in itertools.combinations(ids, 2)}
    g = GraphApprox(m, geom.points, edges, cells)
    if not g.is_connected():
        raise Disconnected("approximating graph is unexpectedly disconnected")
    return g


# -- Hausdorff distance between attractors ---------------------------------------

def _corner_cloud(ifs: IFS, depth: int) -> np.ndarray:
    """The distinct depth-k cell corner images as Cartesian floats (within 2^-k of
    the attractor).  Numerators are divided by the denominator as exact integers
    first, so a denominator beyond float range still gives finite coordinates."""
    table = VertexTable(cell_images(ifs, depth, CORNERS))
    u, v = (np.asarray(table.num[:, k] / table.den, dtype=float) for k in (0, 1))
    return np.column_stack([u + v / 2, v / 2 * math.sqrt(3.0)])


def hausdorff_distance(ifs1: IFS, ifs2: IFS, depth: int = 8) -> tuple[float, float]:
    """Hausdorff distance estimate between two attractors plus the Lipschitz bound.

    The estimate is the Hausdorff distance between depth-k corner clouds;
    it is within 2*2^-k of the true value.  The bound is 2*|lam1 - lam2|,
    sharp for this family.
    """
    if depth < 0:
        raise DomainError(f"depth must be nonnegative, got {depth}")
    if depth > GRAPH_LEVEL_CAP:
        raise CapExceeded(f"depth {depth} exceeds cap {GRAPH_LEVEL_CAP}")
    cKDTree = _scipy("spatial").cKDTree

    c1 = _corner_cloud(ifs1, depth)
    c2 = _corner_cloud(ifs2, depth)
    d12 = cKDTree(c2).query(c1, k=1)[0].max()
    d21 = cKDTree(c1).query(c2, k=1)[0].max()
    estimate = float(max(d12, d21))
    bound = 2.0 * abs(float(ifs1.lam) - float(ifs2.lam))
    return estimate, bound


def track_point(word: Word, corner: int, lam1: RationalLike,
                lam2: RationalLike) -> tuple[Point, Point, float]:
    """Track one addressed vertex across two parameters; the distance obeys 2|lam1-lam2|."""
    ifs1, ifs2 = make_ifs(lam1), make_ifs(lam2)
    p = point_of_address(ifs1, word, corner)
    q = point_of_address(ifs2, word, corner)
    du, dv = p.u - q.u, p.v - q.v
    dist_sq = du * du + du * dv + dv * dv  # |z|^2 for z = du + dv*omega
    gap = 2 * abs(ifs1.lam - ifs2.lam)
    if dist_sq > gap * gap:  # exact form of the bound
        raise NumericalError(f"tracked point moved {math.sqrt(dist_sq):.17g}, "
                             f"beyond the bound {float(gap):.17g}")
    return p, q, math.sqrt(dist_sq)


def point_of_address(ifs: IFS, word: Word, corner: int) -> Point:
    """Exact coordinates of the vertex addressed by (word, corner)."""
    address_leaf(word, corner, len(word))
    p = CORNERS[corner - 1]
    for c in reversed(word):  # F_w = F_{w_1} o ... o F_{w_m}
        p = ifs.omega.apply(c - 1, p)
    return p
