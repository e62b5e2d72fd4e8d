"""Independent exact reference for the gasket geometry, used only by the tests.

Points are pairs (x, eta) of Fractions with eta = y / sqrt(3), so the
Cartesian point is (x, eta * sqrt(3)).  In this basis every map of the
family is a rational affine map (x, eta) -> (a x + b eta + e, c x + d eta + f),
written straight from the paper's maps: the corner halvings p -> p/2 + p_i/2
and the added scaled rotation

    x' = x/4 + 3 q eta + (1 - lam)/2,   eta' = -q x + eta/4 + lam/2,   q = lam - 1/4.

The reference triangle is 0 <= eta <= min(x, 1 - x), and squared distances
are dx^2 + 3 deta^2.  Nothing here uses the package's lattice basis, its
maps or its membership test; ``cartesian`` reads a package point only
through its documented coordinates u, v (z = u + v * omega).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce

F = Fraction
HALF = F(1, 2)

P1, P2, P3 = (HALF, HALF), (F(0), F(0)), (F(1), F(0))
CORNERS = (P1, P2, P3)
CENTROID = (HALF, F(1, 6))
IDENTITY = (F(1), F(0), F(0), F(1), F(0), F(0))
# rotation by 120 degrees (multiplication by omega^2) about the centroid: p1 -> p2 -> p3 -> p1
ROTATION = (-HALF, F(-3, 2), HALF, -HALF, F(1), F(0))


def cartesian(p) -> tuple[Fraction, Fraction]:
    """(x, eta) of a package point u + v * omega: x = u + v/2 and eta = v/2."""
    return (p.u + F(p.v, 2), F(p.v, 2))


def lattice_uv(p) -> tuple[Fraction, Fraction]:
    """(u, v) of the reference point p = (x, eta): u = x - eta and v = 2 eta."""
    x, eta = p
    return (x - eta, 2 * eta)


def maps(lam) -> tuple[tuple, ...]:
    """The four maps (a, b, c, d, e, f) at a rational lam, in the package's order."""
    lam = F(lam)
    q = lam - F(1, 4)
    corner = tuple((HALF, F(0), F(0), HALF, x / 2, eta / 2) for x, eta in CORNERS)
    return corner + ((F(1, 4), 3 * q, -q, F(1, 4), (1 - lam) / 2, lam / 2),)


def apply(f, p):
    a, b, c, d, e, g = f
    x, eta = p
    return (a * x + b * eta + e, c * x + d * eta + g)


def compose(f, h):
    """f after h."""
    a, b, c, d, e, g = f
    a2, b2, c2, d2, e2, g2 = h
    return (a * a2 + b * c2, a * b2 + b * d2, c * a2 + d * c2, c * b2 + d * d2,
            a * e2 + b * g2 + e, c * e2 + d * g2 + g)


def inverse(f):
    a, b, c, d, e, g = f
    det = a * d - b * c
    ia, ib, ic, id_ = d / det, -b / det, -c / det, a / det
    return (ia, ib, ic, id_, -(ia * e + ib * g), -(ic * e + id_ * g))


def word_map(lam, word):
    """F_w = F_{w_1} o ... o F_{w_m}."""
    fs = maps(lam)
    return reduce(compose, (fs[c - 1] for c in word), IDENTITY)


def iter_word_maps(lam, m):
    """(word, F_w) for every word of length m, in lexicographic order."""
    fs = maps(lam)
    for word in itertools.product((1, 2, 3, 4), repeat=m):
        yield word, reduce(compose, (fs[c - 1] for c in word), IDENTITY)


def distance_sq(p, q) -> Fraction:
    dx, deta = p[0] - q[0], p[1] - q[1]
    return dx * dx + 3 * deta * deta


def in_triangle(p) -> bool:
    x, eta = p
    return 0 <= eta <= min(x, 1 - x)


def on_triangle_boundary(p) -> bool:
    x, eta = p
    return in_triangle(p) and (eta == 0 or eta == x or eta == 1 - x)


class CapReached(Exception):
    """Membership gave up after ``cap`` distinct pullbacks on one path."""


def in_attractor(lam, p, cap: int = 64, memo=None) -> bool:
    """Membership by recursive pullback: some infinite pullback path stays in the
    triangle.  The triangle boundary lies in the attractor, and a pullback
    repeated on the current path closes a cycle, which certifies a path."""
    invs = [inverse(f) for f in maps(lam)]
    memo = {} if memo is None else memo
    on_path: set = set()

    def descend(q) -> bool:
        if q in memo:
            return memo[q]
        if not in_triangle(q):
            memo[q] = False
            return False
        if on_triangle_boundary(q):
            memo[q] = True
            return True
        if q in on_path:
            return True
        if len(on_path) >= cap:
            raise CapReached(f"no resolution after {cap} distinct pullbacks")
        on_path.add(q)
        res = any(descend(apply(inv, q)) for inv in invs)
        on_path.discard(q)
        memo[q] = res
        return res

    return descend(p)


def cell_members(lam, points, m: int) -> dict:
    """Every length-m word w with the indices of the points v whose F_w^-1(v) is in
    the attractor, ascending: the vertex sets of the level-m cells.

    The points are pulled back one letter at a time (F_w^-1 applies F_{w_1}^-1
    first), keeping the pullbacks inside the triangle and merging equal ones
    after every letter; each distinct survivor is tested for membership once."""
    invs = [inverse(f) for f in maps(lam)]
    frontier: dict = {}  # each distinct pullback, with the (word, index) pairs reaching it
    for i, p in enumerate(points):
        frontier.setdefault(p, []).append(((), i))
    for _ in range(m):
        pulled: dict = {}
        for q, tags in frontier.items():
            for c, inv in enumerate(invs, 1):
                r = apply(inv, q)
                if in_triangle(r):
                    pulled.setdefault(r, []).extend((w + (c,), i) for w, i in tags)
        frontier = pulled
    members: dict = {w: [] for w in itertools.product((1, 2, 3, 4), repeat=m)}
    memo: dict = {}
    for q, tags in frontier.items():
        if in_attractor(lam, q, memo=memo):
            for w, i in tags:
                members[w].append(i)
    return {w: tuple(sorted(ids)) for w, ids in members.items()}


def cover_excludes(lam, p, depth: int) -> bool:
    """Certify non-membership: no depth-k cell triangle contains the point.

    Being inside some cell at every depth is necessary for membership, so
    an empty cover certifies False (the converse certifies nothing).
    """
    invs = [inverse(f) for f in maps(lam)]
    frontier = {p}
    for _ in range(depth):
        frontier = {q for q in (apply(inv, r) for r in frontier for inv in invs)
                    if in_triangle(q)}
        if not frontier:
            return True
    return False


def edge_point(edge: int, t: Fraction):
    """Bottom p2 -> p3, right p3 -> p1, left p1 -> p2."""
    if edge == 0:
        return (t, F(0))
    if edge == 1:
        return (1 - t / 2, t / 2)
    return ((1 - t) / 2, (1 - t) / 2)


def edge_parameter(p):
    """(edge, t) of a point inside an edge of the triangle, None for a corner."""
    if p in CORNERS:
        return None
    x, eta = p
    if eta == 0:
        return 0, x
    if eta == 1 - x and 0 < 2 * (1 - x) < 1:
        return 1, 2 * (1 - x)
    if eta == x and 0 < 1 - 2 * x < 1:
        return 2, 1 - 2 * x
    raise ValueError(f"{p} is not on the triangle boundary")


def contact_points(ts) -> list:
    """The corners, then the three edge copies of every parameter in increasing order."""
    return list(CORNERS) + [edge_point(e, t) for t in sorted(set(ts)) for e in range(3)]


def boundary_set(lam, depth: int) -> list:
    """The defining-union oracle for the contact set.

    For every level m <= depth and every level-m vertex, walk down the cell
    tree keeping only branches whose closed triangle contains the vertex
    (a cell whose triangle excludes it cannot contain it).  Every surviving
    length-m pullback in the attractor is a contact point.
    """
    invs = [inverse(f) for f in maps(lam)]
    memo: dict = {}
    found: set = set()
    for m in range(depth + 1):
        verts = {apply(fw, c) for _, fw in iter_word_maps(lam, m) for c in CORNERS}
        for v in verts:
            frontier = {v}
            for _ in range(m):
                frontier = {q for q in (apply(inv, r) for r in frontier for inv in invs)
                            if in_triangle(q)}
            found |= {q for q in frontier if in_attractor(lam, q, memo=memo)}
    edges = [edge_parameter(p) for p in found]
    return contact_points(e[1] for e in edges if e is not None)
