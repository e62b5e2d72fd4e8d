"""Geometry: the map family, attractor membership, boundary sets, graphs."""

import random
from fractions import Fraction

import pytest

import agres
from agres.errors import CapExceeded, DomainError
from agres.exact import Point, Scalar
from agres.geometry import (CENTROID, CORNERS, boundary_set, classify_boundary_point,
                            doubling_orbit, edge_point, point_in_attractor,
                            point_in_triangle, point_on_triangle_boundary,
                            _iter_word_maps)


def cover_excludes(ifs, p, depth):
    """Certify non-membership: no depth-k cell triangle contains the point.

    Being inside some cell at every depth is necessary for membership, so
    an empty cover certifies False (the converse certifies nothing).
    """
    frontier = [p]
    for _ in range(depth):
        nxt = []
        for q in frontier:
            for inv in ifs.inverses:
                qq = inv.apply(q)
                if point_in_triangle(qq):
                    nxt.append(qq)
        if not nxt:
            return True
        # keep distinct pullbacks only
        seen = {}
        for q in nxt:
            seen.setdefault(q.key(), q)
        frontier = list(seen.values())
    return False


class TestMakeIfs:
    def test_domain_errors(self):
        for bad in ("3/4", "0", "1/2", "-1/8"):
            with pytest.raises(DomainError):
                agres.make_ifs(bad)
        with pytest.raises(DomainError):
            agres.make_ifs(0.25)  # floats are ambiguous, rejected

    def test_added_map_images_at_quarter(self):
        ifs = agres.make_ifs("1/4")
        f4 = ifs.maps[3]
        assert f4.apply(CORNERS[0]) == Point(Scalar(Fraction(1, 2)),
                                             Scalar.sqrt3_times(Fraction(1, 4)))
        assert f4.apply(CORNERS[1]) == Point(Scalar(Fraction(3, 8)),
                                             Scalar.sqrt3_times(Fraction(1, 8)))
        assert f4.apply(CORNERS[2]) == Point(Scalar(Fraction(5, 8)),
                                             Scalar.sqrt3_times(Fraction(1, 8)))

    def test_added_ratio_at_quarter(self):
        assert agres.make_ifs("1/4").added_ratio_sq == Fraction(1, 16)

    def test_added_map_is_exact_similarity(self):
        # orthogonality residual identically zero in exact arithmetic
        ifs = agres.make_ifs("1/8")
        f4 = ifs.maps[3]
        off = f4.m00 * f4.m01 + f4.m10 * f4.m11
        assert off.is_zero()
        assert f4.ratio_sq.a == Fraction(1, 16) + 3 * Fraction(1, 8) ** 2

    def test_added_map_image_formula_random_lambdas(self):
        for lam in (Fraction(1, 8), Fraction(2, 7), Fraction(5, 16), Fraction(99, 256)):
            ifs = agres.make_ifs(lam)
            f4 = ifs.maps[3]
            assert f4.apply(CORNERS[0]) == Point(Scalar(Fraction(1, 4) + lam),
                                                 Scalar.sqrt3_times(Fraction(1, 4)))
            assert f4.apply(CORNERS[1]) == Point(Scalar(Fraction(1, 2) - lam / 2),
                                                 Scalar.sqrt3_times(lam / 2))
            assert f4.apply(CORNERS[2]) == Point(Scalar(Fraction(3, 4) - lam / 2),
                                                 Scalar.sqrt3_times(Fraction(1, 4) - lam / 2))

    def test_rotations_permute_corner_maps_and_fix_added(self):
        ifs = agres.make_ifs("5/16")
        sigma = ifs.rotations[0]
        # sigma sends p1 -> p2 -> p3 -> p1
        assert sigma.apply(CORNERS[0]) == CORNERS[1]
        assert sigma.apply(CORNERS[1]) == CORNERS[2]
        assert sigma.apply(CORNERS[2]) == CORNERS[0]
        perm = {1: 2, 2: 3, 3: 1}
        for i in (1, 2, 3):
            lhs = sigma.compose(ifs.maps[i - 1]).compose(sigma.inverse())
            rhs = ifs.maps[perm[i] - 1]
            for c in CORNERS:
                assert lhs.apply(c) == rhs.apply(c)
        # the added map commutes with the rotation
        for c in CORNERS:
            assert sigma.apply(ifs.maps[3].apply(c)) == ifs.maps[3].apply(sigma.apply(c))


class TestAttractorMembership:
    def test_boundary_points_belong(self):
        for lam in ("1/4", "1/7", "5/16"):
            ifs = agres.make_ifs(lam)
            q = Point(Scalar(2 * ifs.lam), Scalar())
            assert point_in_attractor(ifs, q)

    def test_added_cell_corner_belongs(self, ifs14):
        assert point_in_attractor(ifs14, ifs14.maps[3].apply(CORNERS[0]))

    def test_centroid_is_the_added_map_fixed_point(self, ifs14):
        # the added map preserves the centroid, so the centroid lies in the
        # attractor for every parameter (its address is the constant added letter)
        assert ifs14.maps[3].apply(CENTROID) == CENTROID
        assert point_in_attractor(ifs14, CENTROID)
        assert not cover_excludes(ifs14, CENTROID, depth=10)

    def test_cover_oracle_certifies_an_outside_point(self, ifs14):
        # in the central hole below the added triangle: in no cell at depth 1
        p = Point(Scalar(Fraction(1, 2)), Scalar.sqrt3_times(Fraction(1, 16)))
        assert cover_excludes(ifs14, p, depth=10)
        assert not point_in_attractor(ifs14, p)

    def test_deep_pullback_of_centroid_belongs(self, ifs14):
        q = ifs14.maps[0].apply(CENTROID)  # image of a member is a member
        assert point_in_attractor(ifs14, q)

    def test_membership_matches_cover_oracle_on_grid(self, ifs14):
        # every point the cover oracle excludes must be excluded
        rng = random.Random(5)
        for _ in range(40):
            p = Point(Scalar(Fraction(rng.randrange(0, 64), 64)),
                      Scalar.sqrt3_times(Fraction(rng.randrange(0, 32), 64)))
            if not point_in_triangle(p):
                continue
            if cover_excludes(ifs14, p, depth=12):
                assert not point_in_attractor(ifs14, p)

    def test_triangle_predicates(self):
        assert point_in_triangle(CENTROID)
        assert not point_on_triangle_boundary(CENTROID)
        for c in CORNERS:
            assert point_in_triangle(c) and point_on_triangle_boundary(c)
        assert point_on_triangle_boundary(Point(Scalar(Fraction(1, 3)), Scalar()))


class TestBoundarySet:
    def test_doubling_orbits(self):
        assert doubling_orbit(Fraction(1, 2)) == [Fraction(1, 2)]
        assert doubling_orbit(Fraction(2, 7)) == [Fraction(2, 7), Fraction(4, 7), Fraction(1, 7)]
        assert doubling_orbit(Fraction(1, 4)) == [Fraction(1, 4), Fraction(1, 2)]

    @pytest.mark.parametrize("lam,size", [("1/4", 6), ("1/8", 9), ("1/7", 12),
                                          ("3/16", 12), ("3/8", 9), ("5/16", 12)])
    def test_sizes(self, lam, size):
        assert boundary_set(agres.make_ifs(lam)).size == size

    @pytest.mark.parametrize("lam", ["1/4", "1/8", "1/7", "3/16"])
    def test_fast_equals_oracle(self, lam):
        ifs = agres.make_ifs(lam)
        fast = boundary_set(ifs, "fast")
        oracle = boundary_set(ifs, "oracle")
        assert [p.key() for p in fast.points] == [p.key() for p in oracle.points]

    def test_contact_parameter_is_in_set(self):
        for lam in (Fraction(1, 4), Fraction(5, 16), Fraction(1, 7)):
            bset = boundary_set(agres.make_ifs(lam))
            assert 2 * lam in bset.parameter_set()

    def test_parameter_set_closed_under_doubling(self):
        bset = boundary_set(agres.make_ifs("1/7"))
        ts = set(bset.parameter_set())
        for t in ts:
            if t == Fraction(1, 2):
                continue
            img = 2 * t if t < Fraction(1, 2) else 2 * t - 1
            assert img in ts or img in (0, 1)

    def test_g_permutation_is_order_three(self, ifs14):
        bset = boundary_set(ifs14)
        perm = bset.g_permutation
        n = bset.size
        assert sorted(perm) == list(range(n))
        triple = [perm[perm[perm[i]]] for i in range(n)]
        assert triple == list(range(n))

    def test_edge_points_classify_back(self):
        for e in range(3):
            for t in (Fraction(1, 3), Fraction(2, 5)):
                lab = classify_boundary_point(edge_point(e, t))
                assert lab.kind == "edge" and lab.edge == e and lab.t == t


class TestApproximationGraph:
    def test_level_zero(self, ifs14):
        g = agres.approximation_graph(ifs14, 0)
        assert g.vertex_count == 3 and g.edge_count == 3

    def test_level_one_counts(self):
        for lam in ("1/4", "1/8", "5/16"):
            g = agres.approximation_graph(agres.make_ifs(lam), 1)
            assert g.vertex_count == 9 and g.edge_count == 21

    def test_level_one_cliques(self, ifs14):
        g = agres.approximation_graph(ifs14, 1)
        sizes = sorted(len(ids) for ids in g.cells.values())
        assert sizes == [3, 4, 4, 4]

    @pytest.mark.parametrize("lam,m", [("1/4", 1), ("1/4", 2), ("1/8", 2), ("1/7", 2)])
    def test_fast_equals_direct(self, lam, m):
        ifs = agres.make_ifs(lam)
        fast = agres.approximation_graph(ifs, m, method="fast")
        direct = agres.approximation_graph(ifs, m, method="direct")
        assert fast.edges == direct.edges
        assert [p.key() for p in fast.points] == [p.key() for p in direct.points]

    def test_vertex_count_against_quadratic_dedup_oracle(self, ifs14):
        # hash-free O(n^2) dedup of all corner images
        raw = []
        for _, fw in _iter_word_maps(ifs14, 2):
            for c in CORNERS:
                raw.append(fw.apply(c))
        distinct = []
        for p in raw:
            if not any(p == q for q in distinct):
                distinct.append(p)
        g = agres.approximation_graph(ifs14, 2)
        assert g.vertex_count == len(distinct)

    def test_nesting(self, ifs14):
        g1 = agres.approximation_graph(ifs14, 1)
        g2 = agres.approximation_graph(ifs14, 2)
        keys2 = {p.key() for p in g2.points}
        assert all(p.key() in keys2 for p in g1.points)

    def test_g_invariance_of_graph(self, ifs14):
        g = agres.approximation_graph(ifs14, 2)
        sigma = ifs14.rotations[0]
        index = {p.key(): i for i, p in enumerate(g.points)}
        mapped = {}
        for i, p in enumerate(g.points):
            q = sigma.apply(p)
            assert q.key() in index
            mapped[i] = index[q.key()]
        for (a, b) in g.edges:
            ma, mb = mapped[a], mapped[b]
            assert (min(ma, mb), max(ma, mb)) in g.edges

    def test_every_vertex_in_a_cell_and_edges_in_cells(self, ifs14):
        g = agres.approximation_graph(ifs14, 2)
        covered = set()
        for ids in g.cells.values():
            covered.update(ids)
        assert covered == set(range(g.vertex_count))
        for (a, b) in g.edges:
            assert any(a in ids and b in ids for ids in g.cells.values())

    def test_cap(self, ifs14):
        with pytest.raises(CapExceeded):
            agres.approximation_graph(ifs14, 11)


class TestHausdorff:
    def test_identical_attractors(self, ifs14):
        est, bound = agres.hausdorff_distance(ifs14, ifs14, 6)
        assert est == 0.0 and bound == 0.0

    def test_quarter_vs_5_16(self):
        est, bound = agres.hausdorff_distance(agres.make_ifs("1/4"),
                                              agres.make_ifs("5/16"), 7)
        assert bound == pytest.approx(1 / 8)
        assert est <= 1 / 8 + 2 * 2 ** -7

    def test_small_perturbation(self):
        est, bound = agres.hausdorff_distance(agres.make_ifs("1/4"),
                                              agres.make_ifs(Fraction(17, 64)), 8)
        assert est <= 1 / 32 + 2 ** -7


class TestTrackPoint:
    def test_empty_word(self):
        p, q, d = agres.track_point((), 2, "1/4", "3/8")
        assert d == 0.0 and p == q

    def test_added_letter_shift(self):
        p, q, d = agres.track_point((4,), 1, "1/4", "3/8")
        assert d == pytest.approx(1 / 8, abs=1e-15)

    def test_bound_for_sampled_words(self):
        rng = random.Random(11)
        lams = [Fraction(1, 4), Fraction(5, 16), Fraction(3, 8), Fraction(7, 32)]
        for _ in range(60):
            length = rng.randrange(0, 9)
            word = tuple(rng.choice((1, 2, 3, 4)) for _ in range(length))
            i = rng.choice((1, 2, 3))
            l1, l2 = rng.sample(lams, 2)
            # the bound is asserted exactly inside track_point
            agres.track_point(word, i, l1, l2)


class TestGuards:
    def test_orbit_overflow_guard(self):
        ifs = agres.make_ifs(Fraction(1, 31))  # doubling orbit has 5 states
        with pytest.raises(agres.OrbitOverflow):
            boundary_set(ifs, guard=4)
        assert boundary_set(ifs, guard=8).size == 18

    def test_membership_depth_cap(self, ifs14):
        deep = ifs14.maps[0].apply(ifs14.maps[0].apply(CENTROID))
        with pytest.raises(agres.DepthExceeded):
            point_in_attractor(agres.make_ifs("1/4"), deep, cap=1)

    def test_hausdorff_depth_cap(self, ifs14):
        with pytest.raises(CapExceeded):
            agres.hausdorff_distance(ifs14, ifs14, depth=11)


class TestBoundaryOracleExtended:
    """The doubling-orbit construction is a derived insight, so it gets
    validated against the defining-union oracle across denominators and
    orbit shapes, including non-dyadic ones."""

    @pytest.mark.parametrize("lam,size", [
        ("1/6", 9),     # orbit 1/3 -> 2/3, cycle without 1/2
        ("2/7", 12),    # pure cycle of length 3
        ("1/5", 15),    # pure cycle of length 4
        ("5/32", 15),   # dyadic, transient of length 4 into 1/2
        ("3/32", 15),   # dyadic, transient of length 4
        ("1/9", 21),    # pure cycle of length 6, automatic depth 8
        ("1/31", 18),   # pure cycle of length 5, automatic depth 7
    ])
    def test_fast_equals_oracle_extended(self, lam, size):
        ifs = agres.make_ifs(lam)
        fast = boundary_set(ifs, "fast")
        oracle = boundary_set(ifs, "oracle")
        assert fast.size == size
        assert [p.key() for p in fast.points] == [p.key() for p in oracle.points]

    def test_long_cycle_at_sufficiency_depth(self):
        # orbit of 2/9 is a pure 6-cycle; depth 1 + 0 + 6 suffices
        ifs = agres.make_ifs("1/9")
        fast = boundary_set(ifs, "fast")
        oracle = boundary_set(ifs, "oracle", depth=7)
        assert fast.size == 21
        assert [p.key() for p in fast.points] == [p.key() for p in oracle.points]
