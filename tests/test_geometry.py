"""Geometry: the map family, attractor membership, boundary sets, graphs."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import agres
import exact_reference as ref
from agres import cli, exact, geometry
from agres.errors import CapExceeded, Disconnected, DomainError, NumericalError
from agres.exact import Point
from agres.geometry import (CENTROID, CORNERS, BoundarySet, Label, _corner_cloud,
                            _level_geometry, approximation_graph, boundary_set,
                            classify_boundary_point, doubling_orbit, edge_point,
                            point_in_attractor, point_in_triangle,
                            point_on_triangle_boundary, point_of_address)
from exact_reference import cartesian


def lattice_point(p) -> Point:
    return Point(*ref.lattice_uv(p))


def added_image(ifs, corner: int) -> Point:
    return point_of_address(ifs, (4,), corner)


class TestMakeIfs:
    def test_domain_errors(self):
        for bad in ("3/4", "0", "1/2", "-1/8"):
            with pytest.raises(DomainError):
                agres.make_ifs(bad)
        with pytest.raises(DomainError):
            agres.make_ifs(0.25)  # floats are ambiguous, rejected

    def test_added_map_images_at_quarter(self):
        ifs = agres.make_ifs("1/4")
        images = [cartesian(added_image(ifs, c)) for c in (1, 2, 3)]
        assert images == [(Fraction(1, 2), Fraction(1, 4)), (Fraction(3, 8), Fraction(1, 8)),
                          (Fraction(5, 8), Fraction(1, 8))]
        assert images == [ref.apply(ref.maps("1/4")[3], c) for c in ref.CORNERS]

    def test_added_ratio_at_quarter(self):
        assert agres.make_ifs("1/4").added_ratio_sq == Fraction(1, 16)

    def test_added_map_is_exact_similarity(self):
        # every distance scales by the same exact ratio
        ifs = agres.make_ifs("1/8")
        assert ifs.added_ratio_sq == Fraction(1, 16) + 3 * Fraction(1, 8) ** 2
        probes = list(CORNERS) + [CENTROID, edge_point(0, Fraction(1, 3))]
        for p in probes:
            for q in probes:
                fp, fq = (ifs.omega.apply(3, z) for z in (p, q))
                assert (ref.distance_sq(cartesian(fp), cartesian(fq))
                        == ifs.added_ratio_sq * ref.distance_sq(cartesian(p), cartesian(q)))

    def test_added_map_image_formula_random_lambdas(self):
        for lam in (Fraction(1, 8), Fraction(2, 7), Fraction(5, 16), Fraction(99, 256)):
            ifs = agres.make_ifs(lam)
            assert cartesian(added_image(ifs, 1)) == (Fraction(1, 4) + lam, Fraction(1, 4))
            assert cartesian(added_image(ifs, 2)) == (Fraction(1, 2) - lam / 2, lam / 2)
            assert cartesian(added_image(ifs, 3)) == (Fraction(3, 4) - lam / 2,
                                                      Fraction(1, 4) - lam / 2)

    def test_rotations_permute_corner_maps_and_fix_added(self):
        ifs = agres.make_ifs("5/16")
        sigma, sigma_inv = ref.ROTATION, ref.inverse(ref.ROTATION)
        # sigma (omega^2 about the centroid) sends p1 -> p2 -> p3 -> p1
        assert [ref.apply(sigma, cartesian(c)) for c in CORNERS] == [
            cartesian(c) for c in (CORNERS[1], CORNERS[2], CORNERS[0])]

        def conjugated(k, c):  # sigma o F_k o sigma^-1, with the package's F_k
            pulled = lattice_point(ref.apply(sigma_inv, cartesian(c)))
            return ref.apply(sigma, cartesian(ifs.omega.apply(k, pulled)))

        perm = {1: 2, 2: 3, 3: 1}
        probes = list(CORNERS) + [edge_point(1, Fraction(2, 5))]
        for i in (1, 2, 3):
            for c in probes:
                assert conjugated(i - 1, c) == cartesian(ifs.omega.apply(perm[i] - 1, c))
        # the added map commutes with the rotation
        for c in probes:
            assert conjugated(3, c) == cartesian(ifs.omega.apply(3, c))


class TestAttractorMembership:
    def test_boundary_points_belong(self):
        for lam in ("1/4", "1/7", "5/16"):
            ifs = agres.make_ifs(lam)
            q = Point(2 * ifs.lam, Fraction(0))
            assert point_in_attractor(ifs, q)

    def test_added_cell_corner_belongs(self, ifs14):
        assert point_in_attractor(ifs14, added_image(ifs14, 1))

    def test_centroid_is_the_added_map_fixed_point(self, ifs14):
        # the added map preserves the centroid, so the centroid lies in the
        # attractor for every parameter (its address is the constant added letter)
        assert ifs14.omega.apply(3, CENTROID) == CENTROID
        assert cartesian(CENTROID) == ref.CENTROID
        assert ref.apply(ref.maps("1/4")[3], ref.CENTROID) == ref.CENTROID
        assert point_in_attractor(ifs14, CENTROID)
        assert not ref.cover_excludes("1/4", ref.CENTROID, depth=10)

    def test_cover_oracle_certifies_an_outside_point(self, ifs14):
        # in the central hole below the added triangle: in no cell at depth 1
        p = (Fraction(1, 2), Fraction(1, 16))
        assert ref.cover_excludes("1/4", p, depth=10)
        assert not point_in_attractor(ifs14, lattice_point(p))

    def test_deep_pullback_of_centroid_belongs(self, ifs14):
        q = ifs14.omega.apply(0, CENTROID)  # image of a member is a member
        assert point_in_attractor(ifs14, q)

    def test_membership_matches_cover_oracle_on_grid(self, ifs14):
        # every point the cover oracle excludes must be excluded
        rng = random.Random(5)
        for _ in range(40):
            p = (Fraction(rng.randrange(0, 64), 64), Fraction(rng.randrange(0, 32), 64))
            if not ref.in_triangle(p):
                continue
            assert point_in_triangle(lattice_point(p))
            if ref.cover_excludes("1/4", p, depth=12):
                assert not point_in_attractor(ifs14, lattice_point(p))

    def test_triangle_predicates(self):
        assert point_in_triangle(CENTROID)
        assert not point_on_triangle_boundary(CENTROID)
        for c in CORNERS:
            assert point_in_triangle(c) and point_on_triangle_boundary(c)
        assert point_on_triangle_boundary(Point(Fraction(1, 3), Fraction(0)))
        assert not point_in_triangle(Point(Fraction(2, 3), Fraction(1, 2)))
        assert not point_in_triangle(Point(Fraction(-1, 9), Fraction(1, 2)))


lambdas_q32 = st.builds(Fraction, st.integers(1, 15), st.integers(3, 32)).filter(
    lambda x: x < Fraction(1, 2))


def membership(is_member, *args):
    """The answer of a membership test, or 'cap' when it gives up."""
    try:
        return is_member(*args)
    except (agres.DepthExceeded, ref.CapReached):
        return "cap"


@given(lam=lambdas_q32, i=st.integers(0, 64), k=st.integers(0, 32))
@settings(max_examples=60, deadline=None)
def test_membership_matches_reference_on_grid(lam, i, k):
    # a point (i/64, j/64) of the triangle 0 <= eta <= min(x, 1 - x)
    p = (Fraction(i, 64), Fraction(k % (min(i, 64 - i) + 1), 64))
    assert ref.in_triangle(p)
    expected = membership(ref.in_attractor, lam, p)
    assert membership(point_in_attractor, agres.make_ifs(lam), lattice_point(p)) == expected


def listed_boundary(ts):
    """The points and labels lists ``BoundarySet`` stored before it kept only its
    parameters, built as then, with the label-search rotation permutation."""
    points = list(CORNERS)
    labels = [Label("corner", corner=i) for i in (1, 2, 3)]
    for t in sorted(set(ts)):
        for e in range(3):
            points.append(edge_point(e, t))
            labels.append(Label("edge", edge=e, t=t))
    perm = []
    for lab in labels:
        if lab.kind == "corner":
            img = Label("corner", corner=lab.corner % 3 + 1)
        else:
            img = Label("edge", edge=(lab.edge + 1) % 3, t=lab.t)
        perm.append(labels.index(img))
    return points, labels, tuple(perm)


class TestBoundarySet:
    @pytest.mark.parametrize("lam,size", [("1/4", 6), ("1/7", 12), ("1/9", 21),
                                          ("23/64", 18), ("181/512", 27), (None, 3)])
    def test_parameters_give_the_listed_layout(self, lam, size):
        bset = BoundarySet() if lam is None else boundary_set(agres.make_ifs(lam))
        points, labels, perm = listed_boundary(bset.params)
        assert bset.size == len(bset.points) == size
        assert (bset.points, bset.labels, bset.g_permutation) == (points, labels, perm)

    def test_parameters_are_sorted_and_deduplicated(self):
        ts = (Fraction(4, 7), Fraction(1, 7), Fraction(2, 7))
        bset = BoundarySet(ts)
        assert bset.params == tuple(sorted(ts)) == tuple(bset.parameter_set())
        assert BoundarySet(ts + ts[::-1]) == bset == BoundarySet(list(reversed(ts)))
        assert hash(BoundarySet(ts[::-1])) == hash(bset)
        assert {bset: 1}[BoundarySet(ts + ts)] == 1
        assert bset != BoundarySet(ts[:2]) and BoundarySet() == BoundarySet([])

    def test_oracle_depth_must_be_nonnegative(self, ifs14):
        with pytest.raises(DomainError):
            boundary_set(ifs14, "oracle", depth=-1)

    def test_oracle_depth_is_capped_before_any_level_is_built(self, ifs14, monkeypatch):
        def no_level(*args, **kwargs):
            raise AssertionError("a level was built before the depth was checked")

        monkeypatch.setattr(geometry, "_boundary_set_oracle", no_level)
        with pytest.raises(CapExceeded, match="^depth 11 exceeds cap 10$"):
            boundary_set(ifs14, "oracle", depth=11)

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
        assert fast.points == oracle.points

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


DEEP_GRAPH_LAMBDAS = ["3/16", "2/7", "11/32", "181/512"]


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

    @pytest.mark.parametrize("lam,m", [("1/4", 1), ("1/4", 2), ("1/8", 2), ("1/7", 2),
                                       *((lam, m) for m in (3, 4) for lam in DEEP_GRAPH_LAMBDAS)])
    def test_fast_equals_direct(self, lam, m):
        ifs = agres.make_ifs(lam)
        fast = agres.approximation_graph(ifs, m, method="fast")
        direct = agres.approximation_graph(ifs, m, method="direct")
        assert fast.edges == direct.edges and fast.cells == direct.cells
        assert fast.points == direct.points
        # a vertex lies in cell w iff F_w^-1 of it is in the attractor
        assert direct.cells == ref.cell_members(lam, [cartesian(p) for p in direct.points], m)

    @pytest.mark.parametrize("m,force_objects", [(3, True), (4, False), (4, True)])
    @pytest.mark.parametrize("lam", DEEP_GRAPH_LAMBDAS)
    def test_fast_equals_direct_deeper(self, lam, m, force_objects, monkeypatch):
        if force_objects:
            monkeypatch.setattr(exact, "INT64_LIMIT", 0)
        ifs = agres.make_ifs(lam)
        direct = agres.approximation_graph(ifs, m, method="direct")
        assert (_level_geometry(ifs, m).table.num.dtype == object) == force_objects
        fast = agres.approximation_graph(ifs, m, method="fast")
        assert fast.edges == direct.edges and fast.cells == direct.cells

    @pytest.mark.parametrize("lam,m", [("1/7", 3), ("3/16", 3), ("181/512", 3)])
    def test_direct_tests_each_distinct_pullback_once(self, lam, m, monkeypatch):
        # every in-triangle pullback is a member, so the direct graph tests none
        tested = []

        def spy(ifs, p):
            tested.append(p)
            return point_in_attractor(ifs, p)

        monkeypatch.setattr(geometry, "point_in_attractor", spy)
        ifs = agres.make_ifs(lam)
        g = agres.approximation_graph(ifs, m, method="direct")
        points = [cartesian(p) for p in g.points]
        pulled, kept = set(), set()
        for word, fw in ref.iter_word_maps(lam, m):
            inv = ref.inverse(fw)
            pulled.update(q for q in (ref.apply(inv, p) for p in points) if ref.in_triangle(q))
            kept.update(ref.apply(inv, points[i]) for i in g.cells[word])
        assert tested == []
        assert kept == pulled
        assert all(point_in_attractor(ifs, lattice_point(q)) for q in pulled)

    def test_vertex_count_against_quadratic_dedup_oracle(self, ifs14):
        # hash-free O(n^2) dedup of all corner images
        raw = []
        for _, fw in ref.iter_word_maps("1/4", 2):
            for c in ref.CORNERS:
                raw.append(ref.apply(fw, c))
        distinct = []
        for p in raw:
            if not any(p == q for q in distinct):
                distinct.append(p)
        g = agres.approximation_graph(ifs14, 2)
        assert g.vertex_count == len(distinct)

    def test_connectivity(self, ifs14):
        g = agres.approximation_graph(ifs14, 1)
        assert g.is_connected()
        assert not dataclasses.replace(g, edges={e for e in g.edges if 0 not in e}).is_connected()
        assert not dataclasses.replace(g, edges=set()).is_connected()
        assert dataclasses.replace(g, points=g.points[:1], edges=set()).is_connected()
        assert not dataclasses.replace(g, points=[], edges=set()).is_connected()

    def test_nesting(self, ifs14):
        g1 = agres.approximation_graph(ifs14, 1)
        g2 = agres.approximation_graph(ifs14, 2)
        points2 = set(g2.points)
        assert all(p in points2 for p in g1.points)

    def test_g_invariance_of_graph(self, ifs14):
        g = agres.approximation_graph(ifs14, 2)
        index = {cartesian(p): i for i, p in enumerate(g.points)}
        mapped = {}
        for i, p in enumerate(g.points):
            q = ref.apply(ref.ROTATION, cartesian(p))
            assert q in index
            mapped[i] = index[q]
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


    def test_denominator_beyond_float_range(self):
        # depth-6 corner images of this parameter share a denominator above 2**1000
        est, bound = agres.hausdorff_distance(agres.make_ifs(Fraction(1, 2 ** 180 + 1)),
                                              agres.make_ifs("1/4"), 6)
        assert math.isfinite(est)
        assert est == pytest.approx(0.06810779599282302, rel=1e-12)

    @pytest.mark.parametrize("lam", ["1/4", "1/7"])
    def test_corner_cloud_is_the_distinct_corner_images(self, lam):
        cloud = _corner_cloud(agres.make_ifs(lam), 4)
        assert len(np.unique(cloud, axis=0)) == len(cloud)
        images = {ref.apply(fw, c) for _, fw in ref.iter_word_maps(lam, 4) for c in ref.CORNERS}
        assert len(cloud) == len(images)
        expected = [(float(x), float(eta) * math.sqrt(3)) for x, eta in images]
        dist, at = cKDTree(cloud).query(expected)
        assert dist.max() <= 1e-14 and len(set(at.tolist())) == len(cloud)


class TestTrackPoint:
    def test_empty_word(self):
        p, q, d = agres.track_point((), 2, "1/4", "3/8")
        assert d == 0.0 and p == q

    def test_added_letter_shift(self):
        p, q, d = agres.track_point((4,), 1, "1/4", "3/8")
        assert d == pytest.approx(1 / 8, abs=1e-15)

    def test_a_point_beyond_the_bound_is_a_numerical_error(self, monkeypatch):
        # corners 1 and 2 lie 1 apart, beyond the bound 2 |1/4 - 3/8| = 1/4
        monkeypatch.setattr(geometry, "point_of_address",
                            lambda ifs, word, corner: CORNERS[ifs.lam == Fraction(1, 4)])
        with pytest.raises(NumericalError, match="beyond the bound"):
            agres.track_point((), 1, "1/4", "3/8")

    def test_bound_for_sampled_words(self):
        rng = random.Random(11)
        lams = [Fraction(1, 4), Fraction(5, 16), Fraction(3, 8), Fraction(7, 32)]
        for _ in range(60):
            length = rng.randrange(0, 9)
            word = tuple(rng.choice((1, 2, 3, 4)) for _ in range(length))
            i = rng.choice((1, 2, 3))
            l1, l2 = rng.sample(lams, 2)
            # the bound is checked exactly inside track_point
            p, q, d = agres.track_point(word, i, l1, l2)
            p_ref, q_ref = (ref.apply(ref.word_map(lam, word), ref.CORNERS[i - 1])
                            for lam in (l1, l2))
            assert (cartesian(p), cartesian(q)) == (p_ref, q_ref)
            assert ref.distance_sq(p_ref, q_ref) <= 4 * (l1 - l2) ** 2
            assert d == pytest.approx(float(ref.distance_sq(p_ref, q_ref)) ** 0.5, rel=1e-15)


class TestGuards:
    def test_orbit_overflow_guard(self):
        ifs = agres.make_ifs(Fraction(1, 31))  # doubling orbit has 5 states
        with pytest.raises(agres.OrbitOverflow):
            boundary_set(ifs, guard=4)
        assert boundary_set(ifs, guard=8).size == 18

    def test_orbit_guard_holds_after_a_cached_boundary_set(self):
        ifs = agres.make_ifs(Fraction(1, 31))
        assert boundary_set(ifs).size == 18
        with pytest.raises(agres.OrbitOverflow):
            boundary_set(ifs, guard=4)

    def test_membership_depth_cap(self, ifs14):
        deep = ifs14.omega.apply(0, ifs14.omega.apply(0, CENTROID))
        assert ref.in_attractor("1/4", cartesian(deep))
        with pytest.raises(agres.DepthExceeded):
            point_in_attractor(agres.make_ifs("1/4"), deep, cap=1)

    def test_hausdorff_depth_cap(self, ifs14):
        with pytest.raises(CapExceeded):
            agres.hausdorff_distance(ifs14, ifs14, depth=11)

    def test_hausdorff_depth_must_be_nonnegative(self, ifs14):
        with pytest.raises(DomainError):
            agres.hausdorff_distance(ifs14, agres.make_ifs("3/8"), depth=-3)


# the 78 lambda = p/q, q <= 32, whose contact parameter has a doubling orbit of at most 6
ORBIT6_LAMBDAS = sorted({Fraction(p, q) for q in range(3, 33) for p in range(1, q)
                         if 2 * p < q and len(doubling_orbit(Fraction(2 * p, q))) <= 6})


@pytest.mark.parametrize("lam", ORBIT6_LAMBDAS, ids=str)
def test_oracles_keep_only_members_and_test_none(lam, monkeypatch):
    # a level vertex pulled back inside the triangle is a point of the attractor
    tested, kept = [], []

    def spy(ifs, p):
        tested.append(p)
        return point_in_attractor(ifs, p)

    def classify(p):
        kept.append(p)
        return classify_boundary_point(p)

    monkeypatch.setattr(geometry, "point_in_attractor", spy)
    monkeypatch.setattr(geometry, "classify_boundary_point", classify)
    ifs = agres.make_ifs(lam)
    assert boundary_set(ifs, "oracle") == boundary_set(ifs)
    g = agres.approximation_graph(ifs, 3, method="direct")
    assert tested == [] and kept
    for word, ids in g.cells.items():
        for i in ids:
            q = g.points[i]
            for c in word:  # F_w^-1 applies F_{w_1}^-1 first
                q = ifs.omega_inverses.apply(c - 1, q)
            kept.append(q)
    assert all(point_in_attractor(ifs, q) for q in kept)


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
        assert fast.points == oracle.points

    def test_long_cycle_at_sufficiency_depth(self):
        # orbit of 2/9 is a pure 6-cycle; depth 1 + 0 + 6 suffices
        ifs = agres.make_ifs("1/9")
        fast = boundary_set(ifs, "fast")
        oracle = boundary_set(ifs, "oracle", depth=7)
        assert fast.size == 21
        assert fast.points == oracle.points


@pytest.mark.parametrize("call,message", [
    (lambda ifs: boundary_set(ifs, "bogus"), "mode must be 'fast' or 'oracle', got 'bogus'"),
    (lambda ifs: approximation_graph(ifs, -1), "level must be nonnegative"),
    (lambda ifs: approximation_graph(ifs, 2, "bogus"), "unknown method 'bogus'"),
])
def test_input_checks(ifs14, call, message):
    with pytest.raises(DomainError) as info:
        call(ifs14)
    assert str(info.value) == message


def test_a_disconnected_graph_is_a_numerical_error(ifs14, tmp_path, monkeypatch):
    monkeypatch.setattr(geometry, "_components", lambda n, edges: np.ones(n, dtype=np.int64))
    with pytest.raises(Disconnected, match="approximating graph is unexpectedly disconnected"):
        approximation_graph(ifs14, 2)
    assert cli.main(["graph", "--lambda", "1/4", "--level", "2",
                     "--out", str(tmp_path / "g")]) == 3
