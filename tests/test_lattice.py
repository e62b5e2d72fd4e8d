"""Lattice geometry: cell images, vertex tables and level tables against the reference."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agres
import exact_reference as ref
from agres import exact, geometry
from agres.approx import _level_geometry, level_form, resistance_metric
from agres.errors import UnknownVertex
from agres.exact import Lattice, Point
from agres.geometry import (CENTROID, CORNERS, BoundarySet, LevelGeometry, VertexTable,
                            _mask_keys, _pullbacks, boundary_set, cell_images,
                            classify_boundary_point, edge_point, point_in_attractor)
from agres.network import effective_resistance, numbered
from exact_reference import cartesian


def reference_tables(lam, m):
    """Level tables from the reference word maps and dict deduplication."""
    bset = [cartesian(p) for p in boundary_set(agres.make_ifs(lam)).points]
    index, points, leaf_corners, types, cell_type, cell_gids = {}, [], [], {}, [], []
    word_maps = list(ref.iter_word_maps(lam, m))
    for _, fw in word_maps:
        row = []
        for c in ref.CORNERS:
            p = ref.apply(fw, c)
            if p not in index:
                index[p] = len(points)
                points.append(p)
            row.append(index[p])
        leaf_corners.append(row)
    for _, fw in word_maps:
        hits = [(bi, index.get(ref.apply(fw, p))) for bi, p in enumerate(bset)]
        kept = tuple(bi for bi, g in hits if g is not None)
        cell_type.append(types.setdefault(kept, len(types)))
        cell_gids.append([g for _, g in hits if g is not None])
    return {"points": points, "leaf_corners": leaf_corners, "types": list(types),
            "cell_type": cell_type, "cell_gids": cell_gids,
            "words": [w for w, _ in word_maps]}


def assert_same_tables(geom, ref):
    assert [cartesian(p) for p in geom.points] == ref["points"]
    assert geom.leaf_corners.tolist() == ref["leaf_corners"]
    assert geom.types == ref["types"]
    assert list(geom.cell_type) == ref["cell_type"]
    assert [g.tolist() for g in geom.cell_gids] == ref["cell_gids"]


@pytest.mark.parametrize("lam,m", [("1/4", 4), ("3/16", 4), ("1/7", 4), ("1/9", 3),
                                   ("181/512", 3), ("1/7", 0), ("3/16", 1)])
def test_level_tables_match_word_map_reference(lam, m):
    ifs = agres.make_ifs(lam)
    tables = reference_tables(lam, m)
    geom = LevelGeometry(ifs, m)
    assert_same_tables(geom, tables)
    counts = [[w.count(c) for c in (1, 2, 3, 4)] for w in tables["words"]]
    assert geom.letter_counts.tolist() == counts

    g = agres.approximation_graph(ifs, m, "fast")
    assert [cartesian(p) for p in g.points] == tables["points"]
    cells = {w: tuple(sorted(gids)) for w, gids in zip(tables["words"], tables["cell_gids"])}
    assert g.cells == cells
    assert g.edges == {e for ids in cells.values() for e in itertools.combinations(ids, 2)}


def test_object_fallback_gives_the_same_tables(monkeypatch):
    ifs = agres.make_ifs("3/16")
    wide = LevelGeometry(ifs, 3)
    assert wide.table.num.dtype == np.int64
    monkeypatch.setattr(exact, "INT64_LIMIT", 0)
    narrow = LevelGeometry(ifs, 3)
    assert narrow.table.num.dtype == object
    assert narrow.points == wide.points
    for name in ("leaf_corners", "letter_counts"):
        assert np.array_equal(getattr(narrow, name), getattr(wide, name))
    assert narrow.types == wide.types and narrow.cell_type == wide.cell_type
    assert all(np.array_equal(a, b) for a, b in zip(narrow.cell_gids, wide.cell_gids))


def word_of(index, m):
    return tuple(index // 4 ** (m - 1 - j) % 4 + 1 for j in range(m))


def assert_images_match(ifs, m, points, images, cells):
    for k in cells:
        fw = ref.word_map(ifs.lam, word_of(k, m))
        got = [cartesian(images.point((k, i))) for i in range(len(points))]
        assert got == [ref.apply(fw, cartesian(p)) for p in points]


lambdas = st.builds(Fraction, st.integers(1, 63), st.integers(3, 64)).filter(
    lambda x: 0 < x < Fraction(1, 2))


def _row_keys(mask: np.ndarray) -> np.ndarray:
    """One int64 per boolean row, equal exactly when the rows are equal.

    Forty columns at a time are packed as bits below the rank of the key so far.
    """
    key = np.zeros(len(mask), dtype=np.int64)
    for j in range(0, mask.shape[1], 40):
        bits = mask[:, j:j + 40]
        rank = np.unique(key, return_inverse=True)[1].reshape(-1)
        key = (rank << bits.shape[1]) | (bits @ (1 << np.arange(bits.shape[1])))
    return key


@given(rows=st.integers(1, 300), cols=st.integers(1, 130), distinct=st.integers(1, 40),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 16))
@settings(max_examples=100, deadline=None)
def test_mask_keys_number_rows_as_the_chunked_keys(rows, cols, distinct, density, seed):
    """Packed-byte row keys give the same (first, ids) as the rank-chunked int64 keys
    they replaced, over more columns than one 40-column chunk."""
    rng = np.random.default_rng(seed)
    pool = rng.random((distinct, cols)) < density
    mask = pool[rng.integers(0, distinct, rows)]
    first, ids = numbered(_mask_keys(mask))
    ref_first, ref_ids = numbered(_row_keys(mask))
    assert first.tolist() == ref_first.tolist() and ids.tolist() == ref_ids.tolist()


@pytest.mark.parametrize("force_objects", [False, True])
@given(lam=lambdas, m=st.integers(0, 4), seed=st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_cell_images_match_similarity_apply(force_objects, lam, m, seed):
    ifs = agres.make_ifs(lam)
    points = boundary_set(ifs).points
    with pytest.MonkeyPatch.context() as mp:
        if force_objects:
            mp.setattr(exact, "INT64_LIMIT", 0)
        images = cell_images(ifs, m, points)
    assert images.shape == (4 ** m, len(points))
    assert (images.num.dtype == object) == force_objects
    cells = random.Random(seed).sample(range(4 ** m), min(4, 4 ** m))
    assert_images_match(ifs, m, points, images, cells)


def test_real_overflow_takes_the_object_fallback():
    # D = 512 and P = 256, so level-7 numerators live over 512**7 * 256 = 2**71
    ifs = agres.make_ifs("181/512")
    points = boundary_set(ifs).points
    assert ifs.omega.D == 512
    assert cell_images(ifs, 6, points).num.dtype == np.int64
    images = cell_images(ifs, 7, points)
    assert images.den == 2 ** 71 and images.num.dtype == object
    assert max(abs(int(x)) for x in images.num.reshape(-1)) > 2 ** 63
    cells = [0, 4 ** 7 - 1] + random.Random(7).sample(range(4 ** 7), 6)
    assert_images_match(ifs, 7, points, images, cells)

    table = VertexTable(Lattice(images.num[:, :3], images.den))
    assert table.num.dtype == object
    assert np.array_equal(table.lookup(Lattice(images.num[:, :3], images.den)), table.ids)
    for k in cells:
        fw = ref.word_map(ifs.lam, word_of(k, 7))
        for c in range(3):
            point = table.lattice().point(int(table.ids[k, c]))
            assert cartesian(point) == ref.apply(fw, ref.CORNERS[c])


class TestVertexTable:
    def test_lookup_marks_missing_points(self):
        lat = Lattice.of_points([edge_point(0, Fraction(1, 4)), CORNERS[0], CORNERS[1]])
        table = VertexTable(lat)
        query = Lattice.of_points([CORNERS[1], CORNERS[2], edge_point(0, Fraction(1, 4)),
                                   edge_point(1, Fraction(1, 2))])
        assert table.lookup(query).tolist() == [2, -1, 0, -1]

    def test_lookup_over_a_divisor_denominator(self):
        table = VertexTable(Lattice(np.array([[1, 0], [2, 2], [0, 4]]), 4))
        assert table.lookup(Lattice(np.array([[1, 1], [0, 2]]), 2)).tolist() == [1, 2]
        assert table.index_of(Fraction(1, 4), Fraction(0)) == 0
        assert table.index_of(Fraction(1, 8), Fraction(0)) is None

    def test_points_round_trip(self):
        pts = list(CORNERS) + [edge_point(e, Fraction(3, 7)) for e in range(3)]
        lat = Lattice.of_points(pts)
        assert lat.points() == pts

    def test_points_off_the_lattice_are_rejected(self, ifs14):
        geom = _level_geometry(ifs14, 2)
        assert geom.vid_of_point(edge_point(0, Fraction(1, 4))) >= 0
        for off in (Point(Fraction(1, 3), Fraction(0)), CENTROID, Point(Fraction(2), Fraction(0))):
            with pytest.raises(UnknownVertex):
                geom.vid_of_point(off)


def test_resistance_metric_matches_pairwise_solves(sol14):
    pairs = [(((4,), 1), ((4,), 2)), (((1,), 2), ((2,), 1)), (((), 1), ((4,), 3)),
             (((), 2), ((), 1)), (((3, 3), 3), ((2, 1), 1))]
    lf = level_form(sol14, 3)
    for (a1, a2), value in resistance_metric(lf, pairs):
        v1, v2 = lf.vid_of_address(*a1), lf.vid_of_address(*a2)
        expected = 0.0 if v1 == v2 else effective_resistance(lf.form, v1, v2)
        assert value == pytest.approx(expected, rel=1e-10)


def test_a_level_form_leaves_the_cell_id_split_unbuilt(sol14):
    """Only the approximation graph reads the per-cell id arrays; a level form
    reads the flat kept ids, so the 4**m-way split waits for its first use."""
    geom = level_form(sol14, 5).geometry
    assert "cell_gids" not in geom.__dict__
    assert len(geom.cell_gids) == 4 ** 5


class TestLatticeMaps:
    @pytest.mark.parametrize("force_objects", [False, True])
    @pytest.mark.parametrize("lam", ["1/4", "3/16", "1/9", "181/512"])
    def test_inverse_undoes_images(self, lam, force_objects, monkeypatch):
        ifs = agres.make_ifs(lam)
        if force_objects:
            monkeypatch.setattr(exact, "INT64_LIMIT", 0)
        points = boundary_set(ifs).points
        inverse = ifs.omega.inverse()
        assert inverse.inverse().coeffs == ifs.omega.coeffs
        back = inverse.images(ifs.omega.images(Lattice.of_points(points)))
        assert (back.num.dtype == object) == force_objects
        for k in range(4):
            assert Lattice(back.num[k, k], back.den).points() == points
        pulled = inverse.images(Lattice.of_points(points))
        for k, f in enumerate(ref.maps(lam)):
            inv = ref.inverse(f)
            assert ([cartesian(p) for p in Lattice(pulled.num[k], pulled.den).points()]
                    == [ref.apply(inv, cartesian(p)) for p in points])

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_reduced_keeps_the_points(self, dtype):
        points = list(CORNERS) + [edge_point(e, Fraction(3, 7)) for e in range(3)]
        lat = Lattice.of_points(points)
        assert lat.den == 7
        wide = Lattice(lat.rescaled(7 * 36).num.astype(dtype), 7 * 36)
        reduced = wide.reduced()
        assert reduced.den == 7 and reduced.points() == points
        assert reduced.num.dtype == np.int64
        assert reduced.reduced() is reduced
        zero = Lattice(np.zeros((1, 2), dtype=dtype), 6).reduced()
        assert zero.den == 1 and zero.points() == [CORNERS[1]]

    def test_reduced_object_array_beyond_int64(self):
        num = np.array([[3 * 2 ** 70, 0], [0, 2 ** 70]], dtype=object)
        reduced = Lattice(num, 2 ** 72).reduced()
        assert reduced.den == 4 and reduced.num.tolist() == [[3, 0], [0, 1]]
        coprime = Lattice(num + np.array([[1, 0], [0, 0]], dtype=object), 2 ** 72)
        assert coprime.reduced() is coprime and coprime.num.dtype == object


_reference_keys: dict = {}


def reference_boundary_keys(lam, depth):
    key = (Fraction(lam), depth)
    if key not in _reference_keys:
        _reference_keys[key] = ref.boundary_set(lam, depth)
    return _reference_keys[key]


def oracle_keys(lam, depth):
    return [cartesian(p) for p in boundary_set(agres.make_ifs(lam), "oracle", depth=depth).points]


@pytest.mark.parametrize("force_objects", [False, True])
@pytest.mark.parametrize("lam", ["1/4", "1/8", "1/7", "3/16", "1/6", "1/5", "2/7"])
def test_boundary_oracle_matches_qsqrt3_reference(lam, force_objects, monkeypatch):
    if force_objects:
        monkeypatch.setattr(exact, "INT64_LIMIT", 0)
    for depth in range(5):
        assert oracle_keys(lam, depth) == reference_boundary_keys(lam, depth)


@given(lam=st.builds(Fraction, st.integers(1, 15), st.integers(3, 32)).filter(
    lambda x: x < Fraction(1, 2)), depth=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_boundary_oracle_matches_reference_on_random_lambdas(lam, depth):
    assert oracle_keys(lam, depth) == reference_boundary_keys(lam, depth)


def test_boundary_oracle_through_a_real_overflow(monkeypatch):
    # the inverse added map of 181/512 pushes pullback numerators past int64 at depth 5
    dtypes = set()
    images = exact.OmegaMaps.images

    def spy(self, lat, headroom=1):
        out = images(self, lat, headroom)
        dtypes.add(out.num.dtype)
        return out

    monkeypatch.setattr(exact.OmegaMaps, "images", spy)
    assert oracle_keys("181/512", 5) == reference_boundary_keys("181/512", 5)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def pullbacks_of_every_level(lam, depth):
    """The defining union's terms level by level: P_m, the level-m vertices pulled
    back m times inside the triangle, for every m <= depth (deduplicated as lattice
    arrays after every step)."""
    ifs = agres.make_ifs(lam)
    level, terms = Lattice.of_points(CORNERS), []
    for m in range(depth + 1):
        if m:
            level = VertexTable(ifs.omega.images(level)).lattice()
        pulled = level
        for _ in range(m):
            images, inside = _pullbacks(ifs, pulled)
            pulled = VertexTable(Lattice(images.num[inside], images.den)).lattice().reduced()
        terms.append(pulled)
    return ifs, terms


def union_contact_set(ifs, terms):
    """The distinct points of the terms, and the contact set their attractor points give."""
    union = VertexTable(Lattice.concat(terms)).lattice().points()
    labels = [classify_boundary_point(p) for p in union if point_in_attractor(ifs, p)]
    return union, BoundarySet(lab.t for lab in labels if lab.kind == "edge")


UNION_LAMBDAS = ["1/4", "1/8", "3/8", "1/7", "2/7", "3/7", "3/16", "5/16", "1/5", "11/32",
                 "1/9", "23/64", "1/3", "5/14"]


@pytest.mark.parametrize("lam", UNION_LAMBDAS)
def test_deepest_level_oracle_equals_the_union_over_levels(lam, monkeypatch):
    # the oracle pulls back level `depth` only: P_m lies in P_depth for every m <= depth
    ifs, terms = pullbacks_of_every_level(lam, 7)
    tested = []

    def spy(ifs, p):
        tested.append(p)
        return point_in_attractor(ifs, p)

    monkeypatch.setattr(geometry, "point_in_attractor", spy)
    for depth in range(8):
        union, expected = union_contact_set(ifs, terms[:depth + 1])
        assert set(terms[depth].points()) == set(union)
        assert boundary_set(agres.make_ifs(lam), "oracle", depth=depth) == expected
        # every in-triangle pullback of a vertex is a member, so the oracle tests none
        assert tested == []
        assert all(point_in_attractor(ifs, p) for p in union)


@pytest.mark.parametrize("lam", ["3/16", "2/7", "1/9", "5/14"])
def test_deepest_level_oracle_equals_the_union_on_object_arrays(lam, monkeypatch):
    wide = [boundary_set(agres.make_ifs(lam), "oracle", depth=d) for d in range(8)]
    monkeypatch.setattr(exact, "INT64_LIMIT", 0)
    ifs, terms = pullbacks_of_every_level(lam, 7)
    assert all(t.num.dtype == object for t in terms[1:])
    for depth in range(8):
        _, expected = union_contact_set(ifs, terms[:depth + 1])
        assert boundary_set(agres.make_ifs(lam), "oracle", depth=depth) == expected
        assert wide[depth] == expected
