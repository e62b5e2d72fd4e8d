"""Level realizations, measures, resistance estimates and the trace tower."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import agres
import exact_reference as ref
from agres import approx
from agres.approx import (EdgeTraceTower, boundary_resistance_check, decimation_identity,
                          envelope_check, level_form, measure_weights, resistance_metric,
                          resolvent_kernel, scaling_exponent, vertex_masses,
                          _celled_energy, _cell_table, _level_geometry)
from agres.errors import (BadWeights, CapExceeded, DomainError, IdentificationMismatch,
                          InsufficientScales, UnknownVertex)
from agres.exact import Lattice, Point
from agres.geometry import VertexTable, cell_images
from agres.network import FiniteForm, effective_resistance, harmonic_extension, trace


def rotated(p) -> Point:
    """The package point rotated by 120 degrees about the centroid (p1 -> p2 -> p3)."""
    return Point(*ref.lattice_uv(ref.apply(ref.ROTATION, ref.cartesian(p))))


def bottom_point(t) -> Point:
    return Point(Fraction(t), Fraction(0))


class TestLevelForm:
    def test_level_zero_is_unit_triangle(self, sol14):
        lf = level_form(sol14, 0)
        for pair in ((0, 1), (1, 2), (0, 2)):
            assert lf.form.conductance(*pair) == pytest.approx(1.0, abs=1e-9)

    def test_vertex_counts(self, sol14):
        assert level_form(sol14, 1).form.n == 9
        assert level_form(sol14, 2).form.n == 30
        assert level_form(sol14, 3).form.n == 114

    def test_trace_consistency(self, sol14):
        # reducing level m+1 onto the level-m vertices reproduces level m
        for m in (1, 2):
            fine = level_form(sol14, m + 1)
            coarse = level_form(sol14, m)
            keep = [fine.geometry.vid_of_point(p) for p in coarse.geometry.points]
            reduced = trace(fine.form, keep)
            remap = {keep[i]: i for i in range(len(keep))}
            for (x, y), c in reduced.conductances.items():
                assert coarse.form.conductance(remap[x], remap[y]) == pytest.approx(
                    c, abs=1e-9)
            for (x, y), c in coarse.form.conductances.items():
                inv = {v: k for k, v in remap.items()}
                assert reduced.conductance(inv[x], inv[y]) == pytest.approx(c, abs=1e-9)

    def test_corner_resistance_level_independent(self, sol14):
        for m in range(0, 5):
            lf = level_form(sol14, m)
            v1 = lf.vid_of_address((), 1)
            v2 = lf.vid_of_address((), 2)
            assert effective_resistance(lf.form, v1, v2) == pytest.approx(
                2 / 3, abs=1e-8)

    def test_g_symmetry_of_level_form(self, sol14):
        lf = level_form(sol14, 2)
        geom = lf.geometry
        mapped = {}
        for i, p in enumerate(geom.points):
            mapped[i] = geom.vid_of_point(rotated(p))
        for (x, y), c in lf.form.conductances.items():
            assert lf.form.conductance(mapped[x], mapped[y]) == pytest.approx(
                c, rel=1e-9)

    def test_conductances_supported_on_common_cell_pairs(self, ifs14, sol14):
        lf = level_form(sol14, 2)
        g = agres.approximation_graph(ifs14, 2)
        gidx = {p: i for i, p in enumerate(g.points)}
        translate = {i: gidx[p] for i, p in enumerate(lf.geometry.points)}
        for (x, y) in lf.form.conductances:
            a, b = translate[x], translate[y]
            assert (min(a, b), max(a, b)) in g.edges

    def test_cap(self, sol14):
        with pytest.raises(CapExceeded):
            level_form(sol14, 9)

    @pytest.mark.parametrize("lam", ["3/16", "5/16"])
    def test_realized_on_the_solutions_ifs(self, lam):
        # both boundary sets have 12 points, so a form realized on the other
        # parameter's geometry would go unnoticed
        sol = agres.solve_r(agres.make_ifs(lam), 0.5)
        assert sol.D.n == 12
        lf = level_form(sol, 2)
        assert lf.geometry is _level_geometry(sol.ifs, 2)
        v1, v2 = lf.vid_of_address((), 1), lf.vid_of_address((), 2)
        assert effective_resistance(lf.form, v1, v2) == pytest.approx(2 / 3, rel=1e-9)

    def test_addressing(self, sol14):
        lf = level_form(sol14, 2)
        vid = lf.vid_of_address((4,), 1)
        p = lf.points[vid]
        assert ref.cartesian(p) == ref.apply(ref.maps("1/4")[3], ref.P1)
        with pytest.raises(UnknownVertex):
            lf.vid_of_address((1, 2, 3), 1)  # word longer than level

    def test_address_is_the_padded_words_leaf(self, sol14):
        geom = level_form(sol14, 2).geometry
        for word in itertools.chain.from_iterable(
                itertools.product((1, 2, 3, 4), repeat=k) for k in range(3)):
            for corner in (1, 2, 3):
                padded = word + (corner,) * (2 - len(word))
                leaf = 4 * (padded[0] - 1) + padded[1] - 1
                assert geom.vid_of_address(word, corner) == geom.leaf_corners[leaf, corner - 1]
        for word, corner, message in [((1,), 4, "corner index must be 1, 2 or 3"),
                                      ((5,), 1, "bad letter in word (5, 1)"),
                                      ((1, 0), 2, "bad letter in word (1, 0)")]:
            with pytest.raises(UnknownVertex) as info:
                geom.vid_of_address(word, corner)
            assert str(info.value) == message


def reference_dimension(rho: float) -> float:
    """The bisection ``measure_weights`` ran before it shared the weight solve's root
    finder: the root of 3*(1/2)^d + rho^d = 1."""

    def g(d: float) -> float:
        return 3.0 * 0.5 ** d + rho ** d - 1.0

    lo, hi = 1.0, 4.0
    while g(lo) < 0:
        lo *= 0.5
    while g(hi) > 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


class TestMeasures:
    def test_hausdorff_dimension_equation(self, ifs14):
        ms = measure_weights(ifs14)
        d = ms.dimension
        assert abs(3 * 0.5 ** d + 0.25 ** d - 1) <= 1e-12
        assert sum(ms.weights) == pytest.approx(1.0, abs=1e-12)

    def test_uniform(self, ifs14):
        assert measure_weights(ifs14, "uniform").weights == (0.25,) * 4

    def test_custom_validation(self, ifs14):
        with pytest.raises(BadWeights):
            measure_weights(ifs14, "custom", custom=[0.5, 0.5, -0.5, 0.5])
        ms = measure_weights(ifs14, "custom", custom=[1, 1, 1, 1])
        assert ms.weights == (0.25,) * 4

    def test_unknown_scheme(self, ifs14):
        with pytest.raises(BadWeights, match="unknown measure scheme 'bogus'"):
            measure_weights(ifs14, "bogus")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_custom_weights_must_be_finite(self, ifs14, bad):
        with pytest.raises(BadWeights):
            measure_weights(ifs14, "custom", custom=[0.25, 0.25, 0.25, bad])
        with pytest.raises(BadWeights):
            measure_weights(ifs14, "custom", custom=[bad, 1, 1, 1])
        with pytest.raises(BadWeights):  # finite weights whose sum overflows
            measure_weights(ifs14, "custom", custom=[1e308] * 4)

    def test_dimension_two_when_ratio_half(self):
        # hypothetical check of the dimension equation: with all four ratios
        # at 1/2 the equation 4*(1/2)^d = 1 forces d = 2
        g = lambda d: 4 * 0.5 ** d - 1
        lo, hi = 1.0, 3.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if g(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("lam", ["1/4", "1/8", "1/7", "3/16", "181/512"])
    def test_dimension_matches_reference_bisection(self, lam):
        ifs = agres.make_ifs(lam)
        expected = reference_dimension(ifs.added_ratio)
        assert measure_weights(ifs).dimension == pytest.approx(expected, rel=1e-12)

    def test_vertex_masses_positive_and_normalized(self, ifs14, sol14):
        ms = measure_weights(ifs14)
        for m in (1, 2, 3):
            masses = vertex_masses(ifs14, ms, m)
            assert masses.sum() == pytest.approx(1.0, abs=1e-12)
            assert masses.min() > 0

    @pytest.mark.parametrize("m", [-1, -2])
    def test_vertex_masses_reject_a_negative_level(self, ifs14, m):
        with pytest.raises(DomainError):
            vertex_masses(ifs14, measure_weights(ifs14), m)
        assert ("levelgeom", m) not in ifs14._caches

    def test_vertex_masses_cap_stops_before_any_geometry(self, ifs14, monkeypatch):
        ms = measure_weights(ifs14)

        def no_geometry(ifs, m):
            raise AssertionError(f"level {m} geometry built")

        monkeypatch.setattr(approx, "_level_geometry", no_geometry)
        with pytest.raises(CapExceeded):
            vertex_masses(ifs14, ms, approx.LEVEL_CAP + 1)

    def test_vertex_masses_g_symmetric(self, ifs14):
        ms = measure_weights(ifs14)
        geom = _level_geometry(ifs14, 2)
        masses = vertex_masses(ifs14, ms, 2)
        for i, p in enumerate(geom.points):
            j = geom.vid_of_point(rotated(p))
            assert masses[i] == pytest.approx(masses[j], rel=1e-12)


class TestResistanceMetric:
    def test_corner_pair(self, sol14):
        rows = resistance_metric(level_form(sol14, 2), [(((), 1), ((), 2))])
        assert rows[0][1] == pytest.approx(2 / 3, abs=1e-9)

    def test_symmetry_and_zero_diagonal(self, sol14):
        a, b = ((4,), 1), ((4,), 2)
        rows = resistance_metric(level_form(sol14, 2), [(a, b), (b, a), (a, a)])
        assert rows[0][1] == pytest.approx(rows[1][1], abs=1e-12)
        assert rows[2][1] == 0.0

    def test_word_longer_than_the_level_is_unknown(self, sol14):
        with pytest.raises(UnknownVertex):
            resistance_metric(level_form(sol14, 1), [(((1, 1), 1), ((1, 1), 2))])

    def test_level_consistency(self, sol14):
        pairs = [(((4,), 1), ((4,), 2)), (((1,), 2), ((2,), 1)), (((), 1), ((4,), 3))]
        r3 = resistance_metric(level_form(sol14, 3), pairs)
        r4 = resistance_metric(level_form(sol14, 4), pairs)
        for (row3, row4) in zip(r3, r4):
            assert row3[1] == pytest.approx(row4[1], abs=1e-8)


class TestBoundaryResistance:
    def test_bound_holds(self, sol14):
        value, bound, ok = boundary_resistance_check(level_form(sol14, 4))
        assert ok and value >= bound

    def test_monotone_in_level(self, sol14):
        values = [boundary_resistance_check(level_form(sol14, m))[0] for m in (2, 3, 4)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12

    def test_grounding_superset_decreases_value(self, sol14):
        # the whole bottom edge is grounded, so the value cannot exceed the
        # resistance to the two bottom corners alone
        lf = level_form(sol14, 3)
        value, _, _ = boundary_resistance_check(lf)
        v1 = lf.vid_of_address((), 1)
        v2 = lf.vid_of_address((), 2)
        v3 = lf.vid_of_address((), 3)
        two_corner = effective_resistance(lf.form, v1, {v2, v3})
        assert value <= two_corner + 1e-12


class TestScalingExponent:
    def test_fit_close_to_model(self, sol14):
        tfit, theta, env = scaling_exponent(sol14, range(4, 10))
        assert abs(tfit - theta) <= 0.15
        assert env.spread <= 50
        assert env.basis == "theta"

    def test_hypothetical_half_weight_gives_exponent_one(self):
        assert -math.log(0.5) / math.log(2) == pytest.approx(1.0)

    def test_requires_four_scales(self, sol14):
        with pytest.raises(InsufficientScales):
            scaling_exponent(sol14, [3, 4, 5])

    def test_tower_matches_level_form_resistances(self, sol14):
        # the nested trace and the level decomposition must agree
        tower = EdgeTraceTower(sol14)
        tower.refine_to(3)
        pairs = [(Fraction(1, 8), Fraction(2, 8)), (Fraction(3, 8), Fraction(5, 8))]
        tower_vals = tower.bottom_resistances(pairs)
        lf = level_form(sol14, 3)
        for (t1, t2), tv in zip(pairs, tower_vals):
            v1 = lf.geometry.vid_of_point(bottom_point(t1))
            v2 = lf.geometry.vid_of_point(bottom_point(t2))
            assert effective_resistance(lf.form, v1, v2) == pytest.approx(tv, abs=1e-9)


class TestEnvelope:
    def test_global_envelope_brackets_samples(self, sol14):
        env = envelope_check(level_form(sol14, 3))
        assert env.basis == "eta"
        assert env.eta_star >= env.eta_sub
        assert 0 < env.c1 <= env.c2 < math.inf


class TestResolventKernel:
    def test_identities(self, sol14):
        kernel = resolvent_kernel(level_form(sol14, 2), 1.0)
        assert kernel.symmetry_error() <= 1e-12
        assert kernel.row_mass_error() <= 1e-10

    @pytest.mark.parametrize("m,alpha", [(2, 1.0), (3, 0.5)])
    def test_matches_dense_inverse(self, ifs14, sol14, m, alpha):
        lf = level_form(sol14, m)
        kernel = resolvent_kernel(lf, alpha)
        masses = vertex_masses(ifs14, measure_weights(ifs14), m)
        inverse = np.linalg.inv(lf.form.laplacian_dense() + alpha * np.diag(masses))
        np.testing.assert_allclose(kernel.matrix, inverse, rtol=1e-10, atol=0)

    def test_cross_level_entries_stabilize(self, sol14):
        vals = []
        for m in (1, 2, 3):
            lf = level_form(sol14, m)
            kernel = resolvent_kernel(lf, 1.0)
            v1 = lf.vid_of_address((), 1)
            v2 = lf.vid_of_address((), 2)
            vals.append(kernel.matrix[v1, v2])
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        assert d2 <= d1


class TestDecimation:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_identity_cell_aware(self, sol14, m):
        rep = decimation_identity(level_form(sol14, m), (1.0, -0.5, 2.0))
        assert rep.relative_gap <= 1e-8

    def test_plain_form_valid_above_contact_depth(self, sol14):
        # contact depth of 1/4 is 1, so plain level-(m-1) evaluation is exact
        # from m = 2 on but undercounts at m = 1
        rep2 = decimation_identity(level_form(sol14, 2), (1.0, 0.0, 0.0))
        assert rep2.plain_gap <= 1e-8 and not rep2.used_cell_sets
        rep1 = decimation_identity(level_form(sol14, 1), (1.0, 0.0, 0.0))
        assert rep1.relative_gap <= 1e-10
        assert rep1.used_cell_sets and rep1.plain_gap > 1e-3

    def test_harmonic_energy_equals_corner_energy(self, sol14):
        # the minimal extension of corner data has the boundary-trace energy
        lf = level_form(sol14, 3)
        f = (1.0, 0.0, 0.0)
        boundary = {lf.vid_of_address((), i + 1): f[i] for i in range(3)}
        h = harmonic_extension(lf.form, boundary)
        assert lf.form.energy(h) == pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize("call,error,message", [
    (lambda sol: measure_weights(sol.ifs, "custom"), BadWeights,
     "custom scheme needs four weights"),
    (lambda sol: boundary_resistance_check(level_form(sol, 0)), DomainError,
     "level must be at least 1"),
    (lambda sol: decimation_identity(level_form(sol, 0), (1.0, 0.0, 0.0)), DomainError,
     "level must be >= 1"),
    (lambda sol: EdgeTraceTower(sol).refine_to(13), CapExceeded,
     "tower depth 13 exceeds cap 12"),
    (lambda sol: EdgeTraceTower(sol).bottom_resistances([(Fraction(0), Fraction(1, 3))]),
     UnknownVertex, "bottom parameter 1/3 not in tower at depth 0"),
    (lambda sol: scaling_exponent(sol, [0, 1, 2, 3]), DomainError, "levels must be >= 1"),
])
def test_input_checks(sol14, call, error, message):
    with pytest.raises(error) as info:
        call(sol14)
    assert str(info.value) == message


def test_tower_matches_level_form_at_bigger_boundary():
    ifs = agres.make_ifs("5/16")
    sol = agres.solve_r(ifs, 0.5)
    tower = EdgeTraceTower(sol)
    tower.refine_to(3)
    pairs = [(Fraction(0), Fraction(1, 8)), (Fraction(3, 8), Fraction(1, 2))]
    tower_vals = tower.bottom_resistances(pairs)
    lf = level_form(sol, 3)
    for (t1, t2), tv in zip(pairs, tower_vals):
        v1 = lf.geometry.vid_of_point(bottom_point(t1))
        v2 = lf.geometry.vid_of_point(bottom_point(t2))
        assert effective_resistance(lf.form, v1, v2) == pytest.approx(tv, abs=1e-9)


# -- array assembly against the dict accumulation it replaced ----------------------


def dict_level_conductances(ifs, sol, m):
    """Level-m conductances summed in a dict, cell after cell, table row after row."""
    geom = _level_geometry(ifs, m)
    tables = [_cell_table(sol.D, kept) for kept in geom.types]
    cond: dict = {}
    for li in range(len(geom.cell_type)):
        n4 = int(geom.letter_counts[li, 3])
        w = sol.r ** -(m - n4) * sol.s ** -n4
        gids = geom.cell_gids[li]
        for a, b, c in tables[geom.cell_type[li]]:
            ga, gb = sorted((int(gids[a]), int(gids[b])))
            cond[(ga, gb)] = cond.get((ga, gb), 0.0) + w * c
    return FiniteForm(list(range(geom.n_vertices)), cond).conductances


def dict_refine(tower):
    """One tower refinement with the glued conductances summed in a dict."""
    ifs, sol = tower.sol.ifs, tower.sol
    next_k = tower.K + 1
    dyadics = np.zeros((2 ** next_k - 1, 2), dtype=np.int64)
    dyadics[:, 0] = np.arange(1, 2 ** next_k)
    keep = VertexTable(Lattice.concat([tower._bset, Lattice(dyadics, 2 ** next_k)]))
    bset_images = cell_images(ifs, 1, tower._bset)
    own_images = cell_images(ifs, 1, tower.table.lattice())
    copies = [(bset_images, sol.D.form, sol.r), (own_images, tower.form, sol.r),
              (own_images, tower.form, sol.r), (bset_images, sol.D.form, sol.s)]
    glued = VertexTable(Lattice.concat([keep.lattice()] + [
        Lattice(images.num[i], images.den) for i, (images, _, _) in enumerate(copies)]))
    cond: dict = {}
    start = len(keep)
    for images, form, w in copies:
        gids = glued.ids[start:start + images.shape[1]].tolist()
        start += images.shape[1]
        for (i, j), c in form.conductances.items():
            key = tuple(sorted((gids[i], gids[j])))
            cond[key] = cond.get(key, 0.0) + c / w
    return trace(FiniteForm(list(range(len(glued))), cond), list(range(len(keep))))


@pytest.mark.parametrize("lam", ["1/4", "3/16", "1/7"])
def test_array_assembly_is_bit_identical_to_dict_accumulation(lam):
    ifs = agres.make_ifs(lam)
    sol = agres.solve_r(ifs, 0.5)
    for m in range(5):
        got = level_form(sol, m).form.conductances
        assert list(got.items()) == list(dict_level_conductances(ifs, sol, m).items())
    tower = EdgeTraceTower(sol)
    for _ in range(4):
        expected = dict_refine(tower)
        tower.refine()
        assert list(tower.form.conductances.items()) == list(expected.conductances.items())


def test_tower_rejects_a_collapsed_pair(sol14, monkeypatch):
    tower = EdgeTraceTower(sol14)
    images = approx.cell_images

    def collapsed(ifs, m, pts):  # every copy of the boundary set lands on one point
        out = images(ifs, m, pts)
        out.num[...] = 0
        return out

    monkeypatch.setattr(approx, "cell_images", collapsed)
    with pytest.raises(IdentificationMismatch):
        tower.refine()


def loop_celled_energy(D, weights, vals):
    """Energy of per-cell traced copies of D, summed one table row at a time."""
    total = 0.0
    for w, row in zip(weights.tolist(), vals):
        kept = np.flatnonzero(~np.isnan(row)).tolist()
        sub = trace(D.form, kept) if len(kept) < D.n else D.form
        for (x, y), c in sub.conductances.items():
            d = row[x] - row[y]
            total += w * c * d * d
    return total


@pytest.mark.parametrize("lam", ["1/4", "3/16"])
def test_celled_energy_matches_row_loop(lam):
    ifs = agres.make_ifs(lam)
    sol = agres.solve_r(ifs, 0.5)
    geom = _level_geometry(ifs, 3)
    rng = np.random.default_rng(5)
    hnan = np.append(rng.uniform(-1, 1, geom.n_vertices), np.nan)  # id -1 reads NaN
    gids = geom.table.lookup(cell_images(ifs, 1, cell_images(ifs, 2, sol.D.bset.points)))
    weights = rng.uniform(0.5, 2.0, gids.shape[1])
    for i in range(4):
        vals = hnan[gids[i]]
        assert _celled_energy(sol.D, weights, vals) == pytest.approx(
            loop_celled_energy(sol.D, weights, vals), rel=1e-12)


class TestCornerData:
    """Corner data must be three finite values; it is checked before any solve."""

    @pytest.mark.parametrize("f", [(1.0, 0.0, 0.0, 5.0), (1.0, 0.0)])
    def test_decimation_needs_three_values(self, sol14, f):
        with pytest.raises(DomainError, match="three values"):
            decimation_identity(level_form(sol14, 1), f)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_harmonic_extension_rejects_non_finite_values(self, sol14, monkeypatch, bad):
        lf = level_form(sol14, 1)

        def no_factor(*args, **kwargs):
            raise AssertionError("a factorization started before validation")

        monkeypatch.setattr("agres.network._Factor", no_factor)
        with pytest.raises(DomainError, match="finite"):
            harmonic_extension(lf.form, {0: bad, 1: 0.0, 2: 0.0})
        with pytest.raises(DomainError, match="finite"):
            decimation_identity(lf, (1.0, bad, 0.0))

    @pytest.mark.parametrize("f", [(0.0, 0.0, math.nan), (0.0, 0.0, math.inf),
                                   (0.0, -math.inf, 0.0), (1.0, 0.0, 0.0, 5.0), (1.0, 0.0)])
    def test_gamma_diagnostic_checks_before_solving(self, monkeypatch, f):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started before validation")

        monkeypatch.setattr("agres.converge.solve_r", no_solve)
        with pytest.raises(DomainError, match="three finite values"):
            agres.gamma_diagnostic("1/4", 0.5, [3], f, m=1)
