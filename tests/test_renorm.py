"""The subdivision operator, its fixed ray, the weight solve, and preserved relations."""

import dataclasses
import functools
import itertools
import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import agres
from agres import cli, network, renorm
from agres.converge import dyadic_schedule
from agres.errors import (CapExceeded, DegenerateLimit, Disconnected, DomainError, GuardExceeded,
                          NoConvergence)
from agres.geometry import (BoundarySet, _level_geometry, boundary_set, doubling_orbit,
                            seeded_copies)
from agres.network import FiniteForm, effective_resistance, trace
from agres.renorm import (EIGEN_MAX_ITERS, EIGEN_TOL, BoundaryForm,
                          EigenResult, GlueContext, eigen_solve,
                          enumerate_preserved_relations, glue_level_one, renorm_map,
                          solve_r, symmetric_start, uniqueness_scan, _glue_context,
                          _invariant_partitions, _normalize_weights, _rel_delta)
from union_find_reference import components


def glued_vector_by_copy(ctx, cvec, weights):
    """The per-copy accumulation that ``GlueContext.glued_vector`` replaced."""
    gvec = np.zeros(ctx.n_gpairs)
    for arr, ci in zip(ctx.scatter, ctx.copies):
        w = float(weights[ci])
        if w <= 0:
            raise DomainError("weights must be positive")
        np.add.at(gvec, arr, cvec / w)
    return gvec


# -- reference enumeration: the point-pair walk and per-partition check that the
# orbit-grouping generator and the chunked union-find replaced, kept as an oracle --


def _sig_blocks(sig: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    blocks: dict[int, list[int]] = {}
    for i, b in enumerate(sig):
        blocks.setdefault(b, []).append(i)
    return tuple(tuple(v) for _, v in sorted(blocks.items()))


def _block_pairs(sig: tuple[int, ...]) -> list[tuple[int, int]]:
    """Pairs joining every element to the first element of its block."""
    first: dict[int, int] = {}
    return [(i, first.setdefault(b, i)) for i, b in enumerate(sig)]


def _close_with_group(sig: tuple[int, ...], extra: tuple[int, int],
                      perm: tuple[int, ...]) -> tuple[int, ...]:
    """Smallest group-invariant equivalence relation containing sig and the extra pair."""
    x, y = extra
    orbit = [(x, y), (perm[x], perm[y]), (perm[perm[x]], perm[perm[y]])]
    return components(len(sig), _block_pairs(sig) + orbit)


def _tilde_level_maps(ifs, bset, k):
    """Glued ids of every depth-k copy of the boundary set (boundary seeded first)."""
    def build():
        table, ids = seeded_copies(ifs, bset.points, k)
        return len(table), list(ids)

    return ifs.cached(("tilde", tuple(bset.points), k), build)


def _restricted_relation(ifs, bset, sig: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Relation induced on the boundary set by depth-k copies of the relation graph."""
    n_glued, copies = _tilde_level_maps(ifs, bset, k)
    pairs = _block_pairs(sig)
    joined = [(int(arr[i]), int(arr[j])) for arr in copies for i, j in pairs]
    # boundary ids come first, so the prefix is already numbered by first occurrence
    return components(n_glued, joined)[:bset.size]


@functools.lru_cache(maxsize=None)
def pair_walk(perm: tuple[int, ...]) -> frozenset:
    """Every rotation-invariant partition, by closing each unjoined point pair's orbit."""
    n = len(perm)
    discrete = tuple(range(n))
    seen = {discrete}
    queue = [discrete]
    while queue:
        sig = queue.pop()
        for i in range(n):
            for j in range(i + 1, n):
                if sig[i] == sig[j]:
                    continue
                new = _close_with_group(sig, (i, j), perm)
                if new not in seen:
                    seen.add(new)
                    queue.append(new)
    return frozenset(seen)


def preserved_by_pair_walk(ifs, k):
    """The preserved relations, each partition checked alone at depths 1..k."""
    bset = boundary_set(ifs)
    preserved = [_sig_blocks(sig)
                 for sig in sorted(pair_walk(bset.g_permutation))
                 if all(_restricted_relation(ifs, bset, sig, kk) == sig
                        for kk in range(1, k + 1))]
    return sorted(preserved, key=lambda blocks: (len(blocks), blocks))


def rotation(n: int) -> tuple[int, ...]:
    """The boundary set's rotation on n points: i -> i - i % 3 + (i + 1) % 3."""
    return tuple(i - i % 3 + (i + 1) % 3 for i in range(n))


def first_occurrence(labels) -> tuple[int, ...]:
    ids: dict = {}
    return tuple(ids.setdefault(x, len(ids)) for x in labels)


def invariant_by_brute_force(perm: tuple[int, ...]) -> set:
    """Every partition of 0..n-1 (restricted growth strings) that the permutation maps
    onto itself: the blocks of sig o perm are the preimages of the blocks of sig."""
    sigs = [()]
    for _ in perm:
        sigs = [sig + (b,) for sig in sigs for b in range(max(sig, default=-1) + 2)]
    return {sig for sig in sigs if first_occurrence(sig[p] for p in perm) == sig}


# the 47 lambda = p/q, q < 40, with at most 15 boundary points
SMALL_SET_LAMBDAS = sorted({Fraction(p, q) for q in range(3, 40) for p in range(1, q)
                            if 2 * p < q and len(doubling_orbit(Fraction(2 * p, q))) <= 4})


def full_start(ifs):
    return symmetric_start(boundary_set(ifs))


class TestGlue:
    def test_vertex_count_full_boundary(self, ifs14):
        D = full_start(ifs14)
        glued = glue_level_one(ifs14, D, (1.0, 1.0, 1.0, 1.0))
        assert glued.n == 4 * D.n - 6

    def test_vertex_count_without_added_copy(self, ifs14):
        D = full_start(ifs14)
        glued = glue_level_one(ifs14, D, (1.0, 1.0, 1.0))
        assert glued.n == 3 * D.n - 3

    def test_total_mass_conserved(self, ifs14):
        D = full_start(ifs14)
        glued = glue_level_one(ifs14, D, (1.0, 1.0, 1.0, 1.0))
        assert sum(glued.conductances.values()) == pytest.approx(
            4 * sum(D.form.conductances.values()), rel=1e-12)

    def test_weights_scale_copies(self, ifs14):
        D = full_start(ifs14)
        g1 = glue_level_one(ifs14, D, (1.0, 1.0, 1.0, 1.0))
        g2 = glue_level_one(ifs14, D, (2.0, 2.0, 2.0, 2.0))
        assert sum(g2.conductances.values()) == pytest.approx(
            0.5 * sum(g1.conductances.values()), rel=1e-12)

    def test_boundary_embedded_with_original_ids(self, ifs14):
        bset = boundary_set(ifs14)
        D = full_start(ifs14)
        glued = glue_level_one(ifs14, D, (1.0, 1.0, 1.0, 1.0))
        ctx = _glue_context(ifs14, bset, True)
        for i, p in enumerate(bset.points):
            assert ctx.points[i] == p

    def test_glued_form_g_symmetric_for_symmetric_input(self, ifs14):
        # the copies permute under the rotation, so total conductance toward
        # each rotated boundary vertex matches
        D = full_start(ifs14)
        glued = glue_level_one(ifs14, D, (1.0, 1.0, 1.0, 1.0))
        perm = boundary_set(ifs14).g_permutation
        strength = {}
        for (x, y), c in glued.conductances.items():
            strength[x] = strength.get(x, 0.0) + c
            strength[y] = strength.get(y, 0.0) + c
        for i in range(len(perm)):
            assert strength[i] == pytest.approx(strength[perm[i]], rel=1e-12)


    @pytest.mark.parametrize("lam", ["1/4", "1/7", "181/512"])
    def test_glued_vector_is_bit_identical_to_per_copy_accumulation(self, lam):
        ifs = agres.make_ifs(lam)
        rng = np.random.default_rng(23)
        for include_added in (True, False):
            ctx = _glue_context(ifs, boundary_set(ifs), include_added)
            for _ in range(5):
                cvec, weights = rng.uniform(0.0, 3.0, len(ctx.pairs)), rng.uniform(0.1, 2.0, 4)
                assert ctx.glued_vector(cvec, weights).tobytes() == \
                    glued_vector_by_copy(ctx, cvec, weights).tobytes()


class TestRenormMap:
    @pytest.mark.parametrize("lam", ["1/4", "1/7"])
    def test_equals_trace_of_glued_form(self, lam):
        """The glue-and-Schur path of renorm_map against the public trace."""
        ifs = agres.make_ifs(lam)
        bset = boundary_set(ifs)
        n = bset.size
        rng = np.random.default_rng(5)
        cond = {(i, j): float(rng.uniform(0.2, 5.0)) for i in range(n) for j in range(i + 1, n)}
        D = BoundaryForm(bset, list(cond.values()))
        weights = (0.8, 0.7, 0.9, 0.5)
        mapped = renorm_map(ifs, D, weights).form
        traced = trace(glue_level_one(ifs, D, weights), range(n))
        assert set(mapped.conductances) == set(traced.conductances)
        for key, c in traced.conductances.items():
            assert mapped.conductances[key] == pytest.approx(c, rel=1e-10)

    def test_classic_gasket_reduction(self, ifs14):
        D0 = BoundaryForm(BoundarySet(), np.ones(3), symmetric=True)
        out = renorm_map(ifs14, D0, (1.0, 1.0, 1.0))
        for pair in ((0, 1), (1, 2), (0, 2)):
            assert out.form.conductance(*pair) == pytest.approx(0.6, abs=1e-13)

    def test_homogeneity(self, ifs14):
        D = full_start(ifs14)
        out1 = renorm_map(ifs14, D, (1.0, 1.0, 1.0, 2.0))
        out2 = renorm_map(ifs14, D.scaled(3.0), (1.0, 1.0, 1.0, 2.0))
        for k, c in out1.form.conductances.items():
            assert out2.form.conductance(*k) == pytest.approx(3.0 * c, rel=1e-13)

    def test_monotone_in_added_weight(self, ifs14):
        D = full_start(ifs14)
        out_small = renorm_map(ifs14, D, (1.0, 1.0, 1.0, 1.0))
        out_big = renorm_map(ifs14, D, (1.0, 1.0, 1.0, 4.0))
        rng = np.random.default_rng(2)
        for _ in range(50):
            f = rng.uniform(-1, 1, size=D.n)
            assert out_big.form.energy(f) <= out_small.form.energy(f) + 1e-12

    def test_symmetry_preserved(self, ifs14):
        D = full_start(ifs14)
        out = renorm_map(ifs14, D, (1.0, 1.0, 1.0, 1.5))
        perm = out.bset.g_permutation
        pairs = [(i, j) for i in range(out.n) for j in range(i + 1, out.n)]
        c = out.vector(pairs)
        for turn in (lambda v: perm[v], lambda v: perm[perm[v]]):
            rotated = out.vector([(turn(i), turn(j)) for i, j in pairs])
            assert np.abs(c - rotated).max() <= 1e-11

    @pytest.mark.parametrize("lam", ["1/4", "1/7"])
    def test_orbit_average_matches_loop(self, lam):
        """Vectorized rotation-orbit averaging against an explicit orbit walk."""
        ifs = agres.make_ifs(lam)
        ctx = _glue_context(ifs, boundary_set(ifs), True)
        perm = ctx.bset.g_permutation
        cvec = np.random.default_rng(11).uniform(0.1, 3.0, len(ctx.pairs))
        expected = np.empty_like(cvec)
        for k, (i, j) in enumerate(ctx.pairs):
            orbit = {(i, j), tuple(sorted((perm[i], perm[j]))),
                     tuple(sorted((perm[perm[i]], perm[perm[j]])))}
            expected[k] = np.mean([cvec[ctx.pairs.index(p)] for p in orbit])
        assert ctx.symmetrize_vector(cvec) == pytest.approx(expected, rel=1e-14)
        sym = BoundaryForm(ctx.bset, cvec)
        assert sym.symmetrized().vector(ctx.pairs) == pytest.approx(expected, rel=1e-14)


class TestEigenSolve:
    @pytest.mark.parametrize("lam", ["1/4", "1/8", "3/8"])
    def test_open_circuit_gives_gasket_constant(self, lam):
        res = eigen_solve(agres.make_ifs(lam), math.inf)
        assert res.C == pytest.approx(0.6, abs=1e-10)

    def test_fixed_point_residual(self, ifs14):
        res = eigen_solve(ifs14, 1.0)
        assert res.residual <= 1e-10
        assert 0.6 < res.C < 1.0

    def test_normalized_resistance(self, ifs14):
        res = eigen_solve(ifs14, 1.0)
        assert effective_resistance(res.D.form, 0, 1) == pytest.approx(2 / 3, abs=1e-10)

    def test_rayleigh_ratios_consistent(self, ifs14):
        # the scale factor is the energy ratio at any nonconstant function
        res = eigen_solve(ifs14, 1.0)
        ctx = _glue_context(ifs14, res.D.bset, True)
        c = res.D.vector(ctx.pairs)
        raw = ctx.apply(c, (1.0, 1.0, 1.0, 1.0))
        L_raw = BoundaryForm(res.D.bset, raw)
        rng = np.random.default_rng(4)
        ratios = []
        for _ in range(1000):
            f = rng.uniform(-1, 1, size=ctx.N)
            e = res.D.form.energy(f)
            if e < 1e-9:
                continue
            ratios.append(L_raw.form.energy(f) / e)
        assert max(ratios) - min(ratios) <= 1e-8
        assert min(ratios) <= res.C <= max(ratios) or \
            abs(res.C - ratios[0]) <= 1e-8

    def test_multistart_uniqueness(self, ifs14):
        results = []
        bset = boundary_set(ifs14)
        for seed in range(10):
            start = symmetric_start(bset, np.random.default_rng(seed))
            res = eigen_solve(ifs14, 1.0, initial=start)
            results.append(res.D.vector(_glue_context(ifs14, bset, True).pairs))
        base = results[0]
        for other in results[1:]:
            assert np.abs(other - base).max() <= 1e-8

    def test_monotone_scale_factor(self, ifs14):
        grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        cs = [eigen_solve(ifs14, x).C for x in grid]
        for a, b in zip(cs, cs[1:]):
            assert b < a  # strictly decreasing
        prods = [x * c for x, c in zip(grid, cs)]
        for a, b in zip(prods, prods[1:]):
            assert b >= a - 1e-12  # nondecreasing

    def test_bad_rtilde4(self, ifs14):
        with pytest.raises(DomainError):
            eigen_solve(ifs14, -1.0)


class TestSolveR:
    def test_basic_solution(self, sol14):
        assert 0.6 <= sol14.r < 1.0
        assert sol14.residual <= 1e-8
        assert effective_resistance(sol14.D.form, 0, 1) == pytest.approx(2 / 3, abs=1e-10)
        assert sol14.theta == pytest.approx(-math.log(sol14.r) / math.log(2), abs=1e-15)
        assert abs(sol14.rtilde4 * sol14.C - sol14.s) <= 1e-10

    def test_monotone_in_s(self, ifs14):
        r_small = solve_r(ifs14, 0.2).r
        r_big = solve_r(ifs14, 0.8).r
        assert r_big < r_small

    def test_normalization_all_corner_pairs(self, sol14):
        for pair in ((0, 1), (1, 2), (0, 2)):
            assert effective_resistance(sol14.D.form, *pair) == pytest.approx(
                2 / 3, abs=1e-10)

    def test_s_domain(self, ifs14):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                solve_r(ifs14, bad)

    def test_experimental_flag(self):
        sol = solve_r(agres.make_ifs("1/7"), 0.5)
        assert sol.experimental
        assert sol.residual <= 1e-8

    def test_solution_json(self, sol14):
        obj = sol14.to_json_obj()
        assert obj["lambda"] == "1/4"
        assert set(obj) >= {"lambda", "s", "r", "C", "rtilde4", "theta",
                            "residual", "boundary_form"}


class TestUniquenessScan:
    def test_factor_profile(self, sol14):
        rows = uniqueness_scan(sol14, [sol14.r - 0.05, sol14.r, sol14.r + 0.05])
        below, at, above = rows
        assert above[1] < 1 - 1e-4
        assert below[1] > 1 + 1e-4
        assert abs(at[1] - 1.0) <= 1e-8


class TestPreservedRelations:
    @pytest.mark.parametrize("lam", ["1/4", "1/8", "1/16"])
    def test_only_trivial_for_dyadic(self, lam):
        rels = enumerate_preserved_relations(agres.make_ifs(lam), k=2)
        assert len(rels) == 2
        assert {r.is_full for r in rels} == {True, False}
        assert all(r.is_trivial for r in rels)

    def test_trivial_relations_always_preserved(self, ifs18):
        rels = enumerate_preserved_relations(ifs18)
        assert any(r.is_full for r in rels)
        assert any(r.is_empty for r in rels)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            enumerate_preserved_relations(agres.make_ifs("1/7"), guard=9)

    @pytest.mark.parametrize("lam", ["1/7", "181/512"])
    def test_guard_above_its_cap_raises_before_any_enumeration(self, lam, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("an enumeration started before the guard was checked")

        monkeypatch.setattr(renorm, "_invariant_partitions", no_enumeration)
        with pytest.raises(CapExceeded, match="^guard 25 exceeds cap 24$"):
            enumerate_preserved_relations(agres.make_ifs(lam), guard=renorm.RELATION_GUARD_CAP + 1)

    def test_nontrivial_exists_for_non_dyadic(self):
        # corners can merge without touching edge points only when no edge
        # parameter is dyadic; a documented contrast with the dyadic case
        rels = enumerate_preserved_relations(agres.make_ifs("1/7"), guard=12)
        assert any(not r.is_trivial for r in rels)

    def test_blocks_partition_the_boundary(self, ifs14):
        rels = enumerate_preserved_relations(ifs14)
        n = boundary_set(ifs14).size
        for rel in rels:
            flat = sorted(v for b in rel.blocks for v in b)
            assert flat == list(range(n))

    @pytest.mark.parametrize("lam, n", [("1/4", 6), ("1/8", 9), ("1/7", 12), ("1/5", 15)])
    def test_block_orbit_walk_matches_pair_walk(self, lam, n):
        perm = boundary_set(agres.make_ifs(lam)).g_permutation
        assert len(perm) == n
        sigs = _invariant_partitions(perm)
        assert sigs.dtype == np.int64 and sigs.shape[1] == n
        rows = set(map(tuple, sigs.tolist()))
        assert len(rows) == len(sigs)  # each partition once
        assert rows == pair_walk(tuple(perm))

    @pytest.mark.parametrize("perm", [
        rotation(6), rotation(9),
        (2, 0, 1, 5, 3, 4),           # each orbit turned the other way
        (3, 4, 5, 6, 7, 8, 0, 1, 2),  # orbits (0, 3, 6), (1, 4, 7), (2, 5, 8)
        (4, 0, 7, 8, 1, 2, 3, 5, 6),  # orbits (0, 4, 1), (2, 7, 5), (3, 8, 6)
    ])
    def test_invariant_partitions_match_brute_force(self, perm):
        sigs = _invariant_partitions(perm)
        rows = set(map(tuple, sigs.tolist()))
        assert len(rows) == len(sigs)
        assert rows == invariant_by_brute_force(perm)

    def test_brute_force_sees_every_set_partition(self):
        assert len(invariant_by_brute_force(tuple(range(9)))) == 21147  # Bell(9)

    @pytest.mark.parametrize("n, count", [(12, 268), (15, 1994), (18, 16852), (21, 158778)])
    def test_invariant_partition_counts(self, n, count):
        assert len(_invariant_partitions(rotation(n))) == count

    def test_invariant_partitions_hold_little_beyond_their_rows(self):
        # the 158,778 rows at 21 points take 26.7 MB as int64; 40 MB leaves room for
        # the recursion, not for one Python object per row (63 MB)
        tracemalloc.start()
        try:
            _invariant_partitions(rotation(21))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6, peak

    @pytest.mark.parametrize("perm", [(0, 2, 1), (0, 1, 2), (1, 2, 0, 3), (1, 2, 0, 4, 3),
                                      (1, 1, 0), (1, 2, 3)])
    def test_rotation_without_fixed_points_of_order_3(self, perm):
        with pytest.raises(DomainError):
            _invariant_partitions(perm)

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("lam, guard", [("1/7", 12), ("11/32", 15)])
    def test_chunked_check_matches_one_chunk(self, lam, guard, k, chunk, monkeypatch):
        ifs = agres.make_ifs(lam)
        monkeypatch.setattr(renorm, "RELATION_CHUNK", 10 ** 6)
        whole = enumerate_preserved_relations(ifs, k=k, guard=guard)
        monkeypatch.setattr(renorm, "RELATION_CHUNK", chunk)
        assert enumerate_preserved_relations(ifs, k=k, guard=guard) == whole

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("lam, guard", [
        ("1/4", 12), ("1/8", 12), ("1/16", 12), ("1/6", 12), ("1/7", 12), ("2/7", 12),
        ("3/16", 12), ("1/5", 15), ("11/32", 15),
    ])
    def test_batched_check_matches_per_partition_check(self, lam, guard, k):
        rels = enumerate_preserved_relations(agres.make_ifs(lam), k=k, guard=guard)
        assert [r.blocks for r in rels] == preserved_by_pair_walk(agres.make_ifs(lam), k)

    def test_only_trivial_for_dyadic_beyond_default_guard(self):
        ifs = agres.make_ifs("11/32")
        assert boundary_set(ifs).size == 15
        rels = enumerate_preserved_relations(ifs, k=2, guard=15)
        assert len(rels) == 2 and all(r.is_trivial for r in rels)

    def test_nontrivial_exists_for_non_dyadic_beyond_default_guard(self):
        rels = enumerate_preserved_relations(agres.make_ifs("1/5"), guard=15)
        assert any(not r.is_trivial for r in rels)

    @pytest.mark.parametrize("lam", SMALL_SET_LAMBDAS, ids=str)
    def test_depth_one_fixed_points_are_fixed_at_every_depth(self, lam, monkeypatch):
        # Phi_k = Phi_1 o Phi_(k-1), so depth 1 settles every depth
        depths = []

        def spy(ifs, pts, m, words=None):
            depths.append(m)
            return seeded_copies(ifs, pts, m, words)

        monkeypatch.setattr(renorm, "seeded_copies", spy)
        ifs = agres.make_ifs(lam)
        rels = [enumerate_preserved_relations(ifs, k=k, guard=15) for k in (1, 2, 3)]
        assert rels[0] == rels[1] == rels[2] and depths == [1]
        bset = boundary_set(ifs)
        for rel in rels[0]:
            sig = [0] * bset.size
            for b, block in enumerate(rel.blocks):
                for i in block:
                    sig[i] = b
            assert all(_restricted_relation(ifs, bset, tuple(sig), k) == tuple(sig)
                       for k in (1, 2, 3))

    @pytest.mark.parametrize("k", [0, -1])
    def test_depth_below_one_is_a_domain_error(self, k):
        with pytest.raises(DomainError):
            enumerate_preserved_relations(agres.make_ifs("1/4"), k=k)


def test_corner_only_form_with_added_copy_disconnects(ifs14):
    # the added copy touches the others only at edge points, which a
    # corner-only form does not carry, so its copy floats free
    D0 = BoundaryForm(BoundarySet(), np.ones(3), symmetric=True)
    with pytest.raises(Disconnected):
        renorm_map(ifs14, D0, (1.0, 1.0, 1.0, 1.0))


def test_cell_multipliers(ifs14):
    geom = _level_geometry(ifs14, 3)
    r, s = 0.7, 0.5
    expected = [math.prod(1 / s if c == 4 else 1 / r for c in word)
                for word in itertools.product((1, 2, 3, 4), repeat=3)]
    assert geom.cell_multipliers(r, s).tolist() == pytest.approx(expected, rel=1e-14)


def test_weight_solve_emits_no_condition_warning(ifs14):
    with warnings.catch_warnings():
        warnings.simplefilter("error", agres.ConditionWarning)
        for s in (0.02, 0.98):
            assert solve_r(ifs14, s).residual <= 1e-8


def test_solve_extreme_added_weights(ifs14):
    # the solve stays inside [3/5, 1) across the whole admissible range
    for s in (0.01, 0.99):
        sol = solve_r(ifs14, s)
        assert 0.6 <= sol.r < 1.0
        assert sol.residual <= 1e-8


# -- the fixed ray against the plain power iteration ---------------------------------


def power_eigen_solve(ifs, rtilde4, tol=EIGEN_TOL, max_iters=EIGEN_MAX_ITERS,
                      initial=None, bset=None):
    """The power iteration ``eigen_solve`` ran before its chord phase, kept verbatim."""
    if rtilde4 is not None and not math.isinf(rtilde4) and rtilde4 <= 0:
        raise DomainError("rtilde4 must be positive or inf")
    bset = bset if bset is not None else boundary_set(ifs)
    ws, include_added = _normalize_weights((1.0, 1.0, 1.0, rtilde4))
    ctx = _glue_context(ifs, bset, include_added)

    if initial is not None:
        if initial.n != ctx.N:
            raise DomainError("initial form lives on a different boundary set")
        c = initial.vector(ctx.pairs)
    else:
        c = np.ones(len(ctx.pairs))
    c = ctx.normalized(c)

    delta = math.inf
    iters = 0
    for iters in range(1, max_iters + 1):
        new = ctx.normalized(ctx.apply(c, ws))
        delta = _rel_delta(new, c)
        c = new
        if delta < tol:
            break
    else:
        raise NoConvergence(f"no fixed profile after {max_iters} iterations (delta={delta:.3e})")

    if not ctx.connected(c):
        raise DegenerateLimit("limit form is disconnected")

    raw = ctx.apply(c, ws)
    C = ctx.energy_at_p1_indicator(raw) / ctx.energy_at_p1_indicator(c)
    floor = 1e-15 * max(1.0, float(c.max()))
    residual = float(np.max(np.abs(raw - C * c) / np.maximum(np.abs(C * c), floor)))
    if not (0.6 - 1e-9 <= C < 1.0):
        raise DegenerateLimit(f"scale factor {C!r} escapes [3/5, 1)")

    D = BoundaryForm(bset, c, symmetric=True)
    return EigenResult(float(rtilde4), float(C), D, iters, delta, residual)


GRID_CASES = [(lam, s) for lam in ("1/4", "1/8", "3/8", "5/16", "3/16") for s in (0.2, 0.5, 0.8)]
# boundary sets of 6 to 27 points
SOLVE_LAMBDAS = ("1/4", "1/7", "11/32", "45/128", "91/256", "181/512")
SQRT8_LAMBDAS = tuple(str(lam) for _, lam in dyadic_schedule("1/sqrt8", range(4, 11)).entries)


def ray_vector(res):
    n = res.D.n
    return res.D.vector(list(zip(*np.triu_indices(n, 1))))


@pytest.mark.parametrize("lam,x", GRID_CASES + [(lam, x) for lam in SOLVE_LAMBDAS + SQRT8_LAMBDAS
                                                 for x in (0.5, 0.5 / 0.58, math.inf)])
def test_chord_matches_power_oracle(lam, x):
    ifs = agres.make_ifs(lam)
    res, oracle = eigen_solve(ifs, x), power_eigen_solve(ifs, x)
    assert res.C == pytest.approx(oracle.C, rel=1e-9)
    assert ray_vector(res) == pytest.approx(ray_vector(oracle), rel=1e-9, abs=1e-12)
    assert res.delta < EIGEN_TOL and res.residual <= 1e-10


@pytest.mark.parametrize("lam", ["1/7", "11/32", "181/512"])
@pytest.mark.parametrize("x", [0.7, math.inf])
def test_jacobian_matches_central_differences(lam, x):
    ifs = agres.make_ifs(lam)
    bset = boundary_set(ifs)
    ctx = _glue_context(ifs, bset, not math.isinf(x))
    weights = (1.0, 1.0, 1.0, x)
    rep = ctx.orbit_pairs[0]
    # a positive symmetric point off the fixed ray
    z = ray_vector(eigen_solve(ifs, x))[rep]
    z = (z + 0.1 * z.mean()) * np.random.default_rng(3).uniform(0.8, 1.2, len(rep))
    y, X = ctx.trace(z[ctx.orbit_ids], weights)
    J = ctx.jacobian(X, y, weights)

    def T(v):  # the loop's map, e0_normalized(apply(.)), on one value per pair orbit
        return ctx.e0_normalized(ctx.apply(v[ctx.orbit_ids], weights))[rep]

    fd = np.empty_like(J)
    for k in range(len(z)):
        step = np.zeros_like(z)
        step[k] = 1e-6 * z[k]
        fd[:, k] = (T(z + step) - T(z - step)) / (2 * step[k])
    assert J.shape == (len(ctx.pairs) // 3,) * 2
    assert np.abs(J - fd).max() <= 1e-5 * np.abs(fd).max()


@pytest.mark.parametrize("lam", ["1/7", "181/512"])
def test_weight_jacobian_matches_central_differences(lam):
    ifs = agres.make_ifs(lam)
    ctx = _glue_context(ifs, boundary_set(ifs), True)
    x, s, rep = 0.7, 0.5, ctx.orbit_pairs[0]
    # a positive symmetric point off the fixed ray, not E0-normalized
    z = ray_vector(eigen_solve(ifs, x))[rep]
    z = (z + 0.1 * z.mean()) * np.random.default_rng(5).uniform(0.8, 1.2, len(rep))
    c = z[ctx.orbit_ids]
    y, X = ctx.trace(c, (1.0, 1.0, 1.0, x))
    A = ctx.weight_jacobian(X, y, c, (1.0, 1.0, 1.0, x))

    def G(v):  # (T(z) - z, x * C - s) at v = (z, x)
        z, x = v[:-1], v[-1]
        y = ctx.apply(z[ctx.orbit_ids], (1.0, 1.0, 1.0, x))
        C = ctx.energy_at_p1_indicator(y) / ctx.energy_at_p1_indicator(z[ctx.orbit_ids])
        return np.append(ctx.e0_normalized(y)[rep] - z, x * C - s)

    v, fd = np.append(z, x), np.empty_like(A)
    for k in range(len(v)):
        step = np.zeros_like(v)
        step[k] = 1e-6 * v[k]
        fd[:, k] = (G(v + step) - G(v - step)) / (2 * step[k])
    n = len(rep)
    assert A.shape == (n + 1, n + 1)
    assert np.abs(A[:, n] - fd[:, n]).max() <= 1e-6 * np.abs(fd[:, n]).max()  # the x column
    assert np.abs(A[n] - fd[n]).max() <= 1e-6 * np.abs(fd[n]).max()           # the weight row
    J = ctx.jacobian(X, y, (1.0, 1.0, 1.0, x))
    assert np.abs(A[:n, :n] + np.eye(n) - J).max() <= 1e-13 * np.abs(J).max()


@pytest.mark.parametrize("wrong", [
    lambda n: 3.0 * np.eye(n),
    lambda n: np.random.default_rng(8).normal(0.0, 2.0, (n, n)),
    lambda n: np.full((n, n), math.nan),
])
@pytest.mark.parametrize("lam", ["1/7", "181/512"])
def test_wrong_jacobian_falls_back_to_the_power_ray(monkeypatch, lam, wrong):
    ifs = agres.make_ifs(lam)
    monkeypatch.setattr(GlueContext, "jacobian", lambda self, X, y, w: wrong(len(self.pairs) // 3))
    res, oracle = eigen_solve(ifs, 0.7), power_eigen_solve(ifs, 0.7)
    assert res.jacobians >= 1  # a chord phase ran, then handed back
    assert res.C == pytest.approx(oracle.C, rel=1e-9)
    assert ray_vector(res) == pytest.approx(ray_vector(oracle), rel=1e-9, abs=1e-12)


def test_chord_counts_map_applications(ifs14):
    ifs = agres.make_ifs("181/512")
    res = eigen_solve(ifs, 0.7)
    assert res.jacobians >= 1
    assert res.iterations < power_eigen_solve(ifs, 0.7).iterations
    with pytest.raises(NoConvergence):  # max_iters caps both phases
        eigen_solve(ifs, 0.7, max_iters=res.iterations - 1)
    sol = solve_r(ifs14, 0.5)
    assert sol.jacobians >= 1
    assert "jacobians" not in sol.to_json_obj()


def count_calls(monkeypatch, cls, name):
    """Wrap ``cls.name`` so that every call appends its arguments to the returned list."""
    calls, method = [], getattr(cls, name)

    def spy(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(cls, name, spy)
    return calls


@pytest.mark.parametrize("lam,x", [("1/7", 0.7), ("181/512", 0.7), ("181/512", 1e-3),
                                   ("11/32", 2.0)])
def test_each_step_factors_the_glued_interior_once(monkeypatch, lam, x):
    ifs = agres.make_ifs(lam)
    schurs = count_calls(monkeypatch, GlueContext, "_schur")
    potentials = count_calls(monkeypatch, GlueContext, "_unit_potential")
    res = eigen_solve(ifs, x)
    assert res.jacobians >= 1
    assert len(schurs) == res.iterations + 1  # one per step, one for the closing application
    assert len(potentials) == 1               # the single rescale to corner resistance 2/3


def test_weight_solve_factors_once_per_application(monkeypatch):
    ifs = agres.make_ifs("181/512")
    schurs = count_calls(monkeypatch, GlueContext, "_schur")
    sol = solve_r(ifs, 0.5)
    assert sol.jacobians >= 1
    assert len(schurs) == sol.power_iterations + 2


def test_sqrt8_schedule_map_applications():
    sols = [solve_r(agres.make_ifs(lam), 0.5)
            for _, lam in dyadic_schedule("1/sqrt8", range(4, 11)).entries]
    # measured 96 map applications and 7 Jacobians, with about 15 % of slack
    assert sum(sol.power_iterations for sol in sols) <= 110
    assert sum(sol.jacobians for sol in sols) <= 8
    for sol in sols:  # rescaled once, on exit, to corner resistance 2/3
        for pair in ((0, 1), (1, 2), (0, 2)):
            assert effective_resistance(sol.D.form, *pair) == pytest.approx(2 / 3, abs=1e-8)


@pytest.mark.parametrize("lam", ["1/7", "181/512"])
def test_jacobian_from_the_steps_trace_matches_a_fresh_one(monkeypatch, lam):
    ifs = agres.make_ifs(lam)
    ctx = _glue_context(ifs, boundary_set(ifs), True)
    traced, built, jacobian = count_calls(monkeypatch, GlueContext, "trace"), [], ctx.jacobian

    def spy(self, X, y, weights):  # the point the step traced, and the Jacobian built there
        built.append((traced[-1][0], jacobian(X, y, weights)))
        return built[-1][1]

    monkeypatch.setattr(GlueContext, "jacobian", spy)
    assert eigen_solve(ifs, 0.7).jacobians == len(built) >= 1
    weights = (1.0, 1.0, 1.0, 0.7)
    for c, J in built:
        S, _, X = ctx._schur(ctx.glued_vector(c, weights))
        fresh = jacobian(X, renorm._pair_conductances(S, ctx.pair_i, ctx.pair_j)[0], weights)
        assert np.abs(J - fresh).max() <= 1e-13 * np.abs(fresh).max()


@pytest.mark.parametrize("lam", SQRT8_LAMBDAS)
def test_glued_laplacian_matches_the_pair_laplacian(monkeypatch, lam):
    ifs = agres.make_ifs(lam)
    ctx = _glue_context(ifs, boundary_set(ifs), True)
    c, weights, seen = ray_vector(eigen_solve(ifs, 0.7)), (1.0, 1.0, 1.0, 0.7), []
    monkeypatch.setattr(renorm, "_schur", lambda L, nk: seen.append(L) or network._schur(L, nk))
    ctx.apply(c, weights)
    gvec = ctx.glued_vector(c, weights)
    expected = network._laplacian(ctx.n_glued, ctx.gpair_a, ctx.gpair_b, gvec)
    assert seen == [pytest.approx(expected, rel=1e-15, abs=0.0)]


@pytest.mark.parametrize("lam", ["1/7", "3/16", "181/512"])
def test_tiny_added_weight_converges(lam):
    res = eigen_solve(agres.make_ifs(lam), 1e-3)
    assert res.delta < EIGEN_TOL and res.residual <= 1e-10
    assert 0.6 <= res.C < 1.0


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_nan_or_negative_infinite_weight_is_a_domain_error(ifs14, sol14, bad):
    ctx = _glue_context(ifs14, boundary_set(ifs14), True)
    with pytest.raises(DomainError):
        eigen_solve(ifs14, bad)
    with pytest.raises(DomainError):
        renorm_map(ifs14, full_start(ifs14), (1.0, 1.0, 1.0, bad))
    with pytest.raises(DomainError):
        renorm_map(ifs14, full_start(ifs14), (1.0, bad, 1.0, 1.0))
    with pytest.raises(DomainError):
        ctx.glued_vector(np.ones(len(ctx.pairs)), (1.0, 1.0, 1.0, bad))
    with pytest.raises(DomainError):
        uniqueness_scan(sol14, [bad])


def test_non_finite_change_stops_at_once(monkeypatch, ifs14):
    calls = []
    monkeypatch.setattr(renorm, "_rel_delta", lambda new, old: calls.append(1) or math.nan)
    with pytest.raises(NoConvergence):
        eigen_solve(ifs14, 1.0)
    assert len(calls) == 1


def test_boundary_form_holds_a_read_only_copy_of_its_vector():
    c = np.array([1.0, 2.0, -1.0])
    D = BoundaryForm(BoundarySet(), c)
    c[0] = 5.0
    assert D.c.tolist() == [1.0, 2.0, 0.0]
    with pytest.raises(ValueError):
        D.c[0] = 3.0
    assert D.form is D.form
    assert dict(D.form.conductances) == {(0, 1): 1.0, (0, 2): 2.0}
    assert D.vector([(1, 0), (2, 0), (1, 2)]).tolist() == [1.0, 2.0, 0.0]
    with pytest.raises(DomainError, match="needs 3 pair values"):
        BoundaryForm(BoundarySet(), np.ones(5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_boundary_form_pair_values_must_be_finite(bad):
    with pytest.raises(DomainError, match="pair values must be finite"):
        BoundaryForm(BoundarySet(), np.array([1.0, bad, 1.0]))


def test_weights_need_three_or_four_entries():
    with pytest.raises(DomainError, match="weights must have 3 or 4 entries"):
        _normalize_weights((1.0, 1.0))


def test_weight_solve_builds_no_finite_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a FiniteForm was built")

    ifs = agres.make_ifs("11/32")
    monkeypatch.setattr(FiniteForm, "from_arrays", refuse)
    res = eigen_solve(ifs, 1.0)
    sol = solve_r(ifs, 0.5)
    uniqueness_scan(sol, [sol.r])
    monkeypatch.undo()
    assert effective_resistance(res.D.form, 0, 1) == pytest.approx(2 / 3, abs=1e-10)


def test_initial_form_on_another_boundary_set_is_a_domain_error(ifs14, sol14):
    with pytest.raises(DomainError, match="different boundary set"):
        eigen_solve(agres.make_ifs("1/7"), 1.0, initial=sol14.D)


def test_none_is_the_open_circuit(ifs14):
    res = eigen_solve(ifs14, None)
    assert res.rtilde4 == math.inf
    assert res.C == eigen_solve(ifs14, math.inf).C == pytest.approx(0.6, abs=1e-10)


# -- the weight solve against a reference bisection ----------------------------------


BRACKET_EXPANSIONS = 60


def bisection_solve(ifs, s, eigen_tol=1e-12, bisect_tol=1e-10,
                    max_iters=renorm.EIGEN_MAX_ITERS):
    """The bisection ``solve_r`` ran before the Brent root finder: (rtilde4, r)."""
    bset = boundary_set(ifs)
    warm = None

    def value(x):
        nonlocal warm
        res = power_eigen_solve(ifs, x, tol=eigen_tol, max_iters=max_iters, initial=warm,
                                bset=bset)
        warm = res.D
        return x * res.C - s, res

    lo, hi = s, s / 0.58
    glo, _ = value(lo)
    for _ in range(BRACKET_EXPANSIONS):
        if glo <= 0:
            break
        lo *= 0.5
        glo, _ = value(lo)
    else:
        raise NoConvergence("could not bracket from below")
    ghi, res_hi = value(hi)
    for _ in range(BRACKET_EXPANSIONS):
        if ghi >= 0:
            break
        hi *= 2.0
        ghi, res_hi = value(hi)
    else:
        raise NoConvergence("could not bracket from above")

    mid, res_mid = hi, res_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gmid, res_mid = value(mid)
        if abs(gmid) <= bisect_tol:
            break
        if gmid < 0:
            lo = mid
        else:
            hi = mid
    else:
        raise NoConvergence("bisection did not reach tolerance")
    return mid, res_mid.C


@pytest.mark.parametrize("lam,s", GRID_CASES + [(lam, 0.5) for lam in SOLVE_LAMBDAS[1:]])
def test_brent_matches_bisection(lam, s):
    ifs = agres.make_ifs(lam)
    sol = solve_r(ifs, s)
    rtilde4, r = bisection_solve(ifs, s)
    assert sol.rtilde4 == pytest.approx(rtilde4, rel=1e-9)
    assert sol.r == pytest.approx(r, rel=1e-9)
    assert abs(sol.rtilde4 * sol.C - s) <= 1e-10
    assert sol.residual <= 1e-8


@pytest.mark.parametrize("lam,s", GRID_CASES + [(lam, 0.5) for lam in SQRT8_LAMBDAS]
                         # at 181/512, s = 1e-4 a fixed-weight solve at x = s stalls on
                         # rounding noise and raises NoConvergence; the joint solve does not
                         + [("1/7", 1e-4), ("181/512", 1e-4)])
def test_joint_solve_certifies_without_the_fallback(monkeypatch, lam, s):
    calls, real = [], renorm.eigen_solve

    def spy(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(renorm, "eigen_solve", spy)
    sol = solve_r(agres.make_ifs(lam), s)
    [res] = calls
    assert (res.rtilde4, res.C, res.iterations) == (sol.rtilde4, sol.C, sol.power_iterations)
    assert s <= sol.rtilde4 <= s / 0.58 and abs(sol.rtilde4 * sol.C - s) <= renorm.BISECT_TOL
    assert res.delta < EIGEN_TOL and sol.residual <= 1e-8


@pytest.mark.parametrize("lam,s", [("1/7", 0.05), ("1/7", 0.95), ("3/7", 0.05), ("1/9", 0.95)])
def test_joint_solve_matches_bisection_at_extreme_weights(lam, s):
    ifs = agres.make_ifs(lam)
    sol = solve_r(ifs, s)
    rtilde4, r = bisection_solve(ifs, s)
    assert sol.r == pytest.approx(r, rel=1e-9)
    # the oracle stops at |g| <= 1e-10, which leaves x about 2e-9 relative at s = 0.05
    assert sol.rtilde4 == pytest.approx(rtilde4, abs=1e-9)


def joint_solve_failing(failure):
    """``eigen_solve`` with its joint mode patched to fail its certificate in one of the
    three ways ``solve_r`` checks; fixed-weight calls are left as they are."""
    real = renorm.eigen_solve

    def patched(ifs, x, s=None, **kwargs):
        if s is None:
            return real(ifs, x, **kwargs)
        if failure == "raises":
            raise NoConvergence("patched joint solve")
        res = real(ifs, x, s=s, **kwargs)
        if failure == "misses":  # |x C - s| far above tolerance
            return dataclasses.replace(res, rtilde4=1.01 * res.rtilde4)
        x = 1.01 * s / 0.58      # g = 0, but outside the bracket
        return dataclasses.replace(res, rtilde4=x, C=s / x)
    return patched


@pytest.mark.parametrize("failure", ["raises", "misses", "leaves"])
@pytest.mark.parametrize("lam,s", [("1/4", 0.5), ("1/7", 0.3)])
def test_uncertified_weight_solve_exits_3(monkeypatch, capsys, tmp_path, lam, s, failure):
    monkeypatch.setattr(renorm, "eigen_solve", joint_solve_failing(failure))
    with pytest.raises(NoConvergence):
        solve_r(agres.make_ifs(lam), s)
    assert cli.main(["solve", "--lambda", lam, "--s", str(s), "--out", str(tmp_path)]) == 3
    obj = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert obj["error"]["type"] == "NoConvergence"


@pytest.mark.parametrize("lam", ["1/4", "1/7", "181/512"])
def test_unreachable_weight_tolerance_stops_promptly(lam):
    # |x C - s| <= 0 holds only where rounding gives exactly 0: the loop either lands
    # there or stops once x cannot move, long before max_iters
    ifs = agres.make_ifs(lam)
    try:
        res = eigen_solve(ifs, 0.7, s=0.5, s_tol=0.0)
    except NoConvergence as exc:
        assert "stalls" in str(exc)
    else:
        assert res.rtilde4 * res.C - 0.5 == pytest.approx(0.0, abs=1e-15)
        assert res.iterations <= 100


# -- the uniqueness scan and the residuals against the formulas they replaced ---------


def loop_uniqueness_scan(ifs, s, sol, r_values, steps=200):
    """The fixed-ray loop ``uniqueness_scan`` ran before it read ``eigen_solve``, kept verbatim."""
    bset = sol.D.bset
    ctx = _glue_context(ifs, bset, include_added=True)
    out = []
    for rp in r_values:
        if not rp > 0:
            raise DomainError("corner weights must be positive")
        c = sol.D.vector(ctx.pairs)
        tail: list[float] = []
        for _ in range(steps):
            raw = ctx.apply(c, (rp, rp, rp, s))
            tail.append(ctx.energy_at_p1_indicator(raw) / ctx.energy_at_p1_indicator(c))
            c = ctx.normalized(raw)
        out.append((float(rp), float(np.mean(tail[-5:]))))
    return out


@pytest.mark.parametrize("lam", ["1/4", "1/7", "3/16", "181/512"])
def test_uniqueness_scan_matches_the_loop(lam):
    ifs = agres.make_ifs(lam)
    sol = solve_r(ifs, 0.5)
    rvals = [sol.r + d for d in (-0.1, -0.05, -0.02, 0.0, 0.02, 0.05, 0.1)]
    rows, oracle = uniqueness_scan(sol, rvals), loop_uniqueness_scan(ifs, 0.5, sol, rvals)
    assert [rp for rp, _ in rows] == rvals
    assert [f for _, f in rows] == pytest.approx([f for _, f in oracle], rel=1e-12)


@pytest.mark.parametrize("s", [0.3, 0.5])
def test_uniqueness_scan_reads_one_at_the_solved_weight(ifs14, s):
    # the scan takes s from the solution, so it cannot pair a form with another s
    sol = solve_r(ifs14, s)
    [(rp, factor)] = uniqueness_scan(sol, [sol.r])
    assert rp == sol.r
    assert factor == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf])
def test_uniqueness_scan_needs_a_finite_positive_weight(sol14, bad):
    with pytest.raises(DomainError):
        uniqueness_scan(sol14, [bad])


def inline_residual(raw, C, c):
    """The residual formula ``eigen_solve`` (and, with C = 1, ``solve_r``) wrote out,
    kept verbatim."""
    floor = 1e-15 * max(1.0, float(c.max()))
    return float(np.max(np.abs(raw - C * c) / np.maximum(np.abs(C * c), floor)))


@pytest.mark.parametrize("lam", SQRT8_LAMBDAS)
def test_residuals_match_the_inline_formula(lam):
    ifs = agres.make_ifs(lam)
    sol = solve_r(ifs, 0.5)
    ctx = _glue_context(ifs, sol.D.bset, True)
    cvec = sol.D.vector(ctx.pairs)
    raw = ctx.apply(cvec, (sol.r, sol.r, sol.r, sol.s))
    assert _rel_delta(raw, cvec) == inline_residual(raw, 1, cvec) == sol.residual
    res = eigen_solve(ifs, sol.rtilde4)
    c = ray_vector(res)
    raw = ctx.apply(c, (1.0, 1.0, 1.0, sol.rtilde4))
    assert _rel_delta(raw, res.C * c) == inline_residual(raw, res.C, c) == res.residual
