"""Finite-network algebra: traces, harmonic extensions, resistances, resolvents."""

import ctypes
import itertools
import math
import sys
import types
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import agres
from agres import network
from agres.errors import (BadMeasure, BadTarget, ConditionWarning, Disconnected,
                          DomainError, MismatchedVertexSets, NegativeConductance,
                          SingularInterior)
from agres.network import (FiniteForm, _components, _Factor, effective_resistance,
                           form_comparison, harmonic_extension, resistance_matrix,
                           resolvent, trace, triangle_form)
from union_find_reference import components as components_reference


def random_connected_form(rng, n, extra_edges=None):
    """Random spanning tree plus extra edges, uniform conductances in [0.1, 10]."""
    verts = list(range(n))
    cond = {}
    order = verts[:]
    rng.shuffle(order)
    for i in range(1, n):
        a = order[i]
        b = order[rng.integers(0, i)]
        cond[(min(a, b), max(a, b))] = float(rng.uniform(0.1, 10.0))
    m = extra_edges if extra_edges is not None else n
    for _ in range(m):
        a, b = rng.integers(0, n, size=2)
        if a == b:
            continue
        key = (min(int(a), int(b)), max(int(a), int(b)))
        cond[key] = float(rng.uniform(0.1, 10.0))
    return FiniteForm(verts, cond)


def resistance_matrix_pinv(form):
    """Oracle: all-pairs resistances through the Moore-Penrose pseudoinverse."""
    L = form.laplacian_dense()
    G = np.linalg.pinv(L)
    d = np.diag(G)
    return d[:, None] + d[None, :] - 2 * G


class TestTrace:
    def test_star_to_triangle(self):
        star = FiniteForm(["a", "b", "c", "o"],
                          {("a", "o"): 1.0, ("b", "o"): 1.0, ("c", "o"): 1.0})
        tri = trace(star, ["a", "b", "c"])
        for x, y in itertools.combinations("abc", 2):
            assert tri.conductance(x, y) == pytest.approx(1 / 3, abs=1e-15)

    def test_keep_everything_is_identity(self):
        rng = np.random.default_rng(0)
        form = random_connected_form(rng, 6)
        out = trace(form, list(range(6)))
        assert out.conductances == pytest.approx(form.conductances)

    def test_energy_of_trace_is_minimum_over_extensions(self):
        # Monte-Carlo minimization oracle plus the exact minimizer
        rng = np.random.default_rng(42)
        form = random_connected_form(rng, 10)
        keep = [0, 3, 7, 9]
        traced = trace(form, keep)
        f = {v: float(rng.uniform(-1, 1)) for v in keep}
        target = traced.energy([f[v] for v in keep])

        interior = [v for v in form.vertices if v not in keep]
        L = form.laplacian_dense(keep + interior)
        fk = np.array([f[v] for v in keep])
        samples = rng.uniform(-2.0, 2.0, size=(100_000, len(interior)))
        full = np.hstack([np.broadcast_to(fk, (samples.shape[0], len(keep))), samples])
        energies = np.einsum("ij,jk,ik->i", full, L, full)
        assert energies.min() >= target - 1e-9
        h = harmonic_extension(form, f)
        hv = np.array([h[v] for v in keep + interior])
        assert hv @ L @ hv == pytest.approx(target, abs=1e-9)

    def test_trace_tower(self):
        rng = np.random.default_rng(3)
        form = random_connected_form(rng, 12)
        v1 = [0, 2, 4, 6, 8, 10]
        v0 = [0, 4, 8]
        once = trace(form, v0)
        twice = trace(trace(form, v1), v0)
        for x, y in itertools.combinations(v0, 2):
            assert twice.conductance(x, y) == pytest.approx(once.conductance(x, y), abs=1e-10)

    def test_resistance_preserved_by_trace(self):
        rng = np.random.default_rng(7)
        form = random_connected_form(rng, 9)
        keep = [1, 3, 5, 8]
        traced = trace(form, keep)
        for x, y in itertools.combinations(keep, 2):
            assert effective_resistance(traced, x, y) == pytest.approx(
                effective_resistance(form, x, y), abs=1e-10)

    def test_disconnected_rejected(self):
        form = FiniteForm([0, 1, 2, 3], {(0, 1): 1.0, (2, 3): 1.0})
        with pytest.raises(Disconnected):
            trace(form, [0, 2])


class TestHarmonicExtension:
    def test_constant_data_extends_constant(self):
        rng = np.random.default_rng(1)
        form = random_connected_form(rng, 8)
        h = harmonic_extension(form, {0: 2.5, 5: 2.5})
        assert all(v == pytest.approx(2.5, abs=1e-12) for v in h.values())
        assert form.energy(h) == pytest.approx(0.0, abs=1e-12)

    def test_two_hop_path(self):
        path = FiniteForm(["a", "o", "b"], {("a", "o"): 1.0, ("b", "o"): 1.0})
        h = harmonic_extension(path, {"a": 0.0, "b": 1.0})
        assert h["o"] == pytest.approx(0.5, abs=1e-15)
        assert path.energy(h) == pytest.approx(0.5, abs=1e-15)

    def test_matches_trace_energy(self):
        rng = np.random.default_rng(9)
        form = random_connected_form(rng, 11)
        keep = [0, 1, 6]
        f = {v: float(rng.uniform(-1, 1)) for v in keep}
        h = harmonic_extension(form, f)
        traced = trace(form, keep)
        assert form.energy(h) == pytest.approx(
            traced.energy([f[v] for v in keep]), abs=1e-10)


class TestEffectiveResistance:
    def test_unit_triangle(self):
        tri = triangle_form(1.0)
        assert effective_resistance(tri, 0, 1) == pytest.approx(2 / 3, abs=1e-15)

    def test_single_conductance(self):
        form = FiniteForm([0, 1], {(0, 1): 4.0})
        assert effective_resistance(form, 0, 1) == pytest.approx(0.25, abs=1e-15)

    def test_set_target_matches_merged_two_point(self):
        rng = np.random.default_rng(13)
        form = random_connected_form(rng, 10)
        val = effective_resistance(form, 0, {7, 8, 9})
        # grounding a superset can only decrease the resistance
        assert val <= effective_resistance(form, 0, 7) + 1e-12
        with pytest.raises(BadTarget):
            effective_resistance(form, 7, {7, 8})

    def test_metric_axioms(self):
        rng = np.random.default_rng(17)
        form = random_connected_form(rng, 7)
        R = resistance_matrix(form)
        assert np.abs(R - R.T).max() <= 1e-12
        n = form.n
        for i, j, k in itertools.permutations(range(n), 3):
            assert R[i, j] <= R[i, k] + R[k, j] + 1e-12
        for i, j in itertools.combinations(range(n), 2):
            assert R[i, j] > 0
            assert R[i, j] == pytest.approx(
                effective_resistance(form, i, j), abs=1e-12)

    def test_matrix_matches_pinv_oracle(self):
        rng = np.random.default_rng(23)
        form = random_connected_form(rng, 8)
        assert resistance_matrix(form) == pytest.approx(
            resistance_matrix_pinv(form), abs=1e-10)


class TestFormComparison:
    def test_identical_forms(self):
        tri = triangle_form(2.0)
        lo, hi = form_comparison(tri, tri)
        n = 3
        assert lo == pytest.approx(2 / (n * (n - 1)))
        assert hi == pytest.approx(n * (n - 1) / 2)

    def test_scaling(self):
        rng = np.random.default_rng(29)
        f1 = random_connected_form(rng, 5)
        f2 = f1.scaled(2.0)
        lo, hi = form_comparison(f1, f2)
        fs = rng.uniform(-1, 1, size=(1000, 5))
        e1 = np.array([f1.energy(f) for f in fs])
        e2 = np.array([f2.energy(f) for f in fs])
        assert np.all(e2 >= lo * e1 - 1e-12)
        assert np.all(e2 <= hi * e1 + 1e-12)

    def test_sandwich_on_random_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(3, 7))
            f1 = random_connected_form(rng, n)
            f2 = random_connected_form(rng, n)
            lo, hi = form_comparison(f1, f2)
            fs = rng.uniform(-1, 1, size=(1000, n))
            L1 = f1.laplacian_dense()
            L2 = f2.laplacian_dense()
            e1 = np.einsum("ij,jk,ik->i", fs, L1, fs)
            e2 = np.einsum("ij,jk,ik->i", fs, L2, fs)
            assert np.all(e2 >= lo * e1 - 1e-10)
            assert np.all(e2 <= hi * e1 + 1e-10)

    def test_mismatched_vertices(self):
        with pytest.raises(MismatchedVertexSets):
            form_comparison(triangle_form(1.0), triangle_form(1.0, ids=(5, 6, 7)))


TRI = triangle_form(1.0)


@pytest.mark.parametrize("call,error,message", [
    (lambda: trace(TRI, []), DomainError, "keep set must be nonempty"),
    (lambda: trace(TRI, [0, 9]), DomainError, "keep set contains unknown vertices: [9]"),
    (lambda: harmonic_extension(TRI, {}), DomainError, "boundary data must be nonempty"),
    (lambda: harmonic_extension(TRI, {0: 1.0, 9: 0.0}), DomainError,
     "boundary contains unknown vertices: [9]"),
    (lambda: effective_resistance(TRI, 9, 0), DomainError, "unknown vertex 9"),
    (lambda: effective_resistance(TRI, 0, [1, 9]), DomainError,
     "unknown target vertices: [9]"),
    (lambda: network._dipole_resistances(TRI, [(0, 9)]), DomainError, "unknown vertex 9"),
    (lambda: form_comparison(FiniteForm([0], {}), FiniteForm([0], {})), DomainError,
     "need at least two vertices"),
    (lambda: TRI.energy([1.0, 2.0]), DomainError, "function has shape (2,), expected (3,)"),
    (lambda: FiniteForm("abc", {("a", "b"): math.nan, ("b", "c"): 1.0}), DomainError,
     "non-finite conductance on ('a','b')"),
    (lambda: FiniteForm("abc", {("a", "b"): 1.0, ("b", "c"): math.inf}), DomainError,
     "non-finite conductance on ('b','c')"),
    (lambda: FiniteForm.from_arrays(range(3), [0], [2], [-math.inf]), DomainError,
     "non-finite conductance on (0,2)"),
    (lambda: network._pair_conductances(np.array([[1.0, 0.5], [0.5, 1.0]]),
                                        np.array([0]), np.array([1])),
     NegativeConductance, "reduction produced conductance -5.000e-01 on pair (0, 1)"),
])
def test_input_checks(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_degenerate_inputs_that_are_not_errors():
    assert harmonic_extension(TRI, {0: 1, 1: 2.5, 2: 0}) == {0: 1.0, 1: 2.5, 2: 0.0}
    single = resistance_matrix(FiniteForm(["x"], {}))
    assert single.shape == (1, 1) and single[0, 0] == 0.0


class TestResolvent:
    def test_single_vertex(self):
        form = FiniteForm([0], {})
        kernel = resolvent(form, [1.0], 2.0)
        assert kernel.matrix[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_two_vertices_exact(self):
        form = FiniteForm([0, 1], {(0, 1): 1.0})
        kernel = resolvent(form, [0.5, 0.5], 2.0)
        assert kernel.matrix[0, 0] == pytest.approx(2 / 3, abs=1e-14)
        assert kernel.matrix[0, 1] == pytest.approx(1 / 3, abs=1e-14)
        assert kernel.row_mass_error() <= 1e-14

    def test_identities_on_random_instances(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            form = random_connected_form(rng, n)
            masses = rng.uniform(0.2, 1.0, size=n)
            masses /= masses.sum()
            alpha = float(rng.uniform(0.1, 5.0))
            kernel = resolvent(form, masses, alpha)
            assert np.array_equal(kernel.matrix, kernel.matrix.T)
            assert kernel.row_mass_error() <= 1e-10

    def test_holder_bound(self):
        rng = np.random.default_rng(41)
        form = random_connected_form(rng, 9)
        masses = np.full(9, 1 / 9)
        kernel = resolvent(form, masses, 1.5)
        R = resistance_matrix(form)
        for x, y1, y2 in itertools.permutations(range(9), 3):
            lhs = (kernel.matrix[x, y1] - kernel.matrix[x, y2]) ** 2
            assert lhs <= R[y1, y2] * kernel.matrix[x, x] + 1e-12

    def test_bad_measures(self):
        form = FiniteForm([0, 1], {(0, 1): 1.0})
        with pytest.raises(BadMeasure):
            resolvent(form, [0.5, 0.6], 1.0)
        with pytest.raises(BadMeasure):
            resolvent(form, [1.1, -0.1], 1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(BadMeasure):
                resolvent(form, [bad, 0.5], 1.0)
            with pytest.raises(BadMeasure):
                resolvent(form, [0.5, bad], 1.0)
        for alpha in (0.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                resolvent(form, [0.5, 0.5], alpha)

    def test_symmetry_error_is_the_asymmetry_before_averaging(self, monkeypatch):
        class SkewedFactor(_Factor):
            def solve(self, rhs):
                U = super().solve(rhs)
                U[0, 1] += 1e-9 * max(1.0, np.abs(U).max())
                return U

        form = random_connected_form(np.random.default_rng(43), 6)
        assert resolvent(form, np.full(6, 1 / 6), 1.0).symmetry_error() <= 1e-15
        monkeypatch.setattr(network, "_Factor", SkewedFactor)
        with pytest.warns(ConditionWarning, match="resolvent asymmetry"):
            kernel = resolvent(form, np.full(6, 1 / 6), 1.0)
        assert kernel.symmetry_error() == pytest.approx(1e-9, rel=1e-6)
        assert np.array_equal(kernel.matrix, kernel.matrix.T)

    @pytest.mark.parametrize("alpha", [1e-20, 1e-300])
    def test_numerically_singular_shift_raises(self, alpha):
        # The factorization passes by rounding; the row masses then miss 1/alpha.
        form = random_connected_form(np.random.default_rng(40), 5)
        with pytest.raises(SingularInterior):
            resolvent(form, np.full(5, 1 / 5), alpha)


@given(st.lists(st.floats(-5, 5), min_size=5, max_size=5))
@settings(max_examples=100, deadline=None)
def test_markov_property(values):
    form = FiniteForm(list(range(5)), {(0, 1): 1.0, (1, 2): 0.5, (2, 3): 2.0,
                                       (3, 4): 1.5, (0, 4): 0.25, (1, 3): 0.75})
    f = np.array(values)
    clipped = np.clip(f, 0.0, 1.0)
    assert form.energy(clipped) <= form.energy(f) + 1e-12


def test_serialization_roundtrip():
    form = FiniteForm([0, 1, 2], {(0, 1): 1.5, (1, 2): 2.5})
    csv = form.to_csv()
    assert csv.splitlines()[0] == "x_id,y_id,conductance"
    assert "0,1,1.5" in csv
    obj = form.to_json_obj()
    assert obj["vertices"] == [0, 1, 2]
    assert {(e["x"], e["y"]): e["c"] for e in obj["edges"]} == {(0, 1): 1.5, (1, 2): 2.5}


@pytest.mark.parametrize("seed", [0, 3, 7, 9, 13, 42])
def test_sparse_branch_matches_dense(monkeypatch, seed):
    """With the dense limit at 0 every solve takes the sparse LU branch."""
    rng = np.random.default_rng(seed)
    form = random_connected_form(rng, 12)
    keep = [0, 3, 7, 9]
    data = {v: float(rng.uniform(-1, 1)) for v in keep}

    def run():
        return (trace(form, keep), harmonic_extension(form, data),
                [effective_resistance(form, 1, t) for t in (5, 11, {7, 8, 9})])

    dense = run()
    monkeypatch.setattr(network, "DENSE_LIMIT", 0)
    sparse = run()
    assert set(sparse[0].conductances) == set(dense[0].conductances)
    for key, c in dense[0].conductances.items():
        assert sparse[0].conductances[key] == pytest.approx(c, rel=1e-10, abs=1e-10)
    for v in form.vertices:
        assert sparse[1][v] == pytest.approx(dense[1][v], abs=1e-10)
    assert sparse[2] == pytest.approx(dense[2], rel=1e-10)


def partition_oracle(n, pairs):
    """Block ids by first occurrence from the boolean transitive closure."""
    reach = np.eye(n, dtype=bool)
    for x, y in pairs:
        reach[x, y] = reach[y, x] = True
    for k in range(n):
        reach |= reach[:, [k]] & reach[[k], :]
    ids = {}
    return tuple(ids.setdefault(int(np.argmax(reach[i])), len(ids)) for i in range(n))


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=12))))
@settings(max_examples=300, deadline=None)
def test_components_match_brute_force_partition(case):
    n, pairs = case
    result = _components(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    assert result.dtype == np.int64
    assert tuple(result) == partition_oracle(n, pairs)


@st.composite
def graphs(draw):
    """Up to 300 vertices: random edges (self-loops and repeats allowed), none at all,
    or a path through the vertices in random order."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["random", "none", "path"]))
    if kind == "none":
        return n, []
    if kind == "path":
        order = draw(st.permutations(range(n)))
        return n, list(zip(order, order[1:]))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    pairs += [(v, v) for v in draw(st.lists(vertex, max_size=5))]  # self-loops
    if pairs:  # repeated edges
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=20))
    return n, pairs


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_components_match_python_union_find(case):
    n, pairs = case
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    assert tuple(_components(n, edges).tolist()) == components_reference(n, pairs)


def test_components_of_a_long_shuffled_path():
    """A path of 5,000 vertices numbered at random takes many hooking rounds."""
    order = np.random.default_rng(7).permutation(5000)
    pairs = list(zip(order[:-1].tolist(), order[1:].tolist()))
    result = _components(5000, np.array(pairs))
    assert not result.any()
    assert tuple(result.tolist()) == components_reference(5000, pairs)


def test_pivot_ratio_warning_on_dense_trace_only(monkeypatch):
    """An ill-conditioned interior warns on the dense Cholesky path, as before;
    the sparse LU path records no pivot ratio and stays silent."""
    form = FiniteForm([0, 1, 2, 3], {(0, 1): 1e-7, (1, 2): 1e7, (2, 3): 1e-7, (0, 3): 1.0})
    with pytest.warns(ConditionWarning, match="pivot ratio"):
        dense = trace(form, [0, 3])
    monkeypatch.setattr(network, "DENSE_LIMIT", 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConditionWarning)
        sparse = trace(form, [0, 3])
    # the interior is ill-conditioned on purpose, so the two paths agree less closely
    assert sparse.conductance(0, 3) == pytest.approx(dense.conductance(0, 3), rel=1e-6)


@pytest.mark.parametrize("block", [np.zeros((2, 2)), sp.csc_matrix((2, 2))])
def test_singular_block_raises_singular_interior(block):
    with pytest.raises(SingularInterior):
        _Factor(block)


# -- the array constructor against the dict accumulation it replaced ----------------


class DictAccumulatedForm:
    """FiniteForm's constructor as a dict accumulation loop, kept as the reference."""

    def __init__(self, vertices, conductances):
        self.vertices = list(vertices)
        self._pos = {v: i for i, v in enumerate(self.vertices)}
        if len(self._pos) != len(self.vertices):
            raise DomainError("duplicate vertex ids")
        self.conductances = {}
        for (x, y), c in conductances.items():
            if x == y:
                raise DomainError("self-loops are not allowed")
            if x not in self._pos or y not in self._pos:
                raise DomainError(f"edge ({x!r},{y!r}) references unknown vertex")
            c = float(c)
            if c < 0:
                raise DomainError(f"negative conductance on ({x!r},{y!r})")
            if c == 0.0:
                continue
            key = network._pair(x, y)
            self.conductances[key] = self.conductances.get(key, 0.0) + c
        pos = self._pos
        self._a = np.array([pos[x] for x, _ in self.conductances], dtype=np.int64)
        self._b = np.array([pos[y] for _, y in self.conductances], dtype=np.int64)
        self._c = np.fromiter(self.conductances.values(), float, len(self.conductances))


class Contributions:
    """A list of ((x, y), c) contributions, duplicate keys allowed, read through items()."""

    def __init__(self, rows):
        self.rows = rows

    def items(self):
        return self.rows


def built(make):
    """The edges of a constructed form, or the message of the DomainError it raised."""
    try:
        form = make()
    except DomainError as exc:
        return str(exc)
    return list(form.conductances.items()), form._a.tolist(), form._b.tolist(), form._c.tolist()


ids = st.one_of(st.integers(-3, 12), st.text("abxyz", min_size=1, max_size=2))


@st.composite
def contribution_lists(draw):
    """Vertex ids (int, str or mixed) and contributions on them: duplicate pairs in
    both orientations and zeros always, and in some examples a repeated vertex id,
    a self-loop, an unknown id or a negative contribution."""
    def sometimes():
        return draw(st.sampled_from([False, False, False, False, True]))

    verts = draw(st.lists(ids, min_size=2, max_size=6, unique=True))
    if sometimes():
        verts.append(draw(st.sampled_from(verts)))
    pool = verts + [draw(ids.filter(lambda v: v not in verts))] if sometimes() else verts
    loops, negatives = sometimes(), sometimes()
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        x = draw(st.sampled_from(pool))
        y = draw(st.sampled_from(pool if loops else [v for v in pool if v != x]))
        c = draw(st.one_of(st.floats(0.1, 10.0), st.sampled_from([0.0, -0.0, 2.0]),
                           st.just(-1.5) if negatives else st.just(1.0)))
        rows.append(((x, y), c))
    return verts, rows


@given(contribution_lists())
@settings(max_examples=300, deadline=None)
def test_mapping_constructor_matches_dict_accumulation(case):
    verts, rows = case
    mapping = dict(rows)
    assert built(lambda: FiniteForm(verts, mapping)) == \
        built(lambda: DictAccumulatedForm(verts, mapping))


@given(contribution_lists())
@settings(max_examples=300, deadline=None)
def test_from_arrays_matches_dict_accumulation(case):
    verts, rows = case
    pos = {v: i for i, v in enumerate(verts)}
    rows = [((x, y), w) for (x, y), w in rows if x in pos and y in pos]
    a = [pos[x] for (x, _), _ in rows]
    b = [pos[y] for (_, y), _ in rows]
    c = [w for _, w in rows]
    assert built(lambda: FiniteForm.from_arrays(verts, a, b, c)) == \
        built(lambda: DictAccumulatedForm(verts, Contributions(rows)))


def test_from_arrays_rejects_positions_out_of_range():
    with pytest.raises(DomainError, match="unknown vertex"):
        FiniteForm.from_arrays(["a", "b"], [0, 1], [1, 2], [1.0, 1.0])
    with pytest.raises(DomainError, match="unknown vertex"):
        FiniteForm.from_arrays(["a", "b"], [-1], [1], [1.0])


def test_string_id_serialization_is_unchanged():
    form = FiniteForm(["o", "b", "a", "c", "d"],
                      {("o", "a"): 1.0, ("b", "o"): 2.5, ("a", "b"): 0.5, ("c", "o"): 1 / 3,
                       ("o", "b"): 0.25, ("d", "c"): 0.0})
    assert form.to_csv() == ("x_id,y_id,conductance\na,b,0.5\na,o,1\nb,o,2.75\n"
                             "c,o,0.33333333333333331\n")
    assert form.to_json() == (
        '{"edges": [{"c": 0.5, "x": "a", "y": "b"}, {"c": 1.0, "x": "a", "y": "o"}, '
        '{"c": 2.75, "x": "b", "y": "o"}, {"c": 0.3333333333333333, "x": "c", "y": "o"}], '
        '"vertices": ["o", "b", "a", "c", "d"]}')


class TestOneBlasThread:
    """The cap on scipy's and numpy's OpenBLAS pools, with the libraries and the
    environment faked."""

    @staticmethod
    def pools(monkeypatch):
        calls = {"scipy": [], "numpy": []}
        monkeypatch.setattr(network, "_openblas_threads",
                            lambda: [(lambda: 2, calls[name].append) for name in calls])
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        return calls

    def test_sets_one_thread(self, monkeypatch):
        calls = self.pools(monkeypatch)
        network._one_blas_thread.__wrapped__()
        assert calls == {"scipy": [1], "numpy": [1]}

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                      "OMP_NUM_THREADS"])
    def test_an_openblas_variable_is_honoured(self, monkeypatch, name):
        calls = self.pools(monkeypatch)
        monkeypatch.setenv(name, "2")
        network._one_blas_thread.__wrapped__()
        assert calls == {"scipy": [], "numpy": []}

    def test_no_pool_is_left_alone(self, monkeypatch):
        self.pools(monkeypatch)
        monkeypatch.setattr(network, "_openblas_threads", lambda: [])
        network._one_blas_thread.__wrapped__()

    @pytest.mark.parametrize("library", [None, object()])
    def test_unfindable_library_gives_no_pool(self, monkeypatch, library):
        def load(*args, **kwargs):
            if library is None:
                raise OSError("not loaded")
            return library
        monkeypatch.setattr(ctypes, "CDLL", load)
        assert network._openblas_threads() == []

    @pytest.mark.parametrize("symbol", ["scipy_openblas_set_num_threads64_",
                                        "openblas_set_num_threads64_",
                                        "scipy_openblas_set_num_threads",
                                        "openblas_set_num_threads"])
    def test_each_symbol_spelling_is_found(self, monkeypatch, symbol):
        class Library:
            def __init__(self, path, mode):
                self.path = path

            def __getattr__(self, name):
                if name not in (symbol, symbol.replace("_set_", "_get_")):
                    raise AttributeError(name)
                return types.SimpleNamespace(name=name, path=self.path)

            __getitem__ = __getattr__

        monkeypatch.setattr(ctypes, "CDLL", Library)
        pools = network._openblas_threads()
        assert [(get.name, set_.name) for get, set_ in pools] == \
            [(symbol.replace("_set_", "_get_"), symbol)] * 2
        assert {set_.path for _, set_ in pools} == {
            sys.modules["scipy.linalg._flapack"].__file__,
            sys.modules["numpy.linalg._umath_linalg"].__file__}
