"""Finite resistance forms as weighted graphs.

A form is a symmetric nonnegative conductance map on a connected vertex
set; its energy is sum over unordered pairs of c * (f(x) - f(y))^2.  A
``FiniteForm`` stores it as an edge list of three arrays (two vertex
positions and a conductance per distinct pair); the pair-keyed mapping
``conductances`` is a read-only view built from them on first use.  The
operations here are the classical electrical-network toolkit: Schur
complement traces, harmonic extension, effective resistances (two point
and point-to-set), energy comparison factors, and resolvent kernels with
respect to a probability measure on the vertices.

scipy is imported through ``_scipy`` only, on first use: ``scipy.linalg`` by a dense
factorization, ``scipy.sparse`` by an interior block above ``DENSE_LIMIT``.  Once
``scipy.linalg`` is loaded, the OpenBLAS pools behind its LAPACK and behind numpy
run on one thread (see ``_one_blas_thread``).
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import itertools
import json
import os
import sys
import warnings
from dataclasses import dataclass
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (BadMeasure, BadTarget, ConditionWarning, Disconnected,
                     DomainError, MismatchedVertexSets, NegativeConductance,
                     SingularInterior)

VertexId = Hashable
DUST = 1e-13           # magnitude below which a negative Schur by-product is numerical dust
DENSE_LIMIT = 1600     # interior larger than this switches to sparse elimination
PIVOT_RATIO_WARN = 1e12
ROW_MASS_TOL = 1e-8    # largest relative row-mass error alpha * |U m - 1/alpha| of a resolvent


@functools.cache
def _scipy(name: str):
    """The module ``scipy.<name>``, imported once, on its first use.  Any import
    that finds ``scipy.linalg`` loaded also caps the BLAS pools."""
    module = importlib.import_module(f"scipy.{name}")
    if "scipy.linalg" in sys.modules:
        _one_blas_thread()
    return module


@functools.cache
def _one_blas_thread() -> None:
    """Run scipy's and numpy's OpenBLAS pools on one thread, unless an OpenBLAS
    variable in the environment sets their thread count.  The dense blocks factored
    and multiplied here are small (about 80 x 80 in a weight solve); a second
    thread only spins on them."""
    if not any(os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                           "OMP_NUM_THREADS")):
        for _, set_threads in _openblas_threads():
            set_threads(1)


def _openblas_threads() -> list:
    """The get and set thread-count functions of each OpenBLAS pool found behind
    scipy's LAPACK and numpy's linear algebra (their wheels bundle one each, with
    the symbol suffix "64_" in numpy's).  A pool is missing where there is none to
    find: an MKL or Accelerate build, or a platform without ``dlopen``."""
    from numpy.linalg import _umath_linalg
    from scipy.linalg import _flapack
    pools = []
    for module in (_flapack, _umath_linalg):
        try:  # a handle's symbol lookup also searches the libraries it links
            lib = ctypes.CDLL(module.__file__, mode=os.RTLD_NOLOAD)
        except (AttributeError, OSError):
            continue
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("", "64_")):
            if hasattr(lib, f"{prefix}_set_num_threads{suffix}"):
                get_threads = lib[f"{prefix}_get_num_threads{suffix}"]
                set_threads = lib[f"{prefix}_set_num_threads{suffix}"]
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                pools.append((get_threads, set_threads))
                break
    return pools


def _pair(x: VertexId, y: VertexId) -> tuple[VertexId, VertexId]:
    """Canonical unordered pair key."""
    try:
        return (x, y) if x < y else (y, x)
    except TypeError:
        return (x, y) if repr(x) < repr(y) else (y, x)


def numbered(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct keys by first occurrence.

    Returns the index of every distinct key's first occurrence, in id
    order, and the id of every key.
    """
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.reshape(-1)]


def _components(n: int, edges: np.ndarray) -> np.ndarray:
    """Connected components of vertices 0..n-1 joined by the rows of an (E, 2) edge array:
    the block id of every vertex, blocks numbered by first occurrence.  Each round hooks
    the larger root of every edge spanning two roots under the smaller, then jumps
    pointers until each vertex points at its root, always its block's least vertex."""
    a, b = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    parent = np.arange(n)
    while True:
        ra, rb = parent[a], parent[b]
        span = ra != rb
        if not span.any():
            return (np.cumsum(parent == np.arange(n)) - 1)[parent]
        np.minimum.at(parent, np.maximum(ra, rb)[span], np.minimum(ra, rb)[span])
        jumped = parent[parent]
        while (jumped != parent).any():
            parent, jumped = jumped, jumped[jumped]


def _laplacian(n: int, a: np.ndarray, b: np.ndarray, c: np.ndarray,
               sparse: bool = False) -> Union[np.ndarray, "scipy.sparse.csc_matrix"]:
    """Weighted Laplacian of n vertices with conductance c[k] on the pair (a[k], b[k]).

    The pairs must be distinct and carry no self-loops.
    """
    if sparse:
        ij = np.concatenate([a, b, a, b]), np.concatenate([b, a, a, b])
        return _scipy("sparse").csc_matrix((np.concatenate([-c, -c, c, c]), ij), shape=(n, n))
    L = np.zeros((n, n))
    L[a, b] = -c
    L[b, a] = -c
    L.flat[::n + 1] = np.bincount(a, c, n) + np.bincount(b, c, n)
    return L


def _dense(M) -> np.ndarray:
    return M if isinstance(M, np.ndarray) else M.toarray()


class _Factor:
    """Factorization of a positive definite block: sparse LU of a sparse block,
    dense Cholesky (with its pivot ratio recorded) of a dense one.  A failed
    factorization raises SingularInterior."""

    def __init__(self, A):
        self.pivot_ratio: Optional[float] = None
        if not isinstance(A, np.ndarray):
            try:
                self._lu = _scipy("sparse.linalg").splu(A.tocsc())
            except RuntimeError as exc:
                raise SingularInterior(f"interior block factorization failed: {exc}") from exc
        else:
            cho, info = _scipy("linalg.lapack").dpotrf(A, lower=False, clean=False)
            if info != 0:
                raise SingularInterior(f"interior block factorization failed (info={info})")
            d = np.diag(cho)
            self.pivot_ratio = (d.max() / d.min()) ** 2
            self._cho = cho

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.pivot_ratio is None:
            return self._lu.solve(rhs)
        return _scipy("linalg.lapack").dpotrs(self._cho, rhs)[0]


def _schur(L, nk: int) -> tuple[np.ndarray, _Factor, np.ndarray]:
    """Schur complement of the trailing interior block onto the first nk indices, the
    block's factor, and X = L_II^-1 L_IB, so that [I; -X] is the harmonic extension."""
    fac = _Factor(L[nk:, nk:])
    L_ki = L[:nk, nk:]
    X = fac.solve(_dense(L_ki.T))
    return _dense(L[:nk, :nk]) - L_ki @ X, fac, X


def _pair_conductances(S: np.ndarray, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, float]:
    """Conductances of the pairs (i[k], j[k]) read off a Schur complement.

    A value below minus the dust level raises NegativeConductance; smaller
    negative dust is clipped to zero.  Returns the values and the dust level.
    """
    c = -0.5 * (S[i, j] + S[j, i])
    dust = DUST * max(1.0, float(np.abs(S).max()))
    bad = np.flatnonzero(c < -dust)
    if bad.size:
        k = bad[0]
        raise NegativeConductance(
            f"reduction produced conductance {c[k]:.3e} on pair ({i[k]}, {j[k]})")
    return np.maximum(c, 0.0), dust


class FiniteForm:
    """A resistance form on a finite vertex set, stored as an edge list.

    ``_a`` and ``_b`` hold the vertex positions of every distinct unordered
    pair, oriented as ``_pair`` orders their ids, and ``_c`` its positive
    conductance, pairs in order of first occurrence; every Laplacian is built
    from these arrays.  ``from_arrays`` validates and sums contributions; the
    mapping constructor only maps pair keys to positions for it.
    ``conductances`` is a read-only {id pair: conductance} view in edge order,
    built on first use.  Forms are not modified after construction.
    """

    def __init__(self, vertices: Sequence[VertexId],
                 conductances: Mapping[tuple[VertexId, VertexId], float]):
        vertices = list(vertices)
        pos = {v: i for i, v in enumerate(vertices)}  # unknown ids go past the end
        ab = [[pos.setdefault(v, len(pos)) for v in key] for key in conductances]
        c = np.fromiter(map(float, conductances.values()), float, len(ab))
        a, b = np.array(ab, dtype=np.int64).reshape(-1, 2).T
        self._assemble(vertices, a, b, c, list(pos))

    @classmethod
    def from_arrays(cls, vertices: Sequence[VertexId], a, b, c) -> "FiniteForm":
        """The form with contribution c[k] on the vertex positions (a[k], b[k]).

        Zero contributions are dropped, the contributions to one pair (in either
        orientation) are added in input order, and pairs are numbered by first
        occurrence, as a dict accumulation would do it.
        """
        form = cls.__new__(cls)
        form._assemble(vertices, a, b, c)
        return form

    def _assemble(self, vertices: Sequence[VertexId], a, b, c, names: Optional[list] = None):
        ranged = isinstance(vertices, range)  # distinct, increasing ids: nothing to check
        self.vertices, n = list(vertices), len(vertices)
        vertices = self.vertices
        if not ranged:
            self._pos = {v: i for i, v in enumerate(vertices)}
            if len(self._pos) != n:
                raise DomainError("duplicate vertex ids")
        a, b, c = np.asarray(a, np.int64), np.asarray(b, np.int64), np.asarray(c, float)
        loop, unknown = a == b, (np.minimum(a, b) < 0) | (np.maximum(a, b) >= n)
        nonfinite = ~np.isfinite(c)
        bad = np.flatnonzero(loop | unknown | nonfinite | (c < 0))
        if bad.size:
            k, names = bad[0], names or vertices
            x, y = (names[p] if 0 <= p < len(names) else p for p in (int(a[k]), int(b[k])))
            raise DomainError("self-loops are not allowed" if loop[k] else
                              f"edge ({x!r},{y!r}) references unknown vertex" if unknown[k] else
                              f"non-finite conductance on ({x!r},{y!r})" if nonfinite[k] else
                              f"negative conductance on ({x!r},{y!r})")
        live = c != 0.0
        lo, hi = np.minimum(a[live], b[live]), np.maximum(a[live], b[live])
        first, ids = numbered(lo * n + hi)
        lo, hi = lo[first], hi[first]
        try:  # ids increasing under < are ordered by position, as _pair orders them
            ascending = ranged or all(x < y for x, y in zip(vertices, vertices[1:]))
        except TypeError:
            ascending = False
        if not ascending:
            flip = np.array([_pair(vertices[x], vertices[y])[0] is not vertices[x]
                             for x, y in zip(lo.tolist(), hi.tolist())], dtype=bool)
            lo, hi = np.where(flip, hi, lo), np.where(flip, lo, hi)
        self._a, self._b, self._c = lo, hi, np.bincount(ids, c[live], len(first))

    @functools.cached_property
    def _pos(self) -> dict[VertexId, int]:
        """Position of every vertex id, built on first use."""
        return {v: i for i, v in enumerate(self.vertices)}

    @functools.cached_property
    def conductances(self) -> Mapping[tuple[VertexId, VertexId], float]:
        vs = self.vertices
        return MappingProxyType({(vs[x], vs[y]): c for x, y, c in zip(
            self._a.tolist(), self._b.tolist(), self._c.tolist())})

    # -- basic queries ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def conductance(self, x: VertexId, y: VertexId) -> float:
        return self.conductances.get(_pair(x, y), 0.0)

    def energy(self, f: Union[Mapping[VertexId, float], Sequence[float], np.ndarray]) -> float:
        vals = self._as_array(f)
        d = vals[self._a] - vals[self._b]
        return float(np.dot(self._c, d * d))

    def _as_array(self, f) -> np.ndarray:
        if isinstance(f, Mapping):
            return np.array([float(f[v]) for v in self.vertices])
        arr = np.asarray(f, dtype=float)
        if arr.shape != (self.n,):
            raise DomainError(f"function has shape {arr.shape}, expected ({self.n},)")
        return arr

    @functools.cached_property
    def _connected(self) -> bool:
        return self.n > 0 and not _components(self.n, np.column_stack([self._a, self._b])).any()

    def is_connected(self) -> bool:
        return self._connected

    def require_connected(self) -> None:
        if not self.is_connected():
            raise Disconnected("support graph is disconnected")

    def scaled(self, a: float) -> "FiniteForm":
        return FiniteForm.from_arrays(self.vertices, self._a, self._b, a * self._c)

    def _edges_in(self, order: Optional[Sequence[VertexId]]) -> tuple[np.ndarray, np.ndarray]:
        """The edge endpoints as positions in the given ordering of all the vertices."""
        if order is None:
            return self._a, self._b
        pos = np.empty(self.n, dtype=np.int64)
        pos[[self._pos[v] for v in order]] = np.arange(len(order))
        return pos[self._a], pos[self._b]

    def laplacian_dense(self, order: Sequence[VertexId] | None = None) -> np.ndarray:
        return _laplacian(self.n, *self._edges_in(order), self._c)

    def _laplacian_first(self, first: Sequence[VertexId]) -> tuple:
        """Laplacian with the given vertices first and the rest after them in vertex
        order, plus that rest.  It is sparse when the rest, the block that gets
        factored, exceeds DENSE_LIMIT vertices, and dense otherwise."""
        firstset = set(first)
        rest = [v for v in self.vertices if v not in firstset]
        order = list(first) + rest
        return _laplacian(self.n, *self._edges_in(order), self._c, len(rest) > DENSE_LIMIT), rest

    # -- serialization -----------------------------------------------------------

    def _sorted_edges(self) -> list:
        return sorted(self.conductances.items(), key=lambda e: (repr(e[0][0]), repr(e[0][1])))

    def to_csv(self) -> str:
        rows = [f"{x},{y},{c:.17g}\n" for (x, y), c in self._sorted_edges()]
        return "x_id,y_id,conductance\n" + "".join(rows)

    def to_json_obj(self) -> dict:
        def plain(v):
            return v if isinstance(v, (int, str)) else repr(v)

        return {"vertices": [plain(v) for v in self.vertices],
                "edges": [{"x": plain(x), "y": plain(y), "c": c}
                          for (x, y), c in self._sorted_edges()]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    def __repr__(self) -> str:
        return f"FiniteForm({self.n} vertices, {len(self._c)} conductances)"


def trace(form: FiniteForm, keep: Iterable[VertexId]) -> FiniteForm:
    """Form induced on a vertex subset by minimizing energy over extensions.

    This is the Schur complement of the interior block of the weighted
    Laplacian; it preserves effective resistances between kept vertices
    and is again a resistance form.
    """
    keep = list(dict.fromkeys(keep))
    if not keep:
        raise DomainError("keep set must be nonempty")
    missing = [v for v in keep if v not in form._pos]
    if missing:
        raise DomainError(f"keep set contains unknown vertices: {missing[:3]}")
    form.require_connected()
    if len(keep) == form.n:
        return FiniteForm.from_arrays(keep, *form._edges_in(keep), form._c)
    L, _ = form._laplacian_first(keep)
    S, fac, _ = _schur(L, len(keep))
    if fac.pivot_ratio is not None and fac.pivot_ratio > PIVOT_RATIO_WARN:
        warnings.warn(f"interior pivot ratio {fac.pivot_ratio:.3g} exceeds {PIVOT_RATIO_WARN:g}",
                      ConditionWarning, stacklevel=2)
    i, j = np.triu_indices(len(keep), 1)
    c, dust = _pair_conductances(S, i, j)
    live = c > dust
    return FiniteForm.from_arrays(keep, i[live], j[live], c[live])


def harmonic_extension(form: FiniteForm, boundary: Mapping[VertexId, float]) -> dict[VertexId, float]:
    """The unique energy-minimizing extension of boundary data to all vertices."""
    if not boundary:
        raise DomainError("boundary data must be nonempty")
    missing = [v for v in boundary if v not in form._pos]
    if missing:
        raise DomainError(f"boundary contains unknown vertices: {missing[:3]}")
    out = {v: float(boundary[v]) for v in boundary}
    if not np.isfinite(list(out.values())).all():
        raise DomainError("boundary values must be finite")
    form.require_connected()
    nb = len(out)
    if nb == form.n:
        return out
    L, interior = form._laplacian_first(list(out))
    fb = np.array(list(out.values()))
    L_ii = L[nb:, nb:]
    rhs = -(L[nb:, :nb] @ fb)
    h = _Factor(L_ii).solve(rhs)
    resid = np.abs(L_ii @ h - rhs).max()
    scale = max(1.0, np.abs(fb).max()) * max(1.0, form._c.max())
    if resid > 1e-12 * scale * max(1.0, len(interior)):
        warnings.warn(f"harmonic system residual {resid:.3e}", ConditionWarning, stacklevel=2)
    for v, val in zip(interior, h):
        out[v] = float(val)
    return out


def effective_resistance(form: FiniteForm, x: VertexId,
                         target: Union[VertexId, Iterable[VertexId]]) -> float:
    """Effective resistance from a vertex to a vertex or to a grounded set."""
    if x not in form._pos:
        raise DomainError(f"unknown vertex {x!r}")
    tset = set(target) if isinstance(target, (list, set, frozenset)) else {target}
    missing = [v for v in tset if v not in form._pos]
    if missing:
        raise DomainError(f"unknown target vertices: {missing[:3]}")
    if x in tset:
        raise BadTarget("source vertex lies in the target set")
    form.require_connected()
    # grounding the target set deletes its rows and columns from the Laplacian
    L, rest = form._laplacian_first(list(tset))
    nt = len(tset)
    e = np.zeros(len(rest))
    k = rest.index(x)
    e[k] = 1.0
    return float(_Factor(L[nt:, nt:]).solve(e)[k])


def _dipole_resistances(form: FiniteForm, pairs: Sequence[tuple[VertexId, VertexId]]) -> np.ndarray:
    """Effective resistances between vertex pairs: one factorization grounded at the
    first vertex, then one unit-dipole solve per pair."""
    for v in {v for pair in pairs for v in pair}:
        if v not in form._pos:
            raise DomainError(f"unknown vertex {v!r}")
    form.require_connected()
    L, rest = form._laplacian_first(form.vertices[:1])
    E = np.zeros((len(rest), len(pairs)))
    for k, (x, y) in enumerate(pairs):
        for v, sign in ((x, 1.0), (y, -1.0)):
            if form._pos[v]:  # the grounded vertex has no row
                E[form._pos[v] - 1, k] += sign
    return np.einsum("ik,ik->k", E, _Factor(L[1:, 1:]).solve(E))


def resistance_matrix(form: FiniteForm) -> np.ndarray:
    """All-pairs effective resistances via the grounded inverse (one factorization)."""
    form.require_connected()
    n = form.n
    if n == 1:
        return np.zeros((1, 1))
    L = form.laplacian_dense()
    G = _Factor(L[:-1, :-1]).solve(np.eye(n - 1))  # grounded at the last vertex
    R = np.zeros((n, n))
    d = np.diag(G)
    R[:-1, :-1] = d[:, None] + d[None, :] - 2 * G
    R[-1, :-1] = R[:-1, -1] = d
    return R


def form_comparison(form1: FiniteForm, form2: FiniteForm) -> tuple[float, float]:
    """Two-sided energy comparison factors from the extreme resistance ratios.

    Returns (lower, upper) with lower * E1(f) <= E2(f) <= upper * E1(f):
    lower = 2/(N(N-1)) * min R1/R2 and upper = N(N-1)/2 * max R1/R2 over
    distinct vertex pairs.
    """
    if set(form1.vertices) != set(form2.vertices):
        raise MismatchedVertexSets("forms are defined on different vertex sets")
    n = form1.n
    if n < 2:
        raise DomainError("need at least two vertices")
    R1 = resistance_matrix(form1)
    perm = [form2._pos[v] for v in form1.vertices]
    R2 = resistance_matrix(form2)[np.ix_(perm, perm)]
    i, j = np.triu_indices(n, 1)
    ratios = R1[i, j] / R2[i, j]
    pairs = n * (n - 1) / 2
    return (float(ratios.min()) / pairs, float(ratios.max()) * pairs)


@dataclass
class ResolventKernel:
    """Symmetric kernel of (L + alpha * M)^-1 with masses M summing to one.

    ``resolvent`` solves U and stores 0.5 * (U + U.T) as ``matrix``, so
    ``matrix[x, y] == matrix[y, x]`` exactly.  ``agres resolvent``'s CSV writer
    relies on it: the (x, y) and the (y, x) line carry the same text, and it
    refuses a matrix that is not bitwise symmetric.
    ``asymmetry``, which ``symmetry_error`` reports, is max |U - U.T| / max(1, max |U|).
    """
    alpha: float
    vertices: list
    masses: np.ndarray
    matrix: np.ndarray
    asymmetry: float

    def row_mass_error(self) -> float:
        """Max deviation of sum_y u(x,y) m_y from 1/alpha."""
        rows = self.matrix @ self.masses
        return float(np.abs(rows - 1.0 / self.alpha).max())

    def symmetry_error(self) -> float:
        return self.asymmetry


def resolvent(form: FiniteForm, masses: Union[Mapping[VertexId, float], Sequence[float]],
              alpha: float) -> ResolventKernel:
    """Resolvent kernel for the form and a probability measure on the vertices.

    Column x solves (L + alpha * diag(m)) u = e_x, so the kernel reproduces
    point evaluations in the alpha-shifted energy inner product.  A kernel
    whose row masses miss 1/alpha by more than ROW_MASS_TOL relative (alpha so
    small that L + alpha * M is numerically singular) raises SingularInterior.
    """
    if not (np.isfinite(alpha) and alpha > 0):
        raise DomainError("alpha must be finite and positive")
    form.require_connected()
    m = form._as_array(masses)
    if not ((m > 0) & (m < np.inf)).all():
        raise BadMeasure("vertex masses must be finite and positive")
    if abs(m.sum() - 1.0) > 1e-12:
        raise BadMeasure(f"vertex masses must sum to 1, got {m.sum()!r}")
    U = _Factor(form.laplacian_dense() + alpha * np.diag(m)).solve(np.eye(form.n))
    asym, scale = np.abs(U - U.T).max(), max(1.0, np.abs(U).max())
    if asym > 1e-10 * scale:
        warnings.warn(f"resolvent asymmetry {asym:.3e}", ConditionWarning, stacklevel=2)
    kernel = ResolventKernel(float(alpha), list(form.vertices), m, 0.5 * (U + U.T),
                             float(asym / scale))
    miss = alpha * kernel.row_mass_error()
    if not miss <= ROW_MASS_TOL:
        raise SingularInterior(f"resolvent row masses miss 1/alpha by {miss:.3e} relative "
                               f"(alpha={alpha!r})")
    return kernel


def triangle_form(c: float = 1.0, ids: Sequence[VertexId] = (0, 1, 2)) -> FiniteForm:
    """Unit (or scaled) conductances on the three pairs of a triangle."""
    return FiniteForm.from_arrays(ids, [0, 1, 0], [1, 2, 2], [c, c, c])
