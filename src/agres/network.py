"""Finite resistance forms as weighted graphs.

A form is a symmetric nonnegative conductance map on a connected vertex
set; its energy is sum over unordered pairs of c * (f(x) - f(y))^2.  The
operations here are the classical electrical-network toolkit: Schur
complement traces, harmonic extension, effective resistances (two point
and point-to-set), energy comparison factors, and resolvent kernels with
respect to a probability measure on the vertices.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import (BadMeasure, BadTarget, ConditionWarning, Disconnected,
                     DomainError, MismatchedVertexSets, NegativeConductance,
                     SingularInterior)

VertexId = Hashable
DUST = 1e-13           # magnitude below which a negative Schur by-product is numerical dust
DENSE_LIMIT = 1600     # interior larger than this switches to sparse elimination
PIVOT_RATIO_WARN = 1e12


def _pair(x: VertexId, y: VertexId) -> tuple[VertexId, VertexId]:
    """Canonical unordered pair key."""
    try:
        return (x, y) if x < y else (y, x)
    except TypeError:
        return (x, y) if repr(x) < repr(y) else (y, x)


def _components(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Connected components of vertices 0..n-1 joined by the pairs: the block id of
    every vertex, blocks numbered by first occurrence."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
    ids: dict[int, int] = {}
    return tuple(ids.setdefault(find(i), len(ids)) for i in range(n))


def _laplacian(n: int, a: np.ndarray, b: np.ndarray, c: np.ndarray,
               sparse: bool = False) -> Union[np.ndarray, sp.csc_matrix]:
    """Weighted Laplacian of n vertices with conductance c[k] on the pair (a[k], b[k]).

    The pairs must be distinct and carry no self-loops.
    """
    if sparse:
        rows = np.concatenate([a, b, a, b])
        cols = np.concatenate([b, a, a, b])
        return sp.csc_matrix((np.concatenate([-c, -c, c, c]), (rows, cols)), shape=(n, n))
    L = np.zeros((n, n))
    L[a, b] = -c
    L[b, a] = -c
    L.flat[::n + 1] = np.bincount(a, c, n) + np.bincount(b, c, n)
    return L


def _dense(M) -> np.ndarray:
    return M.toarray() if sp.issparse(M) else M


class _Factor:
    """Factorization of a positive definite block: sparse LU of a sparse block,
    dense Cholesky (with its pivot ratio recorded) of a dense one.  A failed
    factorization raises SingularInterior."""

    def __init__(self, A):
        self.pivot_ratio: Optional[float] = None
        if sp.issparse(A):
            try:
                self._lu = spla.splu(A.tocsc())
            except RuntimeError as exc:
                raise SingularInterior(f"interior block factorization failed: {exc}") from exc
        else:
            cho, info = lapack.dpotrf(A, lower=False, clean=False)
            if info != 0:
                raise SingularInterior(f"interior block factorization failed (info={info})")
            d = np.diag(cho)
            self.pivot_ratio = (d.max() / d.min()) ** 2
            self._cho = cho

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.pivot_ratio is None:
            return self._lu.solve(rhs)
        return lapack.dpotrs(self._cho, rhs)[0]


def _schur(L, nk: int) -> tuple[np.ndarray, _Factor]:
    """Schur complement of the trailing interior block onto the first nk indices."""
    fac = _Factor(L[nk:, nk:])
    L_ki = L[:nk, nk:]
    return _dense(L[:nk, :nk]) - L_ki @ fac.solve(_dense(L_ki.T)), fac


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
    """A resistance form on a finite vertex set, stored as sparse conductances.

    Besides the ``conductances`` mapping, the form keeps its edges as
    arrays of vertex indices and conductances, which every Laplacian is
    built from; forms are not modified after construction.
    """

    def __init__(self, vertices: Sequence[VertexId],
                 conductances: Mapping[tuple[VertexId, VertexId], float]):
        self.vertices = list(vertices)
        self._pos = {v: i for i, v in enumerate(self.vertices)}
        if len(self._pos) != len(self.vertices):
            raise DomainError("duplicate vertex ids")
        self.conductances: dict[tuple[VertexId, VertexId], float] = {}
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
            key = _pair(x, y)
            self.conductances[key] = self.conductances.get(key, 0.0) + c
        pos = self._pos
        self._a = np.array([pos[x] for x, _ in self.conductances], dtype=np.int64)
        self._b = np.array([pos[y] for _, y in self.conductances], dtype=np.int64)
        self._c = np.fromiter(self.conductances.values(), float, len(self.conductances))
        self._connected: Optional[bool] = None

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

    def is_connected(self) -> bool:
        if self._connected is None:
            edges = zip(self._a.tolist(), self._b.tolist())
            self._connected = self.n > 0 and not any(_components(self.n, edges))
        return self._connected

    def require_connected(self) -> None:
        if not self.is_connected():
            raise Disconnected("support graph is disconnected")

    def scaled(self, a: float) -> "FiniteForm":
        return FiniteForm(self.vertices, {k: a * c for k, c in self.conductances.items()})

    def _laplacian_ordered(self, order: Optional[Sequence[VertexId]], sparse: bool):
        a, b = self._a, self._b
        if order is not None:
            pos = np.empty(self.n, dtype=np.int64)
            pos[[self._pos[v] for v in order]] = np.arange(len(order))
            a, b = pos[a], pos[b]
        return _laplacian(self.n, a, b, self._c, sparse)

    def laplacian_dense(self, order: Sequence[VertexId] | None = None) -> np.ndarray:
        return self._laplacian_ordered(order, sparse=False)

    def laplacian_sparse(self, order: Sequence[VertexId] | None = None) -> sp.csc_matrix:
        return self._laplacian_ordered(order, sparse=True)

    def _laplacian_first(self, first: Sequence[VertexId]) -> tuple:
        """Laplacian with the given vertices first and the rest after them in vertex
        order, plus that rest.  It is sparse when the rest, the block that gets
        factored, exceeds DENSE_LIMIT vertices, and dense otherwise."""
        firstset = set(first)
        rest = [v for v in self.vertices if v not in firstset]
        return self._laplacian_ordered(list(first) + rest, len(rest) > DENSE_LIMIT), rest

    # -- serialization -----------------------------------------------------------

    def to_csv(self) -> str:
        lines = ["x_id,y_id,conductance"]
        for (x, y) in sorted(self.conductances, key=lambda k: (repr(k[0]), repr(k[1]))):
            lines.append(f"{x},{y},{self.conductances[(x, y)]:.17g}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "vertices": [repr(v) if not isinstance(v, (int, str)) else v for v in self.vertices],
            "edges": [
                {"x": x if isinstance(x, (int, str)) else repr(x),
                 "y": y if isinstance(y, (int, str)) else repr(y),
                 "c": self.conductances[(x, y)]}
                for (x, y) in sorted(self.conductances, key=lambda k: (repr(k[0]), repr(k[1])))
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    def __repr__(self) -> str:
        return f"FiniteForm({self.n} vertices, {len(self.conductances)} conductances)"


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
        return FiniteForm(keep, dict(form.conductances))
    L, _ = form._laplacian_first(keep)
    S, fac = _schur(L, len(keep))
    if fac.pivot_ratio is not None and fac.pivot_ratio > PIVOT_RATIO_WARN:
        warnings.warn(f"interior pivot ratio {fac.pivot_ratio:.3g} exceeds {PIVOT_RATIO_WARN:g}",
                      ConditionWarning, stacklevel=2)
    i, j = np.triu_indices(len(keep), 1)
    c, dust = _pair_conductances(S, i, j)
    return FiniteForm(keep, {(keep[x], keep[y]): c[k]
                             for k, (x, y) in enumerate(zip(i, j)) if c[k] > dust})


def harmonic_extension(form: FiniteForm, boundary: Mapping[VertexId, float]) -> dict[VertexId, float]:
    """The unique energy-minimizing extension of boundary data to all vertices."""
    if not boundary:
        raise DomainError("boundary data must be nonempty")
    missing = [v for v in boundary if v not in form._pos]
    if missing:
        raise DomainError(f"boundary contains unknown vertices: {missing[:3]}")
    form.require_connected()
    out = {v: float(boundary[v]) for v in boundary}
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
    if isinstance(target, (list, set, frozenset)):
        tset = set(target)
    else:
        tset = {target}
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
    """Symmetric kernel of (L + alpha * M)^-1 with masses M summing to one."""
    alpha: float
    vertices: list
    masses: np.ndarray
    matrix: np.ndarray

    def value(self, x: VertexId, y: VertexId) -> float:
        i = self.vertices.index(x)
        j = self.vertices.index(y)
        return float(self.matrix[i, j])

    def row_mass_error(self) -> float:
        """Max deviation of sum_y u(x,y) m_y from 1/alpha."""
        rows = self.matrix @ self.masses
        return float(np.abs(rows - 1.0 / self.alpha).max())

    def symmetry_error(self) -> float:
        return float(np.abs(self.matrix - self.matrix.T).max())

    def to_csv(self, labels: Sequence[str] | None = None) -> str:
        labels = labels if labels is not None else [str(v) for v in self.vertices]
        lines = ["x,y," + "u"]
        for i, lx in enumerate(labels):
            for j, ly in enumerate(labels):
                lines.append(f"{lx},{ly},{self.matrix[i, j]:.17g}")
        return "\n".join(lines) + "\n"


def resolvent(form: FiniteForm, masses: Union[Mapping[VertexId, float], Sequence[float]],
              alpha: float) -> ResolventKernel:
    """Resolvent kernel for the form and a probability measure on the vertices.

    Column x solves (L + alpha * diag(m)) u = e_x, so the kernel reproduces
    point evaluations in the alpha-shifted energy inner product.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    form.require_connected()
    m = form._as_array(masses)
    if (m <= 0).any():
        raise BadMeasure("vertex masses must be positive")
    if abs(m.sum() - 1.0) > 1e-12:
        raise BadMeasure(f"vertex masses must sum to 1, got {m.sum()!r}")
    L = form.laplacian_dense()
    A = L + alpha * np.diag(m)
    try:
        U = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise SingularInterior(str(exc)) from exc
    asym = np.abs(U - U.T).max()
    if asym > 1e-10 * max(1.0, np.abs(U).max()):
        warnings.warn(f"resolvent asymmetry {asym:.3e}", ConditionWarning, stacklevel=2)
    U = 0.5 * (U + U.T)
    return ResolventKernel(float(alpha), list(form.vertices), m, U)


def triangle_form(c: float = 1.0, ids: Sequence[VertexId] = (0, 1, 2)) -> FiniteForm:
    """Unit (or scaled) conductances on the three pairs of a triangle."""
    a, b, d = ids
    return FiniteForm(list(ids), {_pair(a, b): c, _pair(b, d): c, _pair(a, d): c})
