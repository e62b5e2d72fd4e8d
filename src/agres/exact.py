"""Exact arithmetic for the gasket geometry: points and point arrays on Q(omega).

Every vertex produced by the iterated maps is identified by exact
equality, never by tolerance.  Cells of the fractal intersect at single
points; a fuzzy match there would silently change the topology of the
approximating graphs, which is why exactness is load-bearing.

A point is written z = u + v*omega with omega = e^{i pi/3}, so the
reference corners are p2 = 0, p3 = 1 and p1 = omega, and every map of the
family is z -> a z + b with a, b in Q(omega).  At a rational parameter
every point the family forms lies in Q(omega), so this one representation
serves everything: a ``Point`` holds one point as two Fractions (u, v), and
a ``Lattice`` holds a whole array of them as integer numerators (U, V) over
one common denominator.  Level-m cell images share the denominator
D^m * P, so deduplicating them is integer array work; the inverse maps live
on the same lattice, so pullbacks of whole point arrays are integer array
work too, with ``Lattice.reduced`` keeping their denominators small.
Numerators are int64 while a bound shows they fit and Python-int object
arrays after that; they never wrap.  Output strings give the Cartesian
coordinates x = u + v/2 and y = (v/2)*sqrt(3) in the form
'(p/q) + (r/s)*sqrt3'.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import DomainError

RationalLike = Union[int, str, Fraction]

_SQRT3 = math.sqrt(3.0)


def as_fraction(x: RationalLike, what: str = "value") -> Fraction:
    """Convert an int, Fraction or 'p/q' string to an exact Fraction.

    Floats are rejected: they smuggle in a denominator of 2**52 and the
    caller almost certainly meant a small rational.
    """
    if isinstance(x, bool):
        raise DomainError(f"{what} must be rational, got bool")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"{what} is not a rational: {x!r}") from exc
    raise DomainError(f"{what} must be an int, Fraction or 'p/q' string, got {type(x).__name__}")


class Point(NamedTuple):
    """The point u + v*omega, with u and v Fractions."""

    u: Fraction
    v: Fraction

    def cartesian(self) -> tuple[Fraction, Fraction]:
        """(x, y / sqrt(3)): x = u + v/2 and y = (v/2) * sqrt(3)."""
        eta = Fraction(self.v, 2)
        return self.u + eta, eta

    def float_xy(self) -> tuple[float, float]:
        x, eta = self.cartesian()
        return float(x), float(eta) * _SQRT3


def point_decimal_str(p: Point) -> tuple[str, str]:
    """Coordinates as decimal strings with 17 significant digits."""
    x, y = p.float_xy()
    return (f"{x:.17g}", f"{y:.17g}")


def point_exact_str(p: Point) -> tuple[str, str]:
    """Coordinates in the exact form '(p/q) + (r/s)*sqrt3'."""
    x, eta = p.cartesian()
    return (f"({x.numerator}/{x.denominator}) + (0/1)*sqrt3",
            f"(0/1) + ({eta.numerator}/{eta.denominator})*sqrt3")


# -- '%.17g' texts of float arrays ---------------------------------------------
#
# '%.17g' prints x > 0 with k = floor(log10 x) in [-4, 16] in fixed notation,
# from the correctly rounded 17-digit significand D = round(x * 10**(16 - k)),
# 10**16 <= D < 10**17 (Gay's dtoa rounds half to even): the digits of D with
# a point after digit k ('0.' and -k - 1 zeros before them when k < 0),
# trailing fractional zeros stripped, and the point too if nothing follows it.

_G17_K_MIN, _G17_K_MAX = -4, 15  # k = 16 is left to '%'
_VELTKAMP = 2.0 ** 27 + 1


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a == hi + lo exactly, each half with at most 26 significant bits."""
    t = _VELTKAMP * a
    hi = t - (t - a)
    return hi, a - hi


class _G17Tables(NamedTuple):
    scale: np.ndarray     # 10**(16 - k), k = _G17_K_MIN.._G17_K_MAX: exact, as 10**p is for p <= 22
    scale_hi: np.ndarray  # and its Veltkamp halves
    scale_lo: np.ndarray
    digits4: np.ndarray   # ASCII of '0000'..'9999', one little-endian uint32 per group
    zeros4: np.ndarray    # the trailing zeros of each group; '0000' has 4
    keep: np.ndarray      # the bytes of its record that each text keeps (see _g17_tables)


@functools.cache
def _g17_tables() -> _G17Tables:
    """The kernel's tables, built at its first call: building them takes about
    2 ms and 0.8 MB of resident memory that a run which prints no kernel need
    not spend.

    Row (k - _G17_K_MIN) * 21 + f of ``keep`` marks the bytes of a text with f
    fractional digits (0 <= f <= 20) in its 48-byte record.  A record is twelve
    uint32 cells: cells 0-4 hold '000' and the 17 digits of D (bytes 0-19),
    cell 5 the point (byte 20), cells 6-10 the digits again (bytes 24-43) and
    cell 11 the newline (byte 44).  The integer part is byte 2 (a '0') when
    k < 0 and bytes 3..3+k otherwise; the fraction starts at byte 28 + k, with
    the -k - 1 zeros of '0.000ddd' when k < 0.
    """
    scale = 10.0 ** (16 - np.arange(_G17_K_MIN, _G17_K_MAX + 1))
    groups = np.arange(10_000, dtype=np.uint32)
    k = np.arange(_G17_K_MIN, _G17_K_MAX + 1)[:, None, None]
    f = np.arange(21)[None, :, None]
    byte = np.arange(48)
    keep = (np.where(k < 0, byte == 2, (byte >= 3) & (byte <= 3 + k))
            | ((byte == 20) & (f > 0))
            | ((byte >= 28 + k) & (byte < 28 + k + f))
            | (byte == 44))
    return _G17Tables(
        scale, *_split(scale),
        sum((groups // 10 ** (3 - j) % 10 + ord("0")) << 8 * j for j in range(4)).astype("<u4"),
        sum((groups % 10 ** j == 0).astype(np.uint8) for j in range(1, 5)),
        keep.reshape(-1, 48))


def _divmod(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    q = a // b  # division by a scalar is fast; np.divmod is not
    return q, a - q * b


def _g17_by_percent(v: float) -> bytes:
    return b"%.17g\n" % v


def g17_lines(x: np.ndarray) -> list[bytes]:
    """``[b"%.17g\\n" % v for v in x]`` for a 1-d float64 array, bit for bit.

    Values printed in fixed notation are formatted in one vectorized pass:
    hi + lo == x * 10**(16 - k) exactly (Dekker's product of Veltkamp
    halves), and hi >= 2**53 is an even integer, so D = hi + rint(lo) rounds
    half to even as '%' does.  Each text is masked out of its record (see
    ``_g17_tables``) and the masked bytes are deleted in one pass.  Any
    value that is not finite and positive, or whose k or D falls outside that
    range, goes to '%' itself.
    """
    x = np.asarray(x, dtype=np.float64)
    if not x.size:
        return []
    tables = _g17_tables()
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(np.log10(x))
    fixed = (k >= _G17_K_MIN) & (k <= _G17_K_MAX)  # false for nan, inf and x <= 0
    row = np.where(fixed, k - _G17_K_MIN, 0).astype(np.intp)  # k's row of the tables
    k = row + _G17_K_MIN
    xf = np.where(fixed, x, 0.0)
    hi = xf * tables.scale[row]
    xh, xl = _split(xf)
    sh, sl = tables.scale_hi[row], tables.scale_lo[row]
    lo = ((xh * sh - hi) + xh * sl + xl * sh) + xl * sl
    D = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    fast = fixed & (D >= 10 ** 16) & (D < 10 ** 17)
    top, low = _divmod(D, 10 ** 8)
    lead, mid = _divmod(top, 10 ** 8)
    groups = (lead, *_divmod(mid, 10 ** 4), *_divmod(low, 10 ** 4))  # digits 1 + 4 + 4 + 4 + 4
    zeros = tables.zeros4[groups[4]]
    for depth in range(1, 4):  # only texts whose lower groups are all zero look further up
        rows = np.flatnonzero(zeros == 4 * depth)
        if not rows.size:
            break
        zeros[rows] += tables.zeros4[groups[4 - depth][rows]]
    fraction = np.maximum(16 - k - zeros, 0)
    # only the first int_cells cells can hold the integer part, so drop the rest
    int_cells = (3 + max(int(k.max()), 0)) // 4 + 1
    record = np.empty((len(x), int_cells + 7), dtype="<u4")
    for c, group in enumerate(groups):
        cell = tables.digits4[group]
        if c < int_cells:
            record[:, c] = cell
        record[:, int_cells + 1 + c] = cell
    record[:, int_cells] = ord(".")
    record[:, -1] = ord("\n")
    keep = tables.keep[:, np.r_[0:4 * int_cells, 20:48]]
    text = record.view(np.uint8)
    text *= keep.take(row * 21 + fraction, axis=0)
    lines = text.tobytes().translate(None, b"\0").splitlines(keepends=True)
    for i in np.flatnonzero(~fast).tolist():
        lines[i] = _g17_by_percent(x[i])
    return lines


# Largest magnitude an int64 numerator may take; lowering it forces the
# Python-int fallback everywhere.
INT64_LIMIT = 2 ** 63 - 1


def _fit(num: np.ndarray, bound: int) -> np.ndarray:
    """num as int64 if ``bound`` caps every value computed from it, else as Python ints."""
    return num.astype(object if bound > INT64_LIMIT else np.int64, copy=False)


def _max_abs(num: np.ndarray) -> int:
    return int(np.abs(num).max()) if num.size else 0


class Lattice:
    """An array of points u + v*omega stored as integer numerators over one denominator.

    ``num`` has shape (..., 2) and holds (U, V) with u = U/den, v = V/den.
    Points are equal exactly when their numerators are, given the same
    denominator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: np.ndarray, den: int):
        self.num = num
        self.den = int(den)

    @classmethod
    def of_points(cls, points: Sequence[Point]) -> "Lattice":
        den = math.lcm(1, *(c.denominator for p in points for c in p))
        num = np.array([[int(c * den) for c in p] for p in points], dtype=object).reshape(-1, 2)
        return cls(_fit(num, _max_abs(num)), den)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.num.shape[:-1]

    def rescaled(self, den: int) -> "Lattice":
        """The same points over a multiple of the denominator."""
        if den == self.den:
            return self
        f, rem = divmod(den, self.den)
        if rem:
            raise ValueError(f"{den} is not a multiple of the denominator {self.den}")
        num = _fit(self.num, _max_abs(self.num) * f)
        return Lattice(num * f, den)

    @staticmethod
    def concat(parts: Sequence["Lattice"]) -> "Lattice":
        """Flat concatenation of point arrays over their least common denominator."""
        den = math.lcm(*(p.den for p in parts))
        return Lattice(np.concatenate([p.rescaled(den).num.reshape(-1, 2) for p in parts]), den)

    def reduced(self) -> "Lattice":
        """The same points over the smallest common denominator: the numerators
        and the denominator divided by their greatest common divisor."""
        flat = self.num.reshape(-1)
        g = math.gcd(self.den, int(np.gcd.reduce(flat)) if flat.size else 0)
        if g == 1:
            return self
        return Lattice(_fit(self.num // g, _max_abs(self.num) // g), self.den // g)

    def point(self, index) -> Point:
        u, v = (int(c) for c in self.num[index])
        return Point(Fraction(u, self.den), Fraction(v, self.den))

    def points(self) -> list[Point]:
        return [self.point(i) for i in range(len(self.num))]


class OmegaMaps:
    """Maps z -> a_k z + b_k with a_k, b_k in Q(omega), over one common denominator D.

    ``maps`` holds the Fractions (a0, a1, b0, b1) of every map, for
    a = a0 + a1*omega and b = b0 + b1*omega; ``coeffs`` holds the integers
    D times these.
    """

    __slots__ = ("maps", "D", "coeffs", "_reach", "_shift")

    def __init__(self, maps: Sequence[tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]]):
        self.maps = tuple(tuple(Fraction(c) for z in ab for c in z) for ab in maps)
        self.D = math.lcm(*(c.denominator for f in self.maps for c in f))
        self.coeffs = tuple(tuple(int(c * self.D) for c in f) for f in self.maps)
        # |U'|, |V'| <= reach * max(|U|, |V|) + shift * den, for every map
        self._reach = max(max(abs(a0) + abs(a1), abs(a1) + abs(a0 + a1))
                          for a0, a1, _, _ in self.coeffs)
        self._shift = max(max(abs(b0), abs(b1)) for _, _, b0, b1 in self.coeffs)

    def inverse(self) -> "OmegaMaps":
        """The inverse maps z -> a' z + b', in the same order.

        a' = conj(a) / |a|^2 with conj(a0 + a1 w) = (a0 + a1) - a1 w and
        |a0 + a1 w|^2 = a0^2 + a0 a1 + a1^2, and b' = -a' b.
        """
        maps = []
        for a0, a1, b0, b1 in self.maps:
            norm = a0 * a0 + a0 * a1 + a1 * a1
            i0, i1 = (a0 + a1) / norm, -a1 / norm
            maps.append(((i0, i1), (i1 * b1 - i0 * b0, -(i0 * b1 + i1 * b0 + i1 * b1))))
        return OmegaMaps(maps)

    def apply(self, k: int, p: Point) -> Point:
        """The image of one point under map k (products as in ``images``)."""
        a0, a1, b0, b1 = self.maps[k]
        u, v = p
        return Point(a0 * u - a1 * v + b0, a1 * u + (a0 + a1) * v + b1)

    def images(self, lat: Lattice, headroom: int = 1) -> Lattice:
        """Images of every point under every map, stacked along a new leading axis.

        Products follow (a0 + a1 w)(u + v w) = (a0 u - a1 v) + (a0 v + a1 u + a1 v) w,
        since w^2 = w - 1.  The output stays int64 only if a sum of ``headroom``
        output numerators still fits.
        """
        bound = self._reach * _max_abs(lat.num) + self._shift * lat.den
        num = _fit(lat.num, headroom * bound)
        U, V = num[..., 0], num[..., 1]
        den = lat.den
        out = [np.stack((a0 * U - a1 * V + b0 * den, a1 * U + (a0 + a1) * V + b1 * den), axis=-1)
               for a0, a1, b0, b1 in self.coeffs]
        return Lattice(np.stack(out), den * self.D)
