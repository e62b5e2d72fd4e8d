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
