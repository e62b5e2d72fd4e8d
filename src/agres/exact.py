"""Exact arithmetic for the gasket geometry: lattice point arrays and Q[sqrt(3)].

Every vertex produced by the iterated maps is identified by exact
equality, never by tolerance.  Cells of the fractal intersect at single
points; a fuzzy match there would silently change the topology of the
approximating graphs, which is why exactness is load-bearing.

Two exact representations live here.  The fast one writes a point as
z = u + v*omega with omega = e^{i pi/3}, so the reference corners are
p2 = 0, p3 = 1 and p1 = omega, and every map of the family is z -> a z + b
with a, b in Q(omega).  A ``Lattice`` stores a whole array of such points
as integer numerators (U, V) over one common denominator; level-m cell
images share the denominator D^m * P, so deduplicating them is integer
array work.  The inverse maps live on the same lattice, so pullbacks of
whole point arrays (the contact-set oracle's frontier) are integer array
work too, with ``Lattice.reduced`` keeping their denominators small.
Numerators are int64 while a bound shows they fit and Python-int object
arrays after that; they never wrap.

The slow one, ``Scalar``/``Point``/``Similarity``, holds coordinates
a + b*sqrt(3) with rational a, b.  It builds the output points, it carries
attractor membership and the direct graph method, and it is the
independent reference (word maps, a Q[sqrt(3)] contact-set pullback) in
the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

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


class Scalar:
    """An element a + b*sqrt(3) of Q[sqrt(3)] with exact field operations."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction | int = 0, b: Fraction | int = 0):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)

    @classmethod
    def rational(cls, x: RationalLike) -> "Scalar":
        return cls(as_fraction(x), Fraction(0))

    @classmethod
    def sqrt3_times(cls, x: RationalLike) -> "Scalar":
        """The element x*sqrt(3)."""
        return cls(Fraction(0), as_fraction(x))

    # -- ring/field operations -------------------------------------------------

    def __add__(self, o: "Scalar") -> "Scalar":
        return Scalar(self.a + o.a, self.b + o.b)

    def __sub__(self, o: "Scalar") -> "Scalar":
        return Scalar(self.a - o.a, self.b - o.b)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.a, -self.b)

    def __mul__(self, o: "Scalar") -> "Scalar":
        # (a1 + b1 s)(a2 + b2 s) = a1 a2 + 3 b1 b2 + (a1 b2 + a2 b1) s
        return Scalar(self.a * o.a + 3 * self.b * o.b, self.a * o.b + self.b * o.a)

    def scale(self, q: Fraction) -> "Scalar":
        return Scalar(self.a * q, self.b * q)

    def inverse(self) -> "Scalar":
        den = self.a * self.a - 3 * self.b * self.b
        if den == 0:
            raise ZeroDivisionError("inverse of zero in Q[sqrt(3)]")
        return Scalar(self.a / den, -self.b / den)

    def __truediv__(self, o: "Scalar") -> "Scalar":
        return self * o.inverse()

    # -- exact comparisons -------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(3); zero only when a = b = 0."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # mixed signs: compare a^2 with 3 b^2 (equality impossible, sqrt(3) irrational)
        if a > 0:
            return 1 if a * a > 3 * b * b else -1
        return -1 if a * a > 3 * b * b else 1

    def __eq__(self, o: object) -> bool:
        return isinstance(o, Scalar) and self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __lt__(self, o: "Scalar") -> bool:
        return (self - o).sign() < 0

    def __le__(self, o: "Scalar") -> bool:
        return (self - o).sign() <= 0

    def __gt__(self, o: "Scalar") -> bool:
        return (self - o).sign() > 0

    def __ge__(self, o: "Scalar") -> bool:
        return (self - o).sign() >= 0

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    # -- conversions ---------------------------------------------------------

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * _SQRT3

    def key(self) -> tuple:
        return (self.a.numerator, self.a.denominator, self.b.numerator, self.b.denominator)

    def exact_str(self) -> str:
        """Canonical exact form '(p/q) + (r/s)*sqrt3'."""
        return f"({self.a.numerator}/{self.a.denominator}) + ({self.b.numerator}/{self.b.denominator})*sqrt3"

    def __repr__(self) -> str:
        return f"Scalar({self.a!r}, {self.b!r})"


ZERO = Scalar()
ONE = Scalar(1)
HALF = Scalar(Fraction(1, 2))


class Point:
    """A planar point with Q[sqrt(3)] coordinates."""

    __slots__ = ("x", "y")

    def __init__(self, x: Scalar, y: Scalar):
        self.x = x
        self.y = y

    @classmethod
    def rational(cls, x: RationalLike, y: RationalLike) -> "Point":
        return cls(Scalar.rational(x), Scalar.rational(y))

    def key(self) -> tuple:
        return self.x.key() + self.y.key()

    def __eq__(self, o: object) -> bool:
        return isinstance(o, Point) and self.x == o.x and self.y == o.y

    def __hash__(self) -> int:
        return hash(self.key())

    def float_xy(self) -> tuple[float, float]:
        return (float(self.x), float(self.y))

    def distance_sq(self, o: "Point") -> Scalar:
        dx = self.x - o.x
        dy = self.y - o.y
        return dx * dx + dy * dy

    def distance(self, o: "Point") -> float:
        return math.sqrt(max(0.0, float(self.distance_sq(o))))

    def __repr__(self) -> str:
        return f"Point({float(self.x):.6g}, {float(self.y):.6g})"


def point_decimal_str(p: Point) -> tuple[str, str]:
    """Coordinates as decimal strings with 17 significant digits."""
    x, y = p.float_xy()
    return (f"{x:.17g}", f"{y:.17g}")


def point_exact_str(p: Point) -> tuple[str, str]:
    return (p.x.exact_str(), p.y.exact_str())


class Similarity:
    """An exact affine map x -> M x + t whose linear part is a scaled rotation.

    The similarity invariant (M^T M proportional to the identity, det M > 0)
    is checked at construction, exactly.
    """

    __slots__ = ("m00", "m01", "m10", "m11", "tx", "ty", "ratio_sq")

    def __init__(self, m00: Scalar, m01: Scalar, m10: Scalar, m11: Scalar,
                 tx: Scalar, ty: Scalar, check: bool = True):
        self.m00, self.m01, self.m10, self.m11 = m00, m01, m10, m11
        self.tx, self.ty = tx, ty
        d00 = m00 * m00 + m10 * m10
        d11 = m01 * m01 + m11 * m11
        off = m00 * m01 + m10 * m11
        if check:
            if not off.is_zero() or d00 != d11:
                raise DomainError("linear part is not a scalar multiple of a rotation")
            det = m00 * m11 - m01 * m10
            if det.sign() <= 0:
                raise DomainError("linear part must be orientation preserving")
        self.ratio_sq = d00

    @property
    def ratio(self) -> float:
        return math.sqrt(float(self.ratio_sq))

    def apply(self, p: Point) -> Point:
        return Point(self.m00 * p.x + self.m01 * p.y + self.tx,
                     self.m10 * p.x + self.m11 * p.y + self.ty)

    __call__ = apply

    def compose(self, o: "Similarity") -> "Similarity":
        """self after o, i.e. x -> self(o(x))."""
        return Similarity(
            self.m00 * o.m00 + self.m01 * o.m10,
            self.m00 * o.m01 + self.m01 * o.m11,
            self.m10 * o.m00 + self.m11 * o.m10,
            self.m10 * o.m01 + self.m11 * o.m11,
            self.m00 * o.tx + self.m01 * o.ty + self.tx,
            self.m10 * o.tx + self.m11 * o.ty + self.ty,
            check=False,
        )

    def inverse(self) -> "Similarity":
        det = self.m00 * self.m11 - self.m01 * self.m10
        i00 = self.m11 / det
        i01 = -self.m01 / det
        i10 = -self.m10 / det
        i11 = self.m00 / det
        return Similarity(i00, i01, i10, i11,
                          -(i00 * self.tx + i01 * self.ty),
                          -(i10 * self.tx + i11 * self.ty),
                          check=False)

    def linear_floats(self):
        return (float(self.m00), float(self.m01), float(self.m10), float(self.m11),
                float(self.tx), float(self.ty))


def omega_coords(p: Point) -> Optional[tuple[Fraction, Fraction]]:
    """Coordinates (u, v) of p = u + v*omega, or None when p is off Q(omega).

    x = u + v/2 and y = v*sqrt(3)/2, so p is in Q(omega) exactly when x is
    rational and y is a rational multiple of sqrt(3).
    """
    if p.x.b != 0 or p.y.a != 0:
        return None
    return p.x.a - p.y.b, 2 * p.y.b


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
        coords = []
        for p in points:
            uv = omega_coords(p)
            if uv is None:
                raise DomainError(f"{p!r} is not a point of Q(omega)")
            coords.append(uv)
        den = math.lcm(1, *(c.denominator for uv in coords for c in uv))
        rows = [[int(c * den) for c in uv] for uv in coords]
        num = np.array(rows, dtype=object).reshape(len(rows), 2)
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
        """The point at ``index`` as exact Q[sqrt(3)] coordinates:
        x = (2U + V) / (2 den), y = V / (2 den) * sqrt(3)."""
        u, v = (int(c) for c in self.num[index])
        return Point(Scalar(Fraction(2 * u + v, 2 * self.den)),
                     Scalar(0, Fraction(v, 2 * self.den)))

    def points(self) -> list[Point]:
        return [self.point(i) for i in range(len(self.num))]


class OmegaMaps:
    """Maps z -> a_k z + b_k with a_k, b_k in Q(omega), over one common denominator D.

    ``coeffs`` holds the integers (D*a, D*b) of every map, each written as a
    pair (c0, c1) for c0 + c1*omega.
    """

    __slots__ = ("D", "coeffs", "_reach", "_shift")

    def __init__(self, maps: Sequence[tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]]):
        self.D = math.lcm(*(c.denominator for ab in maps for z in ab for c in z))
        self.coeffs = tuple(tuple(int(c * self.D) for z in ab for c in z) for ab in maps)
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
        for a0, a1, b0, b1 in self.coeffs:
            a0, a1, b0, b1 = (Fraction(c, self.D) for c in (a0, a1, b0, b1))
            norm = a0 * a0 + a0 * a1 + a1 * a1
            i0, i1 = (a0 + a1) / norm, -a1 / norm
            maps.append(((i0, i1), (i1 * b1 - i0 * b0, -(i0 * b1 + i1 * b0 + i1 * b1))))
        return OmegaMaps(maps)

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


def compose_word(maps: Iterable[Similarity]) -> Similarity:
    """Composition F_{w_1} o F_{w_2} o ... for a sequence of maps."""
    out = None
    for f in maps:
        out = f if out is None else out.compose(f)
    if out is None:
        return Similarity(ONE, ZERO, ZERO, ONE, ZERO, ZERO, check=False)
    return out
