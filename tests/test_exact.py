"""Exact points and maps on Q(omega)."""

from fractions import Fraction

import pytest

from agres.errors import DomainError
from agres.exact import Lattice, OmegaMaps, Point, as_fraction, point_exact_str

# rotation by 120 degrees about the centroid, z -> omega^2 z + 1 with omega^2 = -1 + omega
ROTATION = ((Fraction(-1), Fraction(1)), (Fraction(1), Fraction(0)))


def test_equality_is_exact():
    a = Point(Fraction(1, 3), Fraction(2, 7))
    b = Point(Fraction(1, 3), Fraction(2, 7))
    c = Point(Fraction(1, 3), Fraction(2, 7) + Fraction(1, 10**12))
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_as_fraction_rejects_floats_and_junk():
    with pytest.raises(DomainError):
        as_fraction(0.25)  # type: ignore[arg-type]
    with pytest.raises(DomainError):
        as_fraction("not-a-number")
    with pytest.raises(DomainError, match="must be rational, got bool"):
        as_fraction(True)
    assert as_fraction("3/8") == Fraction(3, 8)


def test_point_keys_distinguish_coordinates():
    p = Point(Fraction(1, 2), Fraction(1, 4))
    q = Point(Fraction(1, 4), Fraction(1, 2))
    assert p != q and hash(p) != hash(q)
    # x = u + v/2 and y = (v/2) sqrt(3)
    assert point_exact_str(p) == ("(5/8) + (0/1)*sqrt3", "(0/1) + (1/8)*sqrt3")
    assert point_exact_str(q) == ("(1/2) + (0/1)*sqrt3", "(0/1) + (1/4)*sqrt3")


def test_similarity_compose_and_inverse():
    rot = OmegaMaps([ROTATION])
    p = Point(Fraction(1, 3), Fraction(1, 5))
    assert rot.inverse().apply(0, rot.apply(0, p)) == p
    lat = Lattice.of_points([p])
    twice = rot.images(rot.images(lat))
    assert Lattice(twice.num[0, 0], twice.den).points() == [rot.apply(0, rot.apply(0, p))]
    thrice = rot.apply(0, rot.apply(0, rot.apply(0, p)))
    assert thrice == p
