"""Exact points and maps on Q(omega)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agres import approx, exact
from agres.cli import RunConfig, _solve
from agres.errors import DomainError
from agres.exact import Lattice, OmegaMaps, Point, as_fraction, g17_lines, point_exact_str

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


def percent_lines(x) -> list[bytes]:
    """The reference g17_lines must equal: Python's own '%' on every value."""
    return [b"%.17g\n" % v for v in np.asarray(x, dtype=np.float64).tolist()]


def from_bits(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


class TestG17Lines:
    """g17_lines gives b"%.17g\\n" % v bit for bit, on the fast path and off it."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
    def test_raw_bit_patterns(self, bits):
        x = from_bits(bits)
        assert g17_lines(x) == percent_lines(x)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_any_floats(self, values):
        assert g17_lines(np.array(values)) == percent_lines(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(1e-4, 1e16, exclude_max=True), min_size=1, max_size=64))
    def test_floats_in_fixed_notation(self, values):
        assert g17_lines(np.array(values)) == percent_lines(values)

    @pytest.mark.parametrize("values", [
        [1 + 2 ** -17],                                    # a tie at the 17th digit
        [np.nextafter(1e16, 0), 1e16],                     # the top of fixed notation
        [1e-4, np.nextafter(1e-4, 0)],                     # the bottom of fixed notation
        [1.0, 100.0, 1e15],                                # stripped fractions
        [0.0, -0.0],
        [5e-324, 2.2250738585072009e-308],                 # subnormals
        [float("inf"), float("-inf")],
        [-1.5, -1e-5, -123.456, -1e300],
    ])
    def test_named_values(self, values):
        assert g17_lines(np.array(values)) == percent_lines(values)

    def test_nan_payloads(self):
        x = from_bits([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                       0x7FF0000000000001])
        assert g17_lines(x) == percent_lines(x) == [b"nan\n"] * 4

    def test_ties_round_half_to_even(self):
        """j / 2**s with j odd has exactly as many significant digits as j * 5**s;
        at 18 of them, ending in 5, the 17-digit rounding is a tie.  Each s gives
        another k, from 13 down to past the bottom of fixed notation."""
        rng = np.random.default_rng(5)
        x = []
        for s in range(4, 25):
            lo, hi = -(-10 ** 17 // 5 ** s), 10 ** 18 // 5 ** s
            j = rng.integers(lo, hi, size=50) | 1
            x += [int(v) / 2 ** s for v in j if lo <= v < min(hi, 2 ** 53)]
        assert len(x) > 900
        assert g17_lines(np.array(x)) == percent_lines(x)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4097])
    def test_lengths(self, n):
        x = np.random.default_rng(n).uniform(0.5, 2.0, n)
        assert g17_lines(x) == percent_lines(x)

    def test_powers_of_ten_and_their_neighbours(self):
        x = np.concatenate([(np.float64(10.0 ** p).view(np.int64)
                             + np.arange(-50, 51)).view(np.float64) for p in range(-6, 19)])
        assert g17_lines(x) == percent_lines(x)

    def test_level_4_kernel_takes_no_fallback(self, monkeypatch):
        """Every entry of the 1/8 level-4 kernel is formatted by the vectorized
        path; one that fell back to '%' would still be right, only slow."""
        sol = _solve(RunConfig(command="resolvent", lam="1/8", s=0.5), "1/8")
        lf = approx.level_form(sol, 4)
        x = approx.resolvent_kernel(lf, 1.0, approx.measure_weights(sol.ifs, "hausdorff")).matrix
        fallbacks = []
        by_percent = exact._g17_by_percent
        monkeypatch.setattr(exact, "_g17_by_percent",
                            lambda v: fallbacks.append(v) or by_percent(v))
        assert g17_lines(x.ravel()) == percent_lines(x.ravel())
        assert fallbacks == []
