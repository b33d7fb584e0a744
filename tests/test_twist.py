"""Rational points on the twisted curves attached to witnesses."""

import random
import sys
from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from diopoly import cli
from diopoly.forge import METHODS, ConstructionError, construct_witness
from diopoly.twist import twist_points

from oracles import GENUS_NOTE, QuadricCoords, certificate_twist, eval_ascending, parse_twist, reverse_map_point


def on_curve(scalar, coeffs, x, y):
    """Whether (x, y) satisfies scalar * y^2 = f(x), f evaluated by power
    sums."""
    return scalar * y**2 == eval_ascending(coeffs, x)


def test_worked_example():
    # the points lie on y^2 = 1 + 24x, and (1, 4) does not
    w = construct_witness([0, 1, 2], "quadric", parameter=(3, 1))
    block = twist_points(w)
    assert block == {
        "twist_scalar": "1",
        "poly": ["1", "24"],
        "points": [{"x": "0", "y": "1"}, {"x": "1", "y": "5"}, {"x": "2", "y": "7"}],
        "genus_note": GENUS_NOTE,
    }
    scalar, coeffs, points = parse_twist(block)
    assert all(on_curve(scalar, coeffs, x, y) for x, y in points)
    assert not on_curve(scalar, coeffs, 1, 4)


def test_first_point_is_base_node_with_unit_y():
    w = construct_witness([3, 5, 8, 11], "quadric", seed=2)
    assert twist_points(w)["points"][0] == {"x": "3", "y": "1"}


def test_point_count_matches_set_size():
    rnd = random.Random(13)
    for _ in range(8):
        size = rnd.randint(3, 7)
        elems = rnd.sample(range(-12, 13), size)
        w = construct_witness(elems, "quadric", seed=rnd.randint(0, 10**6))
        scalar, coeffs, points = parse_twist(twist_points(w))
        assert len(points) == size
        for x, y in points:
            assert on_curve(scalar, coeffs, x, y)


def test_fractional_ordinates_when_scalar_not_square():
    # Y = (7, 5, 1) and f = 24x - 49, whose first coefficient is negative,
    # so h = 49 - 24x; h(x_0) = 49 gives the ordinates Y_i / 7
    w = construct_witness([0, 1, 2], "quadric", parameter=(3, 2))
    assert w.image.coords == (7, 5, 1) and w.poly.coeffs == (-49, 24)
    block = twist_points(w)
    assert block["twist_scalar"] == "49"
    assert block["poly"] == ["49", "-24"]
    assert block["points"] == [{"x": "0", "y": "1"}, {"x": "1", "y": "5/7"}, {"x": "2", "y": "1/7"}]
    scalar, coeffs, points = parse_twist(block)
    assert all(on_curve(scalar, coeffs, x, y) for x, y in points)


def test_degenerate_when_poly_vanishes_at_base_node():
    # Y_0 = 0, so f = x^2 vanishes at the base node 0
    w = construct_witness([0, 1, 2, 3], "quadric", parameter=(3, 4, 5))
    assert w.image[0] == 0 and w.poly(0) == 0
    assert twist_points(w) is None


def test_genus_note_absent_for_higher_degree():
    w = construct_witness([0, 1, 2, 3, 4], "quadric", seed=11)
    block = twist_points(w)
    assert len(block["poly"]) - 1 == 3
    assert block["genus_note"] is None


def test_coefficients_past_the_digit_limit():
    """On 60 elements of [-10^6, 10^6) the quadric witness has coefficients
    of about 10 k digits, past CPython's 4300-digit int/str limit.  A library
    call returns the strings construct --emit-twist prints, where the CLI
    lifts the limit, and leaves the limit as it was."""
    w = construct_witness(random.Random(3).sample(range(-(10**6), 10**6), 60), "quadric", seed=1)
    limit = sys.get_int_max_str_digits()
    block = twist_points(w)
    assert sys.get_int_max_str_digits() == limit != 0
    assert max(map(len, block["poly"])) > limit
    with cli._int_str_limit_lifted():
        assert block == twist_points(w)
        scalar, coeffs, points = parse_twist(block)
        assert all(on_curve(scalar, coeffs, x, y) for x, y in points)


def test_curve_follows_certificate_coordinates():
    # The curve is the one the reverse map's canonical certificate point
    # gives (no division by the base value or leading coefficient).  The
    # witness polynomial is primitive, so projective canonicalization
    # leaves it as it is up to the sign of its first nonzero coefficient:
    # the curve's polynomial is the witness's, +-.  The plane witness is
    # (1 + x)^2, and the quadric one 24x - 49, of sign -1.
    for elems, method, parameter in [
        ([0, 1, 2, 3, 4], "plane", (1, 2, 0)),
        ([0, 1, 2], "quadric", (3, 2)),
    ]:
        w = construct_witness(elems, method, parameter=parameter)
        block = twist_points(w)
        assert block == certificate_twist(reverse_map_point(QuadricCoords(w.config, w.image)))
        sign = 1 if w.poly.coeffs[0] > 0 else -1
        assert block["poly"] == [str(sign * c) for c in w.poly.coeffs]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-300, 299), min_size=3, max_size=30, unique=True),
    st.sampled_from(METHODS),
    st.integers(0, 2**32).map(lambda seed: {"seed": seed}),
)
@example([5, 9, 13], "plane", {"seed": 1})  # padded with 0 and 1
@example([0, 1, 2, 3, 4, 5], "plane", {"seed": 1})  # padded with 6 and 7
@example([0, 1, 2, 3, 4], "quadric", {"parameter": (-2, -3, -2, -2)})  # Y_0 = 0
def test_ordinates_are_ratios_of_the_quadric_point(elems, method, kwargs):
    """The ordinate at node i is Y_i / Y_0 in lowest terms, at padding
    nodes too, with a positive denominator that is never printed as /1,
    and on the curve."""
    try:
        w = construct_witness(elems, method, **kwargs)
    except ConstructionError:
        assume(False)
    y = w.image.coords
    block = twist_points(w)
    if y[0] == 0:
        assert block is None
        return
    scalar, coeffs, points = parse_twist(block)
    assert [x for x, _ in points] == list(w.config.nodes)
    for p, (x, t), yi in zip(block["points"], points, y):
        assert t == Fraction(yi, y[0])
        # str of a Fraction: lowest terms, denominator positive, no "/1"
        assert p["y"] == str(t)
        assert on_curve(scalar, coeffs, x, t)
