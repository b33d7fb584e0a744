"""Rational points on the twisted curves attached to witnesses."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from diopoly.forge import METHODS, ConstructionError, construct_witness
from diopoly.rationalmaps import CertificatePoint
from diopoly.twist import DegenerateTwistError, TwistCurve, twist_points
from diopoly.variety import PointConfig, ProjPoint

from oracles import eval_ascending


def on_curve(curve, x, y):
    """Whether (x, y) satisfies twist_scalar * y^2 = f(x), f evaluated by
    power sums."""
    return curve.twist_scalar * y**2 == eval_ascending(curve.coeffs, x)


def test_curve_validation():
    with pytest.raises(ValueError):
        TwistCurve(Fraction(0), (1, 24))


def test_curve_contains():
    # the worked example's points lie on y^2 = 1 + 24x, and (1, 4) does not
    ps = twist_points(construct_witness([0, 1, 2], "quadric", parameter=(3, 1)).certificate)
    assert len(ps.points) == 3
    assert all(on_curve(ps.curve, x, y) for x, y in ps.points)
    assert not on_curve(ps.curve, Fraction(1), Fraction(4))


def test_worked_example():
    w = construct_witness([0, 1, 2], "quadric", parameter=(3, 1))
    ps = twist_points(w.certificate)
    assert ps.curve.twist_scalar == 1
    assert ps.curve.coeffs == (1, 24)
    assert ps.points == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(5)), (Fraction(2), Fraction(7)))
    assert ps.genus_note == "degree <= 2: conic or rational model, not a hyperelliptic curve"


def test_first_point_is_base_node_with_unit_y():
    w = construct_witness([3, 5, 8, 11], "quadric", seed=2)
    ps = twist_points(w.certificate)
    assert ps.points[0] == (Fraction(3), Fraction(1))


def test_point_count_matches_set_size():
    rnd = random.Random(13)
    for _ in range(8):
        size = rnd.randint(3, 7)
        elems = rnd.sample(range(-12, 13), size)
        w = construct_witness(elems, "quadric", seed=rnd.randint(0, 10**6))
        ps = twist_points(w.certificate)
        assert len(ps.points) == size
        for x, y in ps.points:
            assert on_curve(ps.curve, x, y)


def test_fractional_ordinates_when_scalar_not_square():
    # f(x_0) = 49 - 24x at 0 is 49; scalar 49 gives y = z/49
    cfg = PointConfig((0, 1, 2), 1)
    v = CertificatePoint(cfg, ProjPoint((49, -24, 35, 7)))
    ps = twist_points(v)
    assert ps.curve.twist_scalar == 49
    assert ps.points[1] == (Fraction(1), Fraction(35, 49))
    assert on_curve(ps.curve, Fraction(1), Fraction(5, 7))


def test_degenerate_when_poly_vanishes_at_base_node():
    cfg = PointConfig((0, 1, 2), 1)
    v = CertificatePoint(cfg, ProjPoint((0, 1, 0, 0)))  # f = x
    with pytest.raises(DegenerateTwistError):
        twist_points(v)


def test_genus_note_absent_for_higher_degree():
    w = construct_witness([0, 1, 2, 3, 4], "quadric", seed=11)
    ps = twist_points(w.certificate)
    assert ps.curve.degree == 3
    assert ps.genus_note is None


def test_curve_follows_certificate_coordinates():
    # The curve keeps the certificate point's canonical integers verbatim
    # (no division by the base value or leading coefficient).  The witness
    # polynomial is primitive, so projective canonicalization leaves it as
    # it is up to sign: the curve's polynomial is the witness's, +-.
    w = construct_witness([0, 1, 2, 3, 4], "plane", parameter=(1, 2, 0))
    assert w.poly.coeffs == (1, 2, 1)
    ps = twist_points(w.certificate)
    assert ps.curve.coeffs == w.certificate.coefficients == w.poly.coeffs
    assert ps.points[2] == (Fraction(2), Fraction(-3))


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
    """z_i = (f(x_0) / Y_0) * Y_i, so the ordinate z_i / f(x_0) at node i
    is Y_i / Y_0 in lowest terms, at padding nodes too, and on the curve."""
    try:
        w = construct_witness(elems, method, **kwargs)
    except ConstructionError:
        assume(False)
    y = w.image.coords
    if y[0] == 0:
        with pytest.raises(DegenerateTwistError):
            twist_points(w.certificate)
        return
    ps = twist_points(w.certificate)
    assert [x for x, _ in ps.points] == list(w.config.nodes)
    for (x, t), yi in zip(ps.points, y):
        assert t == Fraction(yi, y[0])
        assert t.denominator > 0 and math.gcd(t.numerator, t.denominator) == 1
        assert on_curve(ps.curve, x, t)
