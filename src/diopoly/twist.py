"""Rational points on the twisted curve attached to a certificate point.

A certificate point with integer polynomial f and nonzero base value
c = f(x_0) gives the curve c * y^2 = f(x).  Every node of the
configuration carries a rational point on it: the base node with
ordinate 1, node i with ordinate z_i / c.  The integer data of the
certificate point is used exactly as stored; no renormalization of f
happens here, so the curve really is the one the certificates satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rationalmaps import CertificatePoint

__all__ = ["DegenerateTwistError", "TwistCurve", "TwistPointSet", "twist_points"]


class DegenerateTwistError(ValueError):
    """The polynomial vanishes at the base node, so no curve exists."""


@dataclass(frozen=True)
class TwistCurve:
    """The curve twist_scalar * y^2 = f(x), coefficients ascending.

    twist_scalar equals f evaluated at the base node and is nonzero; it
    is an integer, because nodes and coefficients are.
    """

    twist_scalar: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.twist_scalar == 0:
            raise ValueError("twist scalar must be nonzero")

    @property
    def degree(self) -> int:
        d = len(self.coeffs) - 1
        while d > 0 and self.coeffs[d] == 0:
            d -= 1
        return d


@dataclass(frozen=True)
class TwistPointSet:
    """A twisted curve together with one rational point per node."""

    curve: TwistCurve
    points: tuple[tuple[int, Fraction], ...]

    @property
    def genus_note(self) -> str | None:
        """Caveat for low-degree models, which are not hyperelliptic."""
        if self.curve.degree <= 2:
            return "degree <= 2: conic or rational model, not a hyperelliptic curve"
        return None


def twist_points(v: CertificatePoint) -> TwistPointSet:
    """All node points on the twisted curve of a certificate point.

    Raises DegenerateTwistError when f(x_0) = 0.  The points need no check
    of their own: a CertificatePoint is validated on construction, so
    z_i^2 = c * f(x_i) with c = f(x_0), and c * (z_i / c)^2 = f(x_i) puts
    the point (x_i, z_i / c) on the curve; the base node's (x_0, 1) is on
    it by the definition of c.
    """
    scalar = v.poly_value(0)
    if scalar == 0:
        raise DegenerateTwistError("polynomial vanishes at the base node")
    curve = TwistCurve(twist_scalar=scalar, coeffs=v.coefficients)
    nodes = v.config.nodes
    pts = [(nodes[0], Fraction(1))]
    for i, z in enumerate(v.certificates, start=1):
        pts.append((nodes[i], Fraction(z, scalar)))
    return TwistPointSet(curve=curve, points=tuple(pts))
