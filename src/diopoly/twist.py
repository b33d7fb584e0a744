"""Rational points on the twisted curve attached to a witness.

A witness with primitive polynomial f and quadric point Y satisfies
f(x) = +-(L / g) * Y_x^2 at every node, one sign for all of them (forge
checks it at construction).  With h = sigma * f, sigma the sign of f's
first nonzero coefficient, and c = h(x_0) nonzero, that identity gives
c * (Y_i / Y_0)^2 = h(x_i), so every node carries the rational point
(x_i, Y_i / Y_0) on the curve c * y^2 = h(x): the base node with
ordinate 1, padding nodes included.  No further check runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .forge import Witness

__all__ = ["DegenerateTwistError", "TwistCurve", "TwistPointSet", "twist_points"]


class DegenerateTwistError(ValueError):
    """The polynomial vanishes at the base node, so no curve exists."""


@dataclass(frozen=True)
class TwistCurve:
    """The curve twist_scalar * y^2 = h(x), coefficients ascending.

    twist_scalar equals h evaluated at the base node and is nonzero; it
    is an integer, because nodes and coefficients are.
    """

    twist_scalar: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.twist_scalar == 0:
            raise ValueError("twist scalar must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


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


def twist_points(w: Witness) -> TwistPointSet:
    """All node points on the twisted curve of a witness.

    The curve is h(x_0) * y^2 = h(x) with h = sigma * f, sigma the sign of
    f's first nonzero coefficient, and node i carries (x_i, Y_i / Y_0).
    Raises DegenerateTwistError when Y_0 = 0, which by the node identity
    is exactly when f(x_0) = 0.  Takes one evaluation of f.
    """
    y = w.image.coords
    if y[0] == 0:
        raise DegenerateTwistError("polynomial vanishes at the base node")
    nodes = w.config.nodes
    sign = 1 if next(c for c in w.poly.coeffs if c) > 0 else -1
    curve = TwistCurve(
        twist_scalar=sign * w.poly(nodes[0]),
        coeffs=tuple(sign * c for c in w.poly.coeffs),
    )
    return TwistPointSet(curve=curve, points=tuple(zip(nodes, (Fraction(c, y[0]) for c in y))))
