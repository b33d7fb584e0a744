"""The twist block of a witness: rational points on a twisted curve.

A witness with primitive polynomial f and quadric point Y satisfies
f(x) = +-(L / g) * Y_x^2 at every node, one sign for all of them (forge
checks it at construction at the tail nodes; at the base nodes the
reverse map makes it hold).  With h = sigma * f, sigma the sign of f's
first nonzero coefficient, and c = h(x_0) nonzero, that identity gives
c * (Y_i / Y_0)^2 = h(x_i), so every node carries the rational point
(x_i, Y_i / Y_0) on the curve c * y^2 = h(x): the base node with
ordinate 1, padding nodes included.  No further check runs.
"""

from __future__ import annotations

import math

from .exactmath import _int_str_limit_lifted
from .forge import Witness

__all__ = ["twist_points"]

_LOW_DEGREE_NOTE = "degree <= 2: conic or rational model, not a hyperelliptic curve"


def twist_points(w: Witness) -> dict | None:
    """The twist block of w as construct --emit-twist prints it, or None
    when Y_0 = 0, which by the node identity is exactly when f(x_0) = 0.

    Its strings are twist_scalar, the integer h(x_0); poly, h ascending;
    points, each node x_i with the ordinate Y_i / Y_0 in lowest terms as
    "p/q", or "p" when q = 1 (Y_0 > 0, as ProjPoint makes the first nonzero
    coordinate positive); and genus_note, a caveat for degree <= 2, else
    None.  Takes one evaluation of f.  The strings are formed with
    CPython's int/str digit limit lifted, as the CLI prints them, so a
    coefficient of any length is printed.
    """
    y = w.image.coords
    if y[0] == 0:
        return None
    nodes = w.config.nodes
    coeffs = w.poly.coeffs
    sign = 1 if next(c for c in coeffs if c) > 0 else -1
    points = []
    with _int_str_limit_lifted():
        for x, yi in zip(nodes, y):
            g = math.gcd(yi, y[0])
            den = y[0] // g
            points.append({"x": str(x), "y": f"{yi // g}/{den}" if den > 1 else str(yi // g)})
        return {
            "twist_scalar": str(sign * w.poly(nodes[0])),
            "poly": [str(sign * c) for c in coeffs],
            "points": points,
            "genus_note": _LOW_DEGREE_NOTE if len(coeffs) <= 3 else None,
        }
