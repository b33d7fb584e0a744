"""Evaluation-node configurations and their determinantal quadrics.

Fixing pairwise-distinct integer nodes x_0..x_n and a degree bound
d with 1 <= d < n produces the two projective varieties this package
works on:

* the certificate variety, coordinates (f_0..f_d, z_1..z_n): the
  polynomial f with those ascending coefficients must satisfy
  z_i^2 = f(x_0) * f(x_i) at every node past the base node;

* the quadric variety, coordinates (Y_0..Y_n): for each extra index
  i in d+1..n, the bracket determinant stacking the node power rows
  t = 0..d over the columns (x_0..x_d, x_i), with (Y_0^2..Y_d^2, Y_i^2)
  as the last row, must vanish.  Expanding along that last row shows
  the equation is diagonal in the squares.  It vanishes exactly when
  the d+2 squares lie on one polynomial of degree <= d, that is when
  I(x_i) = Y_i^2, with I the Lagrange interpolant of Y_0^2..Y_d^2 over
  the base nodes x_0..x_d.  The reverse map builds f from L * I, L the
  lcm of the Lagrange weights w_j of the base nodes, so f matches the
  squares at the base nodes by construction, and construction checks f
  at the tail nodes x_{d+1}..x_n, which puts its point on this variety
  and the certificate point on the other; the package has no membership
  test for either.  A config keeps L with the d + 1 integers L / w_j,
  computed once on first use.

Points are canonical primitive integer vectors (content one, first
nonzero coordinate positive), so point equality is tuple equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .exactmath import lagrange_weights

__all__ = [
    "ProjPoint",
    "PointConfig",
]


@dataclass(frozen=True)
class ProjPoint:
    """Projective point with canonical primitive integer coordinates.

    Construction accepts any nonzero integer vector and immediately
    canonicalizes it: divide by the gcd of all coordinates, then flip
    the overall sign so the first nonzero coordinate is positive.
    """

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        raw = tuple(self.coords)
        if not raw:
            raise ValueError("projective point needs at least one coordinate")
        if any(not isinstance(c, int) or isinstance(c, bool) for c in raw):
            raise TypeError("projective coordinates must be plain ints")
        if all(c == 0 for c in raw):
            raise ValueError("the zero vector is not a projective point")
        g = math.gcd(*raw)
        if next(c for c in raw if c) < 0:
            raw = tuple(-c // g for c in raw)
        elif g > 1:
            raw = tuple(c // g for c in raw)
        object.__setattr__(self, "coords", raw)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> int:
        return self.coords[i]


@dataclass(frozen=True)
class PointConfig:
    """Pairwise distinct nodes x_0..x_n plus a degree bound d.

    Requires d >= 1 and n >= d + 1 (so there is at least one quadric).
    Nodes are plain ints, which keeps every bracket cofactor an integer.
    The node table base_lagrange is built on first use and lives as long
    as the config, so every construction that shares the config (forge
    keeps the configs of its last few sets and methods in a bounded
    cache) shares the table; it takes no part in equality or hashing.
    """

    nodes: tuple[int, ...]
    degree: int

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        if any(not isinstance(x, int) or isinstance(x, bool) for x in nodes):
            raise TypeError("nodes must be plain ints")
        object.__setattr__(self, "nodes", nodes)
        if len(set(nodes)) != len(nodes):
            raise ValueError("nodes must be pairwise distinct")
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if len(nodes) < self.degree + 2:
            raise ValueError(
                f"need at least {self.degree + 2} nodes for degree {self.degree}, got {len(nodes)}"
            )

    @property
    def n(self) -> int:
        """Largest node index (the node count is n + 1)."""
        return len(self.nodes) - 1

    @cached_property
    def base_lagrange(self) -> tuple[int, tuple[int, ...]]:
        """exactmath.lagrange_weights over the base nodes x_0..x_d:
        (L, (L / w_0, .., L / w_d)), so
        exactmath.lagrange_numerator(x_0..x_d, ((L / w_j) * v_j)_j) is L
        times the interpolant of the v_j."""
        return lagrange_weights(self.nodes[: self.degree + 1])
