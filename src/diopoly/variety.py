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
  the equation is diagonal in the squares; the coefficients are the
  signed maximal minors of the power block, i.e. Vandermonde
  products of d+1 of the d+2 chosen nodes, so no determinant is ever
  taken.  Only the ratios of one row matter, so a config keeps each row
  on the scale L, the lcm of the Lagrange weights w_j of the base nodes
  x_0..x_d, and computes all of them once, on first use, from the d + 1
  integers L / w_j, which it keeps with L.

Points are canonical primitive integer vectors (content one, first
nonzero coordinate positive), so point equality is tuple equality and
both membership tests are manifestly invariant under rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

from .exactmath import eval_poly, lagrange_weights

__all__ = [
    "ProjPoint",
    "PointConfig",
    "on_quadric_variety",
    "on_certificate_variety",
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
        g = reduce(math.gcd, (abs(c) for c in raw))
        first = next(c for c in raw if c != 0)
        sign = 1 if first > 0 else -1
        object.__setattr__(self, "coords", tuple(sign * c // g for c in raw))

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> int:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)


@dataclass(frozen=True)
class PointConfig:
    """Pairwise distinct nodes x_0..x_n plus a degree bound d.

    Requires d >= 1 and n >= d + 1 (so there is at least one quadric).
    Nodes are plain ints, which keeps every bracket cofactor an integer.
    The node tables (base_lagrange, cofactor_rows) are built on first
    use and live as long as the config; they take no part in equality
    or hashing.
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

    @property
    def extra_indices(self) -> range:
        """Indices d+1..n, one diagonal quadric per index."""
        return range(self.degree + 1, self.n + 1)

    @cached_property
    def base_lagrange(self) -> tuple[int, tuple[int, ...]]:
        """exactmath.lagrange_weights over the base nodes x_0..x_d:
        (L, (L / w_0, .., L / w_d)), so
        exactmath.lagrange_numerator(x_0..x_d, ((L / w_j) * v_j)_j) is L
        times the interpolant of the v_j."""
        return lagrange_weights(self.nodes[: self.degree + 1])

    @cached_property
    def cofactor_rows(self) -> tuple[tuple[int, ...], ...]:
        """The bracket's last-row cofactors for the extra indices d+1..n, in
        order, each row times L / D.

        Over the d+2 nodes (x_0..x_d, x_m) literal cofactor j is V / w'_j, with
        V = D * P_m their Vandermonde product (D that of the base nodes,
        P_m = prod_{i<=d} (x_m - x_i)) and w'_j = w_j * (x_j - x_m) the weight
        of node j <= d, so times L / D it is -(L / w_j) * (P_m / (x_m - x_j)),
        and the last one is L; both quotients are exact.
        """
        ll, weights = self.base_lagrange
        base = self.nodes[: self.degree + 1]
        rows = []
        for xm in self.nodes[self.degree + 1 :]:
            pm = math.prod(xm - xi for xi in base)
            rows.append(tuple(-s * (pm // (xm - xj)) for s, xj in zip(weights, base)) + (ll,))
        return tuple(rows)


def on_quadric_variety(config: PointConfig, point: ProjPoint) -> bool:
    """Whether (Y_0..Y_n) satisfies every defining diagonal quadric."""
    if len(point) != config.n + 1:
        raise ValueError(f"point needs {config.n + 1} coordinates, got {len(point)}")
    # the L-scaled brackets: a zero test does not depend on their scale
    squares = [c * c for c in point.coords]
    base = squares[: config.degree + 1]
    rows = zip(config.cofactor_rows, squares[config.degree + 1 :])
    return all(sum(c * v for c, v in zip(row, base + [s])) == 0 for row, s in rows)


def on_certificate_variety(config: PointConfig, point: ProjPoint) -> bool:
    """Whether (f_0..f_d, z_1..z_n) satisfies z_i^2 = f(x_0) f(x_i) for all i."""
    d, n = config.degree, config.n
    if len(point) != (d + 1) + n:
        raise ValueError(f"point needs {(d + 1) + n} coordinates, got {len(point)}")
    coeffs = point.coords[: d + 1]
    certs = point.coords[d + 1 :]
    values = [eval_poly(coeffs, x) for x in config.nodes]
    return all(z**2 == values[0] * values[i + 1] for i, z in enumerate(certs))
