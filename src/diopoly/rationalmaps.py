"""Birational correspondence between the two varieties, plus two rational
parametrizations of the quadric side with exact inverses.

Forward map: a certificate point (f_0..f_d, z_1..z_n) with f(x_0) != 0
goes to the value-side point (f(x_0), z_1, .., z_n).

Reverse map: from (Y_0..Y_n), coefficient j of the polynomial is
(-1)^j times the minor obtained from the (d+2) x (d+1) array of power
rows plus the squares row (Y_0^2..Y_d^2) by deleting power row j; the
certificates are z_i = (-1)^d * D * Y_0 * Y_i, where D is the
Vandermonde product of the first d+1 nodes.  The reconstructed
polynomial satisfies f(x_i) = (-1)^d * D * Y_i^2 at every node, which
is what makes the certificate identities hold; it is therefore computed
as (-1)^d * D times the Lagrange interpolant of the Y_i^2 over
x_0..x_d, whose integer form needs no determinant.  With the (-1)^d twist
on the certificates, both composites are exact projective identities
away from the f(x_0) = 0 locus, not merely identities up to
coordinate signs.

Parametrizations of the quadric side:

* line construction (needs n = d+1, a single quadric): intersect the
  quadric with the line through the all-ones point in direction
  (q_0..q_d, 0); with mu the bracket of the padded direction and nu the
  bracket of its squares, the second intersection point is
  (2*mu*q_0 - nu, .., 2*mu*q_d - nu, -nu);

* plane construction (needs d = 2k, n = 3k+1): the variety contains the
  plane spanned by the power points T_0..T_k; for a direction q the
  residual intersection point is sum(mu_t * T_t) + mu_{k+1} * q_hat,
  where q_hat pads q with zeros and the mu span the kernel of a
  (k+1) x (k+2) integer system matrix of bracket evaluations.

Nodes are integers, so everything except the plane inverse (which
interpolates with rationals) is computed in exact integer arithmetic,
and every point is returned in canonical projective form, so composing
a map with its inverse can be checked with plain tuple equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exactmath import eval_poly, integer_kernel, interpolate, lagrange_basis, vandermonde
from .variety import (
    PointConfig,
    ProjPoint,
    bracket_cofactors,
    on_certificate_variety,
    on_quadric_variety,
)

__all__ = [
    "IndeterminatePointError",
    "DegenerateParameterError",
    "CertificatePoint",
    "QuadricPoint",
    "node_vandermonde",
    "certificate_to_quadric",
    "quadric_to_certificate",
    "quadric_to_certificate_raw",
    "parametrize_quadric",
    "parametrize_quadric_inverse",
    "plane_system_matrix",
    "parametrize_plane",
    "parametrize_plane_inverse",
]


class IndeterminatePointError(ValueError):
    """A rational map was evaluated at a point where it is undefined."""


class DegenerateParameterError(ValueError):
    """A parametrization hit the degenerate locus of its parameter space."""


@dataclass(frozen=True)
class CertificatePoint:
    """Validated point (f_0..f_d, z_1..z_n) on the certificate variety."""

    config: PointConfig
    point: ProjPoint

    def __post_init__(self) -> None:
        if not on_certificate_variety(self.config, self.point):
            raise ValueError("coordinates do not satisfy the certificate equations")

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self.point.coords[: self.config.degree + 1]

    @property
    def certificates(self) -> tuple[int, ...]:
        return self.point.coords[self.config.degree + 1 :]

    def poly_value(self, node_index: int) -> int:
        """f(x_i) for the stored integer coefficients."""
        return eval_poly(self.coefficients, self.config.nodes[node_index])

    @property
    def degenerate(self) -> bool:
        """True when f vanishes at the base node, where the forward map
        is indeterminate."""
        return self.poly_value(0) == 0


@dataclass(frozen=True)
class QuadricPoint:
    """Validated point (Y_0..Y_n) on the quadric variety."""

    config: PointConfig
    point: ProjPoint

    def __post_init__(self) -> None:
        if not on_quadric_variety(self.config, self.point):
            raise ValueError("coordinates do not satisfy the quadric equations")

    @property
    def is_base_point(self) -> bool:
        return self.point.coords == (1,) * (self.config.n + 1)

    @property
    def in_plane(self) -> bool:
        """Whether the point lies in the plane spanned by the power points
        T_0..T_k; only meaningful for configurations with even degree."""
        d = self.config.degree
        if d % 2 != 0:
            raise ValueError("the power-point plane needs an even degree bound")
        k = d // 2
        nodes = self.config.nodes
        coords = self.point.coords
        tail = [(nodes[m], coords[m]) for m in range(d + 1, self.config.n + 1)]
        g = interpolate(tail[: k + 1], k)
        return all(coords[i] == eval_poly(g, nodes[i]) for i in range(len(coords)))


def node_vandermonde(config: PointConfig) -> int:
    """Vandermonde product of the first d+1 nodes."""
    return vandermonde(config.nodes[: config.degree + 1])


def certificate_to_quadric(v: CertificatePoint) -> QuadricPoint:
    """Forward map (f_0..f_d, z_1..z_n) -> (f(x_0), z_1, .., z_n)."""
    fx0 = v.poly_value(0)
    if fx0 == 0:
        raise IndeterminatePointError("forward map undefined where f(x_0) = 0")
    return QuadricPoint(v.config, ProjPoint((fx0, *v.certificates)))


def quadric_to_certificate_raw(w: QuadricPoint) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reverse map before projective canonicalization.

    Returns (coefficients f_0..f_d, certificates z_1..z_n), equal to the
    literal minor and product formulas; the coefficient part satisfies
    f(x_i) = (-1)^d * D * Y_i^2 exactly at every node index i.  It is
    built in Lagrange form, (-1)^d * sum_i (D / w_i) * Y_i^2 * b_i(x),
    where each D / w_i is an exact integer quotient.
    """
    config = w.config
    d, n = config.degree, config.n
    y = w.point.coords
    dd = node_vandermonde(config)
    sign = -1 if d % 2 else 1

    coeffs = [0] * (d + 1)
    for i, (weight, basis) in enumerate(lagrange_basis(config.nodes[: d + 1])):
        scale = sign * (dd // weight) * y[i] ** 2
        for t, c in enumerate(basis):
            coeffs[t] += scale * c

    scale = sign * dd * y[0]
    certs = tuple(scale * y[i] for i in range(1, n + 1))
    return tuple(coeffs), certs


def quadric_to_certificate(w: QuadricPoint) -> CertificatePoint:
    """Reverse map in canonical projective form.

    Total on the quadric variety: points with Y_0 = 0 map to certificate
    points whose polynomial vanishes at the base node (flagged through
    CertificatePoint.degenerate) rather than raising.
    """
    coeffs, certs = quadric_to_certificate_raw(w)
    return CertificatePoint(w.config, ProjPoint(coeffs + certs))


def _check_line_shape(config: PointConfig) -> None:
    if config.n != config.degree + 1:
        raise ValueError("line construction needs exactly n = degree + 1")


def parametrize_quadric(config: PointConfig, direction: ProjPoint) -> QuadricPoint:
    """Second intersection of the single quadric with the line through the
    all-ones point in direction (q, 0).

    The image equal to the all-ones base point (direction on the
    polar locus mu = 0) is returned as-is; callers can test
    QuadricPoint.is_base_point.  A direction with mu = nu = 0 leaves
    the image undefined and raises DegenerateParameterError.
    """
    _check_line_shape(config)
    d = config.degree
    if len(direction) != d + 1:
        raise ValueError(f"direction needs {d + 1} coordinates, got {len(direction)}")
    cof = bracket_cofactors(config, d + 1)
    q = direction.coords
    mu = sum(cof[j] * q[j] for j in range(d + 1))
    nu = sum(cof[j] * q[j] ** 2 for j in range(d + 1))
    if mu == 0 and nu == 0:
        raise DegenerateParameterError("direction lies on the quadric and its polar")
    image = [2 * mu * q[j] - nu for j in range(d + 1)] + [-nu]
    return QuadricPoint(config, ProjPoint(tuple(image)))


def parametrize_quadric_inverse(w: QuadricPoint) -> ProjPoint:
    """Direction recovering a quadric-variety point under the line map:
    coordinate-wise difference with the last coordinate."""
    _check_line_shape(w.config)
    d = w.config.degree
    y = w.point.coords
    diffs = [y[j] - y[d + 1] for j in range(d + 1)]
    if all(c == 0 for c in diffs):
        raise IndeterminatePointError("inverse undefined at the all-ones base point")
    return ProjPoint(tuple(diffs))


def _plane_k(config: PointConfig) -> int:
    d, n = config.degree, config.n
    if d % 2 != 0:
        raise ValueError("plane construction needs an even degree bound")
    k = d // 2
    if n != 3 * k + 1:
        raise ValueError("plane construction needs exactly n = 3k + 1 nodes past the first")
    return k


def plane_system_matrix(config: PointConfig, direction: ProjPoint) -> list[list[int]]:
    """The (k+1) x (k+2) integer system whose kernel gives the plane
    coefficients mu_0..mu_{k+1} (its alternating maximal minors).

    Row m - (d+1) covers extra index m: the first k+1 entries are twice
    the bracket of (q_i * x_i^t) padded with zero at m, the last entry
    is the bracket of the squared direction.  Brackets enter raw, with
    their full Vandermonde content.
    """
    k = _plane_k(config)
    d = config.degree
    if len(direction) != d + 1:
        raise ValueError(f"direction needs {d + 1} coordinates, got {len(direction)}")
    q = direction.coords
    rows = []
    for m in config.extra_indices:
        cof = bracket_cofactors(config, m)
        row = [
            2 * sum(cof[i] * q[i] * config.nodes[i] ** t for i in range(d + 1))
            for t in range(k + 1)
        ]
        row.append(sum(cof[i] * q[i] ** 2 for i in range(d + 1)))
        rows.append(row)
    return rows


def parametrize_plane(config: PointConfig, direction: ProjPoint) -> QuadricPoint:
    """Residual intersection point sum(mu_t * T_t) + mu_{k+1} * q_hat.

    The mu are any integer kernel vector of the system matrix: the image
    is linear in mu, so every nonzero multiple gives the same canonical
    point, and dividing each row by its content leaves the kernel as it
    is.  Directions whose system matrix drops rank (all mu zero) raise
    DegenerateParameterError.  When mu_{k+1} = 0 the image lies inside
    the spanned plane itself; it is still returned, and callers can
    test QuadricPoint.in_plane.
    """
    k = _plane_k(config)
    d = config.degree
    rows = []
    for row in plane_system_matrix(config, direction):
        g = math.gcd(*row)
        rows.append([c // g for c in row] if g > 1 else row)
    mus = integer_kernel(rows)
    if mus is None:
        raise DegenerateParameterError("system matrix has deficient rank for this direction")
    q = direction.coords
    image = []
    for i in range(config.n + 1):
        val = sum(mus[t] * config.nodes[i] ** t for t in range(k + 1))
        if i <= d:
            val += mus[k + 1] * q[i]
        image.append(val)
    return QuadricPoint(config, ProjPoint(tuple(image)))


def parametrize_plane_inverse(w: QuadricPoint) -> ProjPoint:
    """Direction recovering a quadric-variety point under the plane map.

    Interpolate the degree <= k polynomial g through the tail
    coordinates (x_m, Y_m), m = d+1..n, and return the differences
    (Y_0 - g(x_0), .., Y_d - g(x_d)).  Points inside the spanned plane
    make every difference vanish and raise IndeterminatePointError.
    """
    config = w.config
    k = _plane_k(config)
    d = config.degree
    y = w.point.coords
    tail = [(config.nodes[m], y[m]) for m in config.extra_indices]
    g = interpolate(tail, k)
    diffs = [y[i] - eval_poly(g, config.nodes[i]) for i in range(d + 1)]
    if all(c == 0 for c in diffs):
        raise IndeterminatePointError("inverse undefined on the power-point plane")
    return ProjPoint.from_rationals(diffs)
