"""Birational correspondence between the two varieties, plus the rational
parametrization of the quadric side.

Forward map: a certificate point (f_0..f_d, z_1..z_n) with f(x_0) != 0
goes to the value-side point (f(x_0), z_1, .., z_n).

Reverse map: from (Y_0..Y_n), coefficient j of the polynomial is
(-1)^j times the minor obtained from the (d+2) x (d+1) array of power
rows plus the squares row (Y_0^2..Y_d^2) by deleting power row j; the
certificates are z_i = (-1)^d * D * Y_0 * Y_i, where D is the
Vandermonde product of the first d+1 nodes.  Then
f(x_i) = (-1)^d * D * Y_i^2 at every node, which makes the certificate
identities hold, as they do for any constant multiple.  This module
takes L / D times the coefficients, L the lcm of the base Lagrange
weights w_i: f is (-1)^d * L times the Lagrange interpolant of the Y_i^2
over x_0..x_d, exactmath.lagrange_numerator of the values
(L / w_i) * Y_i^2 with the config's weights (PointConfig.base_lagrange),
so no determinant and no basis polynomial is formed, and no certificate
either: the package never needs the z_i, since the node identity that
forge checks implies the equations they satisfy.  With the (-1)^d twist
on the certificates, both composites are exact projective identities
away from the f(x_0) = 0 locus, not merely identities up to coordinate
signs.

Parametrization of the quadric side (needs 2k <= d for k = n - d - 1):
the variety contains the plane spanned by the power points T_0..T_k;
for a direction q the residual intersection point is
sum(mu_t * T_t) + mu_{k+1} * q_hat, where q_hat pads q with zeros and
the mu span the kernel of a (k+1) x (k+2) integer system matrix of
bracket evaluations, on the scale L of the config's weights.  A line
config (n = d + 1) is the case k = 0: T_0 is the all-ones base point,
so the image is the second intersection of the single quadric with the
line through it in direction q_hat.
The system reduces to |J| - k - 1 rows, J the support of q.  A direction
with exactly k + 2 nonzero coordinates, which is every default plane
draw, leaves one row, and its image is solved in closed form from
products of node differences; every other direction takes the kernel of
the full system by exactmath.integer_kernel.  plane_image is that
solve, and returns the image with its in-plane flag.

Which check proves what: the construction pipeline (forge) takes
plane_image's point and checks g * f(x) = +-L * Y_x^2 at every node of
the primitive polynomial f it builds (g the content it divided out),
which proves the witness and implies both variety equations; the
certificate equations it implies put the twist points (x_i, Y_i / Y_0)
on their curve.  No other check runs: the quadric equations, the
certificate equations, the forward map and the inverse of the
parametrization are used only as cross-checks, and live with the test
oracles.

Nodes are integers, so everything is computed in exact integer
arithmetic, and every point is returned in canonical projective form,
so composing a map with its inverse can be checked with plain tuple
equality.
"""

from __future__ import annotations

import math
from typing import Sequence

from .exactmath import eval_poly, integer_kernel, lagrange_numerator, power_moments
from .variety import PointConfig, ProjPoint

__all__ = [
    "DegenerateParameterError",
    "quadric_to_certificate_lcm",
    "plane_system_matrix",
    "plane_image",
]


class DegenerateParameterError(ValueError):
    """A parametrization hit the degenerate locus of its parameter space."""


def quadric_to_certificate_lcm(config: PointConfig, y: Sequence[int]) -> tuple[int, ...]:
    """Coefficients f_0..f_d of the reverse map of the coordinates
    y = (Y_0..Y_n) before projective canonicalization, on the scale L.

    They are L / D times the literal minor formulas:
    f = (-1)^d * sum_i (L / w_i) * Y_i^2 * b_i with
    b_i = prod_{j != i} (x - x_j), taken by exactmath.lagrange_numerator
    from the config's weights, so f(x_i) = (-1)^d * L * Y_i^2 at every base
    node x_0..x_d, and at the tail nodes exactly when y lies on the quadric
    variety.  forge checks that identity at every node of the witness it
    builds from them.
    """
    d = config.degree
    sign = -1 if d % 2 else 1
    values = [s * c * c for s, c in zip(config.base_lagrange[1], y[: d + 1])]
    return tuple(sign * c for c in lagrange_numerator(config.nodes[: d + 1], values))


def _plane_k(config: PointConfig) -> int:
    """k = n - d - 1, so the k+1 extra indices give a (k+1) x (k+2) system;
    the power points T_0..T_k lie on the variety only when 2k <= d."""
    d = config.degree
    k = config.n - d - 1
    if 2 * k > d:
        raise ValueError(
            f"power-span construction needs 2k <= d for k = n - d - 1; got k = {k}, d = {d}"
        )
    return k


def plane_system_matrix(config: PointConfig, direction: ProjPoint) -> list[list[int]]:
    """The (k+1) x (k+2) integer system whose kernel gives the plane
    coefficients mu_0..mu_{k+1} (its alternating maximal minors).

    Row m - (d+1) covers extra index m.  With P_m = prod_{i<=d} (x_m - x_i),
    the bracket's cofactor j <= d over (x_0..x_d, x_m), times L / D (D the
    Vandermonde product of the base nodes), is the exact quotient
    c_j = -(L / w_j) * P_m / (x_m - x_j).  With a_j = c_j * q_j, entry
    t = 0..k is 2 * sum_j a_j * x_j^t, twice the bracket of q_i * x_i^t
    padded with zero at m, and the last is sum_j a_j * q_j, the bracket of
    the squared direction.  As a_j * (x_m - x_j) = -(L / w_j) * q_j * P_m,
    entry t+1 = x_m * entry_t + 2 * P_m * s_t, where the moments
    s_t = sum_j (L / w_j) * q_j * x_j^t are shared by all rows.
    """
    k = _plane_k(config)
    d = config.degree
    if len(direction) != d + 1:
        raise ValueError(f"direction needs {d + 1} coordinates, got {len(direction)}")
    q = direction.coords
    xs = config.nodes[: d + 1]
    lq = [s * qi for s, qi in zip(config.base_lagrange[1], q)]
    moments = power_moments(xs, lq, k)
    rows = []
    for xm in config.nodes[d + 1 :]:
        pm = math.prod(xm - x for x in xs)
        a = [-v * (pm // (xm - xj)) for v, xj in zip(lq, xs)]
        twice_pm = 2 * pm
        row = [2 * sum(a)]
        for s in moments:
            row.append(xm * row[-1] + twice_pm * s)
        row.append(sum(ai * qi for ai, qi in zip(a, q)))
        rows.append(row)
    return rows


def plane_image(config: PointConfig, direction: ProjPoint) -> tuple[ProjPoint, bool]:
    """Residual intersection point sum(mu_t * T_t) + mu_{k+1} * q_hat, in
    canonical form, and whether it lies in the spanned plane.

    Write M = sum(mu_t * x^t), of degree <= k, and lambda = mu_{k+1}: the
    image is Y = M + lambda * q_hat on the base nodes and Y = M on the tail
    nodes.  The system holds exactly when
    q_j * (2 * M(x_j) + lambda * q_j) = N(x_j) * S(x_j) at every base node
    for some S of degree <= d - k - 1, N = prod_tail (x - x_m), and then
    f is proportional to M^2 + lambda * N * S.  A zero q_l forces
    S(x_l) = 0, so with J the support of q, S is a multiple of
    P = prod_{q_l = 0} (x - x_l) with |J| - k - 1 free coefficients, and
    M must pass through the |J| values it takes on J: the reduced system
    has |J| - k - 1 rows.

    A direction with exactly k + 2 nonzero coordinates (every default
    plane draw, and quadric draws on two coordinates) has a single row,
    solved in closed form by _plane_image_on_k2_support.  Every other
    direction takes the general path: mu is any integer kernel vector of
    the system matrix, the image is linear in mu, so every nonzero
    multiple gives the same canonical point, and dividing each row by its
    content leaves the kernel as it is.  Both paths give the same point
    and the same flag.

    Directions whose system matrix drops rank (all mu zero) raise
    DegenerateParameterError.  When mu_{k+1} = 0 the image lies inside
    the spanned plane itself (for k = 0: the base point, when q is on the
    polar); it is still returned, with the flag read off lambda: the
    tail coordinates are the values of M at k+1 nodes, and q is nonzero,
    so the image lies in the plane exactly when lambda = 0.

    The point is not checked against the variety here: forge checks the
    node identity of the witness built from it, which puts it there.
    """
    k = _plane_k(config)
    d = config.degree
    if len(direction) != d + 1:
        raise ValueError(f"direction needs {d + 1} coordinates, got {len(direction)}")
    q = direction.coords
    if sum(1 for c in q if c) == k + 2:
        image, in_plane = _plane_image_on_k2_support(config, q, k)
    else:
        rows = []
        for row in plane_system_matrix(config, direction):
            g = math.gcd(*row)
            rows.append([c // g for c in row] if g > 1 else row)
        mus = integer_kernel(rows)
        if mus is None:
            raise DegenerateParameterError("system matrix has deficient rank for this direction")
        image = [eval_poly(mus[: k + 1], x) for x in config.nodes]
        for i, qi in enumerate(q):
            image[i] += mus[k + 1] * qi
        in_plane = mus[k + 1] == 0
    return ProjPoint(tuple(image)), in_plane


def _plane_image_on_k2_support(
    config: PointConfig, q: Sequence[int], k: int
) -> tuple[list[int], bool]:
    """Image of a direction with exactly k + 2 nonzero coordinates, as an
    integer multiple, and whether it lies in the plane.

    With |J| = k + 2 the multiple S = c * P has one free coefficient c, and
    M, of degree <= k, passes through the k + 2 values
    v_j = (N_j * P_j * c - lambda * q_j^2) / (2 * q_j), j in J, exactly
    when their divided difference sum_J v_j / W_j vanishes, with
    W_j = prod_{l in J, l != j} (x_j - x_l).  So (c, lambda) is proportional
    to (sum_J q_j / W_j, sum_J N_j * P_j / (q_j * W_j)), both taken times
    E = lcm_J(q_j * W_j); when both vanish every (c, lambda) solves the
    row, the system drops rank, and DegenerateParameterError is raised.
    Otherwise Y_j = M(x_j) + lambda * q_j = (N_j * P_j * c + lambda * q_j^2)
    / (2 * q_j) on J, and Y_i = M(x_i) elsewhere.  As the divided
    difference vanishes, M is also the interpolant of the v_j over all of
    J: M(x) = sum_J v_j * prod_{l in J, l != j} (x - x_l) / W_j, built once
    by exactmath.lagrange_numerator and evaluated at the nodes off J.  The
    whole image is taken times 2 * E, a multiple of 2 * q_j * W_j for every
    j in J, which makes every coordinate an integer.
    """
    d = config.degree
    base, tail = config.nodes[: d + 1], config.nodes[d + 1 :]
    zeros = [x for x, c in zip(base, q) if not c]
    xs = [x for x, c in zip(base, q) if c]
    qs = [c for c in q if c]
    nps = [math.prod(x - t for t in tail) * math.prod(x - z for z in zeros) for x in xs]
    ws = [math.prod(x - y for y in xs if y != x) for x in xs]
    scale = math.lcm(*(qj * w for qj, w in zip(qs, ws)))
    ts = [scale // (qj * w) for qj, w in zip(qs, ws)]
    c = sum(qj * qj * t for qj, t in zip(qs, ts))
    lam = sum(v * t for v, t in zip(nps, ts))
    if c == 0 and lam == 0:
        raise DegenerateParameterError("system matrix has deficient rank for this direction")
    # 2 * E * v_j / W_j, and 2 * E * Y_j on J
    terms = [(c * v - lam * qj * qj) * t for v, qj, t in zip(nps, qs, ts)]
    on_support = {
        x: (c * v + lam * qj * qj) * t * w for x, v, qj, t, w in zip(xs, nps, qs, ts, ws)
    }
    m = lagrange_numerator(xs, terms)
    image = [on_support[x] if x in on_support else eval_poly(m, x) for x in config.nodes]
    return image, lam == 0
