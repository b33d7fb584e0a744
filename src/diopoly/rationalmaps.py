"""The reverse birational map from the quadric variety to polynomial
coefficients, and the power-span parametrization of the quadric side,
both in closed form.

Reverse map: from (Y_0..Y_n), coefficient j of the polynomial is
(-1)^j times the minor obtained from the (d+2) x (d+1) array of power
rows plus the squares row (Y_0^2..Y_d^2) by deleting power row j, so
that f(x_i) = (-1)^d * D * Y_i^2 at every node, D the Vandermonde
product of the first d+1 nodes.  This module takes L / D times the
coefficients, L the lcm of the base Lagrange weights w_i: f is
(-1)^d * L times the Lagrange interpolant of the Y_i^2 over x_0..x_d,
exactmath.lagrange_numerator of the values (L / w_i) * Y_i^2 with the
config's weights (PointConfig.base_lagrange), so no determinant and no
basis polynomial is formed.

Parametrization of the quadric side (needs 2k <= d for k = n - d - 1):
the variety contains the plane spanned by the power points T_0..T_k;
for a direction q the residual intersection point is
sum(mu_t * T_t) + mu_{k+1} * q_hat, where q_hat pads q with zeros and
the mu solve a (k+1) x (k+2) integer system of bracket evaluations.
With J the support of q, that system reduces to |J| - k - 1 rows, and
plane_image solves it in closed form for every direction it accepts:

* k = 0 (a line config, every quadric direction): T_0 is the all-ones
  base point and the image is the second intersection of the single
  quadric with the line through it in direction q_hat, read off two
  sums over the base nodes;
* k >= 1 and |J| = k + 1: no row is left, and the image is the
  interpolant of q over J, negated off J;
* k >= 1 and |J| = k + 2 (every default plane draw): one row, solved
  from products of node differences.

A plane direction with at most k nonzero coordinates is degenerate, and
one with more than k + 2 is refused: it only adds height.

Which check proves what: the construction pipeline (forge) takes
plane_image's point and checks g * f(x) = +-L * Y_x^2 at the tail nodes
for the primitive polynomial f it builds (g the content it divided
out); at the base nodes the reverse map makes it hold by
exactmath.lagrange_numerator's contract.  That proves the witness and
implies both variety equations.  The quadric equations, the certificate
variety and its forward map, the system matrix with its kernel, and the
inverse of the parametrization are used only as cross-checks, and live
with the test oracles.

Nodes are integers, so everything is computed in exact integer
arithmetic, and every point is returned in canonical projective form.
"""

from __future__ import annotations

import math
from typing import Sequence

from .exactmath import eval_poly, lagrange_numerator
from .variety import PointConfig, ProjPoint

__all__ = [
    "DegenerateParameterError",
    "quadric_to_certificate_lcm",
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
    variety.  forge checks that identity at the tail nodes of the witness
    it builds from them; at the base nodes it is lagrange_numerator's.
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
    M must pass through the |J| values it takes on J.

    The form is chosen from k and |J|.  At k = 0 every direction is solved
    by _plane_image_on_line.  At k >= 1 a direction with k + 1 or k + 2
    nonzero coordinates is solved by _plane_image_on_support; one with at
    most k leaves M underdetermined, the system drops rank, and
    DegenerateParameterError is raised; one with more than k + 2 raises a
    plain ValueError.  Sampling never draws those: each coordinate beyond
    k + 2 adds height and gives no new kind of witness.

    When lambda = 0 the image lies inside the spanned plane itself (for
    k = 0: the base point, when q is on the polar); it is still returned,
    with the flag read off lambda: the tail coordinates are the values of
    M at k+1 nodes, and q is nonzero, so the image lies in the plane
    exactly when lambda = 0.

    The point is not checked against the variety here: forge checks the
    node identity of the witness built from it, which puts it there.
    """
    k = _plane_k(config)
    d = config.degree
    if len(direction) != d + 1:
        raise ValueError(f"direction needs {d + 1} coordinates, got {len(direction)}")
    q = direction.coords
    if not k:
        image, in_plane = _plane_image_on_line(config, q)
    else:
        size = sum(1 for c in q if c)
        if size <= k:
            raise DegenerateParameterError(
                f"a plane parameter with at most k = {k} nonzero coordinates "
                f"drops the rank of the plane system, got {size}"
            )
        if size > k + 2:
            raise ValueError(
                f"a plane parameter needs k + 1 = {k + 1} or k + 2 = {k + 2} "
                f"nonzero coordinates, got {size}"
            )
        image, in_plane = _plane_image_on_support(config, q)
    return ProjPoint(tuple(image)), in_plane


def _plane_image_on_line(config: PointConfig, q: Sequence[int]) -> tuple[list[int], bool]:
    """Image of a direction at k = 0, as an integer multiple, and whether
    it lies in the plane (here the base point).

    The single row covers the tail node x_m.  With P_m = prod_{j<=d}
    (x_m - x_j), the bracket's cofactor j over (x_0..x_d, x_m), on the
    scale L, is -c_j with c_j = (L / w_j) * P_m / (x_m - x_j), so the row
    is -(2 * B, A) for A = sum c_j * q_j^2 and B = sum c_j * q_j, and
    (mu_0, lambda) is proportional to (A, -2 * B): Y_j = A - 2 * B * q_j on
    the base nodes and Y_m = A.  The row vanishes when A = B = 0, and
    DegenerateParameterError is raised; the image lies in the plane
    exactly when B = 0.  (A, B) is divided by its gcd first, which keeps
    the image as small as the row reduced by its content.
    """
    d = config.degree
    base, xm = config.nodes[: d + 1], config.nodes[d + 1]
    pm = math.prod(xm - x for x in base)
    a = [s * (pm // (xm - x)) * qj for s, x, qj in zip(config.base_lagrange[1], base, q)]
    big_a = sum(ai * qj for ai, qj in zip(a, q))
    big_b = sum(a)
    g = math.gcd(big_a, big_b)
    if not g:
        raise DegenerateParameterError(
            "the line through the base point in this direction lies on the quadric"
        )
    if g > 1:
        big_a, big_b = big_a // g, big_b // g
    twice_b = 2 * big_b
    return [big_a - twice_b * qj for qj in q] + [big_a], big_b == 0


def _plane_image_on_support(config: PointConfig, q: Sequence[int]) -> tuple[list[int], bool]:
    """Image of a direction with k + 1 or k + 2 nonzero coordinates, as an
    integer multiple, and whether it lies in the plane.

    S = c * P has one free coefficient c when |J| = k + 2, and must vanish
    when |J| = k + 1.  M, of degree <= k, passes through the |J| values
    v_j = (N_j * P_j * c - lambda * q_j^2) / (2 * q_j), j in J.  With
    W_j = prod_{l in J, l != j} (x_j - x_l) and E = lcm_J(q_j * W_j):

    * |J| = k + 1: (c, lambda) = (0, 1), and M is the interpolant of the
      v_j = -q_j / 2, so the image is -E * I(x) off J and E * q_j on J,
      I the interpolant of q over J, and never in the plane;
    * |J| = k + 2: M exists exactly when the divided difference
      sum_J v_j / W_j vanishes, so (c, lambda) is proportional to
      (sum_J q_j / W_j, sum_J N_j * P_j / (q_j * W_j)), both taken times
      E; when both vanish every (c, lambda) solves the row, the system
      drops rank, and DegenerateParameterError is raised.

    Then Y_j = M(x_j) + lambda * q_j = (N_j * P_j * c + lambda * q_j^2)
    / (2 * q_j) on J, and Y_i = M(x_i) elsewhere, M the interpolant of the
    v_j over J: M(x) = sum_J v_j * prod_{l in J, l != j} (x - x_l) / W_j,
    built once by exactmath.lagrange_numerator and evaluated at the nodes
    off J.  The whole image is taken times 2 * E, a multiple of
    2 * q_j * W_j for every j in J, which makes every coordinate an
    integer.
    """
    d = config.degree
    base, tail = config.nodes[: d + 1], config.nodes[d + 1 :]
    xs = [x for x, c in zip(base, q) if c]
    qs = [c for c in q if c]
    ws = [math.prod(x - y for y in xs if y != x) for x in xs]
    scale = math.lcm(*(qj * w for qj, w in zip(qs, ws)))
    ts = [scale // (qj * w) for qj, w in zip(qs, ws)]
    if len(xs) == len(tail):
        nps, c, lam = [0] * len(xs), 0, 1
    else:
        zeros = [x for x, c in zip(base, q) if not c]
        nps = [math.prod(x - t for t in tail) * math.prod(x - z for z in zeros) for x in xs]
        c = sum(qj * qj * t for qj, t in zip(qs, ts))
        lam = sum(v * t for v, t in zip(nps, ts))
        if c == 0 and lam == 0:
            raise DegenerateParameterError("the direction's row vanishes, so its image is not unique")
    # 2 * E * v_j / W_j, and 2 * E * Y_j on J
    terms = [(c * v - lam * qj * qj) * t for v, qj, t in zip(nps, qs, ts)]
    on_support = {
        x: (c * v + lam * qj * qj) * t * w for x, v, qj, t, w in zip(xs, nps, qs, ts, ws)
    }
    m = lagrange_numerator(xs, terms)
    image = [on_support[x] if x in on_support else eval_poly(m, x) for x in config.nodes]
    return image, lam == 0
