"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with a different algorithm than
the production code: determinants by recursive cofactor expansion instead
of fraction-free elimination, interpolation by solving the linear system
or by summing a table of Lagrange basis polynomials instead of reading
power moments, evaluation by summing powers instead of Horner's rule.
Slow but obviously correct on small inputs.

The literal forms of the construction live here too, on the scale D, the
Vandermonde product of the base nodes x_0..x_d: the bracket cofactors and
the reverse map as Laplace minors, the primitive diagonal quadrics, the
power points, and the in-plane residuals over the tail's Vandermonde
product.  The program keeps one scale, L, the lcm of the base Lagrange
weights; tests compare it with these forms through the integer D / L.

So do the maps and checks the program never needs: the certificate
equations, the forward map from the certificate variety, the twisted
curve read off a certificate point, and two maps read off residuals on
the scale of the tail's Lagrange weights, the in-plane test of a point
built from its coordinates and the inverse of the power-span
parametrization.  They take a point as an unvalidated QuadricCoords or
CertificateCoords; membership in the quadric variety is checked through
diagonal_quadrics, in the certificate variety by
on_certificate_variety.

The general solve of the power-span parametrization lives here too:
the (k+1) x (k+2) system matrix of bracket evaluations, its kernel by
fraction-free (Bareiss) elimination, and the image read off that kernel
for every direction, including those the program refuses.  The program
solves each direction it accepts in closed form.

Construction checks the node identity g * f(x) = +-L * Y_x^2 only at the
tail nodes, as the reverse map makes it exactmath.lagrange_numerator's
defining property at the base nodes; node_identity_breaks checks it at
every node, and tests/conftest.py runs it on every witness the tests
build.

The CLI prints pair roots and products as Decimal products of
per-element factors; witness_line_by_ints and report_line_by_ints build
the same lines from pair-by-pair integers printed by str(int).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from typing import NamedTuple, Sequence

from diopoly.exactmath import power_moments
from diopoly import forge
from diopoly.rationalmaps import DegenerateParameterError, plane_image
from diopoly.variety import PointConfig, ProjPoint


GENUS_NOTE = "degree <= 2: conic or rational model, not a hyperelliptic curve"


class IndeterminatePointError(ValueError):
    """A rational map was evaluated at a point where it is undefined."""


class QuadricCoords(NamedTuple):
    """Coordinates (Y_0..Y_n) over a node config, not checked against the
    quadric variety."""

    config: PointConfig
    point: ProjPoint


class CertificateCoords(NamedTuple):
    """Coordinates (f_0..f_d, z_1..z_n) over a node config, not checked
    against the certificate variety."""

    config: PointConfig
    point: ProjPoint

    @property
    def coefficients(self):
        return self.point.coords[: self.config.degree + 1]

    @property
    def certificates(self):
        return self.point.coords[self.config.degree + 1 :]

    def poly_value(self, node_index):
        """f(x_i), by power sums."""
        x = self.config.nodes[node_index]
        return sum(c * x**t for t, c in enumerate(self.coefficients))


def on_certificate_variety(v):
    """Whether z_i^2 = f(x_0) * f(x_i) at every node past the base node."""
    size = v.config.degree + len(v.config.nodes)
    if len(v.point) != size:
        raise ValueError(f"point needs {size} coordinates, got {len(v.point)}")
    f0 = v.poly_value(0)
    return all(z * z == f0 * v.poly_value(i) for i, z in enumerate(v.certificates, 1))


def _laplace_minors(rows):
    """The minor of rows on a column set, taken from its last len(cols)
    rows by cofactor expansion along the first of them, recursively, exact
    for int and Fraction entries.  A minor is fixed by its column set, so
    each is expanded once per table: n * 2^n steps instead of n!, shared by
    every minor read from the same table."""
    n = len(rows)
    minors = {}

    def expand(cols):
        if cols not in minors:
            top = rows[n - len(cols)]
            if len(cols) == 1:
                minors[cols] = top[cols[0]]
            else:
                minors[cols] = sum(
                    (-1) ** pos * top[c] * expand(cols[:pos] + cols[pos + 1 :])
                    for pos, c in enumerate(cols)
                    if top[c] != 0
                )
        return minors[cols]

    return expand


def laplace_det(rows):
    """Determinant by cofactor expansion along the first row, recursively."""
    n = len(rows)
    assert n > 0 and all(len(r) == n for r in rows)
    return _laplace_minors(rows)(tuple(range(n)))


def alternating_minors(rows):
    """(-1)^j times the determinant with column j deleted, j = 0..r, of an
    r x (r+1) matrix: a vector spanning its kernel when the rank is r.  All
    r + 1 minors expand through one table."""
    r = len(rows)
    assert r > 0 and all(len(row) == r + 1 for row in rows)
    expand = _laplace_minors(rows)
    return [(-1) ** j * expand(tuple(c for c in range(r + 1) if c != j)) for j in range(r + 1)]


def vandermonde_product(xs):
    """prod_{i<j} (x_j - x_i), the closed form for a power-row determinant."""
    out = Fraction(1)
    for i, j in combinations(range(len(xs)), 2):
        out *= Fraction(xs[j]) - Fraction(xs[i])
    return out


def solve_interpolation(points):
    """Coefficients (ascending) of the unique polynomial of degree
    < len(points) through the given points, via Gaussian elimination on
    the Vandermonde system."""
    n = len(points)
    rows = [[Fraction(x) ** t for t in range(n)] + [Fraction(y)] for x, y in points]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [entry / lead for entry in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return tuple(rows[t][n] for t in range(n))


def lagrange_basis(xs):
    """For each node x_i, the pair (w_i, b_i) with w_i = prod_{j != i} (x_i - x_j)
    and b_i the ascending coefficients of prod_{j != i} (x - x_j).

    The Lagrange interpolant of values v_i is sum_i (v_i / w_i) * b_i.
    Each b_i is the node polynomial prod_j (x - x_j) divided by (x - x_i)
    synthetically, so the whole basis costs O(m^2) operations.
    """
    node_poly = [1]
    for x in xs:
        # times (X - x): new[t] = old[t-1] - x * old[t]
        node_poly = [a - x * b for a, b in zip([0] + node_poly, node_poly + [0])]
    out = []
    for i, xi in enumerate(xs):
        basis = [0] * len(xs)
        acc = 0
        for t in range(len(xs), 0, -1):
            acc = node_poly[t] + xi * acc
            basis[t - 1] = acc
        weight = math.prod(xi - xj for j, xj in enumerate(xs) if j != i)
        out.append((weight, basis))
    return out


def basis_sum(xs, a):
    """sum_i a_i * b_i over the basis table of lagrange_basis(xs), the
    numerator exactmath.lagrange_numerator reads off power moments."""
    g = [0] * len(xs)
    for (_, basis), ai in zip(lagrange_basis(xs), a):
        for t, c in enumerate(basis):
            g[t] += ai * c
    return g


def eval_ascending(coeffs, x):
    """Plain power-sum evaluation, no Horner."""
    return sum((Fraction(c) * Fraction(x) ** t for t, c in enumerate(coeffs)), Fraction(0))


def is_perfect_square(n):
    """Square test by trial multiplication; only for small n."""
    if n < 0:
        return False
    i = 0
    while i * i < n:
        i += 1
    return i * i == n


def integer_kernel(rows: Sequence[Sequence[int]]) -> list[int] | None:
    """Kernel of an r x (r+1) integer matrix A by fraction-free forward
    elimination and exact back substitution.

    Returns the alternating maximal minors (-1)^j * det(A without column j),
    j = 0..r, which span the kernel when A has rank r, or None when the rank
    is below r (then every maximal minor vanishes).  Each forward update
    divides by the previous pivot, exactly (Bareiss 1968, Math. Comp. 22):
    every intermediate entry is a minor of A.  The last pivot fixes the
    free entry, and back substitution divides exactly, as the minors are
    the only kernel vector with that entry.
    """
    r = len(rows)
    if r == 0 or any(len(row) != r + 1 for row in rows):
        raise ValueError("kernel needs an r x (r+1) matrix with r >= 1")
    if any(not isinstance(x, int) or isinstance(x, bool) for row in rows for x in row):
        raise TypeError("kernel matrix entries must be plain ints")
    a = [list(row) for row in rows]
    pivots: list[int] = []
    sign, prev = 1, 1
    for col in range(r + 1):
        if len(pivots) == r:
            break
        top = len(pivots)
        p = next((i for i in range(top, r) if a[i][col]), None)
        if p is None:
            continue
        if p != top:
            a[top], a[p] = a[p], a[top]
            sign = -sign
        lead, tail = a[top][col], a[top][col + 1 :]
        # only the rows below change, and none is read left of col + 1 again
        for row in a[top + 1 :]:
            f = row[col]
            row[col + 1 :] = [(lead * x - f * y) // prev for x, y in zip(row[col + 1 :], tail)]
        prev = lead
        pivots.append(col)
    if len(pivots) < r:
        return None
    # prev is the determinant of the row-permuted pivot columns, so the
    # alternating minor at the free column is +-prev
    free = next(c for c in range(r + 1) if c not in pivots)
    out = [0] * (r + 1)
    out[free] = (sign if free % 2 == 0 else -sign) * prev
    for i, c in reversed(list(enumerate(pivots))):
        out[c] = -sum(x * y for x, y in zip(a[i][c + 1 :], out[c + 1 :])) // a[i][c]
    return out


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
    s_t = sum_j (L / w_j) * q_j * x_j^t are shared by all rows.  The
    power-span map needs 2k <= d, k = n - d - 1, and a ValueError says so.
    """
    d = config.degree
    k = config.n - d - 1
    if 2 * k > d:
        raise ValueError(f"power-span construction needs 2k <= d; got k = {k}, d = {d}")
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


def plane_image_by_kernel(config, direction):
    """rationalmaps.plane_image by the general path for every
    direction: the rows of plane_system_matrix divided by their gcds, a
    kernel vector mu by integer_kernel, and the image sum(mu_t * T_t) +
    mu_{k+1} * q_hat.  It takes the directions the program refuses too.  Returns (point, in_plane), in_plane read as mu_{k+1} = 0, or
    None where the system drops rank."""
    d = config.degree
    k = config.n - d - 1
    rows = []
    for row in plane_system_matrix(config, direction):
        g = math.gcd(*row)
        rows.append([c // g for c in row] if g > 1 else row)
    mus = integer_kernel(rows)
    if mus is None:
        return None
    q = direction.coords
    image = [
        sum(mus[t] * x**t for t in range(k + 1)) + (mus[k + 1] * q[i] if i <= d else 0)
        for i, x in enumerate(config.nodes)
    ]
    return ProjPoint(tuple(image)), mus[k + 1] == 0


def any_plane_image(config, direction):
    """(point, in_plane) for every direction, or None where the system
    drops rank: rationalmaps.plane_image where it takes the direction, and
    plane_image_by_kernel on the plane directions with more than k + 2
    nonzero coordinates, which it refuses.  The geometry of the
    parametrization holds for all of them."""
    k = config.n - config.degree - 1
    if k and sum(1 for c in direction.coords if c) > k + 2:
        return plane_image_by_kernel(config, direction)
    try:
        return plane_image(config, direction)
    except DegenerateParameterError:
        return None


def witness_by_kernel(elements, method, coords):
    """The witness construct_witness builds for the explicit parameter
    coords, from plane_image_by_kernel's image instead: forge's config of
    the method and its reverse map, checked at the tail nodes (and at
    every node under tests/conftest.py).  It takes the directions
    construct_witness refuses; None where the system drops rank."""
    elems = tuple(sorted(elements))
    config = forge._method_setup(elems, method)
    q = ProjPoint(tuple(coords))
    image = plane_image_by_kernel(config, q)
    if image is None:
        return None
    stats = dict.fromkeys(forge.STATS_KEYS, 0) | {"attempts": 1}
    return forge._build_witness(config, method, q, image[0], elems, stats)


def power_sum(coeffs, x):
    """Integer ascending coefficients evaluated at an integer x as the sum
    of c_t * x^t, one power of x after another, no Horner."""
    total, power = 0, 1
    for c in coeffs:
        total += c * power
        power *= x
    return total


def node_identity_breaks(w):
    """The nodes of w's config, in order, where g * f(x) = +-L * Y_x^2
    fails for f = w.poly, Y = w.image and L the lcm of the base Lagrange
    weights; empty when it holds at every node, base nodes included.  The
    ratio r = +-L / g is read off the first node where Y does not vanish,
    as f(x) / Y_x^2, and when that is no divisor of L every node is
    returned.  f is evaluated by power_sum.  forge._build_witness
    evaluates f at the tail nodes only, since at the base nodes the
    identity is exactmath.lagrange_numerator's own; this checks them all."""
    config, ys = w.config, w.image.coords
    values = [power_sum(w.poly.coeffs, x) for x in config.nodes]
    fx, yx = next((v, y) for v, y in zip(values, ys) if y)
    r, rem = divmod(fx, yx * yx)
    if rem or not r or config.base_lagrange[0] % r:
        return list(config.nodes)
    return [x for x, v, y in zip(config.nodes, values, ys) if v != r * y * y]


def power_rows(xs, count):
    """The power rows x^0..x^(count-1) over the nodes xs."""
    return [[x**t for x in xs] for t in range(count)]


def node_vandermonde(config):
    """D, the determinant of the power rows over the base nodes x_0..x_d."""
    d = config.degree
    return laplace_det(power_rows(config.nodes[: d + 1], d + 1))


def bracket_rows(config, z, m):
    """The (d+2) x (d+2) bracket: power rows over (x_0..x_d, x_m), then z."""
    d = config.degree
    return power_rows(config.nodes[: d + 1] + (config.nodes[m],), d + 1) + [list(z)]


def bracket_cofactors(config, m):
    """Last-row cofactors of the bracket for extra index m, as Laplace minors:
    entry j is (-1)^(d+1+j) times the power block without column j, so the
    bracket with last row z is their dot product with z.  The last entry is
    D, the Vandermonde product of the base nodes."""
    d = config.degree
    power = bracket_rows(config, [0] * (d + 2), m)[:-1]
    return tuple((-1) ** (d + 1) * c for c in alternating_minors(power))


def scaled_cofactors(config, m):
    """bracket_cofactors(config, m) times L / D, the scale of the program:
    L the lcm of the base Lagrange weights of lagrange_basis, and D the last
    cofactor.  Every entry is an integer, and the last one is L."""
    d = config.degree
    cof = bracket_cofactors(config, m)
    ll = math.lcm(*(w for w, _ in lagrange_basis(config.nodes[: d + 1])))
    out = [divmod(c * ll, cof[-1]) for c in cof]
    assert all(r == 0 for _, r in out)
    return tuple(c for c, _ in out)


def plane_system_by_powers(config, direction, cofactors=scaled_cofactors):
    """plane_system_matrix the direct way, without its moment
    recurrence or its closed-form cofactors: over the Laplace cofactors c of
    each extra index, on the program's scale L by default, a_j = c_j * q_j is
    rescaled by x_j once per power t = 1..k, and every entry is a fresh sum
    (2 * sum_j a_j * x_j^t for t = 0..k, then sum_j a_j * q_j).  With
    cofactors=bracket_cofactors it is the literal system, on the scale D."""
    d = config.degree
    k = config.n - d - 1
    q = direction.coords
    xs = config.nodes[: d + 1]
    rows = []
    for m in range(d + 1, config.n + 1):
        a = [c * qi for c, qi in zip(cofactors(config, m), q)]
        squares = sum(ai * qi for ai, qi in zip(a, q))
        row = [2 * sum(a)]
        for _ in range(k):
            a = [ai * x for ai, x in zip(a, xs)]
            row.append(2 * sum(a))
        row.append(squares)
        rows.append(row)
    return rows


def system_cofactors(config):
    """The cofactors j <= d, on the scale L, that plane_system_matrix
    reads, one tuple per extra index: the last entry of its row at the unit
    direction e_j is the bracket of e_j^2, cofactor j.  Needs 2k <= d."""
    d = config.degree
    units = [ProjPoint(tuple(int(i == j) for i in range(d + 1))) for j in range(d + 1)]
    cols = [[row[-1] for row in plane_system_matrix(config, e)] for e in units]
    return [tuple(row) for row in zip(*cols)]


class Quadric(NamedTuple):
    """sum of coeffs[j] * Y_support[j]^2 over the support."""

    support: tuple
    coeffs: tuple

    def squares_residual(self, coords):
        return sum(c * coords[j] ** 2 for j, c in zip(self.support, self.coeffs))


def diagonal_quadrics(config):
    """The defining quadrics, one per extra index m: the bracket cofactors
    over the support (0..d, m), divided by their gcd and signed so that the
    coefficient of Y_m^2 is positive."""
    d = config.degree
    out = []
    for m in range(d + 1, config.n + 1):
        cof = bracket_cofactors(config, m)
        g = math.gcd(*cof) if cof[-1] > 0 else -math.gcd(*cof)
        out.append(Quadric(tuple(range(d + 1)) + (m,), tuple(c // g for c in cof)))
    return tuple(out)


def on_quadrics(quadrics, point):
    """Whether every quadric, as diagonal_quadrics gives them, vanishes at
    the point: membership in the quadric variety."""
    return all(q.squares_residual(point.coords) == 0 for q in quadrics)


def power_point(config, t):
    """T_t = (x_0^t, .., x_n^t) in canonical form; T_0 is the all-ones base
    point, and T_t lies on the quadric variety when 2t <= d."""
    return ProjPoint(tuple(x**t for x in config.nodes))


def reverse_map_by_minors(w):
    """The reverse map on the scale D: coefficient j is (-1)^j times the
    power rows of x_0..x_d without row j, stacked on the squares row
    (Y_0^2..Y_d^2), and z_i = (-1)^d * D * Y_0 * Y_i.  The coefficients are
    the alternating maximal minors of the transpose, one row per base node,
    so all of them and D expand through one table."""
    config, y = w.config, w.point.coords
    d = config.degree
    rows = [[x**t for t in range(d + 1)] + [c * c] for x, c in zip(config.nodes, y[: d + 1])]
    *coeffs, last = alternating_minors(rows)
    # the minor without the squares column is (-1)^(d+1) * D
    scale = -last * y[0]
    return tuple(coeffs), tuple(scale * c for c in y[1:])


def reverse_map_point(w, reverse_map=reverse_map_by_minors):
    """A reverse map's coordinates as CertificateCoords, in canonical
    projective form and not checked."""
    coeffs, certs = reverse_map(w)
    return CertificateCoords(w.config, ProjPoint(coeffs + certs))


def reverse_map_by_basis(w):
    """The reverse map on the scale L, for sizes where Laplace minors take
    too long: f = (-1)^d * sum_i (L / w_i) * Y_i^2 * b_i over the basis table
    of lagrange_basis, and z_i = (-1)^d * L * Y_0 * Y_i."""
    config, y = w.config, w.point.coords
    d = config.degree
    xs = config.nodes[: d + 1]
    ws = [wi for wi, _ in lagrange_basis(xs)]
    ll, sign = math.lcm(*ws), (-1) ** d
    coeffs = basis_sum(xs, [sign * (ll // wi) * c * c for wi, c in zip(ws, y)])
    return tuple(coeffs), tuple(sign * ll * y[0] * c for c in y[1:])


def plane_residuals(w):
    """The in-plane residuals on the scale D_tail, the Vandermonde product of
    the tail nodes x_{d+1}..x_n: D_tail * (Y_i - g(x_i)) for i = 0..d, with
    g the interpolant of the tail coordinates.  All vanish exactly when the
    point lies in the span of the power points T_0..T_k, k = n - d - 1."""
    config, y = w.config, w.point.coords
    tail = range(config.degree + 1, config.n + 1)
    dt = vandermonde_product([config.nodes[m] for m in tail])
    g = solve_interpolation([(config.nodes[m], y[m]) for m in tail])
    out = [dt * (y[i] - eval_ascending(g, config.nodes[i])) for i in range(config.degree + 1)]
    assert all(r.denominator == 1 for r in out)
    return [int(r) for r in out]


def certificate_to_quadric(v):
    """Forward map (f_0..f_d, z_1..z_n) -> (f(x_0), z_1, .., z_n) of
    CertificateCoords, the inverse of the reverse map away from f(x_0) = 0."""
    fx0 = v.poly_value(0)
    if fx0 == 0:
        raise IndeterminatePointError("forward map undefined where f(x_0) = 0")
    return QuadricCoords(v.config, ProjPoint((fx0, *v.certificates)))


def certificate_twist(v):
    """The twist block of a certificate point, in the form construct
    --emit-twist prints: the curve c * y^2 = f(x), c = f(x_0), with the
    point (x_i, z_i / c) at node i and (x_0, 1) at the base node, each
    ordinate printed by str(Fraction).  The curve keeps the point's
    canonical coefficients, trailing zeros dropped.  None where
    f(x_0) = 0."""
    c = v.poly_value(0)
    if c == 0:
        return None
    coeffs = list(v.coefficients)
    while coeffs[-1] == 0:
        coeffs.pop()
    ordinates = [Fraction(1)] + [Fraction(z, c) for z in v.certificates]
    return {
        "twist_scalar": str(c),
        "poly": [str(a) for a in coeffs],
        "points": [{"x": str(x), "y": str(y)} for x, y in zip(v.config.nodes, ordinates)],
        "genus_note": GENUS_NOTE if len(coeffs) <= 3 else None,
    }


def parse_twist(block):
    """(twist_scalar, poly, points) of a twist block as numbers: ints, and
    each ordinate read by Fraction."""
    return (
        int(block["twist_scalar"]),
        tuple(int(c) for c in block["poly"]),
        tuple((int(p["x"]), Fraction(p["y"])) for p in block["points"]),
    )


def tail_residuals(w):
    """L_tail * Y_i - G(x_i) for i = 0..d, where G / L_tail is the degree
    <= k interpolant of the tail coordinates (x_m, Y_m), m = d+1..n, and
    L_tail the lcm of the tail nodes' Lagrange weights, from the basis
    table of lagrange_basis.  All vanish exactly when
    the point lies in the span of T_0..T_k, k = n - d - 1; the power-span
    map needs 2k <= d, and a ValueError says so."""
    config, y = w.config, w.point.coords
    d = config.degree
    k = config.n - d - 1
    if 2 * k > d:
        raise ValueError(f"power-span construction needs 2k <= d; got k = {k}, d = {d}")
    tail = range(d + 1, config.n + 1)
    xs = [config.nodes[m] for m in tail]
    ws = [w for w, _ in lagrange_basis(xs)]
    lt = math.lcm(*ws)
    g = basis_sum(xs, [lt // w * y[m] for w, m in zip(ws, tail)])
    return [
        lt * y[i] - sum(c * config.nodes[i] ** t for t, c in enumerate(g)) for i in range(d + 1)
    ]


def lies_in_plane(w):
    """Whether a point lies in the span of the power points T_0..T_k;
    for a line config (k = 0) that is the base point."""
    return not any(tail_residuals(w))


def parametrize_plane_inverse(w):
    """Direction recovering a quadric-variety point under the plane map:
    the residuals L_tail * (Y_i - g(x_i)), i = 0..d, with g the tail
    interpolant.  Points inside the spanned plane make every residual
    vanish and raise IndeterminatePointError."""
    diffs = tail_residuals(w)
    if not any(diffs):
        raise IndeterminatePointError("inverse undefined on the power-point plane")
    return ProjPoint(tuple(diffs))


def search_by_enumeration(elements, max_degree, max_height):
    """brute_force_search's box walked literally: degree, then leading
    coefficient, then the lower coefficients in lexicographic order, each
    vector tested for primitivity by a gcd over all of it and then on
    every pair of values by isqrt.  Returns (found, candidates): the
    ascending coefficient tuples that pass, in that order, and the number
    of vectors enumerated."""
    elems = sorted(elements)
    found = []
    candidates = 0
    for e in range(max_degree + 1):
        for lead in range(1, max_height + 1):
            for rest in product(range(-max_height, max_height + 1), repeat=e):
                candidates += 1
                coeffs = rest + (lead,)
                if reduce(math.gcd, (abs(c) for c in coeffs)) != 1:
                    continue
                values = [sum(c * x**t for t, c in enumerate(coeffs)) for x in elems]
                products = [values[i] * values[j] for i, j in combinations(range(len(elems)), 2)]
                if all(p >= 0 and math.isqrt(p) ** 2 == p for p in products):
                    found.append(coeffs)
    return found, candidates


def verify_pairwise(elements, coeffs):
    """verify_witness pair by pair: every product of two values, evaluated
    by power sums, and its root by math.isqrt, one per pair.  Returns
    (ok, zero_products, rows), rows holding (i, j, a, b, product, root or
    None) for each pair i < j of the sorted set."""
    elems = sorted(elements)
    values = [int(eval_ascending(coeffs, x)) for x in elems]
    rows = []
    for (i, a), (j, b) in combinations(enumerate(elems), 2):
        p = values[i] * values[j]
        r = math.isqrt(p) if p >= 0 else None
        rows.append((i, j, a, b, p, r if r is not None and r * r == p else None))
    ok = all(row[5] is not None for row in rows)
    return ok, sum(1 for row in rows if row[4] == 0), rows


def _compact_json(doc):
    return json.dumps(doc, separators=(",", ":"))


def witness_line_by_ints(w):
    """The construct line of a witness, without a twist block, with every
    pair root printed by str(int): math.isqrt of f(a) * f(b), the values
    evaluated by power sums.  Roots past CPython's int<->str digit limit
    need it lifted."""
    values = [int(eval_ascending(w.poly.coeffs, x)) for x in w.elements]
    roots = [
        {"i": i, "j": j, "root": str(math.isqrt(values[i] * values[j]))}
        for i, j in combinations(range(len(values)), 2)
    ]
    return _compact_json({
        "schema_version": "1",
        "set": [str(x) for x in w.elements],
        "poly": [str(c) for c in w.poly.coeffs],
        "method": w.method,
        "parameter": [str(c) for c in w.parameter.coords],
        "padding": [str(x) for x in w.padding],
        "pair_roots": roots,
        "flags": sorted(w.flags),
    })


def report_line_by_ints(elements, coeffs):
    """The verify report line of verify_pairwise's rows, every product and
    root printed by str(int).  Products past CPython's int<->str digit
    limit need it lifted."""
    ok, zero_products, rows = verify_pairwise(elements, coeffs)
    coeffs = list(coeffs)
    while coeffs[-1] == 0:
        coeffs.pop()
    pairs = [
        {"i": i, "j": j, "a": str(a), "b": str(b), "product": str(p), "root": None if r is None else str(r)}
        for i, j, a, b, p, r in rows
    ]
    return _compact_json({
        "schema_version": "1",
        "set": [str(x) for x in sorted(elements)],
        "poly": [str(c) for c in coeffs],
        "ok": ok,
        "zero_products": zero_products,
        "pairs": pairs,
    })
