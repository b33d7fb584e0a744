"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with a different algorithm than
the production code: determinants by recursive cofactor expansion instead
of fraction-free elimination, interpolation by solving the linear system
instead of Lagrange bases, evaluation by summing powers instead of
Horner's rule.  Slow but obviously correct on small inputs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def laplace_det(rows):
    """Determinant by cofactor expansion along the first row, recursively,
    exact for int and Fraction entries.  A minor is fixed by its column
    set (its rows are the last ones), so each is expanded once per call:
    n * 2^n steps instead of n!."""
    n = len(rows)
    assert n > 0 and all(len(r) == n for r in rows)
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

    return expand(tuple(range(n)))


def alternating_minors(rows):
    """(-1)^j times the determinant with column j deleted, j = 0..r, of an
    r x (r+1) matrix: a vector spanning its kernel when the rank is r."""
    return [
        (-1) ** j * laplace_det([list(r[:j]) + list(r[j + 1 :]) for r in rows])
        for j in range(len(rows) + 1)
    ]


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


def plane_system_by_powers(config, direction):
    """rationalmaps.plane_system_matrix the direct way, without its moment
    recurrence: over each cofactor row c of the config, a_j = c_j * q_j is
    rescaled by x_j once per power t = 1..k, and every entry is a fresh sum
    (2 * sum_j a_j * x_j^t for t = 0..k, then sum_j a_j * q_j)."""
    d = config.degree
    k = config.n - d - 1
    q = direction.coords
    xs = config.nodes[: d + 1]
    rows = []
    for cof in config.cofactor_rows:
        a = [c * qi for c, qi in zip(cof, q)]
        squares = sum(ai * qi for ai, qi in zip(a, q))
        row = [2 * sum(a)]
        for _ in range(k):
            a = [ai * x for ai, x in zip(a, xs)]
            row.append(2 * sum(a))
        row.append(squares)
        rows.append(row)
    return rows
