"""Exact integer arithmetic for the construction, in closed forms.

Integers are Python ints and rationals are fractions.Fraction, both
unbounded, so every equality test in this package is bit-exact.  No
floating point enters any code path.  The construction works over
integer nodes, where every determinant it needs has a closed form: a
Lagrange basis on the scale of the lcm of its weights, or the kernel of
an r x (r+1) matrix by forward elimination and back substitution.  All
functions are pure, which makes everything here safe to call from
concurrent code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

__all__ = [
    "lagrange_basis",
    "lagrange_table",
    "integer_kernel",
    "eval_poly",
    "integer_sqrt",
]

Scalar = int | Fraction


def lagrange_basis(xs: Sequence[Scalar]) -> list[tuple[Scalar, list[Scalar]]]:
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


def lagrange_table(xs: Sequence[int]) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """(L, ((L / w_0, b_0), .., (L / w_m, b_m))) over the integer nodes xs,
    with w_i, b_i from lagrange_basis and L = lcm(|w_0|..|w_m|).

    sum_i (L / w_i) * v_i * b_i is L times the interpolant of the values v_i.
    L is the smallest scale that keeps it integral for all integer values,
    as b_i is monic, and it divides the Vandermonde product of xs.
    """
    basis = lagrange_basis(xs)
    ll = math.lcm(*(w for w, _ in basis))
    return ll, tuple((ll // w, tuple(b)) for w, b in basis)


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


def eval_poly(coeffs: Sequence[Scalar], x: Scalar) -> Scalar:
    """Evaluate ascending coefficients at x by Horner's rule, exactly.

    Integer coefficients at an integer x give an int; any Fraction among
    them gives a Fraction.
    """
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def integer_sqrt(n: int) -> int | None:
    """Exact integer square root, or None if n is negative or not a square.

    math.isqrt supplies the proven floor square root on unbounded ints;
    the only work left here is the exactness check.
    """
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None
