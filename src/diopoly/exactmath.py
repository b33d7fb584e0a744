"""Exact integer arithmetic for the construction, in closed forms.

Integers are Python ints and rationals are fractions.Fraction, both
unbounded, so every equality test in this package is bit-exact.  No
floating point enters any code path.  The construction works over
integer nodes, where every determinant it needs has a closed form: an
interpolant on the scale of the lcm of the Lagrange weights, read off the
node polynomial and the power moments of the values with no basis
polynomial, or the kernel of an r x (r+1) matrix by forward elimination
and back substitution.  All functions are pure, which makes everything
here safe to call from concurrent code.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

__all__ = [
    "lagrange_weights",
    "power_moments",
    "lagrange_numerator",
    "integer_kernel",
    "eval_poly",
    "integer_sqrt",
]

Scalar = int | Fraction


def lagrange_weights(xs: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(L, (L / w_0, .., L / w_m)) over the integer nodes xs, with
    w_i = prod_{j != i} (x_i - x_j) and L = lcm(|w_0|..|w_m|).

    lagrange_numerator(xs, ((L / w_i) * v_i)_i) is L times the interpolant
    of the values v_i.  L is the smallest scale that keeps it integral for
    all integer values, as each prod_{j != i} (x - x_j) is monic, and it
    divides the Vandermonde product of xs.
    """
    ws = [math.prod(xi - xj for j, xj in enumerate(xs) if j != i) for i, xi in enumerate(xs)]
    ll = math.lcm(*ws)
    return ll, tuple(ll // w for w in ws)


def power_moments(xs: Sequence[int], a: Sequence[int], count: int) -> list[int]:
    """The moments m_t = sum_i a_i * x_i^t for t = 0..count-1."""
    out = []
    for _ in range(count):
        out.append(sum(a))
        a = list(map(operator.mul, a, xs))
    return out


def lagrange_numerator(xs: Sequence[int], a: Sequence[int]) -> list[int]:
    """Ascending coefficients of sum_i a_i * prod_{j != i} (x - x_j) over
    the distinct integer nodes xs.

    With N = prod_j (x - x_j) the node polynomial, prod_{j != i} (x - x_j)
    is N / (x - x_i), whose coefficient t is sum_{s > t} N_s * x_i^(s-t-1).
    So coefficient t of the sum is sum_{s > t} N_s * m_{s-t-1}, m the power
    moments of the a_i, and no basis polynomial is ever formed.  Read from
    the top, these are the first len(xs) terms of the power series
    prod_j (1 - x_j * y) * sum_t m_t * y^t, which is taken one linear
    factor at a time, so every product has a node as one factor.  At x_i
    the sum takes a_i * w_i, w_i the Lagrange weight of lagrange_weights.
    """
    out = power_moments(xs, a, len(xs))
    for x in xs:
        # times (1 - x * y), truncated: new[t] = old[t] - x * old[t-1]
        out[1:] = [c - x * p for c, p in zip(out[1:], out)]
    return out[::-1]


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
