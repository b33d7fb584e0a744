"""Exact integer arithmetic for the construction, in closed forms.

Every number is a Python int, unbounded, so every equality test here is
bit-exact.  The construction works over integer nodes, where every
determinant it needs has a closed form: an interpolant on the scale of
the lcm of the Lagrange weights, read off the node polynomial and the
power moments of the values with no basis polynomial.  No matrix is
ever eliminated.  All functions are pure, which makes everything here
safe to call from concurrent code.  The one exception is the lift of
CPython's int<->str digit limit, a setting of the whole process, which
the printing layers (cli, twist) share and which holds a lock.
"""

from __future__ import annotations

import math
import operator
import sys
import threading
from contextlib import contextmanager
from typing import Sequence

__all__ = [
    "lagrange_weights",
    "power_moments",
    "lagrange_numerator",
    "eval_poly",
    "integer_sqrt",
]


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


def eval_poly(coeffs: Sequence[int], x: int) -> int:
    """Evaluate ascending coefficients at x by Horner's rule, exactly."""
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


# the digit limit is one setting for the whole process: a thread that
# restored it while another's lift was open would leave that one limited,
# and the later restore would leave the process unlimited
_LIFT_LOCK = threading.RLock()


@contextmanager
def _int_str_limit_lifted():
    """Lift the int<->str digit limit for the duration, then restore it.
    The lift holds a reentrant lock, so lifts in other threads wait for it
    and lifts nested in one thread pass."""
    with _LIFT_LOCK:
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(old)
