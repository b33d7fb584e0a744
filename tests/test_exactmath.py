import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diopoly.exactmath import (
    eval_poly,
    integer_sqrt,
    lagrange_numerator,
    lagrange_weights,
)

from oracles import (
    alternating_minors,
    basis_sum,
    eval_ascending,
    integer_kernel,
    lagrange_basis,
    laplace_det,
    solve_interpolation,
    vandermonde_product,
)


def kernel_det(rows):
    """Determinant of a square integer matrix, read off the kernel routine:
    a zero column in front makes the alternating minors (det, 0, .., 0)."""
    mus = integer_kernel([[0, *row] for row in rows])
    return 0 if mus is None else mus[0]


class TestMatrix:
    """Matrices are plain lists of integer rows; the kernel routine takes an
    r x (r+1) one and returns its alternating maximal minors."""

    def test_shape_and_entries(self):
        m = [[1, 2, 3], [4, 5, 6]]
        assert integer_kernel(m) == alternating_minors(m) == [-3, 6, -3]
        assert all(sum(a * v for a, v in zip(row, integer_kernel(m))) == 0 for row in m)

    def test_entries_are_fractions(self):
        # the oracle works over fractions; the kernel routine takes ints only
        assert alternating_minors([[1, Fraction(1, 2)]]) == [Fraction(1, 2), -1]
        assert integer_kernel([[2, 1]]) == [1, -2]
        with pytest.raises(TypeError):
            integer_kernel([[1, Fraction(1, 2)]])

    def test_submatrix(self):
        # with row 1 dropped, minor 0 is the submatrix without row 1, column 0
        m = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert integer_kernel([m[0], m[2]])[0] == laplace_det([[2, 3], [8, 9]]) == -6

    def test_drop_col(self):
        m = [[1, 2, 3], [4, 5, 6]]
        assert integer_kernel(m)[1] == -laplace_det([[1, 3], [4, 6]]) == 6

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            integer_kernel([[1, 2, 3, 4], [4, 5, 6, 7]])
        with pytest.raises(ValueError):
            integer_kernel([])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            integer_kernel([[1, 2, 3], [3]])


class TestDet:
    """Determinants come only from the Laplace oracle now; every worked
    value is also read off the kernel routine through kernel_det."""

    def test_worked_2x2(self):
        rows = [[1, 1], [1, 3]]
        assert laplace_det(rows) == kernel_det(rows) == 2

    def test_worked_3x3(self):
        rows = [[2, 0, 1], [1, 1, 0], [0, 3, 1]]
        assert laplace_det(rows) == kernel_det(rows) == 5

    def test_fraction_entries(self):
        m = [[Fraction(1, 2), 1], [1, Fraction(2, 3)]]
        assert laplace_det(m) == Fraction(1, 3) - 1
        # rows scaled by 2 and 3 scale the determinant by 6
        assert kernel_det([[1, 2], [3, 2]]) == 6 * (Fraction(1, 3) - 1)

    def test_singular(self):
        assert laplace_det([[1, 2], [2, 4]]) == 0
        assert integer_kernel([[0, 1, 2], [0, 2, 4]]) is None

    def test_zero_column(self):
        assert laplace_det([[0, 1], [0, 2]]) == kernel_det([[0, 1], [0, 2]]) == 0

    def test_non_square_rejected(self):
        # the kernel routine needs one more column than rows
        with pytest.raises(ValueError):
            integer_kernel([[1, 2], [4, 5]])

    @given(
        st.lists(
            st.lists(st.integers(-30, 30), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        )
    )
    def test_agrees_with_laplace_oracle(self, rows):
        assert kernel_det(rows) == laplace_det(rows)

    @given(
        st.lists(
            st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=7), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_fraction_matrices_agree_with_laplace(self, rows):
        scales = [math.lcm(*(x.denominator for x in row)) for row in rows]
        ints = [[int(x * s) for x in row] for row, s in zip(rows, scales)]
        assert kernel_det(ints) == laplace_det(rows) * math.prod(scales)

    @given(
        st.lists(
            st.lists(st.integers(-20, 20), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        ),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    def test_row_swap_flips_sign(self, rows, i, j):
        if i == j:
            return
        swapped = list(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert kernel_det(swapped) == -kernel_det(rows) == -laplace_det(rows)

    @given(st.lists(st.integers(-50, 50), min_size=2, max_size=6, unique=True))
    def test_power_matrix_matches_product_formula(self, xs):
        rows = [[x**t for x in xs] for t in range(len(xs))]
        assert vandermonde_product(xs) == kernel_det(rows) == laplace_det(rows)

    def test_det_cofactor_cross_check(self):
        rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
        assert kernel_det(rows) == laplace_det(rows) == -90

    def test_large_integer_entries_stay_exact(self):
        big = 10**40
        assert kernel_det([[big, 1], [1, big]]) == big * big - 1


def kernel_matrices(max_r=8, bound=10**30):
    """r x (r+1) integer matrices, r = 1..max_r, entries in [-bound, bound]."""
    return st.integers(1, max_r).flatmap(
        lambda r: st.lists(
            st.lists(st.integers(-bound, bound), min_size=r + 1, max_size=r + 1),
            min_size=r,
            max_size=r,
        )
    )


@st.composite
def rank_deficient_matrices(draw):
    """Kernel matrices made singular on purpose: one or two zero columns
    (two force rank < r, one exercises a skipped pivot column), a row
    repeated or scaled from another, or a zero row."""
    rows = draw(kernel_matrices())
    r = len(rows)
    kind = draw(st.sampled_from(["zero columns", "proportional row", "zero row"]))
    if kind == "zero columns":
        cols = draw(st.sets(st.integers(0, r), min_size=1, max_size=2))
        return [[0 if c in cols else x for c, x in enumerate(row)] for row in rows]
    i = draw(st.integers(0, r - 1))
    if kind == "zero row" or r == 1:
        rows[i] = [0] * (r + 1)
    else:
        j = draw(st.integers(0, r - 1).filter(lambda j: j != i))
        factor = draw(st.sampled_from([1, -1]) | st.integers(-10**12, 10**12))
        rows[j] = [factor * x for x in rows[i]]
    return rows


class TestKernel:
    @staticmethod
    def assert_minors_or_none(rows):
        mus = alternating_minors(rows)
        got = integer_kernel(rows)
        if all(m == 0 for m in mus):
            assert got is None
        else:
            assert got == mus

    # entries in [-3, 3] make zero pivots and skipped columns common
    @settings(max_examples=400, deadline=None)
    @given(kernel_matrices() | kernel_matrices(bound=3))
    def test_equals_alternating_minors(self, rows):
        self.assert_minors_or_none(rows)

    @settings(max_examples=200, deadline=None)
    @given(rank_deficient_matrices())
    def test_rank_deficient_inputs(self, rows):
        self.assert_minors_or_none(rows)

    def test_rank_deficient_after_a_skipped_column(self):
        assert integer_kernel([[0, 1, 2], [0, 3, 6]]) is None
        assert integer_kernel([[0, 1, 2], [0, 3, 5]]) == [-1, 0, 0]

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=6, unique=True))
    def test_lagrange_basis_is_dual_to_nodes(self, xs):
        for i, (weight, basis) in enumerate(lagrange_basis(xs)):
            assert len(basis) == len(xs)
            assert weight == math.prod(xs[i] - x for x in xs if x != xs[i])
            for j, x in enumerate(xs):
                assert eval_poly(basis, x) == (weight if i == j else 0)


def scaled_interpolant(points):
    """(L, G) in the integer Lagrange form the program uses: L the lcm of
    the abscissae's Lagrange weights, G / L the interpolant."""
    xs = [x for x, _ in points]
    ll, weights = lagrange_weights(xs)
    return ll, lagrange_numerator(xs, [s * y for s, (_, y) in zip(weights, points)])


def interpolant(points):
    v, g = scaled_interpolant(points)
    return tuple(Fraction(c, v) for c in g)


class TestInterpolate:
    def test_worked_line(self):
        assert scaled_interpolant([(3, 32), (5, 68)]) == (2, [-44, 36])
        assert interpolant([(3, 32), (5, 68)]) == (-22, 18)

    def test_worked_parabola(self):
        assert scaled_interpolant([(0, 2), (1, 8), (2, 18)]) == (2, [4, 8, 4])
        assert interpolant([(0, 2), (1, 8), (2, 18)]) == (2, 4, 2)

    @given(
        st.lists(
            st.tuples(st.integers(-40, 40), st.integers(-10**6, 10**6)),
            min_size=1,
            max_size=6,
            unique_by=lambda p: p[0],
        )
    )
    def test_agrees_with_linear_solve_oracle(self, points):
        v, g = scaled_interpolant(points)
        xs = [x for x, _ in points]
        assert v == math.lcm(*(math.prod(xi - xj for xj in xs if xj != xi) for xi in xs))
        assert vandermonde_product(xs) % v == 0
        assert interpolant(points) == solve_interpolation(points)
        for x, y in points:
            assert eval_poly(g, x) == v * y


class TestLagrangeNumerator:
    """The program's one interpolation primitive against the basis table it
    replaced, which the oracles keep."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-60, 60), min_size=1, max_size=9, unique=True).flatmap(
            lambda xs: st.tuples(
                st.just(xs),
                st.lists(st.integers(-10**12, 10**12), min_size=len(xs), max_size=len(xs)),
            )
        )
    )
    def test_equals_the_basis_table_sum(self, case):
        xs, a = case
        assert lagrange_numerator(xs, a) == basis_sum(xs, a)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=30, unique=True).flatmap(
            lambda xs: st.tuples(
                st.just(xs),
                st.lists(st.integers(-10**12, 10**12), min_size=len(xs), max_size=len(xs)),
            )
        )
    )
    def test_takes_a_i_w_i_at_each_node(self, case):
        """The contract construction relies on at the base nodes, where it
        evaluates no witness: at x_i the sum takes a_i * w_i, w_i the
        Lagrange weight prod_{j != i} (x_i - x_j)."""
        xs, a = case
        coeffs = lagrange_numerator(xs, a)
        assert len(coeffs) == len(xs)
        for i, (x, ai) in enumerate(zip(xs, a)):
            w = math.prod(x - xj for j, xj in enumerate(xs) if j != i)
            assert eval_poly(coeffs, x) == ai * w


class TestEvalPoly:
    def test_horner_matches_power_sum(self):
        coeffs = (1, -3, 0, 7)
        for x in (-2, 0, 1, Fraction(1, 2)):
            assert eval_poly(coeffs, x) == eval_ascending(coeffs, x)

    @given(
        st.lists(st.integers(-100, 100), min_size=1, max_size=7),
        st.fractions(min_value=-30, max_value=30, max_denominator=11),
    )
    def test_matches_oracle_on_rationals(self, coeffs, x):
        assert eval_poly(coeffs, x) == eval_ascending(coeffs, x)


class TestIntegerSqrt:
    @pytest.mark.parametrize(
        "n,root",
        [(0, 0), (1, 1), (1225, 35), (4, 2), (35**2 * 10**20, 35 * 10**10)],
    )
    def test_squares(self, n, root):
        assert integer_sqrt(n) == root

    @pytest.mark.parametrize("n", [-1, -4, 2, 3, 1226, 10**30 + 1])
    def test_non_squares(self, n):
        assert integer_sqrt(n) is None

    @given(st.integers(0, 2**128))
    def test_recovers_root_at_256_bits(self, n):
        assert integer_sqrt(n * n) == n

    @given(st.integers(1, 2**128))
    def test_rejects_off_by_one(self, n):
        # n^2 < n^2 + 1 < (n+1)^2 for n >= 1, so never a square
        assert integer_sqrt(n * n + 1) is None

    @settings(max_examples=300)
    @given(st.integers(0, 10**6))
    def test_matches_definition_on_small_values(self, n):
        got = integer_sqrt(n)
        if got is None:
            assert all(i * i != n for i in range(1001))
        else:
            assert got >= 0 and got * got == n
