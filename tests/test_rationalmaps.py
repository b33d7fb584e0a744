"""The forward/reverse maps between the two varieties and the power-span
parametrization (line configs are its k = 0 case), checked as exact
projective identities."""

import math
import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from diopoly import forge
from diopoly.exactmath import eval_poly
from diopoly.rationalmaps import (
    DegenerateParameterError,
    plane_image,
    quadric_to_certificate_lcm,
)
from diopoly.variety import PointConfig, ProjPoint

from oracles import (
    CertificateCoords,
    IndeterminatePointError,
    QuadricCoords,
    alternating_minors,
    any_plane_image,
    bracket_cofactors,
    certificate_to_quadric,
    diagonal_quadrics,
    integer_kernel,
    lies_in_plane,
    node_vandermonde,
    on_certificate_variety,
    on_quadrics,
    parametrize_plane_inverse,
    plane_image_by_kernel,
    plane_residuals,
    plane_system_by_powers,
    plane_system_matrix,
    power_point,
    reverse_map_by_minors,
    reverse_map_point,
    system_cofactors,
    vandermonde_product,
)

LINE_CFG = PointConfig((0, 1, 2), 1)
PLANE_CFG = PointConfig((0, 1, 2, 3, 4), 2)


def line_configs():
    yield LINE_CFG
    yield PointConfig((0, 1, 2, 3), 2)
    yield PointConfig((-1, 0, 2, 5), 2)
    yield PointConfig((0, 1, 2, 3, 4), 3)
    yield PointConfig((0, 1, 2, 3, 4, 5), 4)


def plane_configs():
    yield PLANE_CFG
    yield PointConfig((-3, -1, 0, 2, 4), 2)
    yield PointConfig((0, 1, 2, 3, 4, 5, 6, 7), 4)
    yield PointConfig(tuple(range(11)), 6)


def sample_direction(rnd, length, bound=12):
    while True:
        coords = tuple(rnd.randint(-bound, bound) for _ in range(length))
        if any(coords):
            return ProjPoint(coords)


def d_over_l(config):
    """The integer D / L, D the Vandermonde product of the base nodes and L
    the lcm of their Lagrange weights."""
    ratio, rem = divmod(node_vandermonde(config), config.base_lagrange[0])
    assert rem == 0
    return ratio


def literal_reverse_map(w):
    """The coefficients of quadric_to_certificate_lcm times D / L: the
    reverse map's coefficients on the scale D."""
    ratio = d_over_l(w.config)
    return tuple(ratio * c for c in quadric_to_certificate_lcm(w.config, w.point.coords))


def plane_point(config, direction):
    """The image of any direction, or None on the degenerate locus or in
    the plane (for a line config: the base point); plane_image_by_kernel
    supplies the images of the directions plane_image refuses."""
    image = any_plane_image(config, direction)
    if image is None or image[1]:
        return None
    return QuadricCoords(config, image[0])


class TestWrappers:
    def test_certificate_point_validates(self):
        assert on_certificate_variety(CertificateCoords(LINE_CFG, ProjPoint((1, 24, 5, 7))))
        assert not on_certificate_variety(CertificateCoords(LINE_CFG, ProjPoint((1, 23, 5, 7))))
        with pytest.raises(ValueError):
            on_certificate_variety(CertificateCoords(LINE_CFG, ProjPoint((1, 24, 5))))

    def test_certificate_accessors(self):
        v = CertificateCoords(LINE_CFG, ProjPoint((1, 24, 5, 7)))
        assert v.coefficients == (1, 24)
        assert v.certificates == (5, 7)
        assert v.poly_value(2) == 49
        assert v.poly_value(0) == 1

    def test_degenerate_when_base_node_is_root(self):
        v = CertificateCoords(LINE_CFG, ProjPoint((0, 1, 0, 0)))  # f = x
        assert v.poly_value(0) == 0

    def test_base_point_flag(self):
        # on a line config (k = 0) the plane is the base point alone
        w = QuadricCoords(LINE_CFG, power_point(LINE_CFG, 0))
        assert lies_in_plane(w)
        assert not lies_in_plane(QuadricCoords(LINE_CFG, ProjPoint((1, 5, 7))))

    def test_in_plane_needs_2k_at_most_d(self):
        cfg = PointConfig(tuple(range(6)), 2)  # k = 2 > d / 2
        w = QuadricCoords(cfg, power_point(cfg, 0))
        with pytest.raises(ValueError):
            lies_in_plane(w)

    def test_node_vandermonde_worked(self):
        assert node_vandermonde(LINE_CFG) == 1
        assert node_vandermonde(PLANE_CFG) == 2
        assert d_over_l(LINE_CFG) == 1 and d_over_l(PLANE_CFG) == 1


class TestForwardMap:
    def test_worked_example(self):
        v = CertificateCoords(LINE_CFG, ProjPoint((1, 24, 5, 7)))
        assert certificate_to_quadric(v).point.coords == (1, 5, 7)

    def test_projective_input_scaling(self):
        # (-1,-24,5,7) and (1,24,-5,-7) are the same projective point
        v = CertificateCoords(LINE_CFG, ProjPoint((-1, -24, 5, 7)))
        assert certificate_to_quadric(v).point.coords == (1, -5, -7)

    def test_indeterminate_at_vanishing_base_value(self):
        v = CertificateCoords(LINE_CFG, ProjPoint((0, 1, 0, 0)))
        with pytest.raises(IndeterminatePointError):
            certificate_to_quadric(v)


class TestReverseMap:
    def test_worked_example(self):
        w = QuadricCoords(LINE_CFG, ProjPoint((1, 5, 7)))
        assert quadric_to_certificate_lcm(LINE_CFG, w.point.coords) == (-1, -24)
        assert reverse_map_point(w).point.coords == (1, 24, 5, 7)

    def test_worked_raw_values(self):
        w = QuadricCoords(LINE_CFG, ProjPoint((1, 5, 7)))
        coeffs, certs = reverse_map_by_minors(w)
        assert coeffs == (-1, -24)
        assert certs == (-5, -7)
        assert literal_reverse_map(w) == coeffs

    def test_base_point_maps_to_constant(self):
        w = QuadricCoords(LINE_CFG, power_point(LINE_CFG, 0))
        assert quadric_to_certificate_lcm(LINE_CFG, w.point.coords) == (-1, 0)
        assert reverse_map_point(w).point.coords == (1, 0, 1, 1)

    def test_total_on_vanishing_first_coordinate(self):
        # A point with Y_0 = 0 still maps; the image is degenerate for the
        # forward direction rather than an error here.
        cfg = PointConfig((0, 1, 2, 3), 2)
        point, _ = plane_image(cfg, ProjPoint((3, 4, 5)))
        assert point.coords == (0, 1, 2, -3)
        v = reverse_map_point(QuadricCoords(cfg, point))
        assert v.poly_value(0) == 0
        with pytest.raises(IndeterminatePointError):
            certificate_to_quadric(v)

    def test_determinant_identity_on_line_images(self):
        rnd = random.Random(17)
        for cfg in line_configs():
            d = cfg.degree
            sign = -1 if d % 2 else 1
            dd = node_vandermonde(cfg)
            for _ in range(25):
                w = plane_point(cfg, sample_direction(rnd, d + 1))
                if w is None:
                    continue
                coeffs = literal_reverse_map(w)
                y = w.point.coords
                for i, x in enumerate(cfg.nodes):
                    assert eval_poly(coeffs, x) == sign * dd * y[i] ** 2

    def test_determinant_identity_on_plane_images(self):
        rnd = random.Random(18)
        for cfg in plane_configs():
            d = cfg.degree
            dd = node_vandermonde(cfg)
            for _ in range(10):
                w = plane_point(cfg, sample_direction(rnd, d + 1, 6))
                if w is None:
                    continue
                coeffs = literal_reverse_map(w)
                y = w.point.coords
                for i, x in enumerate(cfg.nodes):
                    assert eval_poly(coeffs, x) == dd * y[i] ** 2  # d even


class TestRoundTrips:
    def test_reverse_then_forward_is_identity(self):
        rnd = random.Random(23)
        for cfg in line_configs():
            for _ in range(30):
                w = plane_point(cfg, sample_direction(rnd, cfg.degree + 1))
                if w is None or w.point.coords[0] == 0:
                    continue
                v = reverse_map_point(w)
                assert on_certificate_variety(v)
                assert certificate_to_quadric(v).point == w.point

    def test_forward_then_reverse_is_identity(self):
        rnd = random.Random(29)
        for cfg in line_configs():
            for _ in range(30):
                w = plane_point(cfg, sample_direction(rnd, cfg.degree + 1))
                if w is None or w.point.coords[0] == 0:
                    continue
                v = reverse_map_point(w)
                back = reverse_map_point(certificate_to_quadric(v))
                assert on_certificate_variety(back)
                assert back.point == v.point

    def test_round_trips_through_plane_images(self):
        rnd = random.Random(31)
        for cfg in plane_configs():
            for _ in range(10):
                w = plane_point(cfg, sample_direction(rnd, cfg.degree + 1, 6))
                if w is None or w.point.coords[0] == 0:
                    continue
                v = reverse_map_point(w)
                assert on_certificate_variety(v)
                assert certificate_to_quadric(v).point == w.point
                assert reverse_map_point(certificate_to_quadric(v)).point == v.point


class TestLineParametrization:
    """Line configs (n = d + 1) through the power-span map with k = 0."""

    def test_worked_image(self):
        point, _ = plane_image(LINE_CFG, ProjPoint((3, 1)))
        assert point.coords == (1, 5, 7)

    def test_polar_direction_gives_base_point(self):
        point, in_plane = plane_image(LINE_CFG, ProjPoint((2, 1)))
        assert point == power_point(LINE_CFG, 0)
        assert in_plane

    # on 0..3, c_j = (L / w_j) * P_m / (x_m - x_j) = (2, -6, 6).  Over
    # [-4, 4]^3, up to sign, B = sum c_j * q_j vanishes at 9 directions and
    # A = sum c_j * q_j^2 with it at 2, (0, 1, 1) and (3, 2, 1).  Both cases
    # below have every coordinate nonzero: (3, -1, -2) has A = 36
    def test_worked_in_plane_direction(self):
        cfg, q = PointConfig((0, 1, 2, 3), 2), ProjPoint((3, -1, -2))
        assert plane_image(cfg, q) == (power_point(cfg, 0), True)
        assert plane_image_by_kernel(cfg, q) == (power_point(cfg, 0), True)

    def test_worked_degenerate_direction(self):
        cfg, q = PointConfig((0, 1, 2, 3), 2), ProjPoint((3, 2, 1))
        with pytest.raises(DegenerateParameterError):
            plane_image(cfg, q)
        assert plane_image_by_kernel(cfg, q) is None

    def test_worked_inverse(self):
        w = QuadricCoords(LINE_CFG, ProjPoint((1, 5, 7)))
        assert parametrize_plane_inverse(w).coords == (3, 1)

    def test_inverse_undefined_at_base_point(self):
        w = QuadricCoords(LINE_CFG, power_point(LINE_CFG, 0))
        with pytest.raises(IndeterminatePointError):
            parametrize_plane_inverse(w)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            plane_image(PointConfig(tuple(range(6)), 2), ProjPoint((1, 1, 1)))  # 2k > d
        with pytest.raises(ValueError):
            plane_image(LINE_CFG, ProjPoint((1, 1, 1)))  # bad length

    def test_images_lie_on_variety(self):
        rnd = random.Random(37)
        for cfg in line_configs():
            quadrics = diagonal_quadrics(cfg)
            for _ in range(50):
                w = plane_point(cfg, sample_direction(rnd, cfg.degree + 1))
                if w is not None:
                    assert on_quadrics(quadrics, w.point)

    def test_round_trip_from_directions(self):
        rnd = random.Random(41)
        for cfg in line_configs():
            for _ in range(40):
                q = sample_direction(rnd, cfg.degree + 1)
                w = plane_point(cfg, q)
                if w is None:
                    continue
                assert parametrize_plane_inverse(w) == q

    @given(st.tuples(st.integers(-40, 40), st.integers(-40, 40)).filter(lambda q: any(q)))
    def test_round_trip_degree_one(self, q):
        direction = ProjPoint(q)
        w = plane_point(LINE_CFG, direction)
        if w is not None:
            assert parametrize_plane_inverse(w) == direction


class TestPlaneParametrization:
    def test_worked_system_matrices(self):
        assert plane_system_matrix(PLANE_CFG, ProjPoint((1, 1, 0))) == [
            [8, 12, 4],
            [20, 32, 10],
        ]
        assert plane_system_matrix(PLANE_CFG, ProjPoint((1, 2, 0))) == [
            [20, 24, 22],
            [52, 64, 58],
        ]
        assert plane_system_matrix(PLANE_CFG, ProjPoint((1, 0, 0))) == [
            [-4, 0, -2],
            [-12, 0, -6],
        ]

    def test_worked_images(self):
        assert plane_image(PLANE_CFG, ProjPoint((1, 1, 0)))[0].coords == (1, 1, -1, -1, -1)
        assert plane_image(PLANE_CFG, ProjPoint((1, 2, 0)))[0].coords == (1, 2, -3, -4, -5)

    def test_worked_plane_coefficients(self):
        a = plane_system_matrix(PLANE_CFG, ProjPoint((1, 2, 0)))
        mus = alternating_minors(a)
        assert integer_kernel(a) == mus
        lead = next(m for m in mus if m)
        assert [m / lead for m in mus] == [1, 1, -2]  # proportional to (-1,-1,2)

    def test_degenerate_direction(self):
        with pytest.raises(DegenerateParameterError):
            plane_image(PLANE_CFG, ProjPoint((1, 0, 0)))

    def test_worked_inverse(self):
        w = QuadricCoords(PLANE_CFG, ProjPoint((1, 2, -3, -4, -5)))
        assert parametrize_plane_inverse(w).coords == (1, 2, 0)

    def test_inverse_undefined_on_plane(self):
        w = QuadricCoords(PLANE_CFG, ProjPoint((1, 1, 1, 1, 1)))
        assert lies_in_plane(w)
        with pytest.raises(IndeterminatePointError):
            parametrize_plane_inverse(w)

    def test_shape_validation(self):
        cfg = PointConfig(tuple(range(6)), 2)  # k = n - d - 1 = 2 > d / 2
        with pytest.raises(ValueError):
            plane_image(cfg, ProjPoint((1, 1, 1)))
        with pytest.raises(ValueError):
            plane_system_matrix(cfg, ProjPoint((1, 1, 1)))
        with pytest.raises(ValueError):
            parametrize_plane_inverse(QuadricCoords(cfg, power_point(cfg, 0)))
        with pytest.raises(ValueError):
            plane_image(PLANE_CFG, ProjPoint((1, 1)))  # bad length

    def test_images_lie_on_variety_and_off_plane(self):
        rnd = random.Random(43)
        for cfg in plane_configs():
            quadrics = diagonal_quadrics(cfg)
            seen = 0
            for _ in range(60):
                w = plane_point(cfg, sample_direction(rnd, cfg.degree + 1, 6))
                if w is None:
                    continue
                seen += 1
                assert on_quadrics(quadrics, w.point)
                assert not lies_in_plane(w)
            assert seen > 10

    def test_round_trip_from_directions(self):
        rnd = random.Random(47)
        for cfg in plane_configs():
            for _ in range(25):
                q = sample_direction(rnd, cfg.degree + 1, 6)
                w = plane_point(cfg, q)
                if w is None:
                    continue
                assert parametrize_plane_inverse(w) == q


@st.composite
def power_span_cases(draw, max_degree=6, min_k=0):
    """Every shape the power-span map takes: d >= 1 (odd too) and any
    k = n - d - 1 >= min_k with 2k <= d, from line configs (k = 0) up to
    d = 2k; nodes are unsorted and may be negative."""
    d = draw(st.integers(max(1, 2 * min_k), max_degree))
    k = draw(st.integers(min_k, d // 2))
    size = d + k + 2
    nodes = draw(st.lists(st.integers(-12, 12), min_size=size, max_size=size, unique=True))
    direction = draw(st.lists(st.integers(-5, 5), min_size=d + 1, max_size=d + 1).filter(any))
    return PointConfig(tuple(nodes), d), ProjPoint(tuple(direction))


@settings(max_examples=60, deadline=None)
@given(power_span_cases(max_degree=8))
@example((PointConfig((3, -7, 0, 11, -2, 5, -9), 4), ProjPoint((2, -1, 0, 3, 1))))
@example(
    (
        PointConfig((5, -3, 9, -8, 0, 2, -1, 7, -6, 4, -4, 1, 8, -2), 8),
        ProjPoint((1, -2, 0, 3, 1, -1, 2, 0, 1)),
    )
)
def test_closed_forms_match_laplace_minors(case):
    """The closed forms against determinants taken by the Laplace oracle:
    the cofactors plane_system_matrix reads, times D / L, are the signed
    minors of the power block, the node Vandermonde is the power block's
    determinant, the plane kernel is proportional to the alternating
    maximal minors of the system matrix, an image lies on every Laplace
    quadric, and the reverse map times D / L is the (d+1)-minor formula."""
    cfg, q = case
    d = cfg.degree
    assert node_vandermonde(cfg) == vandermonde_product(cfg.nodes[: d + 1])
    ratio = d_over_l(cfg)
    for m, row in zip(range(d + 1, cfg.n + 1), system_cofactors(cfg)):
        assert bracket_cofactors(cfg, m)[:-1] == tuple(ratio * c for c in row)

    a = plane_system_matrix(cfg, q)
    mus = alternating_minors(a)
    kernel = integer_kernel(a)
    image = any_plane_image(cfg, q)
    if image is None:
        assert all(m == 0 for m in mus) and kernel is None
        return
    point = image[0]
    assert kernel is not None
    assert all(kernel[i] * mus[j] == kernel[j] * mus[i] for i in range(len(mus)) for j in range(i))
    assert on_quadrics(diagonal_quadrics(cfg), point)
    w = QuadricCoords(cfg, point)
    assert literal_reverse_map(w) == reverse_map_by_minors(w)[0]


@settings(max_examples=100, deadline=None)
@given(power_span_cases(max_degree=10, min_k=1))
@example((PointConfig((3, -7, 0, 11, -2, 5, -9), 4), ProjPoint((2, -1, 0, 3, 1))))
def test_system_rows_follow_the_moment_recurrence(case):
    """The system rows built by the moment recurrence from closed-form
    cofactors equal the rows summed power by power over the Laplace
    cofactors on the scale L, bit for bit."""
    cfg, q = case
    assert plane_system_matrix(cfg, q) == plane_system_by_powers(cfg, q)


@settings(max_examples=60, deadline=None)
@given(power_span_cases(max_degree=8))
@example((PointConfig((3, -7, 0, 11, -2, 5, -9), 4), ProjPoint((2, -1, 0, 3, 1))))
@example((PointConfig((9, -4, 2, -11, 0, 6), 3), ProjPoint((1, 0, -2, 1))))
def test_literal_forms_are_d_over_l_times_the_pipeline(case):
    """The plane system and the pipeline's reverse map sit on the scale L,
    the lcm of the base Lagrange weights; the system over the literal
    minors and the literal reverse map are exactly D / L times them, D the
    Vandermonde product of the base nodes, and reduce to the same
    projective point."""
    cfg, q = case
    d = cfg.degree
    base = cfg.nodes[: d + 1]
    ll = math.lcm(*(math.prod(xi - xj for xj in base if xj != xi) for xi in base))
    ratio = vandermonde_product(base) / ll
    assert ratio.denominator == 1 and cfg.base_lagrange[0] == ll
    ratio = int(ratio)
    literal = plane_system_by_powers(cfg, q, bracket_cofactors)
    assert literal == [[ratio * c for c in row] for row in plane_system_matrix(cfg, q)]
    image = any_plane_image(cfg, q)
    if image is None:
        return
    point = image[0]
    y = point.coords
    coeffs = quadric_to_certificate_lcm(cfg, y)
    sign = (-1) ** d
    assert [eval_poly(coeffs, x) for x in cfg.nodes] == [sign * ll * c**2 for c in y]
    raw = reverse_map_by_minors(QuadricCoords(cfg, point))
    assert raw[0] == tuple(ratio * c for c in coeffs)
    assert raw[1] == tuple(sign * ratio * ll * y[0] * c for c in y[1:])


@settings(max_examples=150, deadline=None)
@given(power_span_cases())
@example((LINE_CFG, ProjPoint((2, 1))))  # the polar direction: the base point
@example((PLANE_CFG, ProjPoint((2, 3, -1))))
@example((PointConfig((3, -7, 0, 11, -2, 5, -9), 4), ProjPoint((-1, -3, -3, -3, -3))))
def test_kernel_in_plane_test_agrees_with_residuals(case):
    """plane_image reads in_plane off lambda = mu_{k+1} (lambda = 0), and
    so does plane_image_by_kernel on the directions plane_image refuses;
    the same point rebuilt from its coordinates tests the tail residuals."""
    cfg, q = case
    image = any_plane_image(cfg, q)
    if image is None:
        return
    point, in_plane = image
    assert in_plane == lies_in_plane(QuadricCoords(cfg, point))


@settings(max_examples=150, deadline=None)
@given(power_span_cases(), st.lists(st.integers(-6, 6), min_size=4, max_size=4))
# tail nodes 7..10: D_tail = 12 and L_tail = 6
@example((PointConfig(tuple(range(11)), 6), ProjPoint((1, -2, 0, 3, 1, -1, 2))), [1, -1, 2, 1])
def test_in_plane_and_inverse_match_d_scale_residuals(case, g):
    """lies_in_plane and parametrize_plane_inverse read residuals on
    the scale L_tail, the lcm of the tail's Lagrange weights; they agree
    with the residuals over the tail's Vandermonde product.  The points are
    the image of the direction and the values of a degree <= k polynomial,
    which lie in the plane."""
    cfg, q = case
    k = cfg.n - cfg.degree - 1
    values = tuple(eval_poly(g[: k + 1], x) for x in cfg.nodes)
    points = [ProjPoint(values)] if any(values) else []
    image = any_plane_image(cfg, q)
    if image is not None:
        points.append(image[0])
    for point in points:
        w = QuadricCoords(cfg, point)
        residuals = plane_residuals(w)
        assert lies_in_plane(w) == (not any(residuals))
        if lies_in_plane(w):
            with pytest.raises(IndeterminatePointError):
                parametrize_plane_inverse(w)
        else:
            assert parametrize_plane_inverse(w) == ProjPoint(tuple(residuals))


@settings(max_examples=150, deadline=None)
@given(power_span_cases())
def test_power_span_image_and_inverse(case):
    """The image lies on the variety and, off the plane, the inverse returns
    the direction; images in the plane leave the inverse undefined."""
    cfg, q = case
    image = any_plane_image(cfg, q)
    if image is None:
        return
    point, in_plane = image
    assert on_quadrics(diagonal_quadrics(cfg), point)
    w = QuadricCoords(cfg, point)
    if in_plane:
        with pytest.raises(IndeterminatePointError):
            parametrize_plane_inverse(w)
    else:
        assert parametrize_plane_inverse(w) == q


def image_or_none(config, direction):
    """(point, in_plane) of plane_image, or None where it raises
    DegenerateParameterError: the shape of plane_image_by_kernel."""
    try:
        return plane_image(config, direction)
    except DegenerateParameterError:
        return None


@st.composite
def support_size_cases(draw, line):
    """A config with k = 0 (line) or k >= 1 (2k <= d), over unsorted nodes
    that may be negative, and a direction with a drawn number of nonzero
    coordinates, every size 1..d+1 (size 0 is no projective point)."""
    d = draw(st.integers(1, 7) if line else st.integers(2, 8))
    k = 0 if line else draw(st.integers(1, d // 2))
    size = d + k + 2
    nodes = draw(st.lists(st.integers(-12, 12), min_size=size, max_size=size, unique=True))
    count = draw(st.integers(1, d + 1))
    coords = [0] * (d + 1)
    for i in draw(st.permutations(range(d + 1)))[:count]:
        coords[i] = draw(st.integers(-5, 5).filter(bool))
    return PointConfig(tuple(nodes), d), ProjPoint(tuple(coords))


def assert_image_matches_kernel(cfg, q):
    """plane_image gives the kernel path's point and flag, or is degenerate
    where it is; at k >= 1 a direction with more than k + 2 nonzero
    coordinates is refused by a plain ValueError naming the sizes."""
    k = cfg.n - cfg.degree - 1
    count = sum(1 for c in q.coords if c)
    if k and count > k + 2:
        with pytest.raises(ValueError) as info:
            plane_image(cfg, q)
        assert type(info.value) is ValueError
        assert str(info.value) == (
            f"a plane parameter needs k + 1 = {k + 1} or k + 2 = {k + 2} "
            f"nonzero coordinates, got {count}"
        )
    else:
        assert image_or_none(cfg, q) == plane_image_by_kernel(cfg, q)


@settings(max_examples=150, deadline=None)
@given(support_size_cases(line=True))
@example((LINE_CFG, ProjPoint((2, 1))))  # in the plane: the base point
@example((PointConfig((0, 1, 2, 3), 2), ProjPoint((3, 2, 1))))  # A = B = 0
def test_line_images_match_kernel_at_every_support_size(case):
    assert_image_matches_kernel(*case)


@settings(max_examples=150, deadline=None)
@given(support_size_cases(line=False))
@example((PLANE_CFG, ProjPoint((1, 2, 0))))  # k + 1: criterion 02's image
@example((PLANE_CFG, ProjPoint((1, 0, 0))))  # k: degenerate
@example((PointConfig((3, -7, 0, 11, -2, 5, -9), 4), ProjPoint((2, -1, 0, 3, 1))))  # k + 3
def test_plane_images_match_kernel_at_every_support_size(case):
    assert_image_matches_kernel(*case)


@pytest.mark.parametrize(
    "nodes, degree, directions, degenerate, in_plane",
    [
        (range(5), 2, 216, 2, 2),
        (range(-2, 3), 2, 216, 2, 2),
        (range(8), 4, 6480, 8, 18),
        (range(-3, 5), 4, 6480, 8, 18),
    ],
)
def test_k2_support_closed_form_matches_kernel_exhaustively(
    nodes, degree, directions, degenerate, in_plane
):
    """Every direction in [-3, 3]^(d+1) with exactly k + 2 nonzero
    coordinates takes the closed form; it gives the kernel path's image,
    in-plane flag and degenerate locus."""
    cfg = PointConfig(tuple(nodes), degree)
    k = cfg.n - degree - 1
    outcomes = []
    for coords in product(range(-3, 4), repeat=degree + 1):
        if sum(1 for c in coords if c) == k + 2:
            q = ProjPoint(coords)
            want = plane_image_by_kernel(cfg, q)
            assert image_or_none(cfg, q) == want, coords
            outcomes.append(want)
    assert len(outcomes) == directions
    assert outcomes.count(None) == degenerate
    assert sum(1 for o in outcomes if o is not None and o[1]) == in_plane


@st.composite
def k2_support_cases(draw):
    """A node set of 3-30 integers from [-300, 300) set up by either
    method, and a direction with exactly k + 2 nonzero coordinates in
    [-9, 9]."""
    elems = draw(st.lists(st.integers(-300, 299), min_size=3, max_size=30, unique=True))
    method = draw(st.sampled_from(forge.METHODS))
    cfg = forge._method_setup(tuple(sorted(elems)), method)
    plen = cfg.degree + 1
    support = draw(st.permutations(range(plen)))[: cfg.n - cfg.degree + 1]
    coords = [0] * plen
    for i in support:
        coords[i] = draw(st.integers(-9, 9).filter(bool))
    return cfg, ProjPoint(tuple(coords))


@settings(max_examples=150, deadline=None)
@given(k2_support_cases())
def test_k2_support_closed_form_matches_kernel(case):
    cfg, q = case
    assert image_or_none(cfg, q) == plane_image_by_kernel(cfg, q)
