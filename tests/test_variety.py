"""Projective points, node configurations, and the diagonal quadrics that cut
out the value-side variety."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from diopoly.exactmath import eval_poly
from diopoly.variety import PointConfig, ProjPoint

from oracles import (
    CertificateCoords,
    any_plane_image,
    bracket_cofactors,
    bracket_rows,
    diagonal_quadrics,
    laplace_det,
    node_vandermonde,
    on_certificate_variety,
    on_quadrics,
    power_point,
    scaled_cofactors,
    system_cofactors,
    vandermonde_product,
)


def small_configs():
    yield PointConfig((0, 1, 2), 1)
    yield PointConfig((0, 1, 2, 3), 1)
    yield PointConfig((0, 1, 2, 3), 2)
    yield PointConfig((0, 1, 2, 3, 4), 2)
    yield PointConfig((-2, 0, 1, 3, 7), 2)
    yield PointConfig((0, 1, 2, 3, 4, 5, 6, 7), 4)


config_strategy = st.builds(
    lambda nodes, d: PointConfig(tuple(nodes), min(d, len(nodes) - 2)),
    st.lists(st.integers(-12, 12), min_size=3, max_size=7, unique=True),
    st.integers(1, 5),
)


class TestProjPoint:
    def test_canonical_form(self):
        assert ProjPoint((-2, -4, 6)).coords == (1, 2, -3)

    def test_leading_zero_sign(self):
        assert ProjPoint((0, -3, 6)).coords == (0, 1, -2)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            ProjPoint((0, 0, 0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ProjPoint(())

    def test_non_integers_rejected(self):
        with pytest.raises(TypeError):
            ProjPoint((1, 2.5))
        with pytest.raises(TypeError):
            ProjPoint((True, 1))

    def test_sequence_protocol(self):
        p = ProjPoint((2, 4))
        assert len(p) == 2 and p[1] == 2 and tuple(p) == (1, 2)

    @given(
        st.lists(st.integers(-60, 60), min_size=1, max_size=6).filter(
            lambda c: any(c)
        ),
        st.integers(-7, 7).filter(lambda s: s != 0),
    )
    def test_scaling_invariance(self, coords, scale):
        assert ProjPoint(tuple(coords)) == ProjPoint(tuple(scale * c for c in coords))

    @given(st.lists(st.integers(-60, 60), min_size=1, max_size=6).filter(lambda c: any(c)))
    def test_canonical_is_primitive_with_positive_lead(self, coords):
        p = ProjPoint(tuple(coords))
        lead = next(c for c in p.coords if c != 0)
        assert lead > 0
        g = 0
        for c in p.coords:
            g = abs(c) if g == 0 else __import__("math").gcd(g, abs(c))
        assert g == 1


class TestPointConfig:
    def test_basic_shape(self):
        cfg = PointConfig((0, 1, 2, 3), 1)
        assert cfg.n == 3 and cfg.degree == 1

    def test_nodes_must_be_plain_ints(self):
        cfg = PointConfig([0, 1, 2], 1)
        assert cfg.nodes == (0, 1, 2)
        assert all(type(x) is int for x in cfg.nodes)
        with pytest.raises(TypeError):
            PointConfig((0, Fraction(1, 2), 2), 1)
        with pytest.raises(TypeError):
            PointConfig((0, 1.0, 2), 1)
        with pytest.raises(TypeError):
            PointConfig((False, True, 2), 1)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            PointConfig((0, 1, 1), 1)

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            PointConfig((0, 1, 2), 0)
        with pytest.raises(ValueError):
            PointConfig((0, 1, 2), 2)  # needs at least degree+2 nodes

    def test_tables_leave_equality_and_hash_alone(self):
        """The node table is stored on the instance once built, yet a
        config with it equals and hashes like one without."""
        built, fresh = PointConfig((3, -1, 4, 0, 7), 2), PointConfig((3, -1, 4, 0, 7), 2)
        before = hash(built)
        # base nodes (3, -1, 4): D = -20, L = lcm(4, 20, 5) = 20, so D / L = -1
        assert built.base_lagrange[0] == 20 and node_vandermonde(fresh) == -20
        assert scaled_cofactors(fresh, 4) == tuple(-c for c in bracket_cofactors(fresh, 4))
        assert set(vars(built)) == {"nodes", "degree", "base_lagrange"}
        assert "base_lagrange" not in vars(fresh)
        assert built.base_lagrange is built.base_lagrange
        assert built == fresh and hash(built) == before == hash(fresh)
        assert {fresh: "found"}[built] == "found"


class TestBrackets:
    def test_matrix_shape(self):
        cfg = PointConfig((0, 1, 2), 1)
        rows = bracket_rows(cfg, (1, 1, 0), 2)
        assert len(rows) == 3 and all(len(r) == 3 for r in rows)
        assert laplace_det(rows) == -1
        assert sum(c * z for c, z in zip(bracket_cofactors(cfg, 2), (1, 1, 0))) == -1
        # the squares (1, 1, 0) give a nonzero bracket: off the variety
        assert not on_quadrics(diagonal_quadrics(cfg), ProjPoint((1, 1, 0)))

    def test_worked_values(self):
        cfg = PointConfig((0, 1, 2), 1)
        assert laplace_det(bracket_rows(cfg, (1, 1, 0), 2)) == -1
        assert laplace_det(bracket_rows(cfg, (1, 1, 1), 2)) == 0

    def test_cofactors_worked(self):
        cfg = PointConfig((0, 1, 2), 1)
        assert bracket_cofactors(cfg, 2) == (1, -2, 1)
        # D = L on both configs: the plane system reads the literal cofactors
        assert node_vandermonde(cfg) == cfg.base_lagrange[0] == 1
        assert system_cofactors(cfg) == [(1, -2)]
        cfg5 = PointConfig((0, 1, 2, 3, 4), 2)
        assert bracket_cofactors(cfg5, 3) == (-2, 6, -6, 2)
        assert bracket_cofactors(cfg5, 4) == (-6, 16, -12, 2)
        assert node_vandermonde(cfg5) == cfg5.base_lagrange[0] == 2
        assert system_cofactors(cfg5) == [(-2, 6, -6), (-6, 16, -12)]

    @given(config_strategy, st.data())
    def test_bracket_expands_through_cofactors(self, cfg, data):
        """The bracket of z equals the full determinant with z as last row,
        and, where the power-span map applies (2k <= d), the cofactors the
        plane system reads are the Laplace cofactors times L / D."""
        m = data.draw(st.sampled_from(list(range(cfg.degree + 1, cfg.n + 1))))
        z = data.draw(
            st.lists(st.integers(-9, 9), min_size=cfg.degree + 2, max_size=cfg.degree + 2)
        )
        cof = bracket_cofactors(cfg, m)
        assert sum(c * v for c, v in zip(cof, z)) == laplace_det(bracket_rows(cfg, z, m))
        if 2 * (cfg.n - cfg.degree - 1) <= cfg.degree:
            row = system_cofactors(cfg)[m - cfg.degree - 1]
            assert row == scaled_cofactors(cfg, m)[:-1]

    @given(config_strategy)
    def test_last_cofactor_is_node_vandermonde(self, cfg):
        """Deleting the extra column leaves the power matrix of the first
        d+1 nodes, whose determinant has the closed product form."""
        m = cfg.degree + 1
        cof = bracket_cofactors(cfg, m)
        assert cof[-1] == vandermonde_product(cfg.nodes[: cfg.degree + 1])
        # on the scale L it is L, the factor of Y_m^2 in the reverse map's identity
        tail = range(cfg.degree + 1, cfg.n + 1)
        assert all(scaled_cofactors(cfg, i)[-1] == cfg.base_lagrange[0] for i in tail)


class TestDiagonalQuadrics:
    def test_worked_coefficients(self):
        assert diagonal_quadrics(PointConfig((0, 1, 2), 1))[0].coeffs == (1, -2, 1)
        q2, q3 = diagonal_quadrics(PointConfig((0, 1, 2, 3), 1))
        assert q2.support == (0, 1, 2)
        assert q2.coeffs == (1, -2, 1)
        assert q3.support == (0, 1, 3)
        assert q3.coeffs == (2, -3, 1)
        q3, q4 = diagonal_quadrics(PointConfig((0, 1, 2, 3, 4), 2))
        assert q3.coeffs == (-1, 3, -3, 1)
        assert q4.coeffs == (-3, 8, -6, 1)

    def test_one_quadric_per_extra_node(self):
        for cfg in small_configs():
            qs = diagonal_quadrics(cfg)
            assert len(qs) == cfg.n - cfg.degree
            assert [q.support[-1] for q in qs] == list(range(cfg.degree + 1, cfg.n + 1))

    @given(config_strategy)
    def test_coefficients_primitive_with_positive_extra(self, cfg):
        """The primitive quadrics are the cofactors on the scale L over their
        content: both scales give the same equations."""
        for q, m in zip(diagonal_quadrics(cfg), range(cfg.degree + 1, cfg.n + 1)):
            row = scaled_cofactors(cfg, m)
            assert q.coeffs[-1] > 0
            assert math.gcd(*q.coeffs) == 1
            assert q.coeffs == tuple(c // math.gcd(*row) for c in row)

    @given(config_strategy)
    def test_power_orthogonality(self, cfg):
        """Each coefficient vector annihilates every power row t <= d: the
        relation that forces value vectors of degree-d polynomials onto
        the variety."""
        for q in diagonal_quadrics(cfg):
            for t in range(cfg.degree + 1):
                s = sum(
                    Fraction(c) * cfg.nodes[j] ** t for c, j in zip(q.coeffs, q.support)
                )
                assert s == 0

    @given(config_strategy, st.data())
    def test_value_vectors_satisfy_linear_relation(self, cfg, data):
        """Values of any degree <= d polynomial at the support nodes are
        annihilated by each coefficient vector (linearity over the power
        rows)."""
        coeffs = data.draw(
            st.lists(st.integers(-8, 8), min_size=cfg.degree + 1, max_size=cfg.degree + 1)
        )
        for q in diagonal_quadrics(cfg):
            s = sum(
                Fraction(c) * eval_poly(coeffs, cfg.nodes[j])
                for c, j in zip(q.coeffs, q.support)
            )
            assert s == 0

    @given(config_strategy, st.data())
    def test_half_degree_value_points_lie_on_variety(self, cfg, data):
        """Values of a polynomial g with deg g <= d/2 give a variety point,
        because the coordinate squares are then values of the degree <= d
        polynomial g^2."""
        half = cfg.degree // 2
        coeffs = data.draw(st.lists(st.integers(-8, 8), min_size=half + 1, max_size=half + 1))
        values = [eval_poly(coeffs, x) for x in cfg.nodes]
        if all(v == 0 for v in values):
            return
        assert on_quadrics(diagonal_quadrics(cfg), ProjPoint(tuple(values)))


@st.composite
def membership_cases(draw):
    """A line (k = 0) or plane (2k <= d) config over nodes with a negative
    one, and a point of one of two kinds: a power point T_t with 2t <= d,
    or the image of a direction, from plane_image_by_kernel where
    plane_image refuses it."""
    d = draw(st.integers(1, 8))
    k = draw(st.integers(0, d // 2))
    nodes = draw(
        st.lists(st.integers(-15, 15), min_size=d + k + 2, max_size=d + k + 2, unique=True).filter(
            lambda xs: min(xs) < 0
        )
    )
    cfg = PointConfig(tuple(nodes), d)
    kind = draw(st.sampled_from(["power", "image"]))
    if kind == "power":
        return cfg, kind, power_point(cfg, draw(st.integers(0, d // 2)))
    q = draw(st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1).filter(any))
    image = any_plane_image(cfg, ProjPoint(tuple(q)))
    assume(image is not None)
    return cfg, kind, image[0]


@settings(max_examples=150, deadline=None)
@given(membership_cases())
def test_power_points_and_images_satisfy_the_laplace_quadrics(case):
    """Power points and images satisfy every primitive Laplace quadric.
    Moving one tail coordinate Y_m of an image by 1 moves only its own
    equation, (Y_m + 1)^2 != Y_m^2, so each such point lies off the
    variety, on every other quadric."""
    cfg, kind, point = case
    quadrics = diagonal_quadrics(cfg)
    assert on_quadrics(quadrics, point)
    if kind == "image":
        for m, moved in zip(range(cfg.degree + 1, cfg.n + 1), quadrics):
            coords = list(point.coords)
            coords[m] += 1
            assert [q.squares_residual(coords) != 0 for q in quadrics] == [
                q is moved for q in quadrics
            ]


class TestVarietyMembership:
    def test_base_point_always_on_variety(self):
        for cfg in small_configs():
            assert power_point(cfg, 0) == ProjPoint((1,) * (cfg.n + 1))
            assert on_quadrics(diagonal_quadrics(cfg), power_point(cfg, 0))

    def test_power_points_on_variety_up_to_half_degree(self):
        cfg = PointConfig((0, 1, 2, 3, 4), 2)
        for t in range(2):
            assert on_quadrics(diagonal_quadrics(cfg), power_point(cfg, t))
        assert power_point(cfg, 1) == ProjPoint((0, 1, 2, 3, 4))

    def test_certificate_membership_worked(self):
        cfg = PointConfig((0, 1, 2), 1)
        for coords, on in [
            ((1, 24, 5, 7), True),
            ((1, 24, -5, 7), True),
            ((1, 23, 5, 7), False),
            ((1, 24, 5, 8), False),
        ]:
            assert on_certificate_variety(CertificateCoords(cfg, ProjPoint(coords))) is on

    def test_quadric_membership_worked(self):
        cfg = PointConfig((0, 1, 2), 1)
        assert on_quadrics(diagonal_quadrics(cfg), ProjPoint((1, 5, 7)))
        assert not on_quadrics(diagonal_quadrics(cfg), ProjPoint((1, 5, 8)))

    def test_random_certificates_from_scaled_squares(self):
        # Certificates built directly from a polynomial's values: z_i is a
        # square root of f(x_0) f(x_i), whenever every product is a square.
        rnd = random.Random(11)
        cfg = PointConfig((0, 1, 2), 1)
        hits = 0
        for _ in range(200):
            f0, f1 = rnd.randint(-30, 30), rnd.randint(-30, 30)
            if f0 == 0 and f1 == 0:
                continue
            values = [f0 + f1 * x for x in (0, 1, 2)]
            prods = [values[0] * values[i] for i in (1, 2)]
            roots = []
            for p in prods:
                r = math.isqrt(p) if p >= 0 else -1
                if p >= 0 and r * r == p:
                    roots.append(r)
            if len(roots) != 2:
                continue
            hits += 1
            v = CertificateCoords(cfg, ProjPoint((f0, f1, *roots)))
            assert on_certificate_variety(v)
        assert hits > 5  # sanity: the loop exercised the assertion
