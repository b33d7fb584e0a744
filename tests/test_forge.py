"""Witness construction, exact verification, triviality classification, and
the brute-force search oracle."""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from diopoly import cli, exactmath, forge, rationalmaps, variety
from diopoly.exactmath import eval_poly
from diopoly.forge import (
    DEFAULT_SEARCH_CEILING,
    FLAG_DEGREE_DROPPED,
    FLAG_TRIVIAL_FAMILY,
    KEY_PRIMES,
    ConstructionError,
    Polynomial,
    SQUARE_MODULUS,
    SearchSpaceError,
    brute_force_search,
    classify_trivial,
    construct_witness,
    poly_square_root,
    verify_witness,
)
from diopoly.twist import twist_points
from diopoly.variety import ProjPoint

from oracles import (
    CertificateCoords,
    QuadricCoords,
    certificate_twist,
    eval_ascending,
    is_perfect_square,
    node_vandermonde,
    on_certificate_variety,
    reverse_map_by_basis,
    reverse_map_by_minors,
    reverse_map_point,
    search_by_enumeration,
    solve_interpolation,
    verify_pairwise,
    witness_by_kernel,
)


def report_line(report):
    """The line verify prints for the report, read back."""
    with cli._int_str_limit_lifted():
        return json.loads("".join(cli._verify_report_line(report)))


def report_rows(report):
    """The pairs of the report's line as the rows of oracles.verify_pairwise:
    (i, j, a, b, product, root or None), integers read back under the lifted
    digit limit."""
    with cli._int_str_limit_lifted():
        return [
            (p["i"], p["j"], int(p["a"]), int(p["b"]), int(p["product"]),
             None if p["root"] is None else int(p["root"]))
            for p in report_line(report)["pairs"]
        ]


def report_failures(rows):
    return tuple((i, j) for i, j, *_, r in rows if r is None)


def report_roots(rows):
    return {(i, j): r for i, j, *_, r in rows if r is not None}


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        p = Polynomial((1, 2, 0, 0))
        assert p.coeffs == (1, 2) and p.degree == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Polynomial((0, 0))

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            Polynomial((1, 2.5))

    def test_basic_properties(self):
        p = Polynomial((2, 4, 2))
        assert p.degree == 2
        assert p.leading == 2
        assert p.content == 2
        assert p.degree != 0
        assert p(3) == 32

    def test_call_with_fraction(self):
        assert Polynomial((1, 24))(Fraction(1, 2)) == 13

    def test_primitive_part(self):
        assert Polynomial((2, 4, 2)).primitive_part().coeffs == (1, 2, 1)

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=6).filter(lambda c: any(c)))
    def test_evaluation_matches_oracle(self, coeffs):
        p = Polynomial(tuple(coeffs))
        for x in (-3, 0, 2, 11):
            assert p(x) == eval_ascending(p.coeffs, x)


class TestPolySquareRoot:
    @pytest.mark.parametrize(
        "square,root",
        [
            ((1, 2, 1), (1, 1)),
            ((4,), (2,)),
            ((0, 0, 1), (0, 1)),
            ((4, 12, 9), (2, 3)),
            ((1, 0, -2, 0, 1), (-1, 0, 1)),
        ],
    )
    def test_exact_roots(self, square, root):
        got = poly_square_root(square)
        assert got in (root, tuple(-c for c in root))

    @pytest.mark.parametrize("coeffs", [(1, 1), (2,), (-1,), (1, 2, 2), (0, 1)])
    def test_non_squares(self, coeffs):
        assert poly_square_root(coeffs) is None

    def test_trailing_zeros_ignored(self):
        assert poly_square_root((1, 0, 0)) == (1,)
        assert poly_square_root((0, 0)) is None

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(lambda c: c[-1] != 0))
    def test_squaring_round_trip(self, g):
        square = [0] * (2 * len(g) - 1)
        for i, a in enumerate(g):
            for j, b in enumerate(g):
                square[i + j] += a * b
        got = poly_square_root(tuple(square))
        assert got is not None
        regot = [0] * (2 * len(got) - 1)
        for i, a in enumerate(got):
            for j, b in enumerate(got):
                regot[i + j] += a * b
        assert regot == square


class TestClassifyTrivial:
    def test_constant(self):
        assert classify_trivial(Polynomial((4,)), (0, 1, 2)) == {FLAG_TRIVIAL_FAMILY}

    def test_scaled_square(self):
        assert classify_trivial(Polynomial((2, 4, 2)), (0, 1, 2)) == {FLAG_TRIVIAL_FAMILY}

    def test_golden_witness_is_not_trivial(self):
        assert classify_trivial(Polynomial((1, 24)), (0, 1, 2)) == frozenset()

    def test_non_square_quadratic(self):
        assert classify_trivial(Polynomial((1, 0, 1)), (0, 1, 2)) == frozenset()


class TestConstructQuadric:
    def test_golden_witness(self):
        w = construct_witness([0, 1, 2], "quadric", parameter=(3, 1))
        assert w.poly.coeffs == (1, 24)
        assert w.method == "quadric"
        assert w.padding == ()
        assert w.flags == frozenset()
        assert w.roots_map() == {(0, 1): 5, (0, 2): 7, (1, 2): 35}

    def test_golden_witness_runs_under_time_budget(self):
        import time

        t0 = time.monotonic()
        construct_witness([0, 1, 2], "quadric", parameter=(3, 1))
        assert time.monotonic() - t0 < 0.1

    def test_elements_order_does_not_matter(self):
        a = construct_witness([2, 0, 1], "quadric", parameter=(3, 1))
        b = construct_witness([0, 1, 2], "quadric", parameter=(3, 1))
        assert a.poly == b.poly

    def test_degree_drop_flagged(self):
        w = construct_witness([0, 1, 2], "quadric", parameter=(1, 0))
        assert w.poly.coeffs == (1,)
        assert FLAG_DEGREE_DROPPED in w.flags

    def test_base_point_parameter_flagged(self):
        w = construct_witness([0, 1, 2], "quadric", parameter=(2, 1))
        assert FLAG_DEGREE_DROPPED in w.flags
        assert w.poly.degree == 0

    def test_parameter_accepts_projpoint(self):
        w = construct_witness([0, 1, 2], "quadric", parameter=ProjPoint((3, 1)))
        assert w.poly.coeffs == (1, 24)

    def test_too_few_elements(self):
        with pytest.raises(ValueError):
            construct_witness([0, 1], "quadric")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            construct_witness([0, 1, 2], "cubic")

    def test_duplicate_elements_rejected(self):
        with pytest.raises(ValueError):
            construct_witness([0, 1, 1], "quadric")


class TestConstructPlane:
    def test_golden_witness(self):
        # the reverse map gives (2, 4, 2) on the scale L = 2; the witness
        # keeps its primitive part, and the roots halve with it
        w = construct_witness([0, 1, 2, 3, 4], "plane", parameter=(1, 2, 0))
        assert w.poly.coeffs == (1, 2, 1)
        assert w.flags == {FLAG_TRIVIAL_FAMILY}
        assert w.padding == ()
        assert w.roots_map()[(3, 4)] == 20

    def test_golden_pair_roots_complete(self):
        w = construct_witness([0, 1, 2, 3, 4], "plane", parameter=(1, 2, 0))
        # f = (1 + x)^2, so the root of f(a) * f(b) is (1 + a) * (1 + b)
        assert w.roots_map() == {
            (0, 1): 2, (0, 2): 3, (0, 3): 4, (0, 4): 5,
            (1, 2): 6, (1, 3): 8, (1, 4): 10,
            (2, 3): 12, (2, 4): 15, (3, 4): 20,
        }

    def test_padding_added_for_small_sets(self):
        w = construct_witness([1, 2, 3], "plane", seed=1)
        assert w.padding == (0, 4)
        assert verify_witness([1, 2, 3], w.poly).ok

    def test_padding_avoids_elements(self):
        w = construct_witness([0, 1, 2, 4], "plane", seed=1)
        assert w.padding == (3,)

    def test_degenerate_parameter_raises(self):
        with pytest.raises(ConstructionError):
            construct_witness([0, 1, 2, 3, 4], "plane", parameter=(1, 0, 0))

    def test_distinct_support_parameters_give_distinct_witnesses(self):
        # every finite set has infinitely many witnesses: on 0..7 the k + 2
        # supports (1, t, -1, 2, 0) alone give a new verified, unflagged
        # witness for every t
        polys = set()
        for t in range(1, 41):
            w = construct_witness(range(8), "plane", parameter=(1, t, -1, 2, 0))
            assert w.flags == frozenset()
            assert verify_witness(range(8), w.poly).ok
            polys.add(w.poly)
        assert len(polys) == 40

    def test_construction_on_0_to_199_under_time_budget(self):
        # sampled directions have k + 2 nonzero coordinates, whose image
        # has a closed form: about 0.2 s on a 2-vCPU VM, against 6-7 s by
        # the Bareiss kernel
        import time

        t0 = time.monotonic()
        construct_witness(range(200), "plane", seed=0)
        assert time.monotonic() - t0 < 2


class TestSampledConstruction:
    def test_seed_reproducible(self):
        a = construct_witness([0, 1, 2], "quadric", seed=5)
        b = construct_witness([0, 1, 2], "quadric", seed=5)
        assert a == b

    def test_shared_rng_advances(self):
        rng = random.Random(5)
        first = construct_witness([0, 1, 2], "quadric", rng=rng)
        second = construct_witness([0, 1, 2], "quadric", rng=rng)
        assert first.poly != second.poly

    def test_sampled_witnesses_verify(self):
        rnd = random.Random(99)
        for _ in range(10):
            size = rnd.randint(3, 7)
            elems = rnd.sample(range(-15, 16), size)
            w = construct_witness(elems, "quadric", seed=rnd.randint(0, 10**6))
            report = verify_witness(elems, w.poly)
            assert report.ok
            assert w.poly.degree == size - 2
            assert FLAG_DEGREE_DROPPED not in w.flags

    def test_sampled_plane_witnesses_verify(self):
        rnd = random.Random(7)
        for size in (5, 6, 7, 8):
            elems = rnd.sample(range(-10, 11), size)
            w = construct_witness(elems, "plane", seed=3)
            assert verify_witness(elems, w.poly).ok

    def test_exhaustion_reports_stats(self):
        # seed 63's first draw maps to a degree-dropping parameter
        with pytest.raises(ConstructionError) as exc:
            construct_witness([0, 1, 2], "quadric", seed=63, max_attempts=1)
        assert exc.value.stats["attempts"] == 1
        assert exc.value.stats["degree-dropped"] == 1
        assert exc.value.stats["trivial-family"] == 0

    def test_polar_direction_counted_in_plane(self):
        # (2, 1) is on the polar of {0, 1, 2}: the image is the base point,
        # which is the whole plane of a line config
        class Stub:
            draws = iter([2, 1])

            def randint(self, lo, hi):
                return next(self.draws)

        with pytest.raises(ConstructionError) as exc:
            construct_witness([0, 1, 2], "quadric", rng=Stub(), max_attempts=1)
        assert exc.value.stats["attempts"] == 1
        assert exc.value.stats["in-plane"] == 1
        assert "base-point" not in exc.value.stats

    def test_trivial_family_resampled_and_counted(self):
        # seed 76's first quadric draw on {0, 1, 2, 3} is (-3, 9, -1),
        # which gives f = (13 - 2x)^2
        with pytest.raises(ConstructionError) as exc:
            construct_witness([0, 1, 2, 3], "quadric", seed=76, max_attempts=1)
        assert exc.value.stats["attempts"] == 1
        assert exc.value.stats["trivial-family"] == 1
        w = construct_witness([0, 1, 2, 3], "quadric", seed=76)
        assert w.flags == frozenset()
        assert w.stats["attempts"] == 2 and w.stats["trivial-family"] == 1

    def test_tried_directions_are_redrawn_not_counted(self):
        # a repeat of (-3, 9, -1) and its negative are the same direction
        class Stub:
            draws = iter([-3, 9, -1, -3, 9, -1, 3, -9, 1, 25, 12, 44])

            def randint(self, lo, hi):
                return next(self.draws)

        w = construct_witness([0, 1, 2, 3], "quadric", rng=Stub())
        assert w.parameter == ProjPoint((25, 12, 44))
        assert w.stats["attempts"] == 2 and w.stats["trivial-family"] == 1

    @pytest.mark.parametrize(
        "method, k, directions",
        # with the quadric box cut to [-2, 2], its 24 nonzero vectors on
        # {0, 1, 2} (k = 0) lie in 8 directions; the plane config (k = 1)
        # draws 3 signs: 8 vectors, 4 directions
        [("quadric", 0, 8), ("plane", 1, 4)],
    )
    def test_sampling_stops_once_every_direction_was_tried(self, monkeypatch, method, k, directions):
        def degenerate(config, q):
            raise rationalmaps.DegenerateParameterError("every direction")

        monkeypatch.setattr(forge, "plane_image", degenerate)
        monkeypatch.setattr(forge, "DENSE_BOUND", 2)
        config = forge._method_setup((0, 1, 2), method)
        assert config.n - config.degree - 1 == k
        with pytest.raises(ConstructionError, match=f"within {directions} attempts") as exc:
            construct_witness([0, 1, 2], method, seed=1, max_attempts=20)
        assert exc.value.stats["attempts"] == exc.value.stats["degenerate-parameter"] == directions

    @pytest.mark.parametrize(
        "elements, method, seed, reason",
        [
            ([0, 1, 2, 3, 4, 5], "plane", 54, "in-plane"),
            ([0, 3, 8, 10], "quadric", 64, "zero-value"),
            ([-4, 2, 3, 5], "plane", 19, "zero-value"),
            # the plane config pads with 0, so x_0 is no element
            ([1, 4, 8, 9, 10, 11, 13], "plane", 5, "base-node-zero"),
            ([0, 1, 2, 3, 4, 5], "plane", 3, "trivial-family"),
        ],
    )
    def test_first_draw_rejection_is_counted(self, elements, method, seed, reason):
        # the reasons no test above reaches through a default draw; the
        # degenerate direction comes only from the stubbed image
        with pytest.raises(ConstructionError) as exc:
            construct_witness(elements, method, seed=seed, max_attempts=1)
        assert exc.value.stats == {**dict.fromkeys(forge.STATS_KEYS, 0), "attempts": 1, reason: 1}
        w = construct_witness(elements, method, seed=seed)
        assert w.flags == frozenset() and w.stats[reason] >= 1
        assert verify_witness(elements, w.poly).ok

    @pytest.mark.parametrize("method, size", [("plane", 12), ("plane", 30), ("quadric", 8)])
    def test_sign_directions_have_k_plus_2_nonzero_coordinates(self, method, size):
        config = forge._method_setup(tuple(range(size)), method)
        k = config.n - config.degree - 1
        rnd = random.Random(f"support, {method}, {size}")

        def signs(support):
            coords = [0] * (config.degree + 1)
            for i in rnd.sample(range(len(coords)), support):
                coords[i] = rnd.choice((-1, 1))
            return coords

        # fewer never give a witness: k or less drop the system's rank, and
        # k + 1 give a trivial family
        for _ in range(5):
            if k:
                with pytest.raises(ConstructionError, match="degenerate"):
                    construct_witness(range(size), method, parameter=signs(k))
            w = construct_witness(range(size), method, parameter=signs(k + 1))
            assert FLAG_TRIVIAL_FAMILY in w.flags
        # the sampled draw: k + 2 signs at k >= 1, the dense box at k = 0
        for seed in range(5):
            w = construct_witness(range(size), method, seed=seed)
            if k:
                assert sum(1 for c in w.parameter if c) == k + 2
                assert set(w.parameter) <= {-1, 0, 1}
            else:
                assert sum(1 for c in w.parameter if c) > k + 2
                assert max(abs(c) for c in w.parameter) <= forge.DENSE_BOUND

    @pytest.mark.parametrize("size, degenerate, trivial", [(5, 3, 18), (8, 65, 280)])
    def test_supports_below_k_plus_2_never_give_a_witness(self, size, degenerate, trivial):
        # every direction in [-2, 2]^(d+1): with at most k nonzero
        # coordinates the reduced system has negative size and the system
        # matrix drops rank; with k + 1 it has size zero and f = c * M^2
        config = forge._method_setup(tuple(range(size)), "plane")
        k = config.n - config.degree - 1
        below, at = set(), set()
        for coords in product(range(-2, 3), repeat=config.degree + 1):
            nonzero = sum(1 for c in coords if c)
            if nonzero and nonzero <= k + 1:
                (below if nonzero <= k else at).add(ProjPoint(coords))
        assert (len(below), len(at)) == (degenerate, trivial)
        for q in below:
            with pytest.raises(rationalmaps.DegenerateParameterError):
                rationalmaps.plane_image(config, q)
        for q in at:
            w = construct_witness(range(size), "plane", parameter=q)
            assert FLAG_TRIVIAL_FAMILY in w.flags

    def test_stats_on_success(self):
        sampled = construct_witness([0, 1, 2, 3], "quadric", seed=76)
        pinned = construct_witness([0, 1, 2, 3], "quadric", parameter=sampled.parameter)
        assert list(sampled.stats) == list(forge.STATS_KEYS)
        assert pinned.stats == {**dict.fromkeys(forge.STATS_KEYS, 0), "attempts": 1}
        # stats stay out of equality, hashing and the printed document
        assert sampled == pinned and hash(sampled) == hash(pinned)
        assert sampled.stats != pinned.stats
        assert "stats" not in cli.witness_document(sampled)

    @pytest.mark.parametrize("method", ["quadric", "plane"])
    def test_sampled_witnesses_carry_no_flags(self, method):
        rnd = random.Random(f"no flags, {method}")
        for size in range(3, 13):
            for _ in range(6):
                elems = rnd.sample(range(-40, 40), size)
                for seed in range(5):
                    w = construct_witness(elems, method, seed=seed)
                    assert w.flags == frozenset()
                    assert w.stats["attempts"] == 1 + sum(
                        n for key, n in w.stats.items() if key != "attempts"
                    )
                    assert verify_witness(elems, w.poly).ok

    def test_plane_height_on_0_to_59(self):
        # primitive digits: 515-524 with directions from [-50, 50], and
        # 163-352 from all of {-1, 0, 1}^21, where the height follows the
        # number of nonzero coordinates; with exactly k + 2 = 12 of them,
        # 119-144 over these seeds
        polys = [construct_witness(range(60), "plane", seed=s).poly.primitive_part() for s in range(8)]
        heights = [max(len(str(abs(c))) for c in f.coeffs) for f in polys]
        assert max(heights) <= 200
        assert max(heights) - min(heights) <= 40

    def test_max_attempts_validation(self):
        with pytest.raises(ValueError):
            construct_witness([0, 1, 2], "quadric", max_attempts=0)

    def test_quadric_draws_are_not_near_trivial(self):
        # 2 signs, the k + 2 of k = 0, gave f = -22500 at 8 of these 10
        # elements; the dense box gives a witness of distinct values
        w = construct_witness(range(10), "quadric", seed=3)
        assert sum(1 for c in w.parameter if c) > 2
        assert len({w.poly(x) for x in range(10)}) > 2

    def test_witness_pair_roots_square_to_products(self):
        w = construct_witness([3, 5, 8, 11], "quadric", seed=2)
        for (i, j), root in w.roots_map().items():
            elems = w.elements
            assert root * root == w.poly(elems[i]) * w.poly(elems[j])


def parameter_length(size, method):
    # quadric degree |S| - 2; plane degree 2k with k minimal such that 3k + 2 >= |S|
    return size - 1 if method == "quadric" else 2 * max(1, -(-(size - 2) // 3)) + 1


def assert_twist_read_off(w, v):
    """The certificate point v of the witness w satisfies the certificate
    equations, and twist_points(w) is the twist block read off v: scalar
    f(x_0), v's coefficients and ordinates z_i / f(x_0), or None where
    f(x_0) = 0."""
    assert on_certificate_variety(v)
    assert twist_points(w) == certificate_twist(v)


class TestCertificateRoots:
    """Construction reads every pair root off the reverse-map identity
    g * f(x) = +-L * Y_x^2; verify_witness re-derives them from f alone, by
    one integer square root per element of a square class after its first."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 9).flatmap(
            lambda e: st.lists(st.integers(-(10**e), 10**e), min_size=3, max_size=8, unique=True)
        ),
        st.sampled_from(forge.METHODS),
        st.integers(0, 2**32).map(lambda seed: {"seed": seed}),
    )
    # Y_0 = 0, so every certificate coordinate is 0; a degree drop, f = 1;
    # and a plane config padded with 0 and 1
    @example([0, 1, 2, 3], "quadric", {"parameter": (3, 4, 5)})
    @example([0, 1, 2], "quadric", {"parameter": (1, 0)})
    @example([5, 9, 13], "plane", {"seed": 1})
    def test_primitive_witness_matches_the_minor_oracle(self, elems, method, kwargs):
        """The witness is the primitive part of the reverse map taken by
        Laplace minors on the scale D, its roots are the L-scaled roots
        |L * Y_a * Y_b| divided by that map's content g on the scale L, and
        its twist set is the one read off the L-scaled reverse map's
        certificate point."""
        try:
            w = construct_witness(elems, method, **kwargs)
        except ConstructionError:
            assume(False)
        assert w.poly.content == 1 and w.poly.leading > 0
        coeffs, certs = reverse_map_by_minors(QuadricCoords(w.config, w.image))
        assert w.poly == Polynomial(coeffs).primitive_part()
        # the same map on the scale L: D / L is an integer
        ll = w.config.base_lagrange[0]
        ratio = node_vandermonde(w.config) // ll
        scaled = [c // ratio for c in coeffs + certs]
        assert [c * ratio for c in scaled] == list(coeffs + certs)
        g = math.gcd(*scaled[: len(coeffs)])
        assert ll % g == 0
        y = dict(zip(w.config.nodes, w.image.coords))
        for (i, j), r in w.roots_map().items():
            a, b = w.elements[i], w.elements[j]
            assert r >= 0 and r * r == w.poly(a) * w.poly(b)
            assert r * g == abs(ll * y[a] * y[b])
        assert_twist_read_off(w, CertificateCoords(w.config, ProjPoint(tuple(scaled))))

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(-60, 60), min_size=3, max_size=12, unique=True),
        st.sampled_from(("quadric", "plane")),
        st.data(),
    )
    def test_roots_equal_verify_roots(self, elems, method, data):
        # construct_witness refuses a plane parameter with more than k + 2
        # nonzero coordinates; its witness is built from the kernel's image
        w = None
        if data.draw(st.booleans(), label="explicit parameter"):
            plen = parameter_length(len(elems), method)
            coords = data.draw(st.lists(st.integers(-3, 3), min_size=plen, max_size=plen).filter(any))
            kwargs = {"parameter": coords}
            if method == "plane" and sum(1 for c in coords if c) > (plen - 1) // 2 + 2:
                with pytest.raises(ValueError, match="nonzero coordinates"):
                    construct_witness(elems, method, **kwargs)
                w = witness_by_kernel(elems, method, coords)
                assume(w is not None)
        else:
            kwargs = {"seed": data.draw(st.integers(0, 2**32))}
        if w is None:
            try:
                w = construct_witness(elems, method, **kwargs)
            except ConstructionError:
                assume(False)  # degenerate parameter, or sampling exhausted
        report = verify_witness(elems, w.poly)
        assert report.ok
        assert list(w.roots_map().items()) == [((i, j), r) for i, j, *_, r in report_rows(report)]

    def test_construction_takes_no_square_roots(self, monkeypatch):
        calls = []
        real = forge.integer_sqrt
        monkeypatch.setattr(forge, "integer_sqrt", lambda n: calls.append(n) or real(n))
        for size in (11, 12):
            for method in ("quadric", "plane"):
                construct_witness(range(size), method, seed=1)
        # a trivial-family witness: classify_trivial finds the square root of f
        construct_witness([0, 1, 2, 3, 4], "plane", parameter=(1, 2, 0))
        assert calls == []
        verify_witness([0, 1, 2], [1, 24])
        assert calls == [25, 49]  # the counter is live: n - 1 roots against f(0) = 1

    @pytest.mark.parametrize("method", ["quadric", "plane"])
    def test_verify_takes_one_square_root_per_element_after_the_first(self, monkeypatch, method):
        w = construct_witness(range(30), method, seed=1)
        calls = []
        real = forge.integer_sqrt
        monkeypatch.setattr(forge, "integer_sqrt", lambda n: calls.append(n) or real(n))
        report = verify_witness(range(30), w.poly)
        assert report.ok and report.zero_products == 0
        assert len(calls) == 29
        assert report_roots(report_rows(report)) == w.roots_map()

    def test_one_node_table_per_construction(self, monkeypatch):
        """Cofactors, variety check, reverse map and root identity all read
        the config's tables on the scale L, the plane image of a k + 2-sign
        direction takes only products of node differences, and the
        in-plane test reads lambda: a plane witness on 0..29 (21 base
        nodes, 11 extra) takes one table of Lagrange weights, for the base
        nodes.  No module keeps a Vandermonde product, a basis or a table
        of its own.  The config is cached, so a second plane construction on
        the set takes no further table, and a quadric one (29 base nodes)
        takes its own."""
        forge._method_setup.cache_clear()
        calls = []
        real = exactmath.lagrange_weights
        # variety imports the table by name, so the count is taken there
        monkeypatch.setattr(
            variety, "lagrange_weights", lambda xs: calls.append(len(xs)) or real(xs)
        )
        construct_witness(range(30), "plane", seed=1)
        assert calls == [21]
        construct_witness(range(30), "plane", seed=2)
        assert calls == [21]
        construct_witness(range(30), "quadric", seed=1)
        assert calls == [21, 29]
        tables = {"vandermonde", "lagrange_basis", "lagrange_table"}
        for module in (rationalmaps, forge):
            assert not (tables | {"lagrange_weights"}) & set(vars(module))
        for module in (variety, exactmath):
            assert not tables & set(vars(module))

    def test_config_cache_is_bounded(self):
        """Constructions on more distinct sets than the cache holds leave it
        full, not larger, and the oldest set's config is built again."""
        setup = forge._method_setup
        setup.cache_clear()
        bound = setup.cache_info().maxsize
        assert bound is not None
        for shift in range(bound + 3):
            construct_witness(range(shift, shift + 6), "quadric", seed=1)
        assert setup.cache_info().currsize == bound
        misses = setup.cache_info().misses
        construct_witness(range(6), "quadric", seed=1)
        assert setup.cache_info().misses == misses + 1
        assert setup.cache_info().currsize == bound

    @pytest.mark.parametrize("method", ["quadric", "plane"])
    def test_base_table_holds_the_scale_and_the_weights(self, method):
        w = construct_witness(range(30), method, seed=1)
        ll, weights = w.config.base_lagrange
        assert isinstance(ll, int) and isinstance(weights, tuple)
        assert len(weights) == w.config.degree + 1
        assert all(type(s) is int for s in weights)

    @pytest.mark.parametrize("method", ["quadric", "plane"])
    def test_node_identity_is_the_one_check(self, monkeypatch, method):
        """Construction runs the reverse map once, checks g * f(x) = +-L * Y_x^2
        with one evaluation of f per tail node (at the base nodes the
        identity is lagrange_numerator's) and runs no certificate check,
        which that identity implies; the config keeps no node table but
        base_lagrange.  Each twist_points call runs no reverse map and
        evaluates f once, at the base node: a certificate check would
        evaluate it at every node."""
        calls = {"reverse": 0, "eval": 0}
        for module, attr, name in (
            (forge, "quadric_to_certificate_lcm", "reverse"),
            (forge, "eval_poly", "eval"),
        ):
            real = getattr(module, attr)

            def counted(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, attr, counted)
        w = construct_witness(range(30), method, seed=1)
        assert w.stats["attempts"] == 1
        nodes, tail = {"quadric": (30, 1), "plane": (32, 11)}[method]
        assert len(w.config.nodes) == nodes == w.config.degree + 1 + tail
        assert calls == {"reverse": 1, "eval": tail}
        # the fields and the one node table: base_lagrange
        assert set(vars(w.config)) <= {"nodes", "degree", "base_lagrange"}
        for twists in (1, 2):
            twist_points(w)
            assert calls == {"reverse": 1, "eval": tail + twists}

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-300, 299), min_size=3, max_size=30, unique=True),
        st.sampled_from(forge.METHODS),
        st.integers(0, 2**32).map(lambda seed: {"seed": seed}),
    )
    # sampling never yields a zero coordinate of Y or a degree drop, so
    # explicit parameters do: Y = (0, 1, 0, 0, -2), so Y_0 = 0 and f
    # vanishes at 0, 2 and 3 (zero-value); Y = (3, 2, -1, 0, 1) on 0..3
    # padded with 4, so f = 2 * (x - 3)^2 (zero-value, trivial-family);
    # and f = 1 on 0..2 (degree-dropped, trivial-family)
    @example([0, 1, 2, 3, 4], "quadric", {"parameter": (-2, -3, -2, -2)})
    @example([0, 1, 2, 3], "plane", {"parameter": (-3, -2, 0)})
    @example([0, 1, 2], "quadric", {"parameter": (1, 0)})
    @example([0, 1, 2], "quadric", {"parameter": (3, 2)})  # f = 24x - 49: sign -1
    def test_certificate_matches_validated_maps(self, elems, method, kwargs):
        """The point that plane_image and the reverse map by the basis table
        give satisfies the certificate equations, the twist set read off
        poly and Y is the one read off that point, and the flags read off Y
        are the ones classify_trivial and the degree test give on every
        element."""
        try:
            w = construct_witness(elems, method, **kwargs)
        except ConstructionError:
            assume(False)
        image, _ = rationalmaps.plane_image(w.config, w.parameter)
        assert image == w.image
        # up to 30 elements: too many base nodes for the Laplace minors
        point = reverse_map_point(QuadricCoords(w.config, image), reverse_map_by_basis)
        assert_twist_read_off(w, point)
        flags = set(classify_trivial(w.poly, w.elements))
        if w.poly.degree < w.config.degree:
            flags.add(FLAG_DEGREE_DROPPED)
        assert w.flags == flags

    @pytest.mark.parametrize(
        "elems,method,kwargs",
        [
            ([0, 1, 2], "quadric", {"parameter": (3, 1)}),
            ([0, 1, 2, 3, 4], "plane", {"parameter": (1, 2, 0)}),
            (range(9), "quadric", {"seed": 1}),
            ([5, 9, 13], "plane", {"seed": 1}),
        ],
    )
    def test_tampered_reverse_map_raises(self, monkeypatch, elems, method, kwargs):
        real = forge.quadric_to_certificate_lcm

        def bumped(config, y):
            coeffs = real(config, y)
            return (coeffs[0] + 1, *coeffs[1:])

        monkeypatch.setattr(forge, "quadric_to_certificate_lcm", bumped)
        with pytest.raises(ConstructionError, match="reverse map breaks"):
            construct_witness(elems, method, **kwargs)

    @pytest.mark.parametrize(
        "elems,method,moved",
        [
            (range(6), "quadric", 0),  # k = 0: the one tail node
            (range(6), "plane", 1),  # k = 2: the middle of three tail nodes
            ([-7, 2, 5, 11, 30], "plane", 0),  # k = 1: the first of two tail nodes
        ],
    )
    def test_moved_tail_coordinate_raises_at_its_node(self, elems, method, moved):
        """The reverse map reads only the base coordinates, so a tail
        coordinate moved by 1 leaves f as it was, and the tail check must
        name that node."""
        w = construct_witness(elems, method, seed=1)
        m = w.config.degree + 1 + moved
        coords = list(w.image.coords)
        coords[m] += 1
        image = ProjPoint(tuple(coords))
        assert image.coords == tuple(coords)
        with pytest.raises(ConstructionError, match=rf"reverse map breaks .* at node {w.config.nodes[m]}$"):
            forge._build_witness(w.config, w.method, w.parameter, image, w.elements, dict(w.stats))


class TestVerify:
    def test_worked_passing(self):
        report = verify_witness([2, 8, 18], [0, 1])
        assert report.ok
        assert report.zero_products == 0
        assert report_roots(report_rows(report)) == {(0, 1): 4, (0, 2): 6, (1, 2): 12}

    def test_worked_failing(self):
        report = verify_witness([1, 3], [0, 1])
        assert not report.ok
        assert report_failures(report_rows(report)) == ((0, 1),)

    def test_accepts_polynomial_instances(self):
        assert verify_witness([2, 8, 18], Polynomial((0, 1))).ok

    def test_zero_products_counted(self):
        report = verify_witness([0, 2, 8], [0, 1])  # f = x vanishes at 0
        assert report.ok
        assert report.zero_products == 2
        assert report_roots(report_rows(report)) == {(0, 1): 0, (0, 2): 0, (1, 2): 4}

    def test_minimum_two_elements(self):
        with pytest.raises(ValueError):
            verify_witness([5], [1, 1])

    def test_scaling_by_square_preserves_verdict(self):
        base = verify_witness([0, 1, 2], [1, 24])
        scaled = verify_witness([0, 1, 2], [9, 216])
        assert base.ok and scaled.ok

    @given(
        st.lists(st.integers(-20, 20), min_size=2, max_size=5, unique=True),
        st.lists(st.integers(-12, 12), min_size=1, max_size=3).filter(lambda c: any(c)),
    )
    def test_report_arithmetic_is_exact(self, elems, coeffs):
        report = verify_witness(elems, coeffs)
        e = report.elements
        for i, j, a, b, product, root in report_rows(report):
            assert (a, b) == (e[i], e[j])
            assert product == eval_poly(coeffs, a) * eval_poly(coeffs, b)
            if root is not None:
                assert root * root == product
                assert is_perfect_square(abs(product)) or product > 10**6
            else:
                assert not report.ok


def integer_interpolant(elems, values):
    """Integer coefficients of D times the interpolant through the values,
    D > 0 the lcm of its denominators: every value is scaled by D, which
    keeps the zeros, the signs and the partition into square classes."""
    coeffs = solve_interpolation(list(zip(elems, values)))
    scale = math.lcm(*(c.denominator for c in coeffs))
    return [int(c * scale) for c in coeffs]


@st.composite
def class_documents(draw):
    """A set with a value c * u^2 at each element, c drawn from one to
    three square classes (negative ones too) and u from 0..9, so that some
    values vanish; returns (set, coefficients)."""
    elems = draw(st.lists(st.integers(-30, 30), min_size=2, max_size=7, unique=True))
    free = st.sampled_from((1, -1, 2, -2, 3, -3, 5, -6, 10))
    classes = draw(st.lists(free, min_size=1, max_size=3, unique=True))
    values = [draw(st.sampled_from(classes)) * draw(st.integers(0, 9)) ** 2 for _ in elems]
    assume(any(values))
    return elems, integer_interpolant(elems, values)


@st.composite
def key_prime_documents(draw):
    """A set with a value c * u^2 at each element, where c (of either sign)
    and u are products of up to two of 2, 3 and three key primes, and u may
    be 0, so that key primes divide some values and classes, and the keys
    then compare only their other symbols; returns (set, coefficients)."""
    elems = draw(st.lists(st.integers(-30, 30), min_size=2, max_size=7, unique=True))
    factors = st.lists(st.sampled_from((2, 3, *KEY_PRIMES[:3])), max_size=2).map(math.prod)
    free = st.builds(lambda sign, c: sign * c, st.sampled_from((1, -1)), factors)
    classes = draw(st.lists(free, min_size=1, max_size=4, unique=True))
    values = [draw(st.sampled_from(classes)) * draw(st.one_of(st.just(0), factors)) ** 2 for _ in elems]
    assume(any(values))
    return elems, integer_interpolant(elems, values)


def euler_symbol(v, p):
    """v^((p - 1) / 2) modulo p: 0 when p divides v, 1 when v is a nonzero
    square modulo p, p - 1 otherwise (Euler's criterion)."""
    return pow(v, (p - 1) // 2, p)


def roots_taken(report):
    """The integer square roots verify_witness takes for the report, counted
    by Euler's criterion: none for the first nonzero value; one for each
    later nonzero value against the first class; and, for a value that
    fails there, one per later class before its own (its own included when
    it joins one) whose first value agrees with it at every key prime that
    divides neither, a key collision."""
    taken, opened = 0, set()
    for v, k in zip(report.values, report.classes):
        if k < 0:
            continue
        if opened:
            taken += 1
            for c in report.bases[1:k + (k in opened)]:
                taken += all(euler_symbol(v, p) == euler_symbol(c, p) for p in KEY_PRIMES if v % p and c % p)
        opened.add(k)
    return taken


@st.composite
def moved_witnesses(draw):
    """A sampled witness with one coefficient moved by -1, 0 or +1."""
    elems = draw(st.lists(st.integers(-40, 40), min_size=3, max_size=10, unique=True))
    method = draw(st.sampled_from(("quadric", "plane")))
    try:
        w = construct_witness(elems, method, seed=draw(st.integers(0, 2**32)))
    except ConstructionError:
        assume(False)
    coeffs = list(w.poly.coeffs)
    coeffs[draw(st.integers(0, len(coeffs) - 1))] += draw(st.sampled_from((-1, 0, 1)))
    assume(any(coeffs))
    return elems, coeffs


class TestSquareClasses:
    """verify_witness against the pairwise oracle: the verdict, the zero
    count and every pair row agree, and the integer square roots number
    one per nonzero value after the first, plus the key collisions."""

    def check(self, elems, coeffs):
        calls = []
        real = forge.integer_sqrt
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forge, "integer_sqrt", lambda n: calls.append(n) or real(n))
            report = verify_witness(elems, coeffs)
        ok, zero_products, rows = verify_pairwise(elems, coeffs)
        assert (report.ok, report.zero_products) == (ok, zero_products)
        line = report_line(report)
        assert (line["ok"], line["zero_products"]) == (ok, zero_products)
        # the printed rows, so also the failing pairs (root null) and the roots
        shown = report_rows(report)
        assert shown == rows
        assert len(calls) == roots_taken(report)
        if ok:
            nonzero = sum(1 for v in report.values if v)
            assert len(calls) == max(nonzero - 1, 0)
        return report, calls, shown

    @settings(max_examples=150, deadline=None)
    @given(class_documents())
    def test_drawn_square_classes(self, document):
        self.check(*document)

    @settings(max_examples=150, deadline=None)
    @given(key_prime_documents())
    def test_key_primes_dividing_values(self, document):
        self.check(*document)

    @settings(max_examples=40, deadline=None)
    @given(moved_witnesses())
    def test_moved_witnesses(self, document):
        self.check(*document)

    def test_every_value_in_its_own_class(self):
        # f = x on 2, 3, 5, 7: no product is a square, and each value
        # after the first takes one root against the first class; no two
        # of them agree modulo all 16 key primes, so the keys rule out
        # every later class without a root
        report, calls, shown = self.check([2, 3, 5, 7], [0, 1])
        assert report.classes == (0, 1, 2, 3) and report.bases == (2, 3, 5, 7)
        assert len(report_failures(shown)) == 6 and len(calls) == 3

    def test_key_primes_dividing_a_class_and_a_value(self):
        # values 1, 2 * p^2, 2, 3, 3 * p^2 with p = 8191: p divides the first
        # value of the second class but not the third value, which joins
        # it, and the fifth value but not the first of the third class,
        # which it joins; the keys skip the symbol of p there.  Every value
        # after the first takes a root against the first class, and the
        # two that join a later class one more against it
        p = KEY_PRIMES[0]
        elems = [0, 1, 2, 3, 4]
        report, calls, _ = self.check(elems, integer_interpolant(elems, [1, 2 * p * p, 2, 3, 3 * p * p]))
        assert report.classes == (0, 1, 1, 2, 2) and len(calls) == 6


class TestBruteForceSearch:
    def test_degree_zero(self):
        report = brute_force_search([1, 3], max_degree=0, max_height=1)
        assert report.found == (Polynomial((1,)),)
        assert report.exhausted
        assert report.candidates == 1

    def test_worked_linear_box(self):
        report = brute_force_search([0, 1, 2], max_degree=1, max_height=30)
        assert report.candidates == 1860
        assert [p.coeffs for p in report.found] == [(1,), (1, 24)]

    def test_every_found_poly_verifies(self):
        report = brute_force_search([0, 1, 2], max_degree=1, max_height=20)
        for p in report.found:
            assert verify_witness([0, 1, 2], p).ok

    def test_ceiling_refusal(self):
        with pytest.raises(SearchSpaceError) as exc:
            brute_force_search([0, 1, 2], max_degree=6, max_height=100)
        assert exc.value.estimate > DEFAULT_SEARCH_CEILING

    def test_ceiling_override(self):
        report = brute_force_search([1, 3], max_degree=1, max_height=1, ceiling=10)
        assert report.exhausted

    @pytest.mark.parametrize("ceiling", [-5, 0])
    def test_ceiling_below_one_rejected(self, ceiling):
        with pytest.raises(ValueError, match="ceiling must be at least 1"):
            brute_force_search([0, 1], max_degree=1, max_height=1, ceiling=ceiling)

    def test_tight_ceiling_refuses(self):
        with pytest.raises(SearchSpaceError):
            brute_force_search([1, 3], max_degree=1, max_height=2, ceiling=3)

    def test_degree_zero_closed_form(self):
        # a box of 10**8 constants is answered without walking it
        report = brute_force_search([1, 3], max_degree=0, max_height=10**8)
        assert tuple(p.coeffs for p in report.found) == ((1,),)
        assert report.candidates == 10**8

    @pytest.mark.parametrize("name", ["max_degree", "max_height", "ceiling"])
    def test_box_arguments_must_be_plain_ints(self, name):
        box = {"max_degree": 1, "max_height": 1, "ceiling": 10}
        for bad in (True, 1.5, "1"):
            with pytest.raises(TypeError, match=name):
                brute_force_search([0, 1], **{**box, name: bad})


def _assert_matches_enumeration(elements, max_degree, max_height):
    report = brute_force_search(elements, max_degree, max_height)
    found, candidates = search_by_enumeration(elements, max_degree, max_height)
    assert [p.coeffs for p in report.found] == found
    assert report.candidates == candidates
    return found


def _table_bit(d, u):
    """Bit u mod SQUARE_MODULUS of the residue table's row d mod SQUARE_MODULUS."""
    return forge._pair_square_table()[d % SQUARE_MODULUS] >> u % SQUARE_MODULUS & 1


def _cache_size_after(cli_env, code, table):
    """The number of entries in the cache of forge.<table> after running
    code in a fresh interpreter."""
    code += f"; print(forge.{table}.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


class TestPairSquareTable:
    """The residue pre-test may drop only constant terms whose pair product
    u * (u + d) is no square."""

    def test_marks_every_square_product_of_small_terms(self):
        squares = {k * k for k in range(math.isqrt(700 * 1400) + 1)}
        span = range(-700, 701)
        misses = [(u, d) for u in span for d in span if u * (u + d) in squares and not _table_bit(d, u)]
        assert misses == []

    @given(st.integers(-(10**30), 10**30).filter(bool), st.integers(0, 10**20), st.integers(0, 10**20))
    def test_marks_large_square_products(self, s, a, b):
        # u = s * a^2 and u + d = s * b^2 multiply to (s * a * b)^2
        u, d = s * a * a, s * (b * b - a * a)
        assert _table_bit(d, u) == 1

    def test_import_does_not_build_the_table(self, cli_env):
        assert _cache_size_after(cli_env, "from diopoly import forge", "_pair_square_table") == 0

    def test_degree_zero_search_does_not_build_the_table(self, cli_env):
        # a box of 10**8 constants: a mask as wide as its span took a minute
        code = "from diopoly import forge; forge.brute_force_search([1, 3], 0, 10**8)"
        assert _cache_size_after(cli_env, code, "_pair_square_table") == 0


class TestResidueKeys:
    """verify's keys may rule out only non-square products, so each table
    must hold the Legendre symbols, and a key the table entries of its value."""

    def test_tables_follow_eulers_criterion(self):
        tables = forge._residue_tables()
        assert tuple(p for p, _ in tables) == KEY_PRIMES
        entry = {0: 0, 1: 1}
        for p, table in tables:
            assert len(table) == p
            assert all(table[r] == entry.get(euler_symbol(r, p), 3) for r in range(p))

    @given(st.integers(-(10**80), 10**80), st.lists(st.sampled_from(KEY_PRIMES), max_size=3))
    def test_key_bytes_are_symbols_of_the_value(self, v, primes):
        v *= math.prod(primes)
        key = forge._residue_key(v).to_bytes(len(KEY_PRIMES), "little")
        entry = {0: 0, 1: 1}
        assert list(key) == [entry.get(euler_symbol(v, p), 3) for p in KEY_PRIMES]

    def test_import_and_passing_verify_do_not_build_the_tables(self, cli_env):
        assert _cache_size_after(cli_env, "from diopoly import forge", "_residue_tables") == 0
        passing = "from diopoly import forge; assert forge.verify_witness(range(30), forge.construct_witness(range(30), 'plane', seed=1).poly).ok"
        assert _cache_size_after(cli_env, passing, "_residue_tables") == 0
        # the probe sees a build: f = x fails at its second nonzero value
        failing = "from diopoly import forge; assert not forge.verify_witness([1, 2, 3], [0, 1]).ok"
        assert _cache_size_after(cli_env, failing, "_residue_tables") == 1


class TestSearchAtSmallModulus:
    """Below the span's width, a small SQUARE_MODULUS makes the search shift
    its window by every offset, repeat the selection across periods and
    step c_1 over many of them, which at 240 happens only for heights of
    120 and more; the found lists must still equal the literal walk."""

    @pytest.fixture(params=[3, 8, 16])
    def modulus(self, request, monkeypatch):
        forge._pair_square_table.cache_clear()
        monkeypatch.setattr(forge, "SQUARE_MODULUS", request.param)
        yield request.param
        forge._pair_square_table.cache_clear()

    @pytest.mark.parametrize(
        "elements, max_degree, height",
        [
            pytest.param([0, 1], 1, lambda m: 2 * m, id="two-elements-zero-value"),
            pytest.param([-1, 1], 2, lambda m: m, id="equal-first-pair-values"),
            pytest.param([-3, 0, 2, 5], 2, lambda m: m, id="zero-value"),
            pytest.param([-2, 1, 4], 3, lambda m: m // 2 + 1, id="degree-3"),
        ],
    )
    def test_boxes_wider_than_the_modulus(self, modulus, elements, max_degree, height):
        assert 2 * height(modulus) + 1 > modulus
        _assert_matches_enumeration(elements, max_degree, height(modulus))

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.integers(-8, 8), min_size=2, max_size=5, unique=True), st.data())
    def test_matches_enumeration(self, modulus, elements, data):
        max_degree = data.draw(st.integers(1, 3 if modulus < 16 else 2), label="max_degree")
        low = modulus // 2 + 1
        max_height = data.draw(st.integers(low, low + (4, 2, 0)[max_degree - 1]), label="max_height")
        _assert_matches_enumeration(elements, max_degree, max_height)


class TestSearchAgainstEnumeration:
    """The constant-term scan and its residue pre-test against the literal
    walk of the box, order included."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-12, 12), min_size=2, max_size=5, unique=True),
        st.integers(0, 3),
        st.data(),
    )
    def test_matches_enumeration(self, elements, max_degree, data):
        max_height = data.draw(st.integers(1, (7, 5, 4, 2)[max_degree]), label="max_height")
        _assert_matches_enumeration(elements, max_degree, max_height)

    def test_two_elements_first_pair_only(self):
        # -1 + 3x makes 2 * 8 = 16 and 1 + 3x makes 4 * 10 = 40
        found = _assert_matches_enumeration([1, 3], 2, 4)
        assert (-1, 3) in found and (1, 3) not in found

    def test_zero_value_counts_as_square(self):
        # f(x) = x on {0, 1, 4}: the values 0, 1, 4 make products 0, 0, 4
        found = _assert_matches_enumeration([0, 1, 4], 1, 3)
        assert (0, 1) in found

    def test_equal_first_pair_values_pass_every_constant(self):
        # c_0 + x^2 takes one value at -1 and 1, so every c_0 passes the pair
        found = _assert_matches_enumeration([-1, 1], 2, 3)
        assert [c for c in found if c[1:] == (0, 1)] == [(c0, 0, 1) for c0 in range(-3, 4)]

    def test_negative_elements(self):
        found = _assert_matches_enumeration([-9, -4, -1], 2, 5)
        assert all(verify_witness([-9, -4, -1], c).ok for c in found)

    @pytest.mark.parametrize(
        "elements, max_degree, max_height",
        [
            ([0, 1], 1, 130),  # 261 constant terms, wider than the modulus
            ([0, 2, 8], 1, 300),  # 601 constant terms over 3 tiles
            ([5, 1000003], 1, 40),  # shifts far past the modulus
            ([0, 240], 1, 150),  # d = 240 * c_1 is 0 mod the modulus, and f(0) = 0 at c_0 = 0
            ([-4, 0, 4, 236], 2, 5),  # f(0) = 0 at c_0 = 0; d = 4 * c_1 - 16 * c_2 is 0 at c_1 = 4 * c_2
        ],
    )
    def test_wide_windows_wide_sets_and_zero_values(self, elements, max_degree, max_height):
        found = _assert_matches_enumeration(elements, max_degree, max_height)
        assert all(verify_witness(elements, c).ok for c in found)


class TestEvalHornerInt:
    @given(st.lists(st.integers(-99, 99), min_size=1, max_size=6), st.integers(-50, 50))
    def test_matches_oracle(self, coeffs, x):
        value = eval_poly(coeffs, x)
        assert type(value) is int and value == eval_ascending(coeffs, x)
