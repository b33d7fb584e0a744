"""Acceptance gate: twelve numbered criteria, one printed PASS/FAIL line
each (run with -s to see them).  Every check is exact; the only tolerances
are wall-clock budgets."""

import io
import json
import math
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from diopoly.cli import main
from diopoly.exactmath import eval_poly
from diopoly.forge import (
    FLAG_DEGREE_DROPPED,
    ConstructionError,
    brute_force_search,
    construct_witness,
    verify_witness,
)
from diopoly.rationalmaps import (
    DegenerateParameterError,
    plane_image,
    quadric_to_certificate_lcm,
)
from diopoly.twist import twist_points
from diopoly.variety import PointConfig, ProjPoint

from oracles import (
    CertificateCoords,
    QuadricCoords,
    alternating_minors,
    any_plane_image,
    certificate_to_quadric,
    diagonal_quadrics,
    eval_ascending,
    integer_kernel,
    node_vandermonde,
    on_certificate_variety,
    on_quadrics,
    parametrize_plane_inverse,
    parse_twist,
    plane_system_matrix,
    power_point,
    reverse_map_by_minors,
    reverse_map_point,
)

LINE_INSTANCES = [PointConfig(tuple(range(d + 2)), d) for d in (1, 2, 3, 4)]
PLANE_INSTANCES = [PointConfig(tuple(range(3 * k + 2)), 2 * k) for k in (1, 2, 3)]
# (config, direction bound): line configs are the power-span map's k = 0 case
SOURCES = [(cfg, 12) for cfg in LINE_INSTANCES] + [(cfg, 6) for cfg in PLANE_INSTANCES]


def report(number, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {number:02d} {name}{suffix}")
    assert ok, f"criterion {number:02d} {name} failed{suffix}"


def sample_direction(rnd, length, bound=12):
    while True:
        coords = tuple(rnd.randint(-bound, bound) for _ in range(length))
        if any(coords):
            return ProjPoint(coords)


def generic_points(config, count, rnd, bound=12):
    """Sample `count` images where every map in the round trip is defined;
    plane_image_by_kernel supplies the images of dense plane directions,
    which plane_image refuses."""
    out = []
    while len(out) < count:
        image = any_plane_image(config, sample_direction(rnd, config.degree + 1, bound))
        if image is None or image[1] or image[0].coords[0] == 0:
            continue
        out.append(QuadricCoords(config, image[0]))
    return out


def run_cli(*argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def test_criterion_01_golden_quadric_witness():
    t0 = time.monotonic()
    w = construct_witness([0, 1, 2], "quadric", parameter=(3, 1))
    elapsed = time.monotonic() - t0
    ok = (
        w.poly.coeffs == (1, 24)
        and w.roots_map() == {(0, 1): 5, (0, 2): 7, (1, 2): 35}
        and w.flags == frozenset()
        and elapsed < 0.1
    )
    report(1, "golden-quadric-witness", ok, f"{elapsed:.4f}s")


def test_criterion_02_golden_plane_witness():
    t0 = time.monotonic()
    cfg = PointConfig((0, 1, 2, 3, 4), 2)
    w = construct_witness([0, 1, 2, 3, 4], "plane", parameter=(1, 2, 0))
    a = plane_system_matrix(cfg, ProjPoint((1, 2, 0)))
    mus = alternating_minors(a)
    lead = mus[0]
    image, _ = plane_image(cfg, ProjPoint((1, 2, 0)))
    residuals = [q.squares_residual(image.coords) for q in diagonal_quadrics(cfg)]
    elapsed = time.monotonic() - t0
    ok = (
        w.poly.coeffs == (1, 2, 1)  # the primitive part of (2, 4, 2), on the scale L = 2
        and [m / lead for m in mus] == [1, 1, -2]  # proportional to (-1,-1,2)
        and integer_kernel(a) == mus
        and image.coords == (1, 2, -3, -4, -5)
        and len(residuals) == 2
        and all(r == 0 for r in residuals)
        and elapsed < 0.1
    )
    report(2, "golden-plane-witness", ok, f"{elapsed:.4f}s")


def test_criterion_03_soundness_sweep():
    t0 = time.monotonic()
    rnd = random.Random(20260822)
    failures = []
    for i in range(100):
        size = rnd.randint(3, 10)
        elems = rnd.sample(range(-20, 21), size)
        w = construct_witness(elems, "quadric", seed=i)
        if not verify_witness(elems, w.poly).ok:
            failures.append(tuple(elems))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 10
    report(3, "soundness-sweep-100-sets", ok, f"{elapsed:.2f}s")


def test_criterion_04_degree_claims():
    rnd = random.Random(404)
    failures = []
    for k in (1, 2, 3):
        size = 3 * k + 2
        elems = rnd.sample(range(-20, 21), size)
        plane_exact = quadric_exact = 0
        for seed in range(20):
            wp = construct_witness(elems, "plane", seed=seed)
            if wp.poly.degree > 2 * k or 2 * wp.poly.degree > 4 * (size // 3):
                failures.append(("plane", k, wp.poly.coeffs))
            if wp.poly.degree == 2 * k:
                plane_exact += 1
            wq = construct_witness(elems, "quadric", seed=seed)
            if wq.poly.degree > size - 2:
                failures.append(("quadric", k, wq.poly.coeffs))
            if wq.poly.degree == size - 2:
                quadric_exact += 1
        if plane_exact < 1:
            failures.append(("plane-exact", k))
        if quadric_exact < 1:
            failures.append(("quadric-exact", k))
    report(4, "degree-claims-k-1-2-3", not failures, f"{len(failures)} violations")


def test_criterion_05_birational_round_trips():
    t0 = time.monotonic()
    rnd = random.Random(505)
    failures = 0
    for cfg, bound in SOURCES:
        for w in generic_points(cfg, 100, rnd, bound):
            q = parametrize_plane_inverse(w)
            if any_plane_image(cfg, q)[0] != w.point:
                failures += 1
            v = reverse_map_point(w)
            if not on_certificate_variety(v):
                failures += 1
            again = certificate_to_quadric(v)
            if again.point != w.point:
                failures += 1
            if reverse_map_point(again).point != v.point:
                failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed < 30
    report(5, "birational-round-trips", ok, f"{elapsed:.2f}s, {failures} failures")


def test_criterion_06_reverse_map_determinant_identity():
    rnd = random.Random(606)
    checked = 0
    failures = 0
    while checked < 200:
        for cfg, bound in SOURCES:
            (w,) = generic_points(cfg, 1, rnd, bound)
            coeffs, certs = reverse_map_by_minors(w)
            d = cfg.degree
            sign = -1 if d % 2 else 1
            dd = node_vandermonde(cfg)
            ratio, rem = divmod(dd, cfg.base_lagrange[0])
            lcm_coeffs = quadric_to_certificate_lcm(cfg, w.point.coords)
            if rem or coeffs != tuple(ratio * c for c in lcm_coeffs):
                failures += 1
            if not on_certificate_variety(CertificateCoords(cfg, ProjPoint(coeffs + certs))):
                failures += 1
            y = w.point.coords
            for i, x in enumerate(cfg.nodes):
                if eval_poly(coeffs, x) != sign * dd * y[i] ** 2:
                    failures += 1
            checked += 1
    report(6, "determinant-identity-200-points", failures == 0, f"{checked} points")


def test_criterion_07_structural_invariants():
    configs = LINE_INSTANCES + PLANE_INSTANCES + [
        PointConfig((-3, -1, 0, 2, 4), 2),
        PointConfig((-2, 0, 1, 3, 7), 2),
        PointConfig((0, 1, 2, 4), 2),
    ]
    failures = []
    for cfg in configs:
        for q in diagonal_quadrics(cfg):
            for t in range(cfg.degree + 1):
                s = sum(
                    Fraction(c) * cfg.nodes[j] ** t for c, j in zip(q.coeffs, q.support)
                )
                if s != 0:
                    failures.append(("power-relation", cfg.nodes, q.support, t))
        quadrics = diagonal_quadrics(cfg)
        if not on_quadrics(quadrics, power_point(cfg, 0)):
            failures.append(("base-point", cfg.nodes))
        if cfg.degree % 2 == 0:
            for t in range(cfg.degree // 2 + 1):
                if not on_quadrics(quadrics, power_point(cfg, t)):
                    failures.append(("power-point", cfg.nodes, t))
    report(7, "structural-invariants", not failures, f"{len(failures)} violations")


def test_criterion_08_degenerate_loci():
    cfg5 = PointConfig((0, 1, 2, 3, 4), 2)
    a = plane_system_matrix(cfg5, ProjPoint((1, 0, 0)))
    matrix_ok = a == [[-4, 0, -2], [-12, 0, -6]] and integer_kernel(a) is None
    try:
        plane_image(cfg5, ProjPoint((1, 0, 0)))
        raised_param = False
    except DegenerateParameterError:
        raised_param = True
    try:
        construct_witness([0, 1, 2, 3, 4], "plane", parameter=(1, 0, 0))
        raised_construct = False
    except ConstructionError:
        raised_construct = True
    cfg3 = PointConfig((0, 1, 2), 1)
    point, in_plane = plane_image(cfg3, ProjPoint((2, 1)))
    witness = construct_witness([0, 1, 2], "quadric", parameter=(2, 1))
    base_ok = point == power_point(cfg3, 0) and in_plane and FLAG_DEGREE_DROPPED in witness.flags
    ok = matrix_ok and raised_param and raised_construct and base_ok
    report(8, "degenerate-loci", ok)


def test_criterion_09_search_oracle_agreement():
    t0 = time.monotonic()
    result = brute_force_search([0, 1, 2], max_degree=1, max_height=30)
    found = {p.coeffs for p in result.found}

    def primitive(coeffs):
        g = 0
        for c in coeffs:
            g = math.gcd(g, abs(c))
        return tuple(c // g for c in coeffs)

    # Independent enumeration of the same box (positive leading term).
    # Verification is invariant under nonzero scaling, so a candidate
    # passes exactly when its primitive form is among the search results.
    candidates = [(a,) for a in range(1, 31)]
    candidates += [(a, b) for a in range(-30, 31) for b in range(1, 31)]
    mismatches = [
        coeffs
        for coeffs in candidates
        if verify_witness([0, 1, 2], coeffs).ok != (primitive(coeffs) in found)
    ]
    elapsed = time.monotonic() - t0
    ok = (
        result.exhausted
        and (1, 24) in found
        and not mismatches
        and elapsed < 5
    )
    report(9, "search-oracle-agreement", ok, f"{elapsed:.2f}s, {len(mismatches)} mismatches")


def test_criterion_10_twist_points():
    rnd = random.Random(1010)
    failures = []
    for i in range(50):
        size = rnd.randint(3, 7)
        elems = rnd.sample(range(-15, 16), size)
        w = construct_witness(elems, "quadric", seed=i)
        scalar, coeffs, points = parse_twist(twist_points(w))
        if len(points) != size:
            failures.append(("count", elems))
        if points[0] != (min(elems), 1):
            failures.append(("base", elems))
        if any(scalar * y**2 != eval_ascending(coeffs, x) for x, y in points):
            failures.append(("equation", elems))
    report(10, "twist-points-50-witnesses", not failures, f"{len(failures)} violations")


def test_criterion_11_distinct_polynomials():
    rnd = random.Random(1111)
    elements = [0, 1, 2, 3, 4]
    seen_params = set()
    polys = set()
    while len(seen_params) < 100:
        q = sample_direction(rnd, 4, bound=25)
        if q in seen_params:
            continue
        try:
            w = construct_witness(elements, "quadric", parameter=q)
        except ConstructionError:
            continue
        seen_params.add(q)
        polys.add(w.poly.coeffs)
    ok = len(polys) >= 10
    report(11, "distinctness-100-parameters", ok, f"{len(polys)} distinct")


def test_criterion_12_cli_determinism(cli_env):
    first = run_cli("construct", "--set", "0,1,2", "--seed", "9", "--count", "5")
    second = run_cli("construct", "--set", "0,1,2", "--seed", "9", "--count", "5")
    in_process_ok = first == second and first[0] == 0
    proc_a = subprocess.run(
        [sys.executable, "-m", "diopoly", "construct", "--set", "0,1,2", "--seed", "9", "--count", "5"],
        capture_output=True,
        env=cli_env,
    )
    proc_b = subprocess.run(
        [sys.executable, "-m", "diopoly", "construct", "--set", "0,1,2", "--seed", "9", "--count", "5"],
        capture_output=True,
        env=cli_env,
    )
    subprocess_ok = proc_a.stdout == proc_b.stdout == first[1].encode()
    code, out, _ = run_cli("verify", "--from-json", "-", stdin=first[1])
    pipe_ok = code == 0 and all(json.loads(line)["ok"] for line in out.splitlines())
    ok = in_process_ok and subprocess_ok and pipe_ok
    report(12, "cli-determinism-and-pipe", ok)
