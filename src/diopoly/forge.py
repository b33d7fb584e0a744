"""End-to-end pipeline: from a finite integer set to a certified polynomial
whose value products over all distinct pairs are perfect squares.

Every construction pushes a projective parameter through the one
power-span parametrization (k = n - d - 1) onto the quadric variety (a
point Y) and pulls integer coefficients back through the reverse
birational map, on the scale L (the lcm of the base Lagrange weights).
The witness polynomial f is their primitive part, the smallest witness
of its class; the content g divided out divides L.  The identity
g * f(x) = +-L * Y_x^2 is the whole proof.  The reverse map makes it
exactmath.lagrange_numerator's defining property at the base nodes, so
construction checks it at the k + 1 tail nodes, with one evaluation of
f per tail node.  A witness stores its node configuration, Y and f, and
derives from them every pair root as (L / g) * |Y_a * Y_b| and its
padding, and twist reads its curve points off the same data.
verify_witness re-checks the roots from f alone by square classes: one
integer square root per value against the first class, so a passing set
of n elements takes n - 1 of them.  A value that fails there gets a
residue key, its Legendre symbols modulo KEY_PRIMES, and one bit
operation per later class rules out almost every class it does not share
before any other square root is taken.
A method only chooses the node configuration:

* quadric: nodes are the set itself, degree |S| - 2 (k = 0, a line);
* plane: the set is padded to size 3k+2 with the smallest fresh
  non-negative integers (k minimal), degree 2k, and the pair roots are
  restricted to the original elements.

A config and its node table (the base Lagrange weights) depend only on
the sorted set and the method, so the configs of the last few sets and
methods stay in a bounded cache, and repeated constructions on one set
share one table.

A small exhaustive search over primitive integer polynomials doubles as
an independent oracle for the construction routines.  It fixes the upper
coefficients and scans only the constant term, testing the first pair of
the set before any other, and lists what it finds in the box order
(degree, leading coefficient, then the lower coefficients).  With u the
first value, the products u * (u + d) and u * (u + d_2) of the pairs
(0, 1) and (0, 2) are squares only if they are squares modulo
SQUARE_MODULUS, so the AND of two bit rows of a residue table, shifted
to the span, passes on the constant terms worth testing (5% of them on
average over d and d_2), and only those get the exact tests.  Along c_1
u, d and d_2 move by constants, so no upper polynomial is evaluated per
c_1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import combinations, count, islice, product
from typing import Iterable, Iterator, Sequence

from .exactmath import eval_poly, integer_sqrt
from .rationalmaps import DegenerateParameterError, plane_image, quadric_to_certificate_lcm
from .variety import PointConfig, ProjPoint

__all__ = [
    "FLAG_DEGREE_DROPPED",
    "FLAG_TRIVIAL_FAMILY",
    "FLAG_ZERO_VALUE",
    "ConstructionError",
    "SearchSpaceError",
    "Polynomial",
    "Witness",
    "VerifyReport",
    "SearchReport",
    "construct_witness",
    "verify_witness",
    "brute_force_search",
    "classify_trivial",
    "poly_square_root",
]

FLAG_DEGREE_DROPPED = "degree-dropped"
FLAG_TRIVIAL_FAMILY = "trivial-family"
FLAG_ZERO_VALUE = "zero-value"

# k = 0 (quadric) draws every coordinate from [-DENSE_BOUND, DENSE_BOUND]:
# its sign vectors would have k + 2 = 2 nonzero coordinates, which give
# near-trivial witnesses (on 0..9, seed 3, f = -22500 at 8 of the 10
# elements; on 0..59, seeds 0..9, f takes 3 distinct |f| values against
# 40-49 from this box), and {0, 1, 2} would have a single witness
DENSE_BOUND = 50
DEFAULT_MAX_ATTEMPTS = 20
DEFAULT_SEARCH_CEILING = 10**8
# the search's residue pre-test: modulo 240 = 16 * 3 * 5, u * (u + d) and
# u * (u + d_2) are both square residues at 5% of the u on average over d
# and d_2 (18% for one pair); 144, 480 and 720 searched no faster
SQUARE_MODULUS = 240
# verify's residue keys: the 16 primes from 8191 up.  On 0..n-1 the scale
# L / g is divisible by every prime below n, so a value moved by 1 is 1
# modulo each of them, and residues modulo small primes cannot tell it
# from a square; these primes divide no node difference of fewer than
# 8191 consecutive nodes.  A non-square product c * v passes all 16
# symbols at about 2^-16 of the pairs; their byte tables take 130 KB
KEY_PRIMES = (8191, 8209, 8219, 8221, 8231, 8233, 8237, 8243,
              8263, 8269, 8273, 8287, 8291, 8293, 8297, 8311)
_KEY_MODULUS = math.prod(KEY_PRIMES)

METHODS = ("quadric", "plane")
# the keys of Witness.stats and ConstructionError.stats: attempts, then
# the rejections by reason, in the order the sampling loop tests them
STATS_KEYS = (
    "attempts",
    "degenerate-parameter",
    "in-plane",
    "degree-dropped",
    "zero-value",
    "base-node-zero",
    FLAG_TRIVIAL_FAMILY,
)


class ConstructionError(RuntimeError):
    """Construction could not produce an acceptable witness.

    Carries per-reason rejection counts in .stats when sampling was
    involved.
    """

    def __init__(self, message: str, stats: dict[str, int] | None = None):
        super().__init__(message)
        self.stats = dict(stats or {})


class SearchSpaceError(ValueError):
    """The exhaustive search box exceeds the configured ceiling; estimate
    is a partial count that already exceeds it."""

    def __init__(self, message: str, estimate: int):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class Polynomial:
    """Integer polynomial with ascending coefficients.

    Trailing zero coefficients are trimmed on construction so degree is
    exact; the zero polynomial is rejected.  Content is preserved here;
    construction stores primitive_part of the reverse map's coefficients,
    since scaling f never changes whether f(a) * f(b) is a square.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        raw = tuple(self.coeffs)
        if any(not isinstance(c, int) or isinstance(c, bool) for c in raw):
            raise TypeError("coefficients must be plain ints")
        while raw and raw[-1] == 0:
            raw = raw[:-1]
        if not raw:
            raise ValueError("the zero polynomial is not allowed")
        object.__setattr__(self, "coeffs", raw)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    @property
    def content(self) -> int:
        return math.gcd(*self.coeffs)

    def __call__(self, x: int) -> int:
        return eval_poly(self.coeffs, x)

    def primitive_part(self) -> "Polynomial":
        """Content divided out, leading coefficient positive."""
        g = self.content
        if g == 1 and self.leading > 0:
            return self
        sign = 1 if self.leading > 0 else -1
        return Polynomial(tuple(sign * c // g for c in self.coeffs))


def poly_square_root(coeffs: Sequence[int]) -> tuple[int, ...] | None:
    """Integer polynomial g with g^2 equal to the input, or None.

    Takes ascending coefficients; trailing zeros are ignored, and the
    zero polynomial has no root here.
    """
    coeffs = tuple(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if len(coeffs) % 2 == 0 or coeffs[-1] < 0:
        return None
    m = len(coeffs) // 2
    r = math.isqrt(coeffs[-1])
    if r * r != coeffs[-1]:
        return None
    g = [0] * (m + 1)
    g[m] = r
    # coefficient i + m of g^2 is 2 * r * g_i plus products of g_{i+1..m-1},
    # so matching coefficients 2m-1 down to m fixes g_{m-1} down to g_0
    for i in range(m - 1, -1, -1):
        s = sum(g[a] * g[i + m - a] for a in range(i + 1, m))
        g[i], rem = divmod(coeffs[i + m] - s, 2 * r)
        if rem:
            return None
    # g is now fixed, and only coefficients 0..m-1 of g^2 are left to match
    if any(sum(g[a] * g[t - a] for a in range(t + 1)) != coeffs[t] for t in range(m)):
        return None
    return tuple(g)


@dataclass(frozen=True)
class Witness:
    """A certified construction result.

    It stores the node configuration and image, the canonical quadric
    point (Y_0..Y_n) that the parameter maps to, and poly, the primitive
    polynomial f with positive leading coefficient.  What certifies the
    witness follows from these through the identity
    g * f(x) = +-L * Y_x^2 (L the lcm of the base Lagrange weights, g the
    content of the reverse map's coefficients), which holds at every node:
    construction checks it at the tail nodes, and at the base nodes it is
    lagrange_numerator's.  g divides L: no prime divides every Y_x, so
    none can divide g more often than L.  So L / g = |f(x)| / Y_x^2 at any
    node with Y_x != 0, and the witness needs no field for it:

    * root_factors, L / g and |Y_a| for each sorted element a, so the
      pair i < j of the sorted elements has the root
      (L / g) * |Y_a * Y_b|, whose square is f(elements[i]) * f(elements[j]);
    * roots_map(), that root keyed by (i, j), in the order of
      itertools.combinations;
    * padding, the nodes of the config that are not elements.

    A pair root is a product of two per-element factors, so the CLI prints
    it as the Decimal product of (L / g) * |Y_a| and |Y_b|, each factor
    converted once: str of a Decimal is linear in its digits, where str
    of an int is quadratic, and the roots of a wide set have thousands.

    The same identity puts the node points (x_i, Y_i / Y_0) on the twisted
    curve f(x_0) * y^2 = f(x), which twist.twist_points reads off poly and
    the image with one evaluation of f.

    stats counts the sampling attempts and the rejections by reason,
    with the keys of ConstructionError.stats (one attempt and no
    rejection for an explicit parameter); it takes no part in equality.
    """

    elements: tuple[int, ...]
    poly: Polynomial
    method: str
    parameter: ProjPoint
    config: PointConfig
    image: ProjPoint
    flags: frozenset[str]
    stats: dict[str, int] = field(default_factory=dict, compare=False)

    @property
    def root_factors(self) -> tuple[int, tuple[int, ...]]:
        """(L / g, |Y_a| for each sorted element a): the pair i < j has the
        root (L / g) * ys[i] * ys[j].  L / g is read off the first node
        where Y does not vanish."""
        y = dict(zip(self.config.nodes, self.image.coords))
        node, yx = next((x, v) for x, v in y.items() if v)
        return abs(self.poly(node)) // (yx * yx), tuple(abs(y[x]) for x in self.elements)

    @property
    def padding(self) -> tuple[int, ...]:
        elems = set(self.elements)
        return tuple(x for x in self.config.nodes if x not in elems)

    def roots_map(self) -> dict[tuple[int, int], int]:
        scale, ys = self.root_factors
        return {(i, j): scale * ys[i] * ys[j] for i, j in combinations(range(len(ys)), 2)}


@dataclass(frozen=True)
class VerifyReport:
    """The values of f on the sorted set, sorted into square classes.

    Two nonzero values share a class when their product is a square.
    classes[i] indexes bases, the first value of element i's class, and
    is -1 where f vanishes; roots[i]^2 = bases[classes[i]] * values[i],
    and roots[i] = 0 where f vanishes.  The residue keys by which
    verify_witness passes over classes only save square roots: the report
    is the one that testing every class by a root would give.
    root_factors turns these into two factors per element.  The report
    keeps no pair: the pair i < j has the
    product values[i] * values[j], and a root exactly when both values
    share a class or one of them vanishes.

    Every product and root of a pair is a product of two per-element
    factors, so the CLI prints them as Decimal products of values and of
    root_factors, each factor converted once: str of a Decimal is linear
    in its digits, where str of an int is quadratic.
    """

    elements: tuple[int, ...]
    coeffs: tuple[int, ...]
    values: tuple[int, ...]
    classes: tuple[int, ...]
    roots: tuple[int, ...]
    bases: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return len(self.bases) <= 1

    @property
    def zero_products(self) -> int:
        n = len(self.values)
        nonzero = n - self.classes.count(-1)
        return (n * (n - 1) - nonzero * (nonzero - 1)) // 2

    @property
    def root_factors(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(rows, cols): a pair i < j in the class of c has the root
        rows[i] * cols[j], roots[i] * roots[j] / |c| taken with no division
        per pair.  Write c = s * m^2 with s squarefree; each value of the
        class is s * t^2 with root |s * m * t|, so the gcd G of the class's
        roots is a multiple of |s| * m, w = G^2 / |c| is an integer, and
        rows[i] = w * roots[i] / G, cols[j] = roots[j] / G.  Both are 0
        where f vanishes, so a zero product gets root 0."""
        gcds = [0] * len(self.bases)
        for k, r in zip(self.classes, self.roots):
            if k >= 0:
                gcds[k] = math.gcd(gcds[k], r)
        cols = tuple(r // gcds[k] if k >= 0 else 0 for k, r in zip(self.classes, self.roots))
        weights = [g * g // abs(c) for g, c in zip(gcds, self.bases)]
        rows = tuple(weights[k] * col if k >= 0 else 0 for k, col in zip(self.classes, cols))
        return rows, cols


@dataclass(frozen=True)
class SearchReport:
    elements: tuple[int, ...]
    max_degree: int
    max_height: int
    found: tuple[Polynomial, ...]
    candidates: int
    exhausted: bool


def _validate_elements(elements: Iterable[int], minimum: int) -> tuple[int, ...]:
    elems = list(elements)
    if any(not isinstance(x, int) or isinstance(x, bool) for x in elems):
        raise ValueError("set elements must be plain integers")
    if len(set(elems)) != len(elems):
        raise ValueError("set elements must be distinct")
    if len(elems) < minimum:
        raise ValueError(f"need at least {minimum} elements, got {len(elems)}")
    return tuple(sorted(elems))


# a few sets and methods in turn share their configs, node tables included;
# a stream of fresh sets evicts them instead of growing the cache
@lru_cache(maxsize=8)
def _method_setup(elems: tuple[int, ...], method: str) -> PointConfig:
    """The node configuration of a method on the sorted elements.  Plane
    takes the least k >= 1 with 3k + 2 >= |S|, pads the set to 3k + 2 nodes
    with the smallest fresh non-negative integers, and degree 2k."""
    if method == "quadric":
        return PointConfig(elems, len(elems) - 2)
    if method == "plane":
        k = max(1, -(-(len(elems) - 2) // 3))
        have = set(elems)
        padding = islice((x for x in count() if x not in have), 3 * k + 2 - len(elems))
        return PointConfig(tuple(sorted((*elems, *padding))), 2 * k)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def _build_witness(
    config: PointConfig,
    method: str,
    q: ProjPoint,
    image: ProjPoint,
    elems: tuple[int, ...],
    stats: dict[str, int],
) -> Witness:
    """The witness of an image: the primitive part f of the reverse map's
    coefficients, after checking g * f(x) = +-L * Y_x^2 at the k + 1 tail
    nodes x_{d+1}..x_n (g the content divided out), which evaluates f once
    per tail node.  The reverse map takes g * f = +-L * I, I the
    interpolant of the Y_i^2 over the base nodes x_0..x_d, so at the base
    nodes the identity is exactmath.lagrange_numerator's defining
    property, a library contract the tests prove, and it is not evaluated
    again here.  The identity makes g divide L, since no prime divides
    every Y_x of the primitive point Y, so it is checked as g | L and
    f(x) = +-(L / g) * Y_x^2, on integers g times smaller than L.

    That check is the one proof of the witness, and it implies both
    variety equations, so the package tests neither.  At a tail node m the
    identity says I(x_m) = Y_m^2: the bracket equation for m, so the
    image lies on the quadric variety.  The certificates
    z_i = +-(L / g) * Y_0 * Y_i then give z_i^2 = f(x_0) * f(x_i), the
    certificate equations, and every pair has the root
    (L / g) * |Y_a * Y_b|, whatever sign f is normalized to.  Dividing
    z_i^2 = f(x_0) * f(x_i) by f(x_0) puts (x_i, Y_i / Y_0) on the twisted
    curve f(x_0) * y^2 = f(x) when Y_0 != 0, so twist needs no check of
    its own.  By the same identity f vanishes exactly where Y does, so
    only those elements go to classify_trivial's zero-value test.
    """
    scaled = Polynomial(quadric_to_certificate_lcm(config, image.coords))
    poly = scaled.primitive_part()
    ll, tail = config.base_lagrange[0], config.degree + 1
    # scaled = g * poly, with g carrying the sign of the normalization
    scale, rem = divmod(-ll if config.degree % 2 else ll, scaled.leading // poly.leading)
    bad = [x for x, y in zip(config.nodes[tail:], image.coords[tail:]) if rem or poly(x) != scale * y * y]
    if bad:
        raise ConstructionError(f"reverse map breaks g * f(x) = +-L * Y_x^2 at node {bad[0]}")

    zeros = [x for x, y in zip(config.nodes, image.coords) if y == 0 and x in elems]
    flags = set(classify_trivial(poly, zeros))
    if poly.degree < config.degree:
        flags.add(FLAG_DEGREE_DROPPED)

    return Witness(
        elements=elems,
        poly=poly,
        method=method,
        parameter=q,
        config=config,
        image=image,
        flags=frozenset(flags),
        stats=stats,
    )


def construct_witness(
    elements: Iterable[int],
    method: str = "quadric",
    *,
    parameter: ProjPoint | Sequence[int] | None = None,
    seed: int | None = None,
    rng: random.Random | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> Witness:
    """Construct a certified witness polynomial for the given set.

    With an explicit parameter the single resulting witness is returned
    whatever its flags (a degenerate parameter raises
    ConstructionError).  Without one, parameters are sampled from a
    seeded generator, and degenerate or flagged outcomes (in-plane
    image, degree drop, zero value, f vanishing at the base node,
    trivial family) are resampled up to max_attempts before giving up.
    A direction already tried is drawn again without counting as an
    attempt.  The config's k = n - d - 1 sets the draw: at k = 0
    (quadric) coordinates are uniform over [-DENSE_BOUND, DENSE_BOUND];
    at k >= 1 (plane) a direction is a sign vector with exactly k + 2
    nonzero coordinates, the fewest that can give a witness, and the
    lowest in height.  An explicit parameter reaches any direction at
    k = 0, and at k >= 1 one with k + 1 or k + 2 nonzero coordinates; a
    plane parameter with more raises ValueError, as plane_image solves
    no such direction.  The returned witness's stats, like
    ConstructionError.stats, count the attempts and the rejections by
    reason.
    """
    elems = _validate_elements(elements, minimum=3)
    config = _method_setup(elems, method)
    plen = config.degree + 1
    stats = dict.fromkeys(STATS_KEYS, 0)

    if parameter is not None:
        try:
            q = parameter if isinstance(parameter, ProjPoint) else ProjPoint(tuple(parameter))
        except ValueError as exc:
            raise ValueError(f"parameter: {exc}") from exc
        if len(q) != plen:
            raise ValueError(f"parameter needs {plen} coordinates, got {len(q)}")
        try:
            image, _ = plane_image(config, q)
        except DegenerateParameterError as exc:
            raise ConstructionError(f"parameter {q.coords} is degenerate: {exc}") from exc
        stats["attempts"] = 1
        return _build_witness(config, method, q, image, elems, stats)

    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    rng = rng if rng is not None else random.Random(seed)
    k = config.n - config.degree - 1
    # At k >= 1 a direction is a sign vector, and its support J decides
    # the outcome: the reduced system of plane_image has |J| - k - 1 rows.
    # At most k nonzero coordinates give it a negative size, so the image
    # is underdetermined and the system drops rank; k + 1 give it size
    # zero, so S = 0 and f is a constant times M^2, a trivial family; and
    # plane_image refuses more than k + 2, each of which would add height
    # (about 15 digits each on 0..59).  So k >= 1 draws exactly k + 2
    # signs, whose single row has a closed form.  At k = 0 every direction
    # has a closed form of its own.
    # A draw whose direction was tried already is redrawn, not counted: a
    # plane set of 3-5 elements has only 4 sign directions, of which a few
    # give a witness, and repeats would exhaust max_attempts on such sets;
    # sampling stops once every vector was drawn.
    vectors = math.comb(plen, k + 2) * 2 ** (k + 2) if k else (2 * DENSE_BOUND + 1) ** plen - 1
    drawn: set[tuple[int, ...]] = set()
    tried: set[ProjPoint] = set()
    while stats["attempts"] < max_attempts and len(drawn) < vectors:
        coords = _draw_coords(rng, plen, k)
        if not any(coords):
            continue
        drawn.add(coords)
        q = ProjPoint(coords)
        if q in tried:
            continue
        tried.add(q)
        stats["attempts"] += 1
        try:
            image, in_plane = plane_image(config, q)
        except DegenerateParameterError:
            stats["degenerate-parameter"] += 1
            continue
        if in_plane:
            stats["in-plane"] += 1
            continue
        witness = _build_witness(config, method, q, image, elems, stats)
        if FLAG_DEGREE_DROPPED in witness.flags:
            stats["degree-dropped"] += 1
            continue
        if FLAG_ZERO_VALUE in witness.flags:
            stats["zero-value"] += 1
            continue
        # g * f(x_0) = +-L * Y_0^2 vanishes with Y_0
        if image[0] == 0:
            stats["base-node-zero"] += 1
            continue
        if FLAG_TRIVIAL_FAMILY in witness.flags:
            stats[FLAG_TRIVIAL_FAMILY] += 1
            continue
        return witness
    raise ConstructionError(
        f"no acceptable witness within {stats['attempts']} attempts", stats
    )


def _draw_coords(rng: random.Random, plen: int, k: int) -> tuple[int, ...]:
    """At k = 0, plen coordinates uniform over [-DENSE_BOUND, DENSE_BOUND];
    at k >= 1, random signs at k + 2 random positions and zeros elsewhere."""
    if not k:
        return tuple(rng.randint(-DENSE_BOUND, DENSE_BOUND) for _ in range(plen))
    coords = [0] * plen
    for i in rng.sample(range(plen), k + 2):
        coords[i] = rng.choice((-1, 1))
    return tuple(coords)


@cache
def _residue_tables() -> tuple[tuple[int, bytes], ...]:
    """(p, table) for each p in KEY_PRIMES: entry r of the table is 0 when p
    divides r, 1 when r is a nonzero square modulo p and 3 when it is none.
    Built on the first value that fails against its set's first class, not
    at import."""
    tables = []
    for p in KEY_PRIMES:
        table = bytearray(b"\3") * p
        table[0] = 0
        for u in range(1, p // 2 + 1):
            table[u * u % p] = 1
        tables.append((p, bytes(table)))
    return tuple(tables)


def _residue_key(v: int) -> int:
    """Byte i holds the table entry of v modulo KEY_PRIMES[i], read off one
    reduction of v modulo their product.  Bit 0 of a byte says that the
    prime does not divide v, bit 1 that v is no square modulo it, so keys
    a and b differ in a symbol where both are defined exactly when
    (a ^ b) & (a & b) << 1 is nonzero, and then a * b is no square."""
    w = v % _KEY_MODULUS
    return int.from_bytes(bytes([table[w % p] for p, table in _residue_tables()]), "little")


def verify_witness(elements: Iterable[int], coeffs: Polynomial | Sequence[int]) -> VerifyReport:
    """Check every distinct pair of the set against the polynomial.

    f is evaluated once per element, and its nonzero values are sorted
    into square classes: a value v joins the first class whose first
    value c makes c * v a square, with root isqrt(c * v), or opens a
    class of its own.  Every pair product is a square exactly when at
    most one class opens, so n values in one class take n - 1 integer
    square roots and no residue key.  A value that fails against the
    first class gets its residue key, and a later class whose first
    value's key differs from it in a Legendre symbol (_residue_key) is
    passed over with no root; the classes that remain still get the
    exact root, so the keys only save work and never decide a verdict.
    A set thus takes one root per nonzero value after the first, plus
    one per later class that a value's key does not rule out: its own,
    and the rare collisions.  A zero product counts as a perfect square
    (root 0) but is tallied separately in zero_products so callers can
    see it happened.
    """
    elems = _validate_elements(elements, minimum=2)
    poly = coeffs if isinstance(coeffs, Polynomial) else Polynomial(tuple(coeffs))
    values = tuple(poly(x) for x in elems)
    # keys[k] is the residue key of bases[k]; the first class's is 0, which
    # rules nothing out, and every later class opens with a value whose key
    # was read when it failed against the first
    classes, roots, bases, keys = [], [], [], []
    for v in values:
        if v == 0:
            classes.append(-1)
            roots.append(0)
            continue
        key = 0
        for k, ck in enumerate(keys):
            if not (key ^ ck) & (key & ck) << 1 and (r := integer_sqrt(bases[k] * v)) is not None:
                break
            if not k:
                key = _residue_key(v)
        else:
            k, r = len(bases), abs(v)
            bases.append(v)
            keys.append(key)
        classes.append(k)
        roots.append(r)
    return VerifyReport(
        elements=elems,
        coeffs=poly.coeffs,
        values=values,
        classes=tuple(classes),
        roots=tuple(roots),
        bases=tuple(bases),
    )


def _search_size(max_degree: int, max_height: int, ceiling: int) -> int:
    """Candidates in the box, summed by degree; the sum stops once it passes
    the ceiling, since the full count can have thousands of digits."""
    total = 0
    for e in range(max_degree + 1):
        total += max_height * (2 * max_height + 1) ** e
        if total > ceiling:
            break
    return total


@cache
def _pair_square_table() -> tuple[int, ...]:
    """Bit u of row d is set when u * (u + d) is a square modulo
    SQUARE_MODULUS.  Each row is stored twice over, so a shift by any
    offset below SQUARE_MODULUS reads that many consecutive residues.
    Built on the first search of degree 1 or more, not at import."""
    m = SQUARE_MODULUS
    squares = {u * u % m for u in range(m)}
    rows = (sum(1 << u for u in range(m) if u * (u + d) % m in squares) for d in range(m))
    return tuple(row | row << m for row in rows)


def _scan_box(elems: tuple[int, ...], max_degree: int, max_height: int) -> Iterator[tuple[int, ...]]:
    """brute_force_search's found vectors of degree 1 to max_degree, in box order."""
    x0, x1, x2 = (*elems, elems[1])[:3]
    step1, step2 = x1 - x0, x2 - x0
    later_pairs = list(combinations(range(len(elems)), 2))[1:]
    rows, m = _pair_square_table(), SQUARE_MODULUS
    span = range(-max_height, max_height + 1)
    # one selection of SQUARE_MODULUS bits, times a 1 bit at each multiple
    # of SQUARE_MODULUS, covers the whole span
    low, full = (1 << m) - 1, (1 << len(span)) - 1
    tiles = sum(1 << k * m for k in range(-(-len(span) // m)))
    for e in range(1, max_degree + 1):
        for lead in range(1, max_height + 1):
            # degree 1 has the single upper vector (lead,): c_1 with no tail
            c1s = span if e > 1 else (lead,)
            tails = (mid + (lead,) for mid in product(span, repeat=e - 2)) if e > 1 else [()]
            hits = []
            for tail in tails:
                # s_i = c_1 * x_i + x_i^2 * t(x_i) one c_1 before the first; each
                # c_1 adds x_i, and bit j of sel stands for c_0 = j - max_height
                s0, s1, s2 = (x * (c1s[0] - 1) + x * x * eval_poly(tail, x) for x in (x0, x1, x2))
                d, d2 = s1 - s0, s2 - s0
                for c1 in c1s:
                    s0, d, d2 = s0 + x0, d + step1, d2 + step2
                    base = s0 - max_height
                    sel = ((rows[d % m] & rows[d2 % m]) >> base % m & low) * tiles & full
                    while sel:
                        j = sel.bit_length() - 1
                        sel ^= 1 << j
                        u = base + j
                        p = u * (u + d)
                        if p < 0 or math.isqrt(p) ** 2 != p or math.gcd(j - max_height, c1, *tail) != 1:
                            continue
                        coeffs = (j - max_height, c1) + tail
                        values = [eval_poly(coeffs, x) for x in elems]
                        if all(integer_sqrt(values[a] * values[b]) is not None for a, b in later_pairs):
                            hits.append(coeffs)
            # c_0 is scanned innermost but ordered first: sort back to the box order
            yield from sorted(hits)


def brute_force_search(
    elements: Iterable[int],
    max_degree: int,
    max_height: int,
    *,
    ceiling: int = DEFAULT_SEARCH_CEILING,
) -> SearchReport:
    """Exhaustively enumerate primitive witness polynomials in a box.

    Candidates are primitive ascending coefficient vectors with positive
    leading coefficient, exact degree at most max_degree, and all
    coefficients bounded by max_height; found keeps the box order:
    degree, leading coefficient, then the lower coefficients
    lexicographically.  Scaling never changes whether products of values
    are squares, so primitive representatives lose nothing.  Per upper
    coefficients c_1..c_e = h only c_0 is scanned.  With u = c_0 + s_0,
    s_i = x_i * h(x_i), d = s_1 - s_0 and d_2 = s_2 - s_0 (x_2 = x_1 on 2
    elements), the pairs (0, 1) and (0, 2) make u * (u + d) and
    u * (u + d_2), squares only if they are squares modulo SQUARE_MODULUS:
    the AND of the bit rows of d and d_2 in a residue table, shifted by
    s_0 - max_height and repeated past SQUARE_MODULUS constant terms,
    selects the c_0 worth testing.  Each of those gets the exact tests:
    sign and one isqrt on the first pair, primitivity by gcd, then every
    other pair on the values at all elements.  As h = c_1 + x * t makes
    s_i = c_1 * x_i + x_i^2 * t(x_i), t is evaluated once per c_2..c_e,
    and s_0, d and d_2 step along c_1 by x_0, x_1 - x_0 and x_2 - x_0.
    Boxes larger than the ceiling are refused outright; the box arguments
    must be plain ints, and the ceiling at least 1.
    """
    elems = _validate_elements(elements, minimum=2)
    box = {"max_degree": max_degree, "max_height": max_height, "ceiling": ceiling}
    for name, value in box.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{name} must be a plain int, got {type(value).__name__}")
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    if max_height < 1:
        raise ValueError("max_height must be at least 1")
    if ceiling < 1:
        raise ValueError("ceiling must be at least 1")
    size = _search_size(max_degree, max_height, ceiling)
    if size > ceiling:
        raise SearchSpaceError(f"search box holds more than {ceiling} candidates", size)

    # degree 0: of the constants 1..max_height only 1 is primitive, and it
    # verifies; only a higher degree builds the table and the span's masks
    found = [(1,), *(_scan_box(elems, max_degree, max_height) if max_degree else ())]
    return SearchReport(
        elements=elems,
        max_degree=max_degree,
        max_height=max_height,
        found=tuple(Polynomial(c) for c in found),
        candidates=size,
        exhausted=True,
    )


def classify_trivial(poly: Polynomial, elements: Iterable[int]) -> frozenset[str]:
    """Flags for structurally trivial witnesses.

    trivial-family: f is constant or an integer multiple of a square
    of an integer polynomial (then every product of values is a square
    no matter the set).  zero-value: f vanishes at some set element.
    """
    flags = set()
    # a constant's primitive part is (1,), the square of (1,)
    if poly.degree % 2 == 0 and poly_square_root(poly.primitive_part().coeffs) is not None:
        flags.add(FLAG_TRIVIAL_FAMILY)
    if any(poly(x) == 0 for x in elements):
        flags.add(FLAG_ZERO_VALUE)
    return frozenset(flags)
