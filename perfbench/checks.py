"""Independent checks of the CLI's output.

Nothing here imports diopoly: polynomials are evaluated with the
benchmark's own Horner loop, squares are tested with ``math.isqrt``, and
the search oracle enumerates the box with its own square test.  A check
raises CheckFailed with a reason, or returns the largest coefficient and
pair product it saw, in decimal digits.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations, product


class CheckFailed(Exception):
    pass


def horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def decimal_digits(n: int) -> int:
    """Exact decimal digit count of |n|, without int->str (which CPython
    refuses past 4300 digits)."""
    n = abs(n)
    if n < 10:
        return 1
    d = (n.bit_length() - 1) * 30102999566 // 10**11 + 1
    while n >= 10**d:
        d += 1
    while d > 1 and n < 10 ** (d - 1):
        d -= 1
    return d


def plane_shape(size: int) -> tuple[int, int]:
    """(k, padded node count) of the plane construction for |S| = size."""
    k = max(1, -(-(size - 2) // 3))
    return k, 3 * k + 2


def expected_degree(method: str, size: int) -> int:
    return size - 2 if method == "quadric" else 2 * plane_shape(size)[0]


def expected_padding(method: str, elements) -> list[int]:
    if method == "quadric":
        return []
    have = set(elements)
    need = plane_shape(len(elements))[1] - len(elements)
    out, x = [], 0
    while len(out) < need:
        if x not in have:
            out.append(x)
        x += 1
    return out


def _lines(stdout: str, count: int) -> list[dict]:
    lines = stdout.splitlines()
    if len(lines) != count:
        raise CheckFailed(f"expected {count} output lines, got {len(lines)}")
    try:
        return [json.loads(line) for line in lines]
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc


def _ints(values, label):
    try:
        return [int(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise CheckFailed(f"field {label!r} is not a list of decimal strings") from exc


def _frac(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def check_twist(block, nodes) -> None:
    """Every emitted point lies on twist_scalar * y^2 = f(x), one per node,
    and the scalar is f at the base node."""
    if not isinstance(block, dict):
        raise CheckFailed("accepted witness has no twist block")
    coeffs = _ints(block["poly"], "twist.poly")
    scalar = _frac(block["twist_scalar"])
    if scalar == 0 or scalar != horner(coeffs, nodes[0]):
        raise CheckFailed("twist scalar is not f at the base node")
    points = [(_frac(p["x"]), _frac(p["y"])) for p in block["points"]]
    if [x for x, _ in points] != nodes:
        raise CheckFailed("twist points do not sit one per node")
    for x, y in zip(nodes, (y for _, y in points)):
        if scalar * y * y != horner(coeffs, x):
            raise CheckFailed(f"twist point at x={x} is off the curve")


def check_construct(
    rc, stdout: str, elements, method: str, emit_twist: bool
) -> tuple[int, int]:
    """One construct call: the whole certificate, re-derived."""
    if rc != 0:
        raise CheckFailed(f"construct exited {rc}")
    (doc,) = _lines(stdout, 1)
    elems = sorted(elements)
    n = len(elems)
    if _ints(doc.get("set"), "set") != elems:
        raise CheckFailed("document set differs from the input set")
    if doc.get("method") != method:
        raise CheckFailed(f"method {doc.get('method')!r}, asked for {method!r}")
    coeffs = _ints(doc.get("poly"), "poly")
    if len(coeffs) - 1 != expected_degree(method, n) or coeffs[-1] == 0:
        raise CheckFailed(f"degree {len(coeffs) - 1} does not match method {method}")
    if _ints(doc.get("padding"), "padding") != expected_padding(method, elems):
        raise CheckFailed("padding does not match the method")
    if doc.get("flags") != []:
        raise CheckFailed(f"accepted witness carries flags {doc.get('flags')}")

    values = [horner(coeffs, x) for x in elems]
    pairs = doc.get("pair_roots") or []
    seen = set()
    for entry in pairs:
        i, j, root = entry["i"], entry["j"], int(entry["root"])
        if not (0 <= i < j < n) or (i, j) in seen:
            raise CheckFailed(f"pair ({i}, {j}) out of range or repeated")
        seen.add((i, j))
        if root < 0 or root * root != values[i] * values[j]:
            raise CheckFailed(f"root for pair ({i}, {j}) does not square to f(a)f(b)")
    if len(seen) != n * (n - 1) // 2:
        raise CheckFailed(f"{len(seen)} pairs certified, expected {n * (n - 1) // 2}")

    if emit_twist:
        nodes = sorted(set(elems) | set(expected_padding(method, elems)))
        check_twist(doc.get("twist"), nodes)
    top = sorted(abs(v) for v in values)[-2:]
    return max(decimal_digits(c) for c in coeffs), decimal_digits(top[0] * top[1])


def known_verdict(elements, coeffs) -> dict:
    """What verify must answer, by Horner and math.isqrt alone."""
    elems = sorted(elements)
    values = [horner(coeffs, x) for x in elems]
    pairs = []
    for i, j in combinations(range(len(elems)), 2):
        p = values[i] * values[j]
        r = math.isqrt(p) if p >= 0 else None
        pairs.append((i, j, p, r if r is not None and r * r == p else None))
    return {
        "set": elems,
        "coeffs": list(coeffs),
        "ok": all(r is not None for *_, r in pairs),
        "zero_products": sum(1 for _, _, p, _ in pairs if p == 0),
        "pairs": pairs,
    }


def check_verify(rc, stdout: str, verdicts: list[dict]) -> tuple[int, int]:
    """One verify call over a batch: every pair, verdict and the exit code.
    The digits returned are those of the printed coefficients and products."""
    want_rc = 0 if all(v["ok"] for v in verdicts) else 3
    if rc != want_rc:
        raise CheckFailed(f"verify exited {rc}, expected {want_rc}")
    coeff_digits = product_digits = 0
    for k, (doc, want) in enumerate(zip(_lines(stdout, len(verdicts)), verdicts)):
        if _ints(doc.get("set"), "set") != want["set"]:
            raise CheckFailed(f"document {k}: set differs")
        coeffs = _ints(doc.get("poly"), "poly")
        if coeffs != want["coeffs"]:
            raise CheckFailed(f"document {k}: polynomial differs from the input")
        coeff_digits = max(coeff_digits, *(decimal_digits(c) for c in coeffs))
        if doc.get("ok") is not want["ok"] or doc.get("zero_products") != want["zero_products"]:
            raise CheckFailed(f"document {k}: verdict {doc.get('ok')}, expected {want['ok']}")
        got = doc.get("pairs") or []
        if len(got) != len(want["pairs"]):
            raise CheckFailed(f"document {k}: {len(got)} pairs, expected {len(want['pairs'])}")
        for g, (i, j, p, r) in zip(got, want["pairs"]):
            if (g["i"], g["j"]) != (i, j) or int(g["product"]) != p:
                raise CheckFailed(f"document {k}: pair ({i}, {j}) product differs")
            if (None if g["root"] is None else int(g["root"])) != r:
                raise CheckFailed(f"document {k}: pair ({i}, {j}) root differs")
            product_digits = max(product_digits, decimal_digits(int(g["product"])))
    return coeff_digits, product_digits


def search_size(max_degree: int, max_height: int) -> int:
    return sum(max_height * (2 * max_height + 1) ** e for e in range(max_degree + 1))


def _products_square(values) -> bool:
    nonzero = [v for v in values if v]
    for v in nonzero[1:]:
        p = nonzero[0] * v
        if p < 0 or math.isqrt(p) ** 2 != p:
            return False
    return True


def search_oracle(elements, max_degree: int, max_height: int):
    """(found list in enumeration order, digits of the largest |f(a) f(b)|).

    All pairwise products are squares exactly when every nonzero value
    times the first nonzero value is a square, so one isqrt per element
    replaces one per pair.
    """
    found = []
    top = 0
    rng = range(-max_height, max_height + 1)
    for degree in range(max_degree + 1):
        for lead in range(1, max_height + 1):
            for rest in product(rng, repeat=degree):
                coeffs = rest + (lead,)
                if math.gcd(*coeffs) != 1:
                    continue
                values = [horner(coeffs, x) for x in elements]
                mags = sorted(abs(v) for v in values)
                top = max(top, mags[-1] * mags[-2])
                if _products_square(values):
                    found.append(list(coeffs))
    return found, decimal_digits(top)


def check_search(rc, stdout: str, elements, max_degree: int, max_height: int, found) -> int:
    """One search call against the oracle's found list; returns the digits
    of the largest printed coefficient."""
    if rc != 0:
        raise CheckFailed(f"search exited {rc}")
    (doc,) = _lines(stdout, 1)
    if _ints(doc.get("set"), "set") != sorted(elements):
        raise CheckFailed("search report set differs")
    if (doc.get("max_degree"), doc.get("max_height")) != (max_degree, max_height):
        raise CheckFailed("search report box differs")
    if int(doc.get("candidates")) != search_size(max_degree, max_height):
        raise CheckFailed("candidate count differs from the box size")
    if doc.get("exhausted") is not True:
        raise CheckFailed("search did not exhaust the box")
    got = [_ints(f, "found") for f in doc.get("found", [])]
    if got != found:
        raise CheckFailed("found polynomials differ from the oracle")
    return max((decimal_digits(c) for f in got for c in f), default=0)
