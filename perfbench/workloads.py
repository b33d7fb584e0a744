"""The four workloads: inputs drawn from the workload seed, the CLI calls
that make up one cycle, and the check each call's output must pass.

Every workload is a closed loop with one client: the next call starts
when the previous one has returned.  A cycle is a fixed list of calls, so
a run that completes whole cycles sees the same mix whatever its length.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks

METHODS = ("quadric", "plane")

# CPython refuses int->str past this many digits (sys.int_info), and the
# verify report prints every pair product in decimal.
INT_STR_DIGITS = 4300


@dataclass
class Op:
    """One call of ``diopoly.cli.main``."""

    argv: list[str]
    items: int  # work units the call completes: witnesses, documents or candidates
    method: str | None
    # check(exit code, stdout) -> (coefficient digits, product digits); raises on a wrong output
    check: Callable[[int, str], tuple[int, int]]
    inputs: bytes  # what the program reads, for the input digest
    # calls with equal keys read equal inputs, so the output is checked in
    # full once per run and afterwards compared by digest
    key: object = None


def _set_arg(elements) -> str:
    # the = form keeps a leading negative element from reading as an option
    return "--set=" + ",".join(str(x) for x in elements)


def _argv_bytes(argv) -> bytes:
    return "\0".join(argv).encode()


class Workload:
    """Base of the workloads; BENCHMARK.json says why each one exists."""

    name = ""
    item = ""  # what one work unit is, for the report
    tail = 75  # call_tail_ms is this percentile of a typical cycle's call times

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self, mods: dict) -> None:
        """Everything that must happen before the first timed call."""

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def _rng(self, label) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{label}")


def _construct_op(elements, method, rng, emit_twist) -> Op:
    argv = ["construct", _set_arg(elements), "--method", method, "--seed", str(rng.randrange(2**31))]
    if emit_twist:
        argv.append("--emit-twist")
    check = partial(checks.check_construct, elements=elements, method=method, emit_twist=emit_twist)
    return Op(argv, 1, method, check, _argv_bytes(argv))


def spread_set(rng, size: int, span: int) -> list[int]:
    """`size` distinct integers spread evenly over [-span, span): a grid
    of `size` points, each moved up by less than a quarter of the grid
    step.  Every draw is a new set, yet the gaps, and with them the size
    of the integers the construction handles, hardly vary between
    draws."""
    step = 2 * span // size
    return [-span + i * step + rng.randrange(step // 4) for i in range(size)]


class ConstructFresh(Workload):
    name = "construct-fresh"
    item = "witnesses"
    SIZES = tuple(range(16, 29, 2))
    SPAN = 500

    def cycle(self, index):
        rng = self._rng(index)
        return [
            _construct_op(spread_set(rng, size, self.SPAN), method, rng, False)
            for size in self.SIZES
            for method in METHODS
        ]


class ConstructRepeat(Workload):
    name = "construct-repeat"
    item = "witnesses"
    ELEMENTS = tuple(range(30))
    # Quadric calls take about half as long again as plane calls here.  With
    # two plane calls per quadric call, a typical cycle's median call is a
    # plane call and its p75 call the quadric one, so call_p50_ms gates the
    # plane method and call_tail_ms the quadric method, each at full size.
    CYCLE = ("plane", "quadric", "plane")

    def setup(self, mods):
        # users of a long-lived process see the warm state; fill it first
        for method in METHODS:
            mods["forge"].construct_witness(self.ELEMENTS, method, seed=0)

    def cycle(self, index):
        rng = self._rng(index)
        return [_construct_op(self.ELEMENTS, method, rng, True) for method in self.CYCLE]


def shift_poly(coeffs, t):
    """Ascending coefficients of f(x - t), by Horner over (x - t)."""
    out = [0] * len(coeffs)
    for c in reversed(coeffs):
        nxt = [0] + out[:-1]
        for i, v in enumerate(out):
            nxt[i] -= t * v
        nxt[0] += c
        out = nxt
    return out


class VerifyMixed(Workload):
    name = "verify-mixed"
    item = "docs"
    tail = 95
    # (method, |S|) of the witnesses built in setup, on the even numbers
    # 0, 2, .., 2|S|-2.  Each yields BATCHES documents by translation, so
    # setup stays cheap, and every batch holds one document of each base,
    # so all batches cost about the same.
    BASES = (("quadric", 21), ("plane", 24), ("quadric", 27), ("plane", 30))
    BATCHES = 12
    SHIFT = 200
    # (batch, base) of the documents that get one coefficient moved by 1:
    # three per base, and batches hold 0, 1, 2, 0, 1, 2, .. of them.  A
    # rejected document prints no roots, so it costs less; a fixed pattern
    # keeps that saving the same for every seed.
    PERTURBED = (
        (1, 0), (4, 1), (7, 2), (10, 3),
        (2, 1), (2, 2), (5, 2), (5, 3), (8, 3), (8, 0), (11, 0), (11, 1),
    )

    def setup(self, mods):
        rng = self._rng("setup")
        families = []
        for method, size in self.BASES:
            elements = list(range(0, 2 * size, 2))
            witness = mods["forge"].construct_witness(elements, method, seed=rng.randrange(2**31))
            base = mods["cli"].witness_document(witness)
            coeffs = [int(c) for c in base["poly"]]
            family = []
            for _ in range(self.BATCHES):
                # g(x) = f(x - t) takes the same values on S + t as f on S,
                # so the pair roots carry over unchanged
                t = rng.randint(-self.SHIFT, self.SHIFT)
                doc = dict(base)
                doc["set"] = [str(x + t) for x in elements]
                doc["padding"] = [str(int(x) + t) for x in base["padding"]]
                doc["poly"] = shift_poly(coeffs, t)
                family.append(doc)
            families.append(family)
        for k, f in self.PERTURBED:
            poly = families[f][k]["poly"]
            poly[rng.randrange(len(poly))] += rng.choice((-1, 1))

        self.batches = []
        self.workdir.mkdir(parents=True, exist_ok=True)
        for k in range(self.BATCHES):
            # rotate which base comes first, so first-result latency sees each
            batch = [families[(k + b) % len(families)][k] for b in range(len(families))]
            verdicts = [checks.known_verdict([int(x) for x in d["set"]], d["poly"]) for d in batch]
            product_digits = max(
                checks.decimal_digits(p) for v in verdicts for _, _, p, _ in v["pairs"]
            )
            if product_digits >= INT_STR_DIGITS:
                raise RuntimeError(f"verify input has a {product_digits}-digit product")
            text = "".join(json.dumps(dict(d, poly=[str(c) for c in d["poly"]])) + "\n" for d in batch)
            path = self.workdir / f"batch-{k}.jsonl"
            path.write_text(text, encoding="utf-8")
            self.batches.append((path, verdicts, text.encode()))

    def cycle(self, index):
        return [
            Op(
                ["verify", "--from-json", str(path)],
                len(verdicts),
                None,
                partial(checks.check_verify, verdicts=verdicts),
                data,
                key=k,
            )
            for k, (path, verdicts, data) in enumerate(self.batches)
        ]


class SearchBox(Workload):
    name = "search-box"
    item = "candidates"
    tail = 90
    # (element count, degree, height): the seed draws only the elements, so
    # every seed searches boxes of the same sizes.  The largest shape comes
    # twice, so the p90 call falls inside its group, not on a gap.
    BOXES = (
        (3, 2, 12), (4, 3, 4), (5, 2, 16), (3, 3, 5), (4, 2, 20), (5, 3, 6),
        (4, 2, 20), (4, 3, 7), (5, 2, 10), (3, 3, 6), (4, 2, 14), (5, 3, 5),
    )

    def setup(self, mods):
        # -12 and 12 are always in, so the largest values in a box, and
        # product_digits_max, depend on the box shape alone
        rng = self._rng("setup")
        self.boxes = [
            ([-12, 12, *rng.sample(range(-11, 12), count - 2)], degree, height)
            for count, degree, height in self.BOXES
        ]

    def cycle(self, index):
        ops = []
        for k, (elements, degree, height) in enumerate(self.boxes):
            argv = ["search", _set_arg(elements), "--max-degree", str(degree), "--max-height", str(height)]
            check = partial(self._check, elements, degree, height)
            ops.append(Op(argv, checks.search_size(degree, height), None, check, _argv_bytes(argv), key=k))
        return ops

    @staticmethod
    def _check(elements, degree, height, rc, out):
        # search prints no products, so product_digits is the largest
        # product the box makes the search test, a constant of the box
        found, product_digits = checks.search_oracle(elements, degree, height)
        return checks.check_search(rc, out, elements, degree, height, found), product_digits


WORKLOADS = {w.name: w for w in (ConstructFresh, ConstructRepeat, VerifyMixed, SearchBox)}
