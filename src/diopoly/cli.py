"""Command-line interface: construct, verify, search.

All big integers in emitted JSON are decimal strings, and the twist
block's rational ordinates are strings "p/q" of two, so nothing is ever
squeezed through a binary float; small structural numbers (pair indices,
degree bounds) stay JSON integers.  Output is byte-deterministic for a
fixed seed: fixed key order, compact separators, one document per line.

Integer input is strict (optional sign, ASCII digits, no empty fields,
at most INPUT_DIGITS_CAP digits); CPython's int<->str digit limit is
lifted while integers are parsed and printed, so any output reads back.
The limit is one setting for the whole process, so a lift holds a lock.
An error about a --from-json document names its input line.

Every root and product of a pair is a product of two per-element
factors, so it is printed as the exact Decimal product of the two: each
factor is converted once, and str of a Decimal is linear in its digits,
where str of an int is quadratic.  These fields are most of the output,
n(n-1)/2 of them with thousands of digits each on a wide set.  So a
document is written to stdout as it is rendered, never held whole: the
fields before the pair array, then the pairs of one element at a time,
then the closing fields.  Whatever can raise runs before the first
write, so a document that fails writes nothing.  The exact Decimal
context is switched per row: one copy per document is made current
around each element's products and the caller's context is restored
before the row is written, so no caller code runs in it.

Exit codes: 0 success, 1 usage error (including a refused search box),
2 construction failure, 3 verification failure.  They are decided in one
place, main: a command returns 0 or 3 and raises every failure, and a
usage error is a plain ValueError, from argparse (through _Parser.error)
or from a command.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded, getcontext, setcontext
from functools import cache
from operator import add
from typing import Sequence

from .exactmath import _int_str_limit_lifted
from .forge import (
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_SEARCH_CEILING,
    METHODS,
    ConstructionError,
    SearchSpaceError,
    Witness,
    brute_force_search,
    construct_witness,
    verify_witness,
)
from .twist import twist_points

__all__ = [
    "INPUT_DIGITS_CAP",
    "WITNESS_DOCUMENT_SCHEMA",
    "witness_document",
    "document_to_inputs",
    "main",
    "entrypoint",
]

SCHEMA_VERSION = "1"
CEILING_ENV_VAR = "DIOPOLY_SEARCH_CEILING"
# longest integer input in digits: parsing is quadratic in the digit count,
# and construct prints far shorter integers for sets of a few hundred elements
INPUT_DIGITS_CAP = 100_000
# an integer below 2^_CAP_BITS has at most INPUT_DIGITS_CAP digits
_CAP_BITS = math.floor(INPUT_DIGITS_CAP * math.log2(10))

_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
# pair fields are printed as Decimal products, exact in this context: a
# context that would round one raises instead of printing a wrong digit
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])
_DECIMAL = {"type": "string", "pattern": "^-?[0-9]+$"}
_RATIONAL = {"type": "string", "pattern": "^-?[0-9]+(/[1-9][0-9]*)?$"}

WITNESS_DOCUMENT_SCHEMA = {
    "type": "object",
    "required": [
        "schema_version",
        "set",
        "poly",
        "method",
        "parameter",
        "padding",
        "pair_roots",
        "flags",
    ],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "set": {"type": "array", "items": _DECIMAL, "minItems": 3},
        "poly": {"type": "array", "items": _DECIMAL, "minItems": 1},
        "method": {"enum": list(METHODS)},
        "parameter": {"type": "array", "items": _DECIMAL, "minItems": 2},
        "padding": {"type": "array", "items": _DECIMAL},
        "pair_roots": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["i", "j", "root"],
                "additionalProperties": False,
                "properties": {
                    "i": {"type": "integer", "minimum": 0},
                    "j": {"type": "integer", "minimum": 0},
                    "root": _DECIMAL,
                },
            },
        },
        "flags": {
            "type": "array",
            "items": {"enum": ["degree-dropped", "trivial-family", "zero-value"]},
        },
        "twist": {
            "type": ["object", "null"],
            "required": ["twist_scalar", "poly", "points", "genus_note"],
            "additionalProperties": False,
            "properties": {
                "twist_scalar": _DECIMAL,
                "poly": {"type": "array", "items": _DECIMAL, "minItems": 1},
                "points": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["x", "y"],
                        "additionalProperties": False,
                        "properties": {"x": _DECIMAL, "y": _RATIONAL},
                    },
                },
                "genus_note": {"type": ["string", "null"]},
            },
        },
    },
}


def _witness_line(witness: Witness, include_twist: bool = False):
    """One witness document's compact JSON line in fixed key order, in
    pieces: the fields before pair_roots, then the pairs i < j of each
    element i, then the flags and the twist block.  The root of the pair
    i < j is printed as the Decimal product of (L / g) * |Y_i| and |Y_j|,
    from the witness's root factors; a row's products are taken and
    printed in an exact context, switched in per row and never current
    across a yield.  Everything that can raise runs before the first
    piece."""
    scale, ys = witness.root_factors
    lead, cols = Decimal(scale), [Decimal(y) for y in ys]
    tail = {"flags": sorted(witness.flags)}
    if include_twist:
        tail["twist"] = twist_points(witness)
    yield _ENCODE({
        "schema_version": SCHEMA_VERSION,
        "set": [str(x) for x in witness.elements],
        "poly": [str(c) for c in witness.poly.coeffs],
        "method": witness.method,
        "parameter": [str(c) for c in witness.parameter.coords],
        "padding": [str(x) for x in witness.padding],
    })[:-1] + ',"pair_roots":['
    # a row is joined from these prefixes and its roots, so no bytecode
    # runs per pair
    prefixes = [f'"j":{j},"root":"' for j in range(len(cols))]
    # a current context collects flags, so each document takes its own
    # copy rather than sharing _EXACT with every other caller
    exact = _EXACT.copy()
    for i in range(len(cols) - 1):
        caller = getcontext()
        setcontext(exact)
        try:
            row = lead * cols[i]
            roots = map(str, map(row.__mul__, cols[i + 1 :]))
            pairs = f'"}},{{"i":{i},'.join(map(add, prefixes[i + 1 :], roots))
        finally:
            setcontext(caller)
        yield f'{"," if i else ""}{{"i":{i},{pairs}"}}'
    yield "]," + _ENCODE(tail)[1:]


def witness_document(witness: Witness, include_twist: bool = False) -> dict:
    """Serializable document for one witness, in fixed key order: the
    pieces of the line construct prints, joined and read back (its big
    integers are strings, so reading needs no lift)."""
    with _int_str_limit_lifted():
        line = "".join(_witness_line(witness, include_twist))
    return json.loads(line)


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _echo(value) -> str:
    """An input value for an error message: its repr, cut after 40 characters."""
    shown = repr(value)
    return shown if len(shown) <= 40 else f"{shown[:40]}..."


def _decimal(text: str, where: str) -> int:
    """One decimal integer of at most INPUT_DIGITS_CAP digits, surrounding
    whitespace allowed.  A ValueError names the field, echoing <= 40 chars."""
    field = text.strip()
    if not _INTEGER.fullmatch(field):
        raise ValueError(f"{where} is not a decimal integer: {_echo(field)}")
    if (digits := len(field.lstrip("+-"))) > INPUT_DIGITS_CAP:
        raise ValueError(f"{where} has {digits} digits, over the input cap of {INPUT_DIGITS_CAP}")
    return int(field, 10)


def _digit_count(n: int) -> int:
    """Decimal digits of |n| > 0, from its bit length and one power of ten."""
    n = abs(n)
    d = int((n.bit_length() - 1) * math.log10(2)) + 1
    return d + (n >= 10**d)


def _parse_int(text: str, where: str) -> int:
    with _int_str_limit_lifted():
        return _decimal(text, where)


def _parse_ints(fields, where: str) -> list[int]:
    """Decimal integers under one lift of the digit limit; the first bad
    field is named "<where> <position>"."""
    with _int_str_limit_lifted():
        return [_decimal(text, f"{where} {i}") for i, text in enumerate(fields, 1)]


def _parse_decimal_list(values, label: str) -> list[int]:
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ValueError(f"document field {label!r} must be a list of decimal strings")
    return _parse_ints(values, f"document field {label!r} entry")


def _load_document(text: str) -> dict:
    """One witness document's JSON, with its required fields and schema
    checked; the integer lists are left to document_to_inputs.  The digit
    limit stays in force: no field verify reads holds a JSON number."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        # a document is one line: an error at the end of the input is put
        # just past the line's last character
        column = min(exc.pos, len(text.rstrip())) + 1
        raise ValueError(f"malformed JSON document: {exc.msg} at column {column}") from exc
    except RecursionError:
        raise ValueError("malformed JSON document: nested too deeply") from None
    except ValueError:  # the digit limit, refusing a long JSON number
        raise ValueError("malformed JSON document: a JSON number has too many digits") from None
    if not isinstance(doc, dict):
        raise ValueError("witness document must be a JSON object")
    for key in ("schema_version", "set", "poly"):
        if key not in doc:
            raise ValueError(f"witness document misses required field {key!r}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema version {_echo(doc['schema_version'])}; expected the string \"{SCHEMA_VERSION}\""
        )
    return doc


def document_to_inputs(doc: dict) -> tuple[list[int], list[int]]:
    """Extract (set, polynomial coefficients) from a parsed document."""
    return _parse_decimal_list(doc["set"], "set"), _parse_decimal_list(doc["poly"], "poly")


def _verify_report_line(report):
    """The verify report's JSON line in pieces: the fields before pairs,
    then the pairs i < j of each element i, in the order of
    itertools.combinations.  A pair's product is printed as the Decimal
    product of the two values; it has a root exactly when both values share
    a square class or one vanishes, printed as the Decimal product of the
    row and column factors of report.root_factors, and null otherwise.  A
    zero times a negative value is the Decimal -0, printed as 0.  A row's
    products are taken in an exact context, switched in per row and never
    current across a yield."""
    elements = [str(x) for x in report.elements]
    values = [Decimal(v) for v in report.values]
    row_factors, cols = report.root_factors
    cols = [Decimal(c) for c in cols]
    classes = report.classes
    exact = _EXACT.copy()
    yield _ENCODE({
        "schema_version": SCHEMA_VERSION,
        "set": elements,
        "poly": [str(c) for c in report.coeffs],
        "ok": report.ok,
        "zero_products": report.zero_products,
    })[:-1] + ',"pairs":['
    for i, row in enumerate(map(Decimal, row_factors[:-1])):
        a, vi, ki = elements[i], values[i], classes[i]
        rows = []
        caller = getcontext()
        setcontext(exact)
        try:
            for j in range(i + 1, len(values)):
                kj = classes[j]
                shown = f'"{row * cols[j]!s}"' if kj == ki or ki < 0 or kj < 0 else "null"
                rows.append(
                    f'{{"i":{i},"j":{j},"a":"{a}","b":"{elements[j]}",'
                    f'"product":"{vi * values[j] or 0!s}","root":{shown}}}'
                )
        finally:
            setcontext(caller)
        yield ("," if i else "") + ",".join(rows)
    yield "]}"


def _search_report_line(report) -> str:
    return _ENCODE({
        "schema_version": SCHEMA_VERSION,
        "set": [str(x) for x in report.elements],
        "max_degree": report.max_degree,
        "max_height": report.max_height,
        "candidates": str(report.candidates),
        "exhausted": report.exhausted,
        "found": [[str(c) for c in poly.coeffs] for poly in report.found],
    })


class _Parser(argparse.ArgumentParser):
    # no abbreviations (subcommand parsers are _Parser too), because
    # _attach_negative_lists knows each option by its full name
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    # argparse exits with code 2 on bad usage; the contract here is 1,
    # which main gives every ValueError
    def error(self, message):
        raise ValueError(message)


def _int_list(text: str, label: str) -> list[int]:
    return _parse_ints(text.split(","), f"--{label} field")


def _int_option(text: str) -> int:
    try:
        return _parse_int(text, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# options whose comma-separated value may start with a minus sign
_LIST_OPTIONS = ("--set", "--poly", "--param")
_NEGATIVE = re.compile(r"-[0-9]")


def _attach_negative_lists(argv: Sequence[str]) -> list[str]:
    """argparse takes a value such as -3,1,2 for an unknown option, so
    `--set -3,1,2` becomes `--set=-3,1,2`, which it reads as a value."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _LIST_OPTIONS and _NEGATIVE.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _emit(pieces) -> None:
    """Write one output document as one line, each piece as it is
    rendered, so a document of n elements is never held whole: its pairs
    are n(n-1)/2 fields of thousands of digits on a wide set.  The
    program's own integers can outgrow the digit limit (a product of two
    3000-digit values has 6000), so they are formatted with the limit
    lifted."""
    write = sys.stdout.write
    with _int_str_limit_lifted():
        for piece in pieces:
            write(piece)
    write("\n")


@cache  # built on the first main call, not at import
def _build_parser() -> _Parser:
    parser = _Parser(prog="diopoly", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="construct a certified witness polynomial")
    c.add_argument("--set", required=True, help="comma-separated distinct integers")
    c.add_argument("--method", choices=METHODS, default="quadric", help="nodes: the set; plane pads to 3k + 2")
    c.add_argument("--param", help="explicit projective parameter, comma-separated")
    c.add_argument("--seed", type=_int_option, default=None, help="seed of the parameter draws")
    c.add_argument("--count", type=_int_option, default=1, help="number of witnesses, one document per line")
    c.add_argument(
        "--max-attempts", type=_int_option, default=DEFAULT_MAX_ATTEMPTS, help="draws per witness before exit 2"
    )
    c.add_argument(
        "--emit-twist", action="store_true", help="add points on f(x_0) * y^2 = f(x); null when f(x_0) = 0"
    )
    c.set_defaults(run=_cmd_construct)

    v = sub.add_parser("verify", help="verify a polynomial against a set")
    v.add_argument("--set", help="comma-separated distinct integers")
    v.add_argument("--poly", help="ascending coefficients, comma-separated")
    v.add_argument(
        "--from-json",
        metavar="FILE",
        help="read witness documents (JSON lines) from FILE, or - for stdin",
    )
    v.set_defaults(run=_cmd_verify)

    s = sub.add_parser("search", help="exhaustive search over a coefficient box")
    s.add_argument("--set", required=True, help="comma-separated distinct integers")
    s.add_argument("--max-degree", type=_int_option, required=True, help="largest polynomial degree in the box")
    s.add_argument("--max-height", type=_int_option, required=True, help="largest |coefficient| in the box")
    s.set_defaults(run=_cmd_search)
    return parser


def _cmd_construct(args) -> int:
    elements = _int_list(args.set, "set")
    parameter = _int_list(args.param, "param") if args.param is not None else None
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    if parameter is not None and args.count != 1:
        raise ValueError("--param pins one witness; drop it or use --count 1")
    rng = random.Random(args.seed)
    for _ in range(args.count):
        witness = construct_witness(
            elements,
            args.method,
            parameter=parameter,
            rng=rng,
            max_attempts=args.max_attempts,
        )
        # verify reads back every coefficient construct prints
        for i, c in enumerate(witness.poly.coeffs, 1):
            if c.bit_length() > _CAP_BITS and (digits := _digit_count(c)) > INPUT_DIGITS_CAP:
                raise ConstructionError(
                    f"poly entry {i} has {digits} digits, over the input cap "
                    f"INPUT_DIGITS_CAP = {INPUT_DIGITS_CAP} that verify reads"
                )
        _emit(_witness_line(witness, args.emit_twist))
    return 0


def _document_reports(lines):
    """The verify report of each non-blank line, parsed and checked only
    when it is reached, so the reports of earlier lines are out before a
    bad line stops the run.  An error names the line, counted from 1, and
    a JSON error its column on that line."""
    report = None
    for number, line in enumerate(lines, 1):
        if line.strip():
            try:
                report = verify_witness(*document_to_inputs(_load_document(line)))
            except ValueError as exc:
                raise ValueError(f"input line {number}: {exc}") from exc
            yield report
    if report is None:
        raise ValueError("no witness documents on input")


def _cmd_verify(args) -> int:
    if args.from_json is None:
        if args.set is None or args.poly is None:
            raise ValueError("verify needs --set and --poly, or --from-json")
        return _verify_reports([verify_witness(_int_list(args.set, "set"), _int_list(args.poly, "poly"))])
    if args.set is not None or args.poly is not None:
        raise ValueError("--from-json replaces --set/--poly")
    if args.from_json == "-":
        return _verify_reports(_document_reports(sys.stdin))
    # undecodable bytes become lone surrogates, so the error that names
    # them names their line
    with open(args.from_json, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return _verify_reports(_document_reports(fh))


def _verify_reports(reports) -> int:
    all_ok = True
    for report in reports:
        _emit(_verify_report_line(report))
        all_ok = all_ok and report.ok
    return 0 if all_ok else 3


def _cmd_search(args) -> int:
    elements = _int_list(args.set, "set")
    override = os.environ.get(CEILING_ENV_VAR)
    ceiling = DEFAULT_SEARCH_CEILING if override is None else _parse_int(override, CEILING_ENV_VAR)
    if ceiling < 1:
        raise ValueError(f"{CEILING_ENV_VAR} must be at least 1, got {ceiling}")
    report = brute_force_search(elements, args.max_degree, args.max_height, ceiling=ceiling)
    _emit((_search_report_line(report),))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and map its outcome to the exit code: the command's
    own 0 or 3, or the code of the first handler below that takes what it
    raised, each with its one stderr line."""
    try:
        args = _build_parser().parse_args(_attach_negative_lists(sys.argv[1:] if argv is None else argv))
        return args.run(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except SearchSpaceError as exc:
        print(f"diopoly: error: {exc} (ceiling override: {CEILING_ENV_VAR})", file=sys.stderr)
        return 1
    except ConstructionError as exc:
        detail = f" {exc.stats}" if exc.stats else ""
        print(f"diopoly: construction failed: {exc}{detail}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"diopoly: error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
