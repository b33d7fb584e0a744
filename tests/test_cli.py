"""Command-line interface: document shapes, exit codes, determinism."""

import argparse
import hashlib
import io
import json
import math
import random
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from decimal import Context, Decimal, Inexact, Rounded, getcontext, setcontext

import pytest
from hypothesis import assume, given, settings, strategies as st

jsonschema = pytest.importorskip("jsonschema")

from diopoly import cli
from diopoly.cli import (
    INPUT_DIGITS_CAP,
    SCHEMA_VERSION,
    WITNESS_DOCUMENT_SCHEMA,
    _build_parser,
    _parse_ints,
    document_to_inputs,
    main,
    witness_document,
)
from diopoly.forge import METHODS, ConstructionError, construct_witness, verify_witness
from oracles import report_line_by_ints, witness_by_kernel, witness_line_by_ints

# a dense plane direction on 0..29: all 21 coordinates are nonzero, past
# the k + 2 = 12 that construct takes, so it exits 1; its pinned document
# is built from the kernel oracle's image
DENSE_0_TO_29 = "--param=33,-22,-47,42,18,35,-13,-47,-7,-10,-33,2,-50,24,38,-12,47,1,-5,-27,-47"
# 30 elements of [-10^6, 10^6), the set of the CI wide-set step: the
# quadric roots have about 3 k digits and its products about 6 k, past
# CPython's 4300-digit int<->str limit
WIDE_SET = "--set=" + ",".join(map(str, random.Random(3).sample(range(-(10**6), 10**6), 30)))


def construct_0_to_29(method, pinned, *flags):
    """construct's stdout on 0..29 with --seed 1.  For DENSE_0_TO_29, which
    construct refuses, the same line is rendered by the CLI's own renderer
    from the witness of oracles.witness_by_kernel."""
    if pinned != (DENSE_0_TO_29,):
        elements = ",".join(str(x) for x in range(30))
        argv = ("construct", "--set", elements, "--method", method, "--seed", "1", *flags)
        code, out, _ = run_cli(*argv, *pinned)
        assert code == 0
        return out
    coords = [int(c) for c in DENSE_0_TO_29.split("=")[1].split(",")]
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit(cli._witness_line(witness_by_kernel(range(30), method, coords), "--emit-twist" in flags))
    return out.getvalue()


def read_document(text):
    """A witness document's (set, poly), read as verify --from-json reads
    each line."""
    return document_to_inputs(cli._load_document(text))


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


class TestDocuments:
    def test_witness_document_schema(self):
        w = construct_witness([0, 1, 2], "quadric", parameter=(3, 1))
        doc = witness_document(w)
        jsonschema.validate(doc, WITNESS_DOCUMENT_SCHEMA)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["poly"] == ["1", "24"]
        assert "twist" not in doc

    def test_witness_document_with_twist(self):
        w = construct_witness([0, 1, 2], "quadric", parameter=(3, 1))
        doc = witness_document(w, include_twist=True)
        jsonschema.validate(doc, WITNESS_DOCUMENT_SCHEMA)
        assert doc["twist"]["twist_scalar"] == "1"
        assert doc["twist"]["points"][0] == {"x": "0", "y": "1"}

    def test_degenerate_twist_becomes_null(self):
        # parameter (3,4,5) drives the first coordinate of the image to
        # zero, so f vanishes at the base node and the twist is undefined
        w = construct_witness([0, 1, 2, 3], "quadric", parameter=(3, 4, 5))
        assert w.poly.coeffs == (0, 0, 1)  # the primitive part of (0, 0, 2)
        assert w.image[0] == 0 and w.poly(0) == 0
        doc = witness_document(w, include_twist=True)
        jsonschema.validate(doc, WITNESS_DOCUMENT_SCHEMA)
        assert doc["twist"] is None

    def test_twist_schema_types_scalar_and_abscissae_as_integers(self):
        # twist_scalar is h(x_0) and each x a node, both integers; only an
        # ordinate y = Y_i / Y_0 may be a fraction.  The documents are the
        # worked example, fractional ordinates, a null twist, a padded
        # plane set and 0..29 with each method.
        witnesses = [
            construct_witness([0, 1, 2], "quadric", parameter=(3, 1)),
            construct_witness([0, 1, 2], "quadric", parameter=(3, 2)),
            construct_witness([0, 1, 2, 3], "quadric", parameter=(3, 4, 5)),
            construct_witness([5, 9, 13], "plane", seed=1),
            *(construct_witness(range(30), method, seed=1) for method in METHODS),
        ]
        for w in witnesses:
            jsonschema.validate(witness_document(w, include_twist=True), WITNESS_DOCUMENT_SCHEMA)
        doc = witness_document(witnesses[1], include_twist=True)
        assert doc["twist"]["points"][1]["y"] == "5/7"
        bad_scalar, bad_x = json.loads(json.dumps(doc)), json.loads(json.dumps(doc))
        bad_scalar["twist"]["twist_scalar"] = "1/2"
        bad_x["twist"]["points"][1]["x"] = "1/2"
        for bad in (bad_scalar, bad_x):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(bad, WITNESS_DOCUMENT_SCHEMA)

    def test_big_integers_survive_round_trip(self):
        w = construct_witness([0, 1, 2, 3, 4, 5, 6], "quadric", seed=4)
        doc = witness_document(w)
        text = json.dumps(doc)
        elems, coeffs = read_document(text)
        assert tuple(coeffs) == w.poly.coeffs
        assert tuple(elems) == w.elements

    def test_document_past_the_digit_limit(self):
        # the pair root of 1 and 10^2500 has 5002 digits, over the limit
        limit = sys.get_int_max_str_digits()
        w = construct_witness([0, 1, 10**2500], "quadric", parameter=(3, 1))
        doc = witness_document(w)
        assert max(len(p["root"]) for p in doc["pair_roots"]) == 5002
        code, out, err = run_cli("construct", "--set", "0,1,1" + "0" * 2500, "--param", "3,1")
        assert (code, err) == (0, "")
        assert doc == json.loads(out)
        assert sys.get_int_max_str_digits() == limit

    def test_parse_rejects_deep_nesting(self):
        with pytest.raises(ValueError, match="malformed JSON document"):
            read_document("[" * 200_000 + "]" * 200_000)

    def test_parse_rejects_unknown_version(self):
        w = construct_witness([0, 1, 2], "quadric", parameter=(3, 1))
        doc = witness_document(w)
        doc["schema_version"] = "99"
        with pytest.raises(ValueError):
            read_document(json.dumps(doc))

    @pytest.mark.parametrize("version", ["9" * 10**5, list(range(100))])
    def test_unknown_version_is_echoed_in_at_most_40_characters(self, version):
        doc = {"schema_version": version, "set": ["0", "1", "2"], "poly": ["1"]}
        code, out, err = run_cli("verify", "--from-json", "-", stdin=json.dumps(doc))
        assert (code, out) == (1, "")
        shown = err.removeprefix("diopoly: error: input line 1: unsupported schema version ").rstrip("\n")
        shown = shown.removesuffix('; expected the string "1"')
        assert shown != err and len(shown) == 43 and shown.endswith("...")

    def test_version_as_a_json_number_names_the_string(self):
        doc = {"schema_version": 1, "set": ["0", "1", "2"], "poly": ["1"]}
        code, out, err = run_cli("verify", "--from-json", "-", stdin=json.dumps(doc))
        assert (code, out) == (1, "")
        assert err == 'diopoly: error: input line 1: unsupported schema version 1; expected the string "1"\n'


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
_decimal_texts = st.from_regex(r"\s?[+-]?[0-9]{1,30}\s?", fullmatch=True)
_fields = st.lists(_decimal_texts | st.text(max_size=8), max_size=5) | _json_values
_documents = st.fixed_dictionaries(
    {},
    optional={"schema_version": st.just("1") | _json_values, "set": _fields, "poly": _fields},
).map(json.dumps)


def test_every_option_has_help():
    """Each option of construct, verify and search says what it does in
    --help."""
    (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(commands.choices) == ["construct", "search", "verify"]
    silent = [(name, a.dest) for name, sub in commands.choices.items() for a in sub._actions if not a.help]
    assert silent == []


class TestParserFuzz:
    """Outside input either parses or raises ValueError, nothing else."""

    @given(st.text() | _documents)
    def test_parse_witness_document(self, text):
        try:
            elements, coeffs = read_document(text)
        except ValueError:
            return
        assert all(type(x) is int for x in elements + coeffs)

    @given(st.lists(_decimal_texts | st.text(), max_size=6))
    def test_parse_ints(self, fields):
        try:
            values = _parse_ints(fields, "field")
        except ValueError:
            return
        assert isinstance(values, list)
        assert values == [int(f.strip(), 10) for f in fields]

    def test_one_digit_limit_lift_per_list(self, monkeypatch):
        lifts = []
        lifted = cli._int_str_limit_lifted
        monkeypatch.setattr(cli, "_int_str_limit_lifted", lambda: lifts.append(1) or lifted())
        assert _parse_ints([str(x) for x in range(250)], "field") == list(range(250))
        assert len(lifts) == 1

    def test_digit_limit_lift_is_thread_safe(self):
        """The digit limit is one setting for the whole process.  Without a
        lock, the first thread's restore would bring the limit back while
        the second thread's lift is open, and the second restore would
        then leave the process unlimited."""
        limit = sys.get_int_max_str_digits()
        first_in, second_trying, second_in, first_out = (threading.Event() for _ in range(4))
        seen = []

        def first():
            with cli._int_str_limit_lifted():
                first_in.set()
                second_trying.wait()
                # the second lift waits for this one, so this times out
                second_in.wait(timeout=0.5)
                seen.append(("first", sys.get_int_max_str_digits()))
            first_out.set()

        def second():
            first_in.wait()
            second_trying.set()
            with cli._int_str_limit_lifted():
                second_in.set()
                first_out.wait(timeout=5)
                seen.append(("second", sys.get_int_max_str_digits()))

        threads = [threading.Thread(target=f) for f in (first, second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == [("first", 0), ("second", 0)]
        assert sys.get_int_max_str_digits() == limit != 0


class TestConstructCommand:
    def test_golden_line(self):
        code, out, err = run_cli("construct", "--set", "0,1,2", "--param", "3,1")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["poly"] == ["1", "24"]
        assert [r["root"] for r in doc["pair_roots"]] == ["5", "7", "35"]
        assert doc["flags"] == []

    def test_plane_golden(self):
        code, out, _ = run_cli(
            "construct", "--set", "0,1,2,3,4", "--method", "plane", "--param", "1,2,0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["poly"] == ["1", "2", "1"]  # the primitive part of (2, 4, 2)
        assert doc["flags"] == ["trivial-family"]

    def test_emit_twist(self):
        code, out, _ = run_cli(
            "construct", "--set", "0,1,2", "--param", "3,1", "--emit-twist"
        )
        doc = json.loads(out)
        assert doc["twist"]["poly"] == ["1", "24"]
        assert doc["twist"]["genus_note"].startswith("degree <= 2")

    def test_degree_dropped_twist_poly_has_no_trailing_zeros(self):
        # f = 1 on a degree-1 config: the twist poly is the top-level poly,
        # not padded to the config degree
        code, out, _ = run_cli("construct", "--set", "0,1,2", "--param", "1,0", "--emit-twist")
        assert code == 0
        doc = json.loads(out)
        assert doc["poly"] == ["1"] and "degree-dropped" in doc["flags"]
        assert out.split('"twist":', 1)[1] == (
            '{"twist_scalar":"1","poly":["1"],'
            '"points":[{"x":"0","y":"1"},{"x":"1","y":"-1"},{"x":"2","y":"-1"}],'
            '"genus_note":"degree <= 2: conic or rational model, not a hyperelliptic curve"}}\n'
        )

    # the sign vectors of the default draw, and a direction bounded by 50
    # (the second draw of seed 7 from [-50, 50], after (9, 31, 0), which
    # gives f = 2 * (9 + 22x)^2)
    @pytest.mark.parametrize("bound", [(), ("--param=33,-44,-41",)])
    def test_sampled_plane_witness_is_not_trivial(self, bound):
        argv = ("construct", "--set", "0,1,2", "--method", "plane", "--seed", "7")
        code, out, err = run_cli(*argv, *bound)
        assert (code, err) == (0, "")
        assert json.loads(out)["flags"] == []

    def test_count_emits_one_document_per_line(self):
        code, out, _ = run_cli("construct", "--set", "0,1,2", "--seed", "5", "--count", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        docs = [json.loads(line) for line in lines]
        assert len({d["poly"][1] for d in docs}) == 3  # rng advances between draws

    def test_seed_determinism_bytes(self):
        a = run_cli("construct", "--set", "0,1,2", "--seed", "9", "--count", "2")
        b = run_cli("construct", "--set", "0,1,2", "--seed", "9", "--count", "2")
        assert a == b

    SEEDED_BYTES = [
        # plane sign directions with k + 2 nonzero coordinates, the plane default
        ("plane", (), "8472c84b43d032a71bcbe9054215a4d73ea68096b81911a8954862d4346d70e4"),
        # a dense direction, seed 1's first draw from [-50, 50]
        ("plane", (DENSE_0_TO_29,), "9f877be2d9afe5de9f97cf9c5057e1d478d4983acd2169c8585379cf3dc0288a"),
        ("quadric", (), "5411fb51b01d012c6b8cf13b820262d69a1b6d08aebb799fde6c5768075cff60"),
    ]

    @pytest.mark.parametrize(
        "method, pinned, digest",
        SEEDED_BYTES,
        ids=[m + ("-dense" if pinned else "") for m, pinned, _ in SEEDED_BYTES],
    )
    def test_seeded_bytes_on_0_to_29(self, method, pinned, digest):
        out = construct_0_to_29(method, pinned, "--emit-twist")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_dense_plane_parameter_refused(self):
        elements = ",".join(str(x) for x in range(30))
        code, out, err = run_cli("construct", "--set", elements, "--method", "plane", DENSE_0_TO_29)
        assert (code, out) == (1, "")
        assert err == (
            "diopoly: error: a plane parameter needs k + 1 = 11 or k + 2 = 12 "
            "nonzero coordinates, got 21\n"
        )

    # each cause of a degenerate parameter names itself: a plane support of
    # at most k coordinates; on 0..3 the line through the base point in
    # direction (3, 2, 1), where A = B = 0; and on 0..2 padded with 3 and 4
    # a k + 2 support whose row has c = lambda = 0
    @pytest.mark.parametrize(
        "argv, cause",
        [
            (
                ("--set", "0,1,2,3,4", "--method", "plane", "--param", "1,0,0"),
                "a plane parameter with at most k = 1 nonzero coordinates drops the rank of the plane system, got 1",
            ),
            (
                ("--set", "0,1,2,3", "--param", "3,2,1"),
                "the line through the base point in this direction lies on the quadric",
            ),
            (
                ("--set", "0,1,2", "--method", "plane", "--param", "3,2,1"),
                "the direction's row vanishes, so its image is not unique",
            ),
        ],
        ids=["plane-support-at-most-k", "line-on-quadric", "plane-row-vanishes"],
    )
    def test_degenerate_parameter_names_its_cause(self, argv, cause):
        code, out, err = run_cli("construct", *argv)
        assert (code, out) == (2, "")
        coords = argv[-1].replace(",", ", ")
        assert err == f"diopoly: construction failed: parameter ({coords}) is degenerate: {cause}\n"

    # construct --emit-twist digests, then the digests of verify's reports
    # on the document as printed and with f_1 moved by 1
    WIDE_BYTES = [
        (
            "quadric",
            "202c4352203041ccc1126400344292318ec9cffbfdc8e04ee17d76455b1e2782",
            "7631533acce88301236c2408a05edbbe7403ece73a6384eedc9eb23512fea3c1",
            "1eb3aef6065aba0c4e559c9d7ca590eff17178bd5b667f0c67addfe1dbdfa78e",
        ),
        (
            "plane",
            "fb9b00d5fd165a313065e68404adaae06684eb8d2b0331625fdc37f8311a52cf",
            "6081dd56071f26b72704680fe4fb92b4ffd71fb23eb62af8b3232b7bc9ddd498",
            "c04cbcbb0bea6ad188bf601e4c5c754ec5028d7fdc7dd1e9bc0d7dccb13b5649",
        ),
    ]

    @pytest.mark.parametrize("method, document, report, moved_report", WIDE_BYTES, ids=[r[0] for r in WIDE_BYTES])
    def test_seeded_bytes_on_a_wide_set(self, method, document, report, moved_report):
        code, out, _ = run_cli("construct", WIDE_SET, "--method", method, "--seed", "1", "--emit-twist")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == document
        fields = json.loads(out)
        for moved, want_code, digest in ((0, 0, report), (1, 3, moved_report)):
            fields["poly"][1] = str(int(fields["poly"][1]) + moved)
            got = run_cli("verify", "--from-json", "-", stdin=json.dumps(fields))
            assert got[0] == want_code and got[2] == ""
            assert hashlib.sha256(got[1].encode()).hexdigest() == digest

    def test_param_with_count_rejected(self):
        code, _, err = run_cli(
            "construct", "--set", "0,1,2", "--param", "3,1", "--count", "2"
        )
        assert code == 1 and err != ""

    def test_degenerate_param_exit_code(self):
        code, _, err = run_cli(
            "construct", "--set", "0,1,2,3,4", "--method", "plane", "--param", "1,0,0"
        )
        assert code == 2
        assert "degenerate" in err

    @pytest.mark.parametrize("param, message", [("0,0", "parameter: the zero vector"), ("3,1,1", "parameter needs 2")])
    def test_bad_param_is_named(self, param, message):
        code, out, err = run_cli("construct", "--set", "0,1,2", "--param", param)
        assert (code, out) == (1, "")
        assert message in err

    def test_witness_over_the_input_cap_refused(self):
        # verify refuses a coefficient of more than INPUT_DIGITS_CAP digits,
        # so construct prints none: here f has 240000 and 180001 digits
        code, out, err = run_cli("construct", "--set", "0,1,2", "--param", "9" * 60000 + ",1")
        assert (code, out) == (2, "")
        assert "poly entry 1 has 240000 digits" in err
        assert f"INPUT_DIGITS_CAP = {INPUT_DIGITS_CAP}" in err

    def test_witness_at_the_input_cap_round_trips(self):
        # the parameter (10^c - 1, 1) gives f a constant term of 4c digits
        nines = "9" * (INPUT_DIGITS_CAP // 4)
        code, out, _ = run_cli("construct", "--set", "0,1,2", "--param", nines + ",1")
        assert code == 0
        assert len(json.loads(out)["poly"][0].lstrip("-")) == INPUT_DIGITS_CAP
        # what verify --from-json reads of the line, without printing its
        # 200000-digit pair products
        elements, coeffs = read_document(out)
        assert verify_witness(elements, coeffs).ok

    def test_primitive_witness_under_a_lower_cap_round_trips(self, monkeypatch):
        # on this set the plane witness has 467-digit coefficients, and 1216
        # on the scale L, which a cap of 800 digits would refuse
        wide = random.Random(3).sample(range(-(10**6), 10**6), 30)
        monkeypatch.setattr(cli, "INPUT_DIGITS_CAP", 800)
        monkeypatch.setattr(cli, "_CAP_BITS", math.floor(800 * math.log2(10)))
        argv = ("construct", "--set=" + ",".join(map(str, wide)), "--method", "plane", "--seed", "1")
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "")
        assert max(len(c.lstrip("-")) for c in json.loads(out)["poly"]) <= 800
        code, report, err = run_cli("verify", "--from-json", "-", stdin=out)
        assert (code, err) == (0, "") and json.loads(report)["ok"] is True

    def test_count_run_keeps_the_documents_before_a_refused_one(self, monkeypatch):
        small = construct_witness([0, 1, 2], parameter=(3, 1))
        big = construct_witness([0, 1, 2], parameter=(10 ** (INPUT_DIGITS_CAP // 4 + 1) - 1, 1))
        witnesses = iter([small, big, small])
        monkeypatch.setattr(cli, "construct_witness", lambda *args, **kwargs: next(witnesses))
        code, out, err = run_cli("construct", "--set", "0,1,2", "--seed", "1", "--count", "3")
        assert code == 2
        assert [json.loads(line)["poly"] for line in out.splitlines()] == [["1", "24"]]
        assert f"poly entry 1 has {INPUT_DIGITS_CAP + 4} digits" in err

    def test_usage_errors_exit_one(self):
        assert run_cli("construct")[0] == 1
        assert run_cli("construct", "--set", "0,1")[0] == 1
        assert run_cli("construct", "--set", "0,1,2", "--method", "nope")[0] == 1
        assert run_cli("frobnicate")[0] == 1
        # the draw follows from the method, so no option sets its bound
        code, out, err = run_cli("construct", "--set", "0,1,2", "--param-bound", "2")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --param-bound 2" in err

    def test_malformed_set_exit_one(self):
        assert run_cli("construct", "--set", "0,1,x")[0] == 1

    def test_empty_field_exit_one(self):
        code, out, err = run_cli("construct", "--set", "0,1,,2", "--seed", "1")
        assert (code, out) == (1, "")
        assert "--set field 3 is not a decimal integer" in err
        assert run_cli("construct", "--set", "0,1,2,", "--seed", "1")[0] == 1

    @pytest.mark.parametrize(
        "command,option,value,rest",
        [
            ("construct", "--set", "-3,1,2", ("--seed", "1")),
            ("construct", "--param", "-3,1", ("--set", "0,1,2")),
            ("verify", "--poly", "-1,-24", ("--set", "0,1,2")),
        ],
    )
    def test_leading_negative_value_in_both_forms(self, command, option, value, rest):
        spaced = run_cli(command, option, value, *rest)
        assert spaced[0] == 0 and spaced[2] == ""
        assert run_cli(command, f"{option}={value}", *rest) == spaced

    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "--set", "0,1,2", "--count", "1_0"),
            ("construct", "--set", "0,1,2", "--seed", "\u0661"),
            ("search", "--set", "0,1", "--max-degree", "1", "--max-height", "2_0"),
        ],
    )
    def test_integer_options_are_strict(self, argv):
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert f"argument {argv[-2]}: value is not a decimal integer" in err

    def test_plane_twist_points_include_padding(self):
        # set 5,9,13 is padded with 0 and 1 for the plane method; the twist
        # block has one point per node, padding included, and its poly is
        # the witness polynomial times the sign of its first nonzero
        # coefficient
        code, out, _ = run_cli(
            "construct", "--set", "5,9,13", "--method", "plane", "--seed", "1", "--emit-twist"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["padding"] == ["0", "1"]
        assert [p["x"] for p in doc["twist"]["points"]] == ["0", "1", "5", "9", "13"]
        poly = [int(c) for c in doc["poly"]]
        twist_poly = [int(c) for c in doc["twist"]["poly"]]
        assert twist_poly in (poly, [-c for c in poly])


class TestVerifyCommand:
    def test_passing(self):
        code, out, _ = run_cli("verify", "--set", "2,8,18", "--poly", "0,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert [p["root"] for p in doc["pairs"]] == ["4", "6", "12"]

    def test_failing_exit_three(self):
        code, out, _ = run_cli("verify", "--set", "1,3", "--poly", "0,1")
        assert code == 3
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["pairs"][0]["root"] is None

    def test_from_json_stdin(self):
        _, out, _ = run_cli("construct", "--set", "0,1,2", "--seed", "5", "--count", "3")
        code, vout, _ = run_cli("verify", "--from-json", "-", stdin=out)
        assert code == 0
        assert all(json.loads(line)["ok"] for line in vout.splitlines())

    def test_from_json_file(self, tmp_path):
        _, out, _ = run_cli("construct", "--set", "0,1,2", "--param", "3,1")
        f = tmp_path / "w.json"
        f.write_text(out)
        code, vout, _ = run_cli("verify", "--from-json", str(f))
        assert code == 0
        assert json.loads(vout)["poly"] == ["1", "24"]

    def test_from_json_parses_each_integer_once(self, monkeypatch):
        _, doc, _ = run_cli("construct", "--set", ",".join(map(str, range(20))), "--seed", "1")
        fields = json.loads(doc)
        calls = []
        decimal = cli._decimal
        monkeypatch.setattr(cli, "_decimal", lambda *args: calls.append(1) or decimal(*args))
        code, out, _ = run_cli("verify", "--from-json", "-", stdin=doc)
        assert code == 0 and json.loads(out)["ok"] is True
        assert len(calls) == len(fields["set"]) + len(fields["poly"]) == 39

    def test_from_json_streams_until_a_bad_line(self):
        _, good, _ = run_cli("construct", "--set", "0,1,2", "--param", "3,1")
        code, out, err = run_cli("verify", "--from-json", "-", stdin=good + "{not json\n" + good)
        assert code == 1
        assert [json.loads(line)["poly"] for line in out.splitlines()] == [["1", "24"]]
        assert "malformed JSON document" in err

    def test_from_json_error_names_a_truncated_third_line(self):
        _, good, _ = run_cli("construct", "--set", "0,1,2", "--param", "3,1")
        code, out, err = run_cli("verify", "--from-json", "-", stdin=good + good + good[:36] + "\n")
        assert code == 1
        assert [json.loads(line)["poly"] for line in out.splitlines()] == [["1", "24"]] * 2
        assert err == "diopoly: error: input line 3: malformed JSON document: Expecting ',' delimiter at column 37\n"

    def test_from_json_error_names_a_zero_poly_on_line_two(self):
        _, good, _ = run_cli("construct", "--set", "0,1,2", "--param", "3,1")
        zero = json.dumps(dict(json.loads(good), poly=["0"]))
        code, out, err = run_cli("verify", "--from-json", "-", stdin=good + zero + "\n" + good)
        assert code == 1
        assert [json.loads(line)["poly"] for line in out.splitlines()] == [["1", "24"]]
        assert err == "diopoly: error: input line 2: the zero polynomial is not allowed\n"

    def test_from_json_lines_count_blank_lines(self, tmp_path):
        f = tmp_path / "w.json"
        f.write_text('\n  \n{"schema_version":"1","set":["0","1","2"],"poly":["1"]\n')
        code, out, err = run_cli("verify", "--from-json", str(f))
        assert (code, out) == (1, "")
        assert err.startswith("diopoly: error: input line 3: malformed JSON document: Expecting ',' delimiter")

    def test_from_json_file_names_the_line_of_an_undecodable_byte(self, tmp_path):
        f = tmp_path / "w.json"
        f.write_bytes(b'\n{"schema_version":"1","set":["0","1","2\xff"],"poly":["1"]}\n')
        code, out, err = run_cli("verify", "--from-json", str(f))
        assert (code, out) == (1, "")
        assert err.startswith("diopoly: error: input line 2: document field 'set' entry 3 is not a decimal integer")

    def test_set_and_poly_errors_name_no_line(self):
        code, out, err = run_cli("verify", "--set", "0,1,2", "--poly", "0")
        assert (code, out, err) == (1, "", "diopoly: error: the zero polynomial is not allowed\n")

    @pytest.mark.parametrize("value", ["1,24", "-1,-24"])
    def test_abbreviated_option_refused(self, value):
        # one spelling per option, so a leading negative never depends on it
        code, out, err = run_cli("verify", "--set", "0,1,2", "--pol", value)
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --pol" in err
        code, out, err = run_cli("verify", "--set", "0,1,2", "--poly", value)
        assert (code, err) == (0, "") and json.loads(out)["ok"] is True

    def test_from_json_conflicts_with_set(self):
        code, _, err = run_cli("verify", "--set", "0,1,2", "--from-json", "-", stdin="{}")
        assert code == 1 and "from-json" in err

    def test_deeply_nested_document_exit_one(self, cli_env):
        proc = subprocess.run(
            [sys.executable, "-m", "diopoly", "verify", "--from-json", "-"],
            input="[" * 200_000 + "]" * 200_000 + "\n",
            capture_output=True,
            text=True,
            env=cli_env,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "malformed JSON document" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_over_long_json_number_exit_one(self):
        # a 5000-digit JSON number in a field verify ignores: the digit
        # limit still refuses it, and the message gives no advice to lift it
        line = '{"schema_version":"1","set":["0","1","2"],"poly":["1"],"padding":[%s]}' % ("9" * 5000)
        code, out, err = run_cli("verify", "--from-json", "-", stdin=line)
        assert (code, out) == (1, "")
        assert "malformed JSON document" in err
        assert "set_int_max_str_digits" not in err

    def test_missing_file_exit_one(self):
        assert run_cli("verify", "--from-json", "/nonexistent/w.json")[0] == 1

    def test_over_limit_input_names_the_limit(self):
        limit = sys.get_int_max_str_digits()
        big = "9" * (INPUT_DIGITS_CAP + 1)
        code, out, err = run_cli("verify", "--set", "0,1", "--poly", f"{big},0")
        assert (code, out) == (1, "")
        assert f"--poly field 1 has {INPUT_DIGITS_CAP + 1} digits" in err
        assert f"over the input cap of {INPUT_DIGITS_CAP}" in err
        assert len(err) < 200  # the input is not echoed
        assert sys.get_int_max_str_digits() == limit

    def test_over_limit_document_entry_names_the_limit(self):
        doc = {
            "schema_version": "1",
            "set": ["0", "1", "2"],
            "poly": ["1", "-" + "9" * (INPUT_DIGITS_CAP + 1)],
        }
        code, out, err = run_cli("verify", "--from-json", "-", stdin=json.dumps(doc))
        assert (code, out) == (1, "")
        assert f"entry 2 has {INPUT_DIGITS_CAP + 1} digits" in err
        assert f"over the input cap of {INPUT_DIGITS_CAP}" in err
        assert len(err) < 200

    def test_input_past_python_digit_limit(self):
        # 5000 digits is over CPython's default limit of 4300, under the cap
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli("verify", "--set", "0,1", "--poly", "9" * 5000 + ",0")
        assert (code, err) == (0, "") and json.loads(out)["ok"] is True
        assert sys.get_int_max_str_digits() == limit

    def test_input_at_the_cap(self):
        assert _parse_ints(["-" + "9" * INPUT_DIGITS_CAP], "field") == [1 - 10**INPUT_DIGITS_CAP]

    def test_output_past_the_digit_limit(self):
        # f = 10^3000 - 1 is valid input; f(0) * f(1) has 6000 digits
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli("verify", "--set", "0,1", "--poly", "9" * 3000 + ",0")
        assert (code, err) == (0, "")
        (pair,) = json.loads(out)["pairs"]
        # (10^3000 - 1)^2 = 10^6000 - 2 * 10^3000 + 1
        assert pair["product"] == "9" * 2999 + "8" + "0" * 2999 + "1"
        assert pair["root"] == "9" * 3000
        assert sys.get_int_max_str_digits() == limit

    REPORT_BYTES = [
        ("quadric", (), 0, 0, "ef186e9ce96220f75bc8635b27fc2cb89c5e8b748ec2207b2ef48ba3eec48f47"),
        ("plane", (), 0, 0, "e707ff109a8da62136fd3462bf2b3e86710dca8fe24b1b6f3f317079adc78db7"),
        ("plane", (DENSE_0_TO_29,), 0, 0, "98e92a9a0a0ca67a82bf0ad9d464695b09d5c6a492cd923cc6f710c92656ccbf"),
        ("quadric", (), 1, 3, "96295c969a3dc6c81f6e14e1fca35c44f3910782056a0ec2512f77509897045f"),
    ]

    @pytest.mark.parametrize(
        "method, pinned, moved, code, digest",
        REPORT_BYTES,
        ids=[
            m + ("-dense" if pinned else "") + f"-moved-{moved}"
            for m, pinned, moved, _, _ in REPORT_BYTES
        ],
    )
    def test_report_bytes_on_0_to_29(self, method, pinned, moved, code, digest):
        # digests of the pairwise verifier's reports (one isqrt per pair);
        # moving f_1 by 1 puts every value in a square class of its own
        fields = json.loads(construct_0_to_29(method, pinned))
        fields["poly"][1] = str(int(fields["poly"][1]) + moved)
        got = run_cli("verify", "--from-json", "-", stdin=json.dumps(fields))
        assert got[0] == code and got[2] == ""
        assert hashlib.sha256(got[1].encode()).hexdigest() == digest

    def test_report_line_with_zero_and_mixed_classes(self):
        # f = x: f vanishes at 0, and -1, 1 and {2, 8} are three square classes
        code, out, _ = run_cli("verify", "--set", "-1,0,1,2,8", "--poly", "0,1")
        pair = '{{"i":{},"j":{},"a":"{}","b":"{}","product":"{}","root":{}}}'.format
        rows = [
            pair(0, 1, -1, 0, 0, '"0"'), pair(0, 2, -1, 1, -1, "null"),
            pair(0, 3, -1, 2, -2, "null"), pair(0, 4, -1, 8, -8, "null"),
            pair(1, 2, 0, 1, 0, '"0"'), pair(1, 3, 0, 2, 0, '"0"'), pair(1, 4, 0, 8, 0, '"0"'),
            pair(2, 3, 1, 2, 2, "null"), pair(2, 4, 1, 8, 8, "null"), pair(3, 4, 2, 8, 16, '"4"'),
        ]
        assert code == 3
        assert out == (
            '{"schema_version":"1","set":["-1","0","1","2","8"],"poly":["0","1"],'
            f'"ok":false,"zero_products":4,"pairs":[{",".join(rows)}]}}\n'
        )

    @pytest.mark.parametrize("method", ["quadric", "plane"])
    def test_reads_its_own_output_on_0_to_89(self, method):
        # with the Vandermonde product as scale, the quadric witness had
        # 5261-digit coefficients here, and verify refused them with exit 1
        elements = ",".join(str(x) for x in range(90))
        code, out, _ = run_cli("construct", "--set", elements, "--method", method, "--seed", "1")
        assert code == 0
        code, report, err = run_cli("verify", "--from-json", "-", stdin=out)
        assert (code, err) == (0, "") and json.loads(report)["ok"] is True


class TestDecimalRendering:
    """Pair roots and products print as Decimal products of per-element
    factors; each line must equal the line built pair by pair from
    integers printed by str(int)."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 7).flatmap(
            lambda e: st.lists(st.integers(-(10**e), 10**e), min_size=3, max_size=12, unique=True)
        ),
        st.sampled_from(("quadric", "plane")),
        st.integers(0, 2**32),
    )
    def test_construct_lines(self, elements, method, seed):
        try:
            w = construct_witness(elements, method, seed=seed)
        except ConstructionError:
            assume(False)
        assert "".join(cli._witness_line(w)) == witness_line_by_ints(w)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-30, 30), min_size=2, max_size=8, unique=True),
        st.lists(st.integers(-20, 20), min_size=1, max_size=4).filter(any),
    )
    def test_report_lines(self, elements, coeffs):
        line = "".join(cli._verify_report_line(verify_witness(elements, coeffs)))
        assert line == report_line_by_ints(elements, coeffs)

    @pytest.mark.parametrize(
        "elements, coeffs",
        [
            ([-3, -2, 0, 5], [0, 1]),  # a negative value times a later zero
            ([0, 3, 4], [0, -1]),  # a zero times later negative values
            ([-12, -3, 0, 2, 8, 18, 25], [0, 1]),  # the square classes -3, 2 and 1
        ],
    )
    def test_report_lines_with_zeros_and_classes(self, elements, coeffs):
        code, out, _ = run_cli("verify", "--set=" + ",".join(map(str, elements)), "--poly=" + ",".join(map(str, coeffs)))
        assert out == report_line_by_ints(elements, coeffs) + "\n"
        assert '"-0"' not in out

    def test_report_line_of_a_failing_document(self):
        w = construct_witness(range(-6, 6), "quadric", seed=2)
        coeffs = list(w.poly.coeffs)
        coeffs[0] += 1
        report = verify_witness(w.elements, coeffs)
        assert not report.ok
        assert "".join(cli._verify_report_line(report)) == report_line_by_ints(w.elements, coeffs)

    def test_pair_of_20k_digit_values(self):
        # f(0) = 2u^2 and f(1) = 2v^2 have about 2 * 10^4 digits, past the
        # base-case multiply of libmpdec; the roots of the report are
        # 2uv, and both factors of each root have about 10^4 digits
        rng = random.Random(11)
        u, v = (rng.randrange(10**9999, 10**10000) for _ in range(2))
        coeffs = [2 * u * u, 2 * v * v - 2 * u * u]
        limit = sys.get_int_max_str_digits()
        with cli._int_str_limit_lifted():
            poly = ",".join(map(str, coeffs))
            expected = report_line_by_ints([0, 1], coeffs)
        code, out, err = run_cli("verify", "--set", "0,1", "--poly", poly)
        assert sys.get_int_max_str_digits() == limit
        assert (code, err) == (0, "")
        assert out == expected + "\n"

    def test_witness_with_20k_digit_root_factors(self):
        # on 0, 1 and 10^20000 the witness's factors (L / g) * |Y_a| and
        # |Y_b| of the outer pairs have about 2 * 10^4 digits
        limit = sys.get_int_max_str_digits()
        big = "1" + "0" * 20000
        code, out, err = run_cli("construct", "--set", f"0,1,{big}", "--param", "3,1")
        assert sys.get_int_max_str_digits() == limit
        assert (code, err) == (0, "")
        w = construct_witness([0, 1, 10**20000], "quadric", parameter=(3, 1))
        scale, ys = w.root_factors
        with cli._int_str_limit_lifted():
            assert min(len(str(scale * ys[1])), len(str(ys[2]))) > 19000
            assert out == witness_line_by_ints(w) + "\n"

    def test_exact_context_traps_rounding(self):
        assert cli._EXACT.traps[Inexact] and cli._EXACT.traps[Rounded]
        narrow = cli._EXACT.copy()
        narrow.prec = 10
        with pytest.raises((Inexact, Rounded)):
            narrow.multiply(Decimal(10**6 + 1), Decimal(10**6 + 3))


class TestCallerContext:
    """The renderers make the exact Decimal context current around each
    row's products only, and give the caller's context back, also when a
    row raises."""

    @staticmethod
    def rendered():
        elements = ",".join(str(x) for x in range(30))
        outs = [run_cli("construct", "--set", elements, "--method", m, "--seed", "1", "--emit-twist") for m in METHODS]
        moved = json.loads(outs[0][1])
        moved["poly"][1] = str(int(moved["poly"][1]) + 1)
        return outs + [run_cli("verify", "--from-json", "-", stdin=doc) for doc in (outs[0][1], json.dumps(moved))]

    def test_same_bytes_under_a_narrow_context(self):
        expected = self.rendered()
        assert [code for code, _, _ in expected] == [0, 0, 0, 3]
        caller, narrow = getcontext(), Context(prec=9)
        setcontext(narrow)
        try:
            got = self.rendered()
            current = getcontext()
        finally:
            setcontext(caller)
        assert got == expected
        assert current is narrow and narrow.prec == 9
        assert not any(narrow.flags.values())

    @pytest.mark.parametrize(
        "argv, written",
        [
            # row 0 holds the products and roots of a zero, which fit in 10
            # digits; row 1's product 4 * 10^12 does not
            (("verify", "--set", "0,1000000,4000000", "--poly", "0,1"), 2),
            (("construct", "--set", ",".join(str(x) for x in range(30)), "--seed", "1"), 1),
        ],
        ids=["verify", "construct"],
    )
    def test_a_raising_row_gives_the_context_back(self, monkeypatch, argv, written):
        exact = cli._EXACT.copy()
        exact.prec = 10
        monkeypatch.setattr(cli, "_EXACT", exact)
        out = _RecordedWrites()
        caller, narrow = getcontext(), Context(prec=9)
        setcontext(narrow)
        try:
            with redirect_stdout(out), pytest.raises((Inexact, Rounded)):
                main(list(argv))
            current = getcontext()
        finally:
            setcontext(caller)
        assert len(out.writes) == written
        assert current is narrow and not any(narrow.flags.values())


class _RecordedWrites(io.StringIO):
    """A stdout stand-in that keeps each write apart."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def longest_row(line, key):
    """The longest piece of a line's pair array that holds the pairs of one
    element i, with the comma before it for i > 0."""
    rows = {}
    for pair in json.loads(line)[key]:
        rows.setdefault(pair["i"], []).append(json.dumps(pair, separators=(",", ":")))
    return max(len(("," if i else "") + ",".join(row)) for i, row in rows.items())


class TestStreaming:
    """A document is written as it is rendered, one element's pairs at a
    time, and a document that fails writes nothing."""

    def assert_streamed(self, writes, expected, key):
        assert len(writes) >= 59
        assert max(map(len, writes)) <= longest_row(expected, key)
        assert "".join(writes) == expected + "\n"

    def test_construct_and_verify_write_one_element_at_a_time(self, monkeypatch):
        elements = ",".join(str(x) for x in range(60))
        out = _RecordedWrites()
        with redirect_stdout(out):
            assert main(["construct", "--set", elements, "--method", "plane", "--seed", "1"]) == 0
        w = construct_witness(range(60), "plane", seed=1)
        with cli._int_str_limit_lifted():
            self.assert_streamed(out.writes, witness_line_by_ints(w), "pair_roots")
            expected = report_line_by_ints(w.elements, w.poly.coeffs)

        monkeypatch.setattr(sys, "stdin", io.StringIO(out.getvalue()))
        report = _RecordedWrites()
        with redirect_stdout(report):
            assert main(["verify", "--from-json", "-"]) == 0
        with cli._int_str_limit_lifted():
            self.assert_streamed(report.writes, expected, "pairs")

    def test_failing_twist_writes_nothing(self, monkeypatch):
        def fail(witness):
            raise RuntimeError("twist")

        monkeypatch.setattr(cli, "twist_points", fail)
        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(RuntimeError, match="twist"):
            main(["construct", "--set", "0,1,2", "--param", "3,1", "--emit-twist"])
        assert out.getvalue() == ""

    def test_failing_second_witness_leaves_one_line(self, monkeypatch):
        calls = []

        def second_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ConstructionError("second witness")
            return construct_witness(*args, **kwargs)

        monkeypatch.setattr(cli, "construct_witness", second_fails)
        code, out, err = run_cli("construct", "--set", "0,1,2", "--seed", "5", "--count", "3")
        assert code == 2 and "second witness" in err
        first = run_cli("construct", "--set", "0,1,2", "--seed", "5")[1]
        assert out == first and out.count("\n") == 1


class TestSearchCommand:
    def test_worked_box(self):
        code, out, _ = run_cli("search", "--set", "0,1,2", "--max-degree", "1", "--max-height", "30")
        assert code == 0
        doc = json.loads(out)
        assert doc["candidates"] == "1860"
        assert doc["exhausted"] is True
        assert doc["found"] == [["1"], ["1", "24"]]

    def test_ceiling_refusal(self):
        code, _, err = run_cli("search", "--set", "0,1,2", "--max-degree", "9", "--max-height", "50")
        assert code == 1
        assert "DIOPOLY_SEARCH_CEILING" in err

    def test_huge_box_refused_fast(self):
        # the full count has 47713 digits, past Python's int->str limit
        t0 = time.monotonic()
        argv = ("search", "--set", "0,1", "--max-degree", "100000", "--max-height", "1")
        code, out, err = run_cli(*argv)
        elapsed = time.monotonic() - t0
        assert (code, out) == (1, "")
        assert elapsed < 1
        assert "more than 100000000 candidates" in err
        assert "DIOPOLY_SEARCH_CEILING" in err
        assert "Exceeds the limit" not in err and "digits" not in err

    def test_env_ceiling_override(self, monkeypatch):
        monkeypatch.setenv("DIOPOLY_SEARCH_CEILING", "3")
        code, _, err = run_cli("search", "--set", "1,3", "--max-degree", "1", "--max-height", "2")
        assert code == 1
        monkeypatch.setenv("DIOPOLY_SEARCH_CEILING", "1000")
        code, out, _ = run_cli("search", "--set", "1,3", "--max-degree", "1", "--max-height", "2")
        assert code == 0

    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_env_ceiling_below_one_rejected(self, monkeypatch, value):
        monkeypatch.setenv("DIOPOLY_SEARCH_CEILING", value)
        code, out, err = run_cli("search", "--set", "0,1", "--max-degree", "1", "--max-height", "1")
        assert (code, out) == (1, "")
        assert f"DIOPOLY_SEARCH_CEILING must be at least 1, got {value}" in err


PASSING_DOCUMENT = '{"schema_version":"1","set":["0","1","2"],"poly":["1","24"]}\n'


def invalid_command_message(command):
    """argparse's own message for an unknown subcommand, from a stock parser
    with diopoly's subcommands: its wording (how the choices are quoted)
    differs between Python versions, diopoly's prefix and exit code do not."""
    stock = argparse.ArgumentParser(prog="diopoly", exit_on_error=False)
    sub = stock.add_subparsers(dest="command", required=True)
    for name in ("construct", "verify", "search"):
        sub.add_parser(name)
    with pytest.raises(argparse.ArgumentError) as caught:
        stock.parse_args([command])
    return str(caught.value)


# (argv, stdin, environment, exit code, stderr) of each way main can end:
# every failure writes one stderr line, --help and a verify run none; a
# stderr of None is the unknown subcommand's, built by the test
EXIT_PATHS = {
    "unknown subcommand": (["bogus"], "", {}, 1, None),
    "unknown option": (
        ["construct", "--set", "0,1,2", "--bogus"],
        "",
        {},
        1,
        "diopoly: error: unrecognized arguments: --bogus\n",
    ),
    "non-integer option": (
        ["construct", "--set", "0,1,2", "--seed", "x"],
        "",
        {},
        1,
        "diopoly: error: argument --seed: value is not a decimal integer: 'x'\n",
    ),
    "count zero": (["construct", "--set", "0,1,2", "--count", "0"], "", {}, 1, "diopoly: error: --count must be at least 1\n"),
    "param with count": (
        ["construct", "--set", "0,1,2", "--param", "3,1", "--count", "2"],
        "",
        {},
        1,
        "diopoly: error: --param pins one witness; drop it or use --count 1\n",
    ),
    "duplicate elements": (["construct", "--set", "0,1,1"], "", {}, 1, "diopoly: error: set elements must be distinct\n"),
    "missing file": (
        ["verify", "--from-json", "missing.json"],
        "",
        {},
        1,
        "diopoly: error: [Errno 2] No such file or directory: 'missing.json'\n",
    ),
    "empty input": (["verify", "--from-json", "-"], "", {}, 1, "diopoly: error: no witness documents on input\n"),
    "bad third line": (
        ["verify", "--from-json", "-"],
        PASSING_DOCUMENT * 2 + "{}\n",
        {},
        1,
        "diopoly: error: input line 3: witness document misses required field 'schema_version'\n",
    ),
    "bad ceiling": (
        ["search", "--set", "0,1,2", "--max-degree", "1", "--max-height", "5"],
        "",
        {"DIOPOLY_SEARCH_CEILING": "x"},
        1,
        "diopoly: error: DIOPOLY_SEARCH_CEILING is not a decimal integer: 'x'\n",
    ),
    "refused box": (
        ["search", "--set", "0,1,2", "--max-degree", "9", "--max-height", "99"],
        "",
        {},
        1,
        "diopoly: error: search box holds more than 100000000 candidates (ceiling override: DIOPOLY_SEARCH_CEILING)\n",
    ),
    "sampling exhausted": (
        ["construct", "--set", "0,1,2", "--seed", "77", "--max-attempts", "1"],
        "",
        {},
        2,
        "diopoly: construction failed: no acceptable witness within 1 attempts {'attempts': 1, "
        "'degenerate-parameter': 0, 'in-plane': 1, 'degree-dropped': 0, 'zero-value': 0, "
        "'base-node-zero': 0, 'trivial-family': 0}\n",
    ),
    "failing verify": (["verify", "--from-json", "-"], PASSING_DOCUMENT.replace('"1","24"', '"2","24"'), {}, 3, ""),
    "help": (["--help"], "", {}, 0, ""),
}


@pytest.mark.parametrize("argv, stdin, env, code, stderr", EXIT_PATHS.values(), ids=EXIT_PATHS)
def test_exit_path(argv, stdin, env, code, stderr, tmp_path, monkeypatch):
    """main's exit code and stderr, byte for byte, on each exit path.  The
    missing file is looked up in an empty directory."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DIOPOLY_SEARCH_CEILING", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if stderr is None:
        stderr = f"diopoly: error: {invalid_command_message(argv[0])}\n"
    assert run_cli(*argv, stdin=stdin)[::2] == (code, stderr)


class TestSubprocessPipe:
    def test_construct_verify_pipe(self, cli_env):
        construct = subprocess.run(
            [sys.executable, "-m", "diopoly", "construct", "--set", "0,1,2", "--seed", "5", "--count", "3"],
            capture_output=True,
            text=True,
            env=cli_env,
        )
        assert construct.returncode == 0
        verify = subprocess.run(
            [sys.executable, "-m", "diopoly", "verify", "--from-json", "-"],
            input=construct.stdout,
            capture_output=True,
            text=True,
            env=cli_env,
        )
        assert verify.returncode == 0

    def test_subprocess_matches_in_process_output(self, cli_env):
        proc = subprocess.run(
            [sys.executable, "-m", "diopoly", "construct", "--set", "0,1,2", "--param", "3,1"],
            capture_output=True,
            text=True,
            env=cli_env,
        )
        _, out, _ = run_cli("construct", "--set", "0,1,2", "--param", "3,1")
        assert proc.stdout == out

    def test_one_parser_serves_a_sequence_of_calls(self, cli_env, monkeypatch):
        """main reuses one argparse tree; each call of a sequence made in one
        process exits and prints as the same call made alone."""
        sequence = [
            ("construct", "--seed", "1"),
            ("--help",),
            ("construct", "--set", "0,1,2,3,4", "--method", "plane", "--seed", "3", "--emit-twist"),
            ("verify", "--set", "0,1,2", "--poly", "1,24"),
            ("search", "--set", "0,1,2", "--max-degree", "1", "--max-height", "5"),
        ]
        monkeypatch.setenv("COLUMNS", "80")
        together = [run_cli(*argv)[:2] for argv in sequence]
        assert _build_parser() is _build_parser()
        alone = [
            subprocess.run(
                [sys.executable, "-m", "diopoly", *argv],
                capture_output=True,
                text=True,
                env=dict(cli_env, COLUMNS="80"),
            )
            for argv in sequence
        ]
        assert [code for code, _ in together] == [1, 0, 0, 0, 0]
        assert together == [(proc.returncode, proc.stdout) for proc in alone]
