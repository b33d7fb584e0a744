"""Tests of the benchmark itself: span wrapping, the independent checks,
seed determinism, and agreement with BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# Small variants of the workloads, for runs of a few seconds.
class TinyFresh(workloads.ConstructFresh):
    SIZES = (6, 9)


class TinyRepeat(workloads.ConstructRepeat):
    ELEMENTS = tuple(range(8))


class TinySearch(workloads.SearchBox):
    BOXES = ((3, 2, 3), (4, 1, 5))


@pytest.fixture
def mods():
    return run.import_program()


def call(mods, argv):
    rc, cap, _, _ = run.run_call(mods["cli"], argv)
    return rc, cap.text()


def test_patched_restores_every_name(mods):
    present = [(m, a) for m, a, _ in TARGETS if hasattr(mods[m], a)]
    originals = {(m, a): getattr(mods[m], a) for m, a in present}
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched(mods):
            assert all(getattr(mods[m], a) is not originals[(m, a)] for m, a in present)
            rc, _ = call(mods, ["construct", "--set=0,1,2,3,4,5", "--seed", "1"])
            assert rc == 0
            raise RuntimeError("leave the block by an error")
    assert all(getattr(mods[m], a) is originals[(m, a)] for m, a in present)
    roots = [i for i in range(len(tracer)) if tracer.parent[i] < 0]
    assert [tracer.names[tracer.name_id[i]] for i in roots] == ["cli.main"]
    assert len(tracer) > 1 and all(tracer.end[i] >= tracer.start[i] for i in range(len(tracer)))


def _construct_doc(mods, elements, method):
    rc, out = call(mods, ["construct", f"--set={','.join(map(str, elements))}", "--method", method, "--seed", "3"])
    checks.check_construct(rc, out, elements, method, False)
    return json.loads(out)


@pytest.mark.parametrize("method", workloads.METHODS)
def test_checker_rejects_doctored_construct_documents(mods, method):
    elements = [-4, 0, 3, 7, 11, 12, 20]
    doc = _construct_doc(mods, elements, method)

    def rejects(doctored):
        with pytest.raises(checks.CheckFailed):
            checks.check_construct(0, json.dumps(doctored), elements, method, False)

    wrong_root = json.loads(json.dumps(doc))
    wrong_root["pair_roots"][3]["root"] = str(int(wrong_root["pair_roots"][3]["root"]) + 1)
    rejects(wrong_root)
    missing = dict(doc, pair_roots=doc["pair_roots"][:-1])
    rejects(missing)
    repeated = dict(doc, pair_roots=doc["pair_roots"][:-1] + doc["pair_roots"][:1])
    rejects(repeated)
    rejects(dict(doc, flags=["zero-value"]))
    rejects(dict(doc, poly=doc["poly"] + ["1"]))
    rejects(dict(doc, padding=["99"]))
    with pytest.raises(checks.CheckFailed):
        checks.check_construct(2, json.dumps(doc), elements, method, False)


def test_checker_rejects_a_wrong_verdict(mods, tmp_path):
    elements = [1, 2, 5, 6, 9]
    doc = _construct_doc(mods, elements, "quadric")
    bad = dict(doc, poly=[str(int(doc["poly"][0]) + 1)] + doc["poly"][1:])
    path = tmp_path / "docs.jsonl"
    path.write_text(json.dumps(doc) + "\n" + json.dumps(bad) + "\n")
    verdicts = [checks.known_verdict(elements, [int(c) for c in d["poly"]]) for d in (doc, bad)]
    assert [v["ok"] for v in verdicts] == [True, False]
    rc, out = call(mods, ["verify", "--from-json", str(path)])
    checks.check_verify(rc, out, verdicts)

    with pytest.raises(checks.CheckFailed):  # wrong exit code
        checks.check_verify(0, out, verdicts)
    first, second = out.splitlines()
    flipped = json.loads(second)
    flipped["ok"] = True
    with pytest.raises(checks.CheckFailed):  # verdict flipped
        checks.check_verify(rc, first + "\n" + json.dumps(flipped) + "\n", verdicts)
    forged = json.loads(first)
    forged["pairs"][0]["root"] = None
    with pytest.raises(checks.CheckFailed):  # a square reported as non-square
        checks.check_verify(rc, json.dumps(forged) + "\n" + second + "\n", verdicts)
    echoed = json.loads(first)
    echoed["poly"][0] = str(int(echoed["poly"][0]) + 1)
    with pytest.raises(checks.CheckFailed):  # the polynomial printed back differs
        checks.check_verify(rc, json.dumps(echoed) + "\n" + second + "\n", verdicts)
    assert checks.check_verify(rc, out, verdicts) == (
        max(checks.decimal_digits(int(c)) for c in doc["poly"] + bad["poly"]),
        max(checks.decimal_digits(p) for v in verdicts for _, _, p, _ in v["pairs"]),
    )


def test_search_oracle_agrees_with_plain_pair_test():
    found, _ = checks.search_oracle([0, 1, 4], 2, 3)
    assert [1] in found and [0, 0, 1] in found
    for coeffs in found:
        values = [checks.horner(coeffs, x) for x in (0, 1, 4)]
        for i in range(3):
            for j in range(i + 1, 3):
                p = values[i] * values[j]
                assert p >= 0 and int(p**0.5 + 0.5) ** 2 == p


def test_decimal_digits_matches_str():
    for n in (0, 9, 10, 99, 100, 10**50 - 1, 10**50, -(10**200), 2**4000):
        assert checks.decimal_digits(n) == len(str(abs(n)))
    assert checks.decimal_digits(10**5000) == 5001


def test_shift_poly_moves_values():
    coeffs = [3, -1, 4, 1]
    shifted = workloads.shift_poly(coeffs, 7)
    assert all(checks.horner(shifted, x + 7) == checks.horner(coeffs, x) for x in range(-5, 6))


@pytest.mark.parametrize("cls", [TinyFresh, TinyRepeat, TinySearch])
def test_same_seed_same_digests(cls, tmp_path):
    def digests(seed):
        mods = run.import_program()
        wl = cls(seed, tmp_path / f"work-{seed}")
        wl.setup(mods)
        m = run.measure(mods, wl, 0, None)
        assert not m.failures
        return m.stdout_sha256, m.inputs_sha256

    first = digests(5)
    assert digests(5) == first
    assert digests(6)[1] != first[1]


def test_metric_names_match_benchmark_json(tmp_path):
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    mods = run.import_program()
    wl = TinyFresh(1, tmp_path)
    wl.setup(mods)
    tracer = Tracer()
    m = run.measure(mods, wl, 0, tracer)
    assert not m.failures
    metrics, _ = run.end_to_end(wl, [0.5], m)
    assert list(metrics) == [e["name"] for e in SPEC["end_to_end"]]
    assert [u for _, u in metrics.values()] == [e["unit"] for e in SPEC["end_to_end"]]
    layers = run.per_layer(mods, tracer, m)
    assert list(layers) == [e["name"] for e in SPEC["per_layer"]]
    assert [u for _, u in layers.values()] == [e["unit"] for e in SPEC["per_layer"]]
    # two reverse-map evaluations per built witness; fresh sets compute cofactors
    raw = layers["rationalmaps.quadric_to_certificate_raw.calls"][0]
    assert raw == 2 * layers["rationalmaps.quadric_to_certificate.calls"][0] > 0
    assert layers["exactmath.det.s.under_cofactors"][0] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-box", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
