"""Size ladder: one construct and one verify per set size and method.

    python3 perfbench/ladder.py

Writes perfbench/results/ladder.json.

A report run on demand, not a gated workload: at |S| = 60 one
construction takes minutes.  For each size n and method it constructs a
witness for the consecutive set 0..n-1 (``construct --seed 1``), verifies
the document with ``verify --from-json``, checks both outputs with the
benchmark's own code, and records wall times and the decimal digits of
the largest coefficient, pair root and pair product.  Products of
CPython's int->str limit (4300 digits) or more cannot be printed by
verify; such rows record the failure instead of stopping the ladder.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import checks
from run import HERE, OUT, import_program, run_call

METHODS = ("quadric", "plane")
SIZES = (10, 20, 30, 40, 60)
REPORT = HERE / "results" / "ladder.json"


def ladder_row(cli, n: int, method: str, workdir: Path) -> dict:
    elements = list(range(n))
    row = {"size": n, "method": method}
    rc, cap, _, ns = run_call(
        cli, ["construct", f"--set={','.join(map(str, elements))}", "--method", method, "--seed", "1"]
    )
    row["construct_s"] = ns / 1e9
    text = cap.text()
    try:
        coeff_digits, product_digits = checks.check_construct(rc, text, elements, method, False)
    except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
        row["error"] = f"construct: {exc}"
        return row
    doc = json.loads(text)
    row["coeff_digits"] = coeff_digits
    row["root_digits"] = max(checks.decimal_digits(int(p["root"])) for p in doc["pair_roots"])
    row["product_digits"] = product_digits

    path = workdir / f"ladder-{n}-{method}.jsonl"
    path.write_text(text, encoding="utf-8")
    try:
        rc, cap, _, ns = run_call(cli, ["verify", "--from-json", str(path)])
    finally:
        path.unlink()
    row["verify_s"] = ns / 1e9
    verdict = checks.known_verdict(elements, [int(c) for c in doc["poly"]])
    try:
        checks.check_verify(rc, cap.text(), [verdict])
    except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
        row["error"] = f"verify: {exc}"
    return row


def main() -> int:
    OUT.mkdir(exist_ok=True)
    cli = import_program()["cli"]
    rows = []
    for n in SIZES:
        for method in METHODS:
            started = time.perf_counter()
            row = ladder_row(cli, n, method, OUT)
            rows.append(row)
            print(json.dumps(row), f"({time.perf_counter() - started:.1f} s)", flush=True)
    report = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, {platform.processor() or 'cpu unknown'}",
        "set": "consecutive 0..n-1, construct --seed 1",
        "rows": rows,
    }
    REPORT.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REPORT.relative_to(HERE.parent)}")
    return 0 if all("error" not in r for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
