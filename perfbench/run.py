"""Benchmark of the diopoly command line, driven in-process.

    python3 perfbench/run.py --workload construct-fresh --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each call goes through ``diopoly.cli.main(argv)`` with stdout captured,
and every output is checked by the benchmark's own code outside the timed
region.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced cycles and reports the per-layer metrics
from the traced ones (see tracer.py), plus the tracing overhead.  The
program is imported from ``src/`` of the checkout this file sits in.
Human-readable lines come first; the last line of stdout is one JSON
object.  ``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import SpanStats, Tracer, aggregate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("exactmath", "variety", "rationalmaps", "forge", "twist", "cli")
# set-up runs this many times, each on a fresh import; setup_s is the median
SETUP_RUNS = 5
# Measuring stops here even before DIGIT_CYCLES cycles have run, so a run
# always ends within the 180 s a caller may allow it.
HARD_LIMIT_S = 120.0
# the per-method tails of the report lines keep this many calls beyond them
TAIL_MIN_BEYOND = 10
# the digit maxima and peak_rss_mib come from this many leading cycles, a
# fixed amount of work that a seed fixes; every run completes at least this
# many
DIGIT_CYCLES = 3

# The CPU of a shared machine changes speed in phases of seconds to
# minutes: on a 2-vCPU Xeon VM shared with other tenants, one repeated call
# measured up to 40% apart, with CPU time tracking wall time.  So a fixed
# probe of interpreter work and big-int arithmetic runs between calls,
# outside the timed region, and every time is scaled by PROBE_REF_NS over
# the probe time around it: times read as on a CPU that runs the probe in
# PROBE_REF_NS, as that VM did at its median speed.  The raw times are
# printed beside them.
PROBE_REF_NS = 2_500_000
_PROBE_X, _PROBE_M = 7**300, 10**400 + 7


def probe_ns() -> int:
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(4000):
        acc = (acc * 31 + _PROBE_X * i) % _PROBE_M
    return time.perf_counter_ns() - t0


# det time is attributed to the nearest enclosing span among these
CALLER_TAGS = {
    "variety.bracket_cofactors": "under_cofactors",
    "rationalmaps.quadric_to_certificate_raw": "under_reverse_map",
    "rationalmaps.parametrize_plane": "under_plane",
}


class SetupError(RuntimeError):
    pass


def import_program() -> dict:
    """Import diopoly afresh from the checkout's src/: new module objects,
    empty caches.  Returns module name -> module."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "diopoly" or n.startswith("diopoly.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"diopoly.{m}") for m in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"diopoly was imported from {origin}, not from {SRC}")
    return mods


class Capture:
    """Stand-in for sys.stdout that keeps the text and the time at which
    the first complete line was written."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.first_line_ns: int | None = None

    def write(self, s: str) -> int:
        if self.first_line_ns is None and "\n" in s:
            self.first_line_ns = time.perf_counter_ns()
        self.parts.append(s)
        return len(s)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


@dataclass
class Call:
    cycle: int
    slot: int  # position in the cycle: the same kind of call in every cycle
    ns: int  # raw wall time
    scale: float  # PROBE_REF_NS over the probe time around the call
    first_ns: int | None
    items: int
    method: str | None
    traced: bool
    ok: bool
    stdout_bytes: int


@dataclass
class Measured:
    calls: list
    failures: list
    coeff_digits: int  # over the first DIGIT_CYCLES cycles
    product_digits: int
    peak_rss_kib: int  # ru_maxrss when cycle DIGIT_CYCLES ends
    stdout_sha256: str  # first cycle
    inputs_sha256: str
    cofactor_misses: int | None  # during traced cycles; None without a cache


def run_call(cli, argv) -> tuple[object, Capture, int, int]:
    """(exit code or exception, captured stdout, start ns, duration ns)"""
    cap = Capture()
    with redirect_stdout(cap), redirect_stderr(io.StringIO()):
        t0 = time.perf_counter_ns()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed call; the run goes on
            rc = exc
        t1 = time.perf_counter_ns()
    return rc, cap, t0, t1 - t0


def _misses(fn) -> int | None:
    info = getattr(fn, "cache_info", None)
    return info().misses if info else None


def measure(mods, wl, seconds: float, tracer: Tracer | None) -> Measured:
    """Run whole cycles until `seconds` have passed and at least
    DIGIT_CYCLES cycles have run.  With a tracer, odd cycles run traced."""
    cofactors = getattr(mods["variety"], "bracket_cofactors", None)
    verified: dict = {}  # op key -> (stdout digest, digits)
    calls, failures = [], []
    coeff_digits = product_digits = 0
    out_hash, in_hash = hashlib.sha256(), hashlib.sha256()
    misses = 0 if _misses(cofactors) is not None else None
    peak_rss_kib = 0
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        ops = wl.cycle(index)
        before = _misses(cofactors)
        with tracer.patched(mods) if traced else nullcontext():
            for k, op in enumerate(ops):
                # each call is checked, and its output dropped, before the
                # next, so the benchmark holds one output at a time
                probe = probe_ns()
                rc, cap, t0, ns = run_call(mods["cli"], op.argv)
                scale = 2 * PROBE_REF_NS / (probe + probe_ns())
                text = cap.text()
                if index == 0:
                    out_hash.update(text.encode())
                    in_hash.update(op.inputs)
                try:
                    if isinstance(rc, Exception):
                        raise checks.CheckFailed(f"raised {rc!r}")
                    digest = hashlib.sha256(text.encode()).digest()
                    if op.key is not None and op.key in verified:
                        if verified[op.key][0] != digest:
                            raise checks.CheckFailed("output differs from an earlier call on the same input")
                        digits = verified[op.key][1]
                    else:
                        digits = op.check(rc, text)
                        if op.key is not None:
                            verified[op.key] = (digest, digits)
                    ok = True
                    if index < DIGIT_CYCLES:
                        coeff_digits = max(coeff_digits, digits[0])
                        product_digits = max(product_digits, digits[1])
                except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
                    ok = False
                    failures.append(f"{' '.join(op.argv)[:120]}: {exc}")
                first = None if cap.first_line_ns is None else cap.first_line_ns - t0
                calls.append(
                    Call(index, k, ns, scale, first, op.items if ok else 0, op.method, traced, ok, len(text.encode()))
                )
        if traced and misses is not None:
            misses += _misses(cofactors) - before
        index += 1
        if index == DIGIT_CYCLES:
            peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and index >= DIGIT_CYCLES) or elapsed >= HARD_LIMIT_S:
            break
    # a run cut by HARD_LIMIT_S before cycle DIGIT_CYCLES ends reads it here
    peak_rss_kib = peak_rss_kib or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return Measured(
        calls, failures, coeff_digits, product_digits, peak_rss_kib,
        out_hash.hexdigest(), in_hash.hexdigest(), misses,
    )


def percentile(sorted_values, q: float):
    """Nearest-rank percentile: the value with q% of the samples at or
    below it."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(wl, setup_times, m: Measured) -> tuple[dict, list[str]]:
    """(metrics as name -> (value, unit), report lines).  Times are scaled
    by the probe; the report lines give the raw ones too."""
    calls = m.calls
    slots: dict[int, list] = {}
    for c in calls:
        slots.setdefault(c.slot, []).append(c)

    def typical_cycle(ms_of) -> list[float]:
        """The times of a typical cycle, sorted: each slot's median over
        the run's cycles.  A cycle holds the workload's whole mix, so its
        percentiles are those of the mix, and a slow stretch moves one
        sample of each slot rather than the result."""
        return sorted(statistics.median(v) for v in (ms_of(cs) for cs in slots.values()) if v)

    call_ms = typical_cycle(lambda cs: [c.ns * c.scale / 1e6 for c in cs])
    first_ms = typical_cycle(lambda cs: [c.first_ns * c.scale / 1e6 for c in cs if c.first_ns is not None])

    busy_s = sum(c.ns * c.scale for c in calls) / 1e9
    raw_s = sum(c.ns for c in calls) / 1e9
    items = sum(c.items for c in calls)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (items / busy_s, "1/s"),
        "call_p50_ms": (statistics.median(call_ms), "ms"),
        "call_tail_ms": (percentile(call_ms, wl.tail)[0], "ms"),
        "first_result_p50_ms": (statistics.median(first_ms) if first_ms else math.nan, "ms"),
        "peak_rss_mib": (m.peak_rss_kib / 1024, "MiB"),
        "coeff_digits_max": (m.coeff_digits, "digits"),
        "product_digits_max": (m.product_digits, "digits"),
    }
    lines = [
        f"{wl.item}_per_s = {items / busy_s:.6g} 1/s ({items} {wl.item} in {busy_s:.3f} s of calls)",
        f"raw: {wl.item}_per_s = {items / raw_s:.6g} 1/s, call_p50_ms = "
        f"{statistics.median(c.ns / 1e6 for c in calls):.6g} ms, probe speed "
        f"{statistics.median(c.scale for c in calls):.4g} x reference (median)",
    ]
    for method in ("quadric", "plane"):
        mine = sorted(c.ns * c.scale / 1e6 for c in calls if c.method == method)
        if mine:
            lines.append(f"{method}_p50_ms = {statistics.median(mine):.6g} ms ({len(mine)} calls)")
            # the highest percentile that still has enough samples beyond it
            q = next((q for q in (99, 95, 90, 75) if percentile(mine, q)[1] >= TAIL_MIN_BEYOND), None)
            if q is not None:
                t, b = percentile(mine, q)
                lines.append(f"{method}_tail_ms = {t:.6g} ms (p{q}, {b} of {len(mine)} calls beyond)")
    lines.append(
        f"call_p50_ms, call_tail_ms: p50, p{wl.tail} over {len(slots)} slots, "
        f"each the median of {m.calls[-1].cycle + 1} cycles"
    )
    lines.append(f"failed_ratio = {len(m.failures) / len(m.calls):.6g} ({len(m.failures)} of {len(m.calls)} calls)")
    lines.append(f"setup_s runs: {', '.join(f'{t:.4f}' for t in setup_times)}")
    return metrics, lines


def per_layer(mods, tracer: Tracer, m: Measured) -> dict:
    """Per-layer metrics from the traced cycles, per traced call of
    cli.main, except ratios and the end-of-run cache size."""
    traced = [c for c in m.calls if c.traced]
    plain = [c for c in m.calls if not c.traced]
    ops = len(traced)
    stats = aggregate(tracer, CALLER_TAGS)

    def st(name) -> SpanStats:
        return stats.get(name, SpanStats())

    def per(count):
        return (count / ops, "count")

    def sec(ns):
        return (ns / 1e9 / ops, "s")

    det = st("exactmath.det")
    isqrt = st("exactmath.integer_sqrt")
    cof = st("variety.bracket_cofactors")
    raw = st("rationalmaps.quadric_to_certificate_raw")
    builds = st("rationalmaps.quadric_to_certificate")
    params = st("rationalmaps.parametrize_quadric").calls + st("rationalmaps.parametrize_plane").calls
    twist = st("twist.twist_points")
    misses = cof.calls if m.cofactor_misses is None else m.cofactor_misses
    caches = {}
    for mod in mods.values():
        for obj in vars(mod).values():
            info = getattr(obj, "cache_info", None)
            if callable(info):
                caches[id(obj)] = info().currsize

    def per_item(calls):
        return sum(c.ns * c.scale for c in calls) / max(1, sum(c.items for c in calls))

    return {
        "exactmath.det.calls": per(det.calls),
        "exactmath.det.s": sec(det.total_ns),
        "exactmath.det.s.under_cofactors": sec(det.under_ns.get("under_cofactors", 0)),
        "exactmath.det.s.under_reverse_map": sec(det.under_ns.get("under_reverse_map", 0)),
        "exactmath.det.s.under_plane": sec(det.under_ns.get("under_plane", 0)),
        "exactmath.integer_sqrt.calls": per(isqrt.calls),
        "exactmath.integer_sqrt.s": sec(isqrt.total_ns),
        "exactmath.integer_sqrt.nonsquare": per(isqrt.nones),
        "exactmath.interpolate.s": sec(st("exactmath.interpolate").total_ns),
        "variety.bracket_cofactors.calls": per(cof.calls),
        "variety.bracket_cofactors.misses": per(misses),
        "variety.bracket_cofactors.s": sec(cof.total_ns),
        "variety.cache_entries": (sum(caches.values()), "count"),
        "variety.on_quadric_variety.s": sec(st("variety.on_quadric_variety").total_ns),
        "variety.on_certificate_variety.s": sec(st("variety.on_certificate_variety").total_ns),
        "rationalmaps.parametrize_quadric.s": sec(st("rationalmaps.parametrize_quadric").total_ns),
        "rationalmaps.parametrize_plane.s": sec(st("rationalmaps.parametrize_plane").total_ns),
        "rationalmaps.quadric_to_certificate.calls": per(builds.calls),
        "rationalmaps.quadric_to_certificate_raw.calls": per(raw.calls),
        "rationalmaps.quadric_to_certificate_raw.s": sec(raw.total_ns),
        "forge.construct_witness.self_s": sec(st("forge.construct_witness").self_ns),
        "forge.verify_witness.self_s": sec(st("forge.verify_witness").self_ns),
        "forge.brute_force_search.self_s": sec(st("forge.brute_force_search").self_ns),
        "forge.classify_trivial.s": sec(st("forge.classify_trivial").total_ns),
        "forge.useful_ratio": (st("forge.construct_witness").calls / params if params else 0.0, "ratio"),
        "twist.twist_points.calls": per(twist.calls),
        "twist.twist_points.s": sec(twist.total_ns),
        "cli.main.self_s": sec(st("cli.main").self_ns),
        "cli.parse_witness_document.s": sec(st("cli.parse_witness_document").total_ns),
        "cli.witness_document.s": sec(st("cli.witness_document").total_ns),
        "cli.stdout_bytes": (sum(c.stdout_bytes for c in traced) / ops, "bytes"),
        "trace.overhead_ratio": (per_item(traced) / per_item(plain) - 1, "ratio"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up (several times), measure, and return the result object."""
    wl_class = WORKLOADS[name]
    workdir = OUT / f"work-{name}-{seed}"
    try:
        setup_times = []
        for _ in range(SETUP_RUNS):
            # free the previous set-up's modules and caches, which sit in
            # reference cycles, so that they do not add to the peak memory
            mods = wl = None
            gc.collect()
            before = probe_ns()
            t0 = time.perf_counter()
            mods = import_program()
            wl = wl_class(seed, workdir)
            wl.setup(mods)
            elapsed = time.perf_counter() - t0
            setup_times.append(elapsed * 2 * PROBE_REF_NS / (before + probe_ns()))
        tracer = Tracer() if trace else None
        m = measure(mods, wl, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {name} seed={seed} seconds={seconds} trace={int(trace)}")
    if trace:
        metrics = per_layer(mods, tracer, m)
        spans = OUT / f"trace-{name}.tsv.gz"
        tracer.write_tsv(spans)
        print(f"{len(tracer)} spans written to {spans.relative_to(ROOT)}")
    else:
        metrics, lines = end_to_end(wl, setup_times, m)
        for line in lines:
            print(line)
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(f"stdout_sha256 = {m.stdout_sha256} (first cycle)")
    print(f"inputs_sha256 = {m.inputs_sha256} (first cycle)")
    for failure in m.failures[:10]:
        print(f"FAILED: {failure}")
    return {
        "correct": not m.failures,
        "attempted": len(m.calls),
        "failed": len(m.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in a process of its own, so caches and peak memory
    do not carry over from one to the next."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return {"workloads": results}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diopoly" / "__init__.py").is_file():
        print(f"run.py: no diopoly sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
