"""The public API: every name an export list promises exists, so
`from diopoly.<module> import *` succeeds for the package and each module;
every exported function of the package runs under the CLI commands and the
README quick start, which runs as written."""

import ast
import importlib
import inspect
import io
import json
import pkgutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import diopoly
from diopoly import cli

# __main__ runs the command line when imported, and exports nothing
MODULES = ["diopoly"] + [
    f"diopoly.{info.name}"
    for info in pkgutil.iter_modules(diopoly.__path__)
    if info.name != "__main__"
]


def test_every_module_is_listed():
    assert set(MODULES) == {
        "diopoly",
        "diopoly.cli",
        "diopoly.exactmath",
        "diopoly.forge",
        "diopoly.rationalmaps",
        "diopoly.twist",
        "diopoly.variety",
    }


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def readme_quick_start():
    """The code block under "Library quick start" in README.md."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def stated_value(comment):
    """The Python literal a comment of the quick start opens with: its
    longest prefix that parses as one."""
    for end in range(len(comment), 0, -1):
        try:
            return ast.literal_eval(comment[:end])
        except (SyntaxError, ValueError):
            continue
    raise AssertionError(f"no value stated in {comment!r}")


def test_readme_quick_start_runs():
    """The quick start runs as written, and every expression it comments on
    has the value the comment states."""
    block = readme_quick_start()
    namespace = {}
    exec(block, namespace)
    stated = {}
    for line in block.splitlines():
        code, sep, comment = line.partition("# ")
        if sep:
            stated[code.strip()] = stated_value(comment.strip())
            assert eval(code, namespace) == stated[code.strip()]
    assert stated == {
        "w.poly.coeffs": (1, 24),
        "w.roots_map()": {(0, 1): 5, (0, 2): 7, (1, 2): 35},
        "report.ok": True,
        "ps.points": ((0, 1), (1, 5), (2, 7)),
    }
    assert namespace["report"].ok is True


def test_every_export_runs():
    """Every function in diopoly.__all__ runs, with sys.setprofile recording
    per call the code of the package it ran, under the calls the package
    serves: construct with both methods, --emit-twist and a plane --param
    with k + 2 nonzero coordinates, verify on a passing and a failing
    document, search, and the README quick start.  Only the package-level
    __all__ is covered: the
    module lists also hold names such as cli.witness_document, which
    serves the benchmark's setup rather than a command."""
    package = str(Path(diopoly.__file__).resolve().parent)
    ran = {}  # label of a call -> the code objects of the package it ran
    current = [set()]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            current[0].add(frame.f_code)

    def run(label, *argv, stdin=""):
        current[0] = ran[label] = set()
        out, old_stdin = io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                return cli.main(list(argv)), out.getvalue()
        finally:
            sys.stdin = old_stdin

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        construct = ("construct", "--set", "0,1,2,3,4,5,6,7", "--seed", "1", "--emit-twist")
        code, quadric = run("quadric", *construct, "--method", "quadric")
        assert code == 0
        code, plane = run("plane --param", *construct, "--method", "plane", "--param=1,-2,0,1,2")
        assert code == 0
        assert run("verify", "verify", "--from-json", "-", stdin=quadric + plane)[0] == 0
        doc = json.loads(plane)
        doc["poly"][0] = str(int(doc["poly"][0]) + 1)
        assert run("verify failing", "verify", "--from-json", "-", stdin=json.dumps(doc))[0] == 3
        assert run("search", "search", "--set", "0,1,2", "--max-degree", "1", "--max-height", "5")[0] == 0
        current[0] = ran["quick start"] = set()
        exec(readme_quick_start(), {})
    finally:
        sys.setprofile(old)
    functions = {name: getattr(diopoly, name) for name in diopoly.__all__}
    functions = {name: f for name, f in functions.items() if inspect.isfunction(f)}
    assert sorted(functions) == [
        "brute_force_search",
        "classify_trivial",
        "construct_witness",
        "integer_sqrt",
        "twist_points",
        "verify_witness",
    ]
    ran_by = {name: {label for label, codes in ran.items() if f.__code__ in codes} for name, f in functions.items()}
    assert sorted(name for name, labels in ran_by.items() if not labels) == []
