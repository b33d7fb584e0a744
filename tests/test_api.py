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


def test_no_module_imports_fractions():
    """Every number the package computes is an int: no module imports
    fractions, the twist block's ordinates included."""
    importers = []
    for path in sorted(Path(diopoly.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "fractions" for name in names):
                importers.append(path.name)
    assert importers == []


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
        'twist_points(w)["points"]': [{"x": "0", "y": "1"}, {"x": "1", "y": "5"}, {"x": "2", "y": "7"}],
    }
    assert namespace["report"].ok is True


class Profiled:
    """Runs calls under sys.setprofile and records, per label, the code
    objects of the package that each call ran.  Entering clears the
    package's caches, so a parser, a config or a residue table that an
    earlier test built is built again under the profile."""

    package = str(Path(diopoly.__file__).resolve().parent)

    def __init__(self):
        self.ran = {}  # label of a call -> the code objects of the package it ran
        self.current = set()

    def profile(self, frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(self.package):
            self.current.add(frame.f_code)

    def __enter__(self):
        for name in MODULES:
            for value in vars(importlib.import_module(name)).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
        self.old = sys.getprofile()
        sys.setprofile(self.profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(self.old)

    def label(self, label):
        self.current = self.ran[label] = set()

    def main(self, label, *argv, stdin=""):
        """cli.main on argv with stdin; returns (exit code, stdout)."""
        self.label(label)
        out, old_stdin = io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                return cli.main(list(argv)), out.getvalue()
        finally:
            sys.stdin = old_stdin


def run_commands(p):
    """The calls the package serves: construct with both methods,
    --emit-twist and a plane --param with k + 2 nonzero coordinates, verify
    on a passing and a failing document, search, and the README quick
    start."""
    construct = ("construct", "--set", "0,1,2,3,4,5,6,7", "--seed", "1", "--emit-twist")
    code, quadric = p.main("quadric", *construct, "--method", "quadric")
    assert code == 0
    code, plane = p.main("plane --param", *construct, "--method", "plane", "--param=1,-2,0,1,2")
    assert code == 0
    assert p.main("verify", "verify", "--from-json", "-", stdin=quadric + plane)[0] == 0
    doc = json.loads(plane)
    doc["poly"][0] = str(int(doc["poly"][0]) + 1)
    assert p.main("verify failing", "verify", "--from-json", "-", stdin=json.dumps(doc))[0] == 3
    assert p.main("search", "search", "--set", "0,1,2", "--max-degree", "1", "--max-height", "5")[0] == 0
    p.label("quick start")
    exec(readme_quick_start(), {})


def test_every_export_runs():
    """Every function in diopoly.__all__ runs, with sys.setprofile recording
    per call the code of the package it ran, under the calls the package
    serves (run_commands).  Only the package-level __all__ is covered here;
    test_every_function_runs covers every function of the package."""
    with Profiled() as p:
        run_commands(p)
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
    ran_by = {name: {label for label, codes in p.ran.items() if f.__code__ in codes} for name, f in functions.items()}
    assert sorted(name for name, labels in ran_by.items() if not labels) == []


def defined_functions():
    """(file name, name, first line) of every function, method and property
    defined in the package's source files, read off their compiled code;
    class bodies, comprehensions and generator expressions are not counted.
    The name is co_name: co_qualname is new in Python 3.11."""
    found = set()
    for path in Path(Profiled.package).glob("*.py"):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if inspect.iscode(c)]
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                found.add((path.name, code.co_name, code.co_firstlineno))
    return found


# the only functions of the package that no call below runs
UNRUN = {
    # the console script `diopoly`: CI runs it, installed, from outside the checkout
    ("cli.py", "entrypoint"),
    # only a coefficient of more than INPUT_DIGITS_CAP digits reaches it
    ("cli.py", "_digit_count"),
}


def test_every_function_runs():
    """Every function, method and property defined in src/diopoly runs under
    the calls the package serves (run_commands), the benchmark setup's
    cli.witness_document, and one error path per exit code: a bad integer
    field, an unknown option and a refused search box (1), sampling
    exhaustion (2), and a trivial-family resample, on which
    forge.poly_square_root finds a root.  A function that none of them runs
    is code no command needs, except the two of UNRUN."""
    with Profiled() as p:
        run_commands(p)
        p.label("witness_document")
        w = diopoly.construct_witness(range(8), "plane", seed=1)
        assert cli.witness_document(w, include_twist=True)["method"] == "plane"
        assert p.main("bad integer", "construct", "--set", "0,x,2")[0] == 1
        assert p.main("unknown option", "construct", "--set", "0,1,2", "--bogus")[0] == 1
        assert p.main("refused box", "search", "--set", "0,1,2", "--max-degree", "9", "--max-height", "99")[0] == 1
        # the one draw of seed 77 on 0..2 gives an image in the plane
        exhausted = ("--set", "0,1,2", "--seed", "77", "--max-attempts", "1")
        assert p.main("exhaustion", "construct", *exhausted)[0] == 2
        assert p.main("trivial resample", "construct", "--set", "0,1,2,3", "--seed", "76")[0] == 0
    ran = {(Path(c.co_filename).name, c.co_name, c.co_firstlineno) for codes in p.ran.values() for c in codes}
    unrun = sorted(defined_functions() - ran)
    assert [(path, name) for path, name, _ in unrun] == sorted(UNRUN), unrun
