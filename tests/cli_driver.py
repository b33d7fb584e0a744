"""Run diopoly's CLI in process, as the tests drive it."""

import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from diopoly.cli import main


def run_cli(*argv, stdin=None):
    """main on argv, with stdin a file that holds the text stdin; verify
    reads stdin from its descriptor, as it reads a file."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = tempfile.TemporaryFile("w+", encoding="utf-8")
        sys.stdin.write(stdin)
        sys.stdin.seek(0)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    finally:
        if stdin is not None:
            sys.stdin.close()
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()
