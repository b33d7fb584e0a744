import os
from pathlib import Path

import pytest

import diopoly
from diopoly import forge
from oracles import node_identity_breaks

# witnesses this pytest run checked at every node
_checked = 0


@pytest.fixture(scope="session")
def cli_env():
    """Environment for `python -m diopoly` subprocesses: the package the
    tests import goes first on PYTHONPATH, so a checkout needs no install."""
    paths = [str(Path(diopoly.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


@pytest.fixture(scope="session", autouse=True)
def node_identity_at_every_node():
    """Every witness forge._build_witness returns in this process, through
    construct_witness, the CLI or oracles.witness_by_kernel, must satisfy
    the node identity at every node of its config: construction itself
    evaluates f only at the tail nodes."""
    build = forge._build_witness

    def checked(*args):
        global _checked
        w = build(*args)
        bad = node_identity_breaks(w)
        assert not bad, f"node identity fails at nodes {bad[:5]} of {w.method} on {w.elements[:5]}..."
        _checked += 1
        return w

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forge, "_build_witness", checked)
        yield


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(f"node identity checked at every node of {_checked} witnesses")
