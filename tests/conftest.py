import os
from pathlib import Path

import pytest

import diopoly


@pytest.fixture(scope="session")
def cli_env():
    """Environment for `python -m diopoly` subprocesses: the package the
    tests import goes first on PYTHONPATH, so a checkout needs no install."""
    paths = [str(Path(diopoly.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
