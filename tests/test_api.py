"""The public API: every name an export list promises exists, so
`from diopoly.<module> import *` succeeds for the package and each module."""

import importlib
import pkgutil

import pytest

import diopoly

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
