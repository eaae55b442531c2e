"""The public names of every module resolve."""

import importlib
import pkgutil

import pytest

import qheatnet

MODULES = ["qheatnet"] + [f"qheatnet.{m.name}" for m in pkgutil.iter_modules(qheatnet.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
