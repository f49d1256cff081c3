"""Every module's ``__all__`` names what the module defines.

A stale name in ``__all__`` fails only on a star import, which no other
test makes, so each module of the package is star-imported here.
"""

import importlib
import pkgutil

import pytest

import rqode

MODULES = ["rqode"] + ["rqode." + info.name
                       for info in pkgutil.iter_modules(rqode.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_all(name):
    namespace = {}
    exec("from %s import *" % name, namespace)
    exported = getattr(importlib.import_module(name), "__all__", ())
    assert [n for n in exported if n not in namespace] == []
