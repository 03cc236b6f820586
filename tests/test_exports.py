"""Every name in a module's `__all__` exists, so `import *` and the
documented surface do not name a deleted function or type."""

import importlib
import pkgutil

import pytest

import ndfreg

MODULES = ["ndfreg"] + [m.name for m in pkgutil.iter_modules(ndfreg.__path__, "ndfreg.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
