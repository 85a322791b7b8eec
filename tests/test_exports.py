"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import zodd


def test_every_exported_name_resolves():
    names = ["zodd"] + [f"zodd.{info.name}" for info in pkgutil.iter_modules(zodd.__path__)]
    assert len(names) >= 11
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
