"""Every demo imports against the current API.

Each demo runs its experiment only under ``__main__``, so importing one
executes its imports and definitions and nothing else; a removed or renamed
library name then fails here instead of in a demo nobody ran.
"""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # raises on a name zodd no longer has
