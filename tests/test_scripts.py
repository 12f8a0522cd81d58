"""Smoke test of ``scripts/*.py``: each loads, and the pd4g names it uses exist.

``runpy.run_path`` with a run name other than ``__main__`` executes a
script's top level (its imports and constants) without its main block; the
attributes the script reads from pd4g modules are then looked up, so a
renamed name fails here rather than when the script is next run.
"""

import re
import runpy
import types
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_loads(path):
    namespace = runpy.run_path(str(path), run_name="smoke")
    for module, name in re.findall(r"\b(\w+)\.(\w+)", path.read_text()):
        value = namespace.get(module)
        if isinstance(value, types.ModuleType) and value.__name__.startswith("pd4g"):
            assert hasattr(value, name), f"{path.name} uses {module}.{name}, which does not exist"


def test_scripts_are_found():
    assert SCRIPTS, "no scripts/*.py found"
