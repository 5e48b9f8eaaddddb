"""Every public package lists each exported name once, each resolves, and
each has a reader outside the tests."""
import ast
import importlib
import re
from pathlib import Path

import pytest

PACKAGES = ["assign", "battle", "harness", "learn", "nets", "rescue"]
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_lists_resolve(name):
    module = importlib.import_module(f"swarmplan.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def _referenced_names() -> set:
    """Every name read, as a name or an attribute, in a `src/swarmplan`
    module other than a package `__init__.py`, and every word of
    `scripts/` and `perfbench/`, whose hooks name their targets in
    strings. A definition does not read its own name."""
    names = set()
    for path in (ROOT / "src" / "swarmplan").rglob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
    for folder in ("scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            names.update(re.findall(r"\w+", path.read_text()))
    return names


def test_every_export_has_a_reader_outside_the_tests():
    """Code that only tests call lives in `tests/`, not in the package."""
    referenced = _referenced_names()
    unread = [f"{name}.{n}" for name in PACKAGES
              for n in importlib.import_module(f"swarmplan.{name}").__all__
              if n not in referenced]
    assert unread == []
