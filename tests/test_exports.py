"""Every public package lists each exported name once, each resolves, and
each has a reader outside the tests; every private helper of the package
has a reader in it."""
import ast
import importlib
import re
from collections import Counter
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


def _reads(tree):
    """Every name read in `tree`, as a name or an attribute, once per read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def _referenced_names() -> set:
    """Every name read, as a name or an attribute, in a `src/swarmplan`
    module other than a package `__init__.py`, and every word of
    `scripts/` and `perfbench/`, whose hooks name their targets in
    strings. A definition does not read its own name."""
    names = set()
    for path in (ROOT / "src" / "swarmplan").rglob("*.py"):
        if path.name != "__init__.py":
            names.update(_reads(ast.parse(path.read_text())))
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


def test_every_private_helper_has_a_reader_in_the_package():
    """A module-private function or class (`_name`) defined under
    `src/swarmplan` is read, as a name or an attribute, somewhere in
    `src/swarmplan` outside its own definition: a helper whose last
    caller went is deleted with it."""
    defined, reads = [], Counter()
    for path in (ROOT / "src" / "swarmplan").rglob("*.py"):
        tree = ast.parse(path.read_text())
        reads.update(_reads(tree))
        defined += [(path.relative_to(ROOT), node) for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")]
    # Reads inside the definition itself (recursion) do not count.
    unread = [f"{path}:{node.name}" for path, node in defined
              if reads[node.name] == Counter(_reads(node))[node.name]]
    assert unread == []
