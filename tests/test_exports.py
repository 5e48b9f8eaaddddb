"""Every public package lists each exported name once, and each resolves."""
import importlib

import pytest


@pytest.mark.parametrize("name", ["assign", "battle", "harness", "learn", "nets", "rescue"])
def test_all_lists_resolve(name):
    module = importlib.import_module(f"swarmplan.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
