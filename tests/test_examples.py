"""The examples import only names the package really exports.

Examples are not run by the suite, so a renamed or deleted name would
break them silently; this resolves every ``from repro... import ...``.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


def _repro_imports(path: pathlib.Path) -> list[tuple[str, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.split(".")[0] == "repro"
        for alias in node.names
    ]


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    for module_name, name in _repro_imports(path):
        module = importlib.import_module(module_name)
        if not hasattr(module, name):
            # ``from package import submodule`` is fine too.
            importlib.import_module(f"{module_name}.{name}")
