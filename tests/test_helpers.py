"""Every public function in ``helpers`` is imported by some test module, and
every private one is referenced somewhere in ``tests/``, so a reference
that no comparison uses any more cannot linger, nor a piece of one."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
HELPERS = ast.parse((TESTS / "helpers.py").read_text())
FUNCTIONS = {node.name for node in HELPERS.body if isinstance(node, ast.FunctionDef)}


def test_every_public_helper_is_used():
    public = {name for name in FUNCTIONS if not name.startswith("_")}
    imported = set()
    for path in TESTS.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "helpers":
                imported.update(alias.name for alias in node.names)
    assert public, "no public helper found"
    assert sorted(public - imported) == []


def test_every_private_helper_is_used():
    private = {name for name in FUNCTIONS if name.startswith("_")}
    named = set()
    for path in TESTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert private, "no private helper found"
    assert sorted(private - named) == []
