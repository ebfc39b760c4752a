"""Every public function in ``helpers`` is imported by some test module, so
a reference that no comparison uses any more cannot linger."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_every_public_helper_is_used():
    tree = ast.parse((TESTS / "helpers.py").read_text())
    public = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    imported = set()
    for path in TESTS.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "helpers":
                imported.update(alias.name for alias in node.names)
    assert public, "no public helper found"
    assert sorted(public - imported) == []
