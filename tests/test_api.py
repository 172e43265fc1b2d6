"""Every public function is reached by the program, a demo or the bench."""

import ast
import inspect
from pathlib import Path

import expanse

ROOT = Path(__file__).resolve().parent.parent


def _references(path: Path) -> set:
    """Names a file uses, each outside the function that defines it."""
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = node.name
        if isinstance(node, ast.Name) and node.id != inside:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != inside:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text()), None)
    return used


def test_every_public_function_is_used_outside_tests():
    files = [*(ROOT / "src" / "expanse").glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "bench").glob("*.py")]
    # the package's own re-exports are not a use
    used = set().union(*(_references(p) for p in files if p.name != "__init__.py"))
    public = [name for name in expanse.__all__ if inspect.isfunction(getattr(expanse, name))]
    assert public
    assert [name for name in public if name not in used] == []
