"""Library checks must survive ``python -O``: no ``assert`` in ``src/lpa``."""

import ast
import pathlib

import lpa


def test_library_has_no_assert_statements():
    root = pathlib.Path(lpa.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
