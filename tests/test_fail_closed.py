"""Library checks must survive ``python -O``: no ``assert`` in ``src/lpa``.
Linear combinations are summed by one ``add_scaled`` call, never by a loop
of repeated ``+`` or ``-`` or by ``sum`` with a start value, each of which
re-assembles the running sum once per term."""

import ast
import pathlib

import lpa


def _library_trees():
    root = pathlib.Path(lpa.__file__).parent
    for path in sorted(root.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_library_has_no_assert_statements():
    found = []
    for name, tree in _library_trees():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def _accumulates(node):
    """``name = name + ...`` or ``name = name - ...``, either side of a
    conditional expression included."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)):
        return False
    values = [node.value]
    if isinstance(node.value, ast.IfExp):
        values = [node.value.body, node.value.orelse]
    return any(isinstance(v, ast.BinOp) and isinstance(v.op, (ast.Add, ast.Sub))
               and isinstance(v.left, ast.Name) and v.left.id == node.targets[0].id
               for v in values)


def _sum_with_start(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
            and (len(node.args) > 1 or any(k.arg == "start" for k in node.keywords)))


def test_library_has_no_repeated_sum_loops():
    found = set()   # a set: nested loops walk the same statement twice
    for name, tree in _library_trees():
        for loop in ast.walk(tree):
            if isinstance(loop, (ast.For, ast.While)):
                found.update(f"{name}:{node.lineno}" for node in ast.walk(loop)
                             if _accumulates(node))
        found.update(f"{name}:{node.lineno}" for node in ast.walk(tree)
                     if _sum_with_start(node))
    assert not found, sorted(found)
