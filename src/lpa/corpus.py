"""Bundled graphs used by the test suite, the scripts, and as CLI fixtures."""

from __future__ import annotations

from importlib import resources

from . import graphs

NAMES = (
    "toeplitz",
    "r1",
    "r2",
    "r3",
    "a2",
    "a3",
    "a4",
    "a5",
    "ex11",
    "ex35",
    "ex62",
)


def graph_text(name):
    if name not in NAMES:
        raise KeyError(f"unknown corpus graph {name!r}")
    return (resources.files(__package__) / "corpus" / f"{name}.lpa").read_text()


def load(name):
    return graphs.parse_graph(graph_text(name))


def line_graph(n):
    """The oriented n-line graph: v1 -> v2 -> ... -> vn."""
    if n < 1:
        raise ValueError("line graph needs n >= 1")
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(1, n)]
    return graphs.make_graph(f"a{n}", vertices, edges)
