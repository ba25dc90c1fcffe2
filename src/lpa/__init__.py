"""Exact symbolic computation in Leavitt and Cohn path algebras."""

from . import algebra, corpus, exprs, fields, freegroups, graphs, ideals, linalg, polys, reps, toeplitz

__all__ = [
    "algebra",
    "corpus",
    "exprs",
    "fields",
    "freegroups",
    "graphs",
    "ideals",
    "linalg",
    "polys",
    "reps",
    "toeplitz",
]
