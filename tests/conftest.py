import random

import pytest

from lpa import algebra, corpus, fields


@pytest.fixture(scope="session")
def Q():
    return fields.rationals()


@pytest.fixture(scope="session")
def F5():
    return fields.prime_field(5)


@pytest.fixture(scope="session")
def Qt():
    return fields.parse_descriptor("Q(t)")


@pytest.fixture(scope="session")
def F5st():
    return fields.parse_descriptor("F5(s,t)")


@pytest.fixture(scope="session")
def Qi():
    return fields.parse_descriptor("Q[x]/(x^2+1)")


@pytest.fixture(scope="session")
def graphs_by_name():
    return {name: corpus.load(name) for name in corpus.NAMES}


@pytest.fixture()
def rng():
    return random.Random(20240811)


def complete_digraph(n):
    """Graph text of K_n: n vertices and an edge between each ordered pair of
    distinct vertices, so sum_k C(n, k) (k - 1)! cycles (409 for n = 6)."""
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = [(a, b) for a in vertices for b in vertices if a != b]
    return (f"graph K{n}\n" + "".join(f"vertex {v}\n" for v in vertices)
            + "".join(f"edge e{k} {a} {b}\n" for k, (a, b) in enumerate(edges, 1)))


def gens(g, field, mode=algebra.LEAVITT):
    """Convenience bundle: identity, vertices, edges, ghosts."""
    out = {"1": algebra.identity(g, field, mode)}
    for v in g.vertices:
        out[v] = algebra.vertex_element(g, field, v, mode)
    for e in g.edge_map:
        out[e] = algebra.edge_element(g, field, e, mode)
        out[e + "*"] = algebra.ghost_element(g, field, e, mode)
    return out
