"""Hypothesis property tests over randomly generated graphs and elements."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import sampling
from lpa import algebra, fields, freegroups, graphs

VERTEX_POOL = ("a", "b", "c", "d")
EDGE_POOL = ("p", "q", "r", "s", "t2")


@st.composite
def small_graphs(draw):
    nv = draw(st.integers(1, 4))
    vertices = VERTEX_POOL[:nv]
    ne = draw(st.integers(0, 5))
    edges = []
    for i in range(ne):
        src = draw(st.sampled_from(vertices))
        dst = draw(st.sampled_from(vertices))
        edges.append((EDGE_POOL[i], src, dst))
    bundles = []
    if draw(st.booleans()):
        bundles.append(
            (draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)))
        )
    return graphs.make_graph("h", vertices, edges, bundles)


@st.composite
def graphs_up_to_six(draw):
    """Up to six vertices and nine edges, with loops, parallel edges, up to
    two bundles and a drawn edge order at every vertex."""
    vertices = tuple(f"v{i}" for i in range(draw(st.integers(1, 6))))
    vertex = st.sampled_from(vertices)
    edges = [(f"e{i}", draw(vertex), draw(vertex)) for i in range(draw(st.integers(0, 9)))]
    bundles = draw(st.lists(st.tuples(vertex, vertex), max_size=2))
    order = {}
    for v in vertices:
        out = [name for name, src, _ in edges if src == v]
        order[v] = draw(st.permutations(out))
    return graphs.make_graph("h", vertices, edges, bundles, order)


@given(graphs_up_to_six(), st.data())
@settings(max_examples=150, deadline=None)
def test_iterative_graph_walks_match_recursive_oracles(g, data):
    cycles = graphs.simple_cycles(g)
    assert cycles == oracles.recursive_simple_cycles(g)
    assert g.cycles == tuple(oracles.recursive_simple_cycles(g))
    assert graphs.is_downward_directed(g) == oracles.pairwise_downward_directed(g)
    for c in cycles:
        assert graphs.cycle_has_exit(g, c) == (graphs.cycle_exit(g, c) is not None)
        assert graphs.is_exclusive_cycle(g, c) == oracles.enumerated_exclusive_cycle(g, c)
    drawn = data.draw(st.sets(st.sampled_from(sorted(g.edge_map)))) if g.edges else set()
    for excluded in (drawn, {e for c in cycles for e in c.edges}):
        expect = oracles.recursive_paths_into(g, excluded)
        if expect is None:
            with pytest.raises(freegroups.WitnessError):
                freegroups._paths_into(g, excluded)
        else:
            assert freegroups._paths_into(g, excluded) == expect


@given(small_graphs())
@settings(max_examples=120, deadline=None)
def test_roundtrip_serialize_parse(g):
    assert graphs.parse_graph(graphs.serialize_graph(g)) == g


@given(small_graphs())
@settings(max_examples=120, deadline=None)
def test_reaches_reflexive_transitive(g):
    for u in g.vertices:
        assert graphs.reaches(g, u, u)
    for u in g.vertices:
        for v in g.vertices:
            for w in g.vertices:
                if graphs.reaches(g, u, v) and graphs.reaches(g, v, w):
                    assert graphs.reaches(g, u, w)
    for v in g.vertices:
        M = graphs.M_of_vertex(g, v)
        assert M == {w for w in g.vertices if graphs.reaches(g, w, v)}


@given(small_graphs(), st.sets(st.sampled_from(VERTEX_POOL), max_size=4))
@settings(max_examples=120, deadline=None)
def test_hs_closure_is_a_closure(g, seed_set):
    X = {v for v in seed_set if v in g.vertices}
    H = graphs.hs_closure(g, X)
    assert X <= H
    assert graphs.is_hereditary(g, H)
    assert graphs.is_saturated(g, H)
    assert graphs.hs_closure(g, H) == H
    # monotone in the seed
    for extra in g.vertices:
        assert H <= graphs.hs_closure(g, X | {extra}) | H


@given(small_graphs())
@settings(max_examples=100, deadline=None)
def test_condition_l_matches_definition(g):
    cycles = graphs.simple_cycles(g)
    assert graphs.condition_L(g) == all(graphs.cycle_has_exit(g, c) for c in cycles)


@given(small_graphs(), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_star_involution_and_antimultiplicativity(g, seed):
    Q = fields.rationals()
    rng = random.Random(seed)
    x = sampling.random_element(rng, g, Q)
    y = sampling.random_element(rng, g, Q)
    assert algebra.star(algebra.star(x)) == x
    assert algebra.star(x * y) == algebra.star(y) * algebra.star(x)


@given(small_graphs(), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_ring_distributivity_on_random_graphs(g, seed):
    Q = fields.rationals()
    rng = random.Random(seed)
    x = sampling.random_element(rng, g, Q, max_terms=2, max_len=2)
    y = sampling.random_element(rng, g, Q, max_terms=2, max_len=2)
    z = sampling.random_element(rng, g, Q, max_terms=2, max_len=2)
    assert (x * y) * z == x * (y * z)
    assert (x + y) * z == x * z + y * z
    one = algebra.identity(g, Q)
    assert one * x == x == x * one


@given(
    st.fractions(min_value=-60, max_value=60, max_denominator=40),
    st.fractions(min_value=-60, max_value=60, max_denominator=40),
    st.fractions(min_value=-60, max_value=60, max_denominator=40),
)
def test_rational_field_axioms(a, b, c):
    Q = fields.rationals()
    x, y, z = (fields.from_fraction(Q, v) for v in (a, b, c))
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    if not x.is_zero():
        assert x * x.inverse() == fields.one(Q)


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_fp_field_ops(a, b):
    F7 = fields.prime_field(7)
    x, y = fields.from_int(F7, a), fields.from_int(F7, b)
    assert x + y == y + x
    assert (x * y).payload == (a * b) % 7
    if not x.is_zero():
        assert x * x.inverse() == fields.one(F7)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_function_field_payload_canonical(seed):
    Qt = fields.parse_descriptor("Q(t)")
    rng = random.Random(seed)
    a = sampling.random_scalar(rng, Qt)
    b = sampling.random_scalar(rng, Qt)
    assert (a + b).payload == (b + a).payload
    assert (a * b).payload == (b * a).payload
    if not b.is_zero():
        assert (a / b) * b == a
