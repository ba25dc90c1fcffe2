"""Simple-module actions: Chen, sink, emitter, and the twisted variant."""

import random

import pytest

import oracles
import sampling
from conftest import gens
from lpa import algebra, fields, graphs, ideals, reps
from test_algebra import relation_differences


def test_canonicalize_rational(graphs_by_name):
    t = graphs_by_name["toeplitz"]
    b = reps.canonicalize_rational(t, (), ("e",), 0)
    assert b == reps.RationalTail((), ("e",), 0)
    assert reps.canonicalize_rational(t, ("e",), ("e",), 0) == b
    assert reps.canonicalize_rational(t, ("e", "e", "e"), ("e",), 0) == b
    with pytest.raises((reps.ModuleError, graphs.GraphError)):
        reps.canonicalize_rational(t, ("f",), ("e",), 0)      # r(f) = v != u


def test_canonicalize_longer_cycle(Q):
    g = graphs.parse_graph(
        "graph g\nvertex a\nvertex b\nedge p a b\nedge q b a\n"
    )
    c = ("p", "q")
    assert reps.canonicalize_rational(g, (), c, 1) == reps.RationalTail((), c, 1)
    # prefix p enters phase 1's start (b); it is absorbed by rotating back
    absorbed = reps.canonicalize_rational(g, ("p",), c, 1)
    assert absorbed == reps.RationalTail((), c, 0)
    # idempotent, and truncation equality detects equal tails
    again = reps.canonicalize_rational(
        g, absorbed.prefix, absorbed.cycle, absorbed.phase
    )
    assert again == absorbed


def test_canonical_iff_truncations_agree(graphs_by_name):
    """Two rational tails denote the same infinite path iff their canonical
    forms agree, iff truncations to twice the combined data length agree."""
    g = graphs_by_name["ex62"]
    tails = []
    for prefix in ((), ("g",), ("e2", "g"), ("f2",), ("g", "e")):
        for cycle, phase in ((("e",), 0), (("e2",), 0)):
            try:
                tails.append(reps.canonicalize_rational(g, prefix, cycle, phase))
            except (reps.ModuleError, graphs.GraphError):
                pass
    assert len(tails) >= 5
    for p in tails:
        for q in tails:
            n = 2 * (
                max(len(p.prefix), len(q.prefix))
                + max(len(p.cycle), len(q.cycle))
            )
            trunc_p = [p.edge_at(g, i) for i in range(n)]
            trunc_q = [q.edge_at(g, i) for i in range(n)]
            assert (trunc_p == trunc_q) == (p == q), (p, q)


def test_act_rules_chen(graphs_by_name, Q):
    t = graphs_by_name["toeplitz"]
    V = reps.chen_module(t, Q, ("e",))
    m = reps.basis_vector(V, reps.canonicalize_rational(t, (), ("e",), 0))
    G = gens(t, Q)
    assert reps.act(G["e*"], m) == m           # strips one period edge
    assert reps.act(G["e"], m) == m            # prepend absorbs
    assert reps.act(G["u"], m) == m
    assert reps.act(G["v"], m).is_zero()
    assert reps.act(G["f*"], m).is_zero()


def test_act_rules_with_prefix(graphs_by_name, Q):
    g = graphs_by_name["ex62"]
    V = reps.chen_module(g, Q, ("e",))
    tail = reps.basis_vector(V, reps.canonicalize_rational(g, (), ("e",), 0))
    G = gens(g, Q)
    shifted = reps.act(G["g"], tail)           # g . e^inf
    assert not shifted.is_zero()
    assert reps.act(G["g*"], shifted) == tail  # g* . (g e^inf) = e^inf
    assert reps.act(G["g*"], tail).is_zero()   # e^inf does not start with g


def test_act_matches_ck1_on_samples(graphs_by_name, Q, rng):
    g = graphs_by_name["ex62"]
    V = reps.chen_module(g, Q, ("e",))
    G = gens(g, Q)
    basis = reps.sample_basis(V, 50)
    for b in basis:
        m = reps.basis_vector(V, b)
        for e in g.edge_map:
            for f in g.edge_map:
                lhs = reps.act(G[e + "*"] * G[f], m)
                rhs = reps.act(G[e + "*"], reps.act(G[f], m))
                assert lhs == rhs


def _module_fixtures(graphs_by_name, Q):
    t = graphs_by_name["toeplitz"]
    e11 = graphs_by_name["ex11"]
    return [
        reps.chen_module(t, Q, ("e",)),
        reps.sink_module(t, Q, "v"),
        reps.emitter_module(e11, Q, "v"),
        reps.chen_module(graphs_by_name["ex62"], Q, ("e",)),
    ]


def test_representation_property(graphs_by_name, Q):
    """Every defining relation annihilates sampled basis vectors."""
    for module in _module_fixtures(graphs_by_name, Q):
        basis = reps.sample_basis(module, 50)
        assert basis
        rels = relation_differences(module.graph, Q, algebra.LEAVITT)
        for rel in rels:
            for b in basis:
                assert reps.act(rel, reps.basis_vector(module, b)).is_zero()


def test_action_is_multiplicative(graphs_by_name, Q):
    rng = random.Random(13)
    for module in _module_fixtures(graphs_by_name, Q):
        basis = reps.sample_basis(module, 10)
        for _ in range(25):
            x = sampling.random_element(rng, module.graph, Q)
            y = sampling.random_element(rng, module.graph, Q)
            m = reps.basis_vector(module, rng.choice(basis))
            assert reps.act(x * y, m) == reps.act(x, reps.act(y, m))
            assert reps.act(x + y, m) == reps.act(x, m) + reps.act(y, m)


def test_identity_acts_as_identity(graphs_by_name, Q):
    for module in _module_fixtures(graphs_by_name, Q):
        one = algebra.identity(module.graph, Q)
        for b in reps.sample_basis(module, 8):
            m = reps.basis_vector(module, b)
            assert reps.act(one, m) == m


def test_sink_module(graphs_by_name, Q):
    t = graphs_by_name["toeplitz"]
    N = reps.sink_module(t, Q, "v")
    G = gens(t, Q)
    w0 = reps.basis_vector(N, reps.FinitePath((), "v"))
    # ghost edges kill the bare sink vector
    assert reps.act(G["e*"], w0).is_zero()
    assert reps.act(G["f*"], w0).is_zero()
    fpath = reps.act(G["f"], w0)
    assert fpath == reps.basis_vector(N, reps.FinitePath(("f",), "v"))
    assert reps.act(G["f*"], fpath) == w0
    with pytest.raises(reps.ModuleError):
        reps.sink_module(t, Q, "u")


def test_emitter_module(graphs_by_name, Q):
    g = graphs_by_name["ex11"]
    S = reps.emitter_module(g, Q, "v")
    v0 = reps.basis_vector(S, reps.FinitePath((), "v"))
    G = gens(g, Q)
    # S_{e*}(v) = 0 at the bare vertex
    for e in g.edge_map:
        assert reps.act(G[e + "*"], v0).is_zero()
    assert reps.act(G["v"], v0) == v0
    # ex11's v has no incoming edges: the basis is just {v}
    assert reps.sample_basis(S, 50) == [reps.FinitePath((), "v")]
    with pytest.raises(reps.ModuleError):
        reps.emitter_module(g, Q, "v3")
    # a richer emitter module: w also receives f, g, h
    Sw = reps.emitter_module(g, Q, "w")
    assert len(reps.sample_basis(Sw, 12)) == 12


def test_sample_basis_matches_two_branch_oracle(graphs_by_name, Q, Qi):
    """One breadth-first walk over in-edges samples every module kind as the
    separate rational-tail and finite-path walks over all edges did."""
    modules = [reps.chen_module(graphs_by_name["toeplitz"], Qi, ("e",), twist_edge="e")]
    for g in graphs_by_name.values():
        modules += [reps.chen_module(g, Q, c) for c in g.cycles]
        for v in g.vertices:
            kind = graphs.classify_vertex(g, v)
            if kind == graphs.SINK:
                modules.append(reps.sink_module(g, Q, v))
            elif kind == graphs.INFINITE_EMITTER:
                modules.append(reps.emitter_module(g, Q, v))
    assert {m.kind for m in modules} == {"chen", "sink", "emitter"}
    for module in modules:
        for count in (1, 5, 50):
            assert reps.sample_basis(module, count) == oracles.sample_basis(module, count)


def test_twist_is_an_automorphism(graphs_by_name, Qi):
    t = graphs_by_name["toeplitz"]
    twist = reps.TwistSpec("e", ("e",))
    for rel in relation_differences(t, Qi, algebra.LEAVITT):
        assert reps.sigma_substitute(twist, rel).is_zero()
    rng = random.Random(3)
    for _ in range(20):
        x = sampling.random_element(rng, t, Qi)
        y = sampling.random_element(rng, t, Qi)
        assert reps.sigma_substitute(twist, x * y) == reps.sigma_substitute(
            twist, x
        ) * reps.sigma_substitute(twist, y)


def test_twisted_action(graphs_by_name, Qi):
    t = graphs_by_name["toeplitz"]
    V = reps.chen_module(t, Qi, ("e",), twist_edge="e")
    b = reps.basis_vector(V, reps.canonicalize_rational(t, (), ("e",), 0))
    G = gens(t, Qi)
    xb = fields.xbar(Qi)
    # e acts as xbar . (prepend), and e* e acts as the identity
    assert reps.act(G["e"], b) == b.scale(xb)
    assert reps.act(G["e*"] * G["e"], b) == b
    assert reps.act(G["e*"], b) == b.scale(xb.inverse())
    # relations still annihilate, and the action is multiplicative
    for rel in relation_differences(t, Qi, algebra.LEAVITT):
        assert reps.act(rel, b).is_zero()
    rng = random.Random(5)
    for _ in range(20):
        x = sampling.random_element(rng, t, Qi)
        y = sampling.random_element(rng, t, Qi)
        assert reps.act(x * y, b) == reps.act(x, reps.act(y, b))
    # xbar-scaling commutes with the twisted action
    for _ in range(10):
        x = sampling.random_element(rng, t, Qi)
        assert reps.act(x, b.scale(xb)) == reps.act(x, b).scale(xb)


def test_twist_validation(graphs_by_name, Q, Qi):
    t = graphs_by_name["toeplitz"]
    with pytest.raises(reps.ModuleError):
        reps.chen_module(t, Q, ("e",), twist_edge="e")      # not an extension
    with pytest.raises(reps.ModuleError):
        reps.chen_module(t, Qi, ("e",), twist_edge="f")     # f not on the cycle
    r2 = graphs_by_name["r2"]
    with pytest.raises(reps.ModuleError):
        reps.chen_module(r2, Qi, ("e1",), twist_edge="e1")  # not exclusive


def test_align_examples(graphs_by_name):
    g = graphs_by_name["ex62"]
    p = reps.canonicalize_rational(g, (), ("e",), 0)
    q = reps.canonicalize_rational(g, ("g",), ("e",), 0)
    out = reps.align_tail_equivalent(g, p, q)
    assert out.status == "aligned"
    assert out.edge == "g" and out.base == p and out.edge_side == "q"
    # swapped order reports the edge on the p side
    out2 = reps.align_tail_equivalent(g, q, p)
    assert out2.status == "aligned" and out2.edge == "g" and out2.edge_side == "p"
    assert reps.align_tail_equivalent(g, p, p).status == "equal"
    p2 = reps.canonicalize_rational(g, (), ("e2",), 0)
    assert reps.align_tail_equivalent(g, p, p2).status == "not_equivalent"


def test_align_deeper(graphs_by_name):
    g = graphs_by_name["ex62"]
    p = reps.canonicalize_rational(g, ("f2",), ("e2",), 0)
    q = reps.canonicalize_rational(g, (), ("e2",), 0)
    out = reps.align_tail_equivalent(g, p, q)
    assert out.status == "aligned"
    assert out.edge == "f2" and out.base == q and out.edge_side == "p"


def test_kernel_annihilates_pulled_back_quotient_module(graphs_by_name, Q):
    """Restrict the quotient graph's sink module along the epimorphism: the
    kernel generators of (H, S) then act as zero."""
    g = graphs_by_name["ex11"]
    spec = ideals.admissible_pair(g, ("v1", "v2"), ("v",))
    qm = ideals.make_quotient_map(g, spec, Q)
    module = reps.sink_module(qm.target, Q, "w_q")
    basis = reps.sample_basis(module, 25)
    for gen in ideals.kernel_generators(g, spec, Q):
        image = ideals.phi_apply(qm, gen)
        for b in basis:
            assert reps.act(image, reps.basis_vector(module, b)).is_zero()
    # sanity inversion: phi(1) acts as the identity
    one_img = ideals.phi_apply(qm, algebra.identity(g, Q))
    for b in basis[:5]:
        mv = reps.basis_vector(module, b)
        assert reps.act(one_img, mv) == mv


def test_annihilation_check(graphs_by_name, Q):
    g = graphs_by_name["ex62"]
    spec = ideals.admissible_pair(g, ("v",), ())
    kernel = ideals.kernel_generators(g, spec, Q)
    V = reps.chen_module(g, Q, ("e",))
    report = reps.annihilation_check(kernel, V, 25)
    assert report.all_annihilated
    # the identity never annihilates a nonzero vector (sanity inversion)
    one = algebra.identity(g, Q)
    bad = reps.annihilation_check([one], V, 10)
    assert not bad.all_annihilated
    assert len(bad.failures) == bad.checked
