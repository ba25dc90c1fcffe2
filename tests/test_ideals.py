"""Breaking vertices, quotient graphs, the epimorphism, the classifier."""

import random

import pytest

import sampling
from lpa import algebra, fields, graphs, ideals


def test_breaking_vertices_ex11(graphs_by_name):
    g = graphs_by_name["ex11"]
    assert ideals.breaking_vertices(g, ("v1", "v2")) == ("v", "w")
    assert ideals.breaking_vertices(g, tuple(g.vertices)) == ()


def test_bundle_into_complement_disqualifies():
    g = graphs.parse_graph(
        "graph g\nvertex w\nvertex a\nvertex b\nedge e w a\nbundle w b\n"
    )
    # H = {a}: w's bundle points at b outside H, so the count is infinite
    assert graphs.is_hereditary(g, {"a"}) and graphs.is_saturated(g, {"a"})
    assert ideals.breaking_vertices(g, ("a",)) == ()
    # H = {b}: the bundle lands inside H and the named edge e exits, so w breaks
    assert ideals.breaking_vertices(g, ("b",)) == ("w",)


def test_wh_elements(graphs_by_name, Q):
    g = graphs_by_name["ex11"]
    H = ("v1", "v2")
    wh = ideals.wh_element(g, "w", H, Q)
    assert algebra.render(wh) == "w - f f*"
    vh = ideals.wh_element(g, "v", H, Q)
    assert algebra.render(vh) == "v - g g*"
    assert wh * wh == wh
    assert vh * vh == vh
    w = algebra.vertex_element(g, Q, "w")
    assert w * wh == wh
    with pytest.raises(ideals.IdealError):
        ideals.wh_element(g, "v3", H, Q)


def test_admissible_pair_validation(graphs_by_name):
    g = graphs_by_name["ex11"]
    with pytest.raises(ideals.IdealError):
        ideals.admissible_pair(g, ("v1",))               # not hereditary
    with pytest.raises(ideals.IdealError):
        ideals.admissible_pair(g, ("v2",))               # not saturated
    with pytest.raises(ideals.IdealError):
        ideals.admissible_pair(g, ("v1", "v2"), ("v3",))  # S not breaking


def test_quotient_graph_example(graphs_by_name):
    g = graphs_by_name["ex11"]
    spec = ideals.admissible_pair(g, ("v1", "v2"), ("v",))
    f = ideals.quotient_graph(g, spec)
    assert set(f.vertices) == {"v", "v3", "w", "w_q"}
    assert {e.name for e in f.edges} == {"f", "g", "h", "f_q", "g_q", "h_q"}
    assert f.edge_map["f_q"].src == "w" and f.edge_map["f_q"].dst == "w_q"
    assert f.edge_map["g_q"].src == "v"
    assert f.edge_map["h_q"].src == "v3"
    # primed vertices are sinks
    assert graphs.classify_vertex(f, "w_q") == graphs.SINK
    # bundles into H are dropped: no bundles survive here
    assert f.bundles == ()


def test_quotient_graph_trivial_cases(graphs_by_name):
    g = graphs_by_name["ex11"]
    spec = ideals.admissible_pair(g, ("v1", "v2"), ("v", "w"))
    f = ideals.quotient_graph(g, spec)      # S = B_H: plain restriction
    assert set(f.vertices) == {"v", "v3", "w"}
    assert {e.name for e in f.edges} == {"f", "g", "h"}
    t = graphs_by_name["toeplitz"]
    spec0 = ideals.admissible_pair(t, (), ())
    assert ideals.quotient_graph(t, spec0).edges == t.edges


def test_quotient_rejects_bundle_into_primed():
    g = graphs.parse_graph(
        "graph g\nvertex w\nvertex a\nvertex b\nvertex c\n"
        "edge e w a\nedge d c w\nbundle w b\nbundle c w\n"
    )
    # H = {b}: B_H = {w, c}?  c emits bundle into w (outside H) -> not breaking;
    # w emits bundle into b in H and edge e into a -> breaking
    assert ideals.breaking_vertices(g, ("b",)) == ("w",)
    spec = ideals.admissible_pair(g, ("b",), ())
    with pytest.raises(ideals.IdealError):
        ideals.quotient_graph(g, spec)      # bundle c -> w needs primed copies


def test_phi_images_lemma(graphs_by_name, Q):
    g = graphs_by_name["ex11"]
    spec = ideals.admissible_pair(g, ("v1", "v2"), ("v",))
    qm = ideals.make_quotient_map(g, spec, Q)
    wh = ideals.wh_element(g, "w", spec.H, Q)
    f = algebra.edge_element(g, Q, "f")
    w_q = algebra.vertex_element(qm.target, Q, "w_q")
    f_q = algebra.edge_element(qm.target, Q, "f_q")
    assert ideals.phi_apply(qm, wh) == w_q
    assert ideals.phi_apply(qm, f * wh) == f_q
    assert ideals.phi_apply(qm, wh * algebra.star(f)) == algebra.star(f_q)
    sf = algebra.vertex_element(g, Q, "w")      # s(f) = w here
    assert ideals.phi_apply(qm, sf) == algebra.vertex_element(
        qm.target, Q, "w"
    ) + w_q


def test_phi_vertex_cases(graphs_by_name, Q):
    g = graphs_by_name["ex11"]
    spec = ideals.admissible_pair(g, ("v1", "v2"), ("v",))
    qm = ideals.make_quotient_map(g, spec, Q)
    assert ideals.phi_apply(qm, algebra.vertex_element(g, Q, "v1")).is_zero()
    assert ideals.phi_apply(qm, algebra.vertex_element(g, Q, "v3")) == (
        algebra.vertex_element(qm.target, Q, "v3")
    )
    one_src = algebra.identity(g, Q)
    assert ideals.phi_apply(qm, one_src) == algebra.identity(qm.target, Q)


def _fixtures(graphs_by_name):
    out = []
    g11 = graphs_by_name["ex11"]
    out.append((g11, ideals.admissible_pair(g11, ("v1", "v2"), ("v",))))
    out.append((g11, ideals.admissible_pair(g11, ("v1", "v2"), ("v", "w"))))
    g35 = graphs_by_name["ex35"]
    out.append((g35, ideals.admissible_pair(g35, ("w",), ())))
    out.append((g35, ideals.admissible_pair(g35, ("v", "w"), ())))
    g62 = graphs_by_name["ex62"]
    out.append((g62, ideals.admissible_pair(g62, ("v",), ())))
    return out


def test_phi_is_a_ring_homomorphism(graphs_by_name, Q):
    rng = random.Random(11)
    for g, spec in _fixtures(graphs_by_name):
        qm = ideals.make_quotient_map(g, spec, Q)
        for _ in range(25):
            x = sampling.random_element(rng, g, Q)
            y = sampling.random_element(rng, g, Q)
            assert ideals.phi_apply(qm, x * y) == ideals.phi_apply(qm, x) * ideals.phi_apply(qm, y)
            assert ideals.phi_apply(qm, x + y) == ideals.phi_apply(qm, x) + ideals.phi_apply(qm, y)


def test_kernel_generators_die(graphs_by_name, Q):
    for g, spec in _fixtures(graphs_by_name):
        qm = ideals.make_quotient_map(g, spec, Q)
        gens_list = ideals.kernel_generators(g, spec, Q)
        assert len(gens_list) == len(spec.H) + len(spec.S)
        for x in gens_list:
            assert ideals.phi_apply(qm, x).is_zero()


def test_kernel_generator_examples(graphs_by_name, Q):
    g = graphs_by_name["ex11"]
    spec = ideals.admissible_pair(g, ("v1", "v2"), ("v",))
    rendered = [algebra.render(x) for x in ideals.kernel_generators(g, spec, Q)]
    assert rendered == ["v1", "v2", "v - g g*"]
    spec0 = ideals.admissible_pair(g, ("v1", "v2"), ())
    rendered0 = [algebra.render(x) for x in ideals.kernel_generators(g, spec0, Q)]
    assert rendered0 == ["v1", "v2"]


def test_phi_surjective_on_generators(graphs_by_name, Q):
    for g, spec in _fixtures(graphs_by_name):
        qm = ideals.make_quotient_map(g, spec, Q)
        table = ideals.phi_preimage_table(qm)
        targets = set(qm.target.vertices) | set(qm.target.edge_map)
        assert set(table) == targets
        for name, preimage in table.items():
            if name in qm.target.edge_map:
                expect = algebra.edge_element(qm.target, Q, name)
            else:
                expect = algebra.vertex_element(qm.target, Q, name)
            assert ideals.phi_apply(qm, preimage) == expect, name


def test_phi_mode_check(graphs_by_name, Q):
    g = graphs_by_name["ex11"]
    spec = ideals.admissible_pair(g, ("v1", "v2"), ("v",))
    qm = ideals.make_quotient_map(g, spec, Q)
    cohn_elem = algebra.identity(g, Q, algebra.COHN)
    with pytest.raises(ideals.IdealError):
        ideals.phi_apply(qm, cohn_elem)


def test_classify_type_one(graphs_by_name):
    g = graphs_by_name["ex11"]
    spec = ideals.admissible_pair(g, ("v1", "v2"), ("v",))
    report = ideals.classify_primitive_witness(g, spec)
    assert report.kind == "I"
    assert report.witness_vertex == "w"
    assert report.breaking == ("v", "w")


def test_classify_type_two(graphs_by_name):
    g = graphs_by_name["ex35"]
    spec = ideals.admissible_pair(g, ("w",), ())
    report = ideals.classify_primitive_witness(g, spec)
    assert report.kind == "II"


def test_classify_type_three(graphs_by_name):
    g = graphs_by_name["ex62"]
    spec = ideals.admissible_pair(g, ("v",), ())
    report = ideals.classify_primitive_witness(g, spec)
    assert report.kind == "III"
    assert report.witness_cycle == ("e",)
    # supplying the other loop fails the M(u) condition
    e2 = graphs.make_cycle(g, ("e2",))
    r2 = ideals.classify_primitive_witness(g, spec, e2)
    assert r2.kind == "not_applicable"
    assert any("M(u2)" in d for d in r2.diagnostics)


def test_classify_diagnostics(graphs_by_name):
    g = graphs_by_name["ex35"]
    # H = {v, w} leaves the single loop: condition (L) fails in the quotient
    spec = ideals.admissible_pair(g, ("v", "w"), ())
    report = ideals.classify_primitive_witness(g, spec)
    assert report.kind == "III"      # the loop e is exclusive with M(u) = {u}
    assert report.witness_cycle == ("e",)
    # a graph with two separated sinks: nothing applies
    two = graphs.parse_graph(
        "graph g\nvertex a\nvertex b\nvertex c\nedge e a b\nedge f a c\n"
    )
    spec2 = ideals.admissible_pair(two, (), ())
    report2 = ideals.classify_primitive_witness(two, spec2)
    assert report2.kind == "not_applicable"
    assert report2.diagnostics


def test_relation_check_raises_on_wrong_images(graphs_by_name, Q):
    import dataclasses

    g = graphs_by_name["ex11"]
    spec = ideals.admissible_pair(g, ("v1", "v2"), ("v",))
    qm = ideals.make_quotient_map(g, spec, Q)
    edges = tuple((name, img.scale(fields.from_int(Q, 2)) if name == "h" else img)
                  for name, img in qm.edge_images)
    with pytest.raises(ideals.IdealError):
        ideals._check_relations(dataclasses.replace(qm, edge_images=edges))
    # f -> 3/5 f + 4/5 e f keeps (E1), (E2) and (CK1) on the diagonal but
    # breaks e* f = 0, a pair of distinct edges that share their source
    t = graphs_by_name["toeplitz"]
    qt = ideals.make_quotient_map(t, ideals.admissible_pair(t, (), ()), Q)
    e, f = (algebra.edge_element(qt.target, Q, name) for name in ("e", "f"))
    bent = f.scale(fields.parse_element(Q, "3/5")) + (e * f).scale(fields.parse_element(Q, "4/5"))
    edges = tuple((name, bent if name == "f" else img) for name, img in qt.edge_images)
    with pytest.raises(ideals.IdealError, match="CK1"):
        ideals._check_relations(dataclasses.replace(qt, edge_images=edges))


def test_relation_check_is_linear_in_the_graph(Q, monkeypatch):
    """(V) and (CK1) multiply only the image pairs that can meet, so on a
    long line the check makes O(|E^0| + |E^1|) products, not their square."""
    n = 200
    g = graphs.parse_graph(
        "graph g\nvertex x\nvertex w\nvertex h1\nedge f x w\nbundle w h1\n"
        + "".join(f"vertex v{i}\n" for i in range(1, n + 1))
        + "".join(f"edge e{i} v{i} v{i + 1}\n" for i in range(1, n))
    )
    calls = []
    mul = algebra.AlgebraElement.__mul__
    monkeypatch.setattr(algebra.AlgebraElement, "__mul__",
                        lambda x, y: calls.append(None) or mul(x, y))
    ideals.make_quotient_map(g, ideals.admissible_pair(g, ("h1",), ()), Q)
    assert 0 < len(calls) < 10 * (len(g.vertices) + len(g.edges))
