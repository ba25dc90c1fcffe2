"""Path-algebra arithmetic: relations, normal forms, confluence, grading."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import sampling
from conftest import gens
from lpa import algebra, fields, graphs


def relation_differences(g, field, mode):
    """The defining relations as elements that must normal-form to zero."""
    G = gens(g, field, mode)
    out = []
    # (V)
    for v in g.vertices:
        for w in g.vertices:
            d = G[v] * G[w]
            if v == w:
                d = d - G[v]
            out.append(d)
    for e in g.edge_map.values():
        ee, es = G[e.name], G[e.name + "*"]
        # (E1) and (E2)
        out.append(G[e.src] * ee - ee)
        out.append(ee * G[e.dst] - ee)
        out.append(G[e.dst] * es - es)
        out.append(es * G[e.src] - es)
        # (CK1)
        for f in g.edge_map.values():
            d = G[e.name + "*"] * G[f.name]
            if e.name == f.name:
                d = d - G[e.dst]
            out.append(d)
    if mode == algebra.LEAVITT:
        for v in g.vertices:
            if graphs.is_regular(g, v):
                total = algebra.zero(g, field, mode)
                for e in g.out_edges[v]:
                    total = total + G[e] * G[e + "*"]
                out.append(total - G[v])
    return out


@pytest.mark.parametrize("mode", [algebra.LEAVITT, algebra.COHN])
def test_relation_suite_all_graphs(graphs_by_name, Q, mode):
    for name, g in graphs_by_name.items():
        for d in relation_differences(g, Q, mode):
            assert d.is_zero(), (name, mode, str(d))


def test_identity(graphs_by_name, Q):
    t = graphs_by_name["toeplitz"]
    one = algebra.identity(t, Q)
    assert algebra.render(one) == "u + v"
    single = graphs.parse_graph("graph g\nvertex v\n")
    assert algebra.render(algebra.identity(single, Q)) == "v"
    a3 = graphs_by_name["a3"]
    assert algebra.render(algebra.identity(a3, Q)) == "v1 + v2 + v3"


def test_mono_mul_cases(graphs_by_name, Q):
    t = graphs_by_name["toeplitz"]
    G = gens(t, Q)
    # e* e = r(e); e* f = 0 for distinct edges with a common source
    assert G["e*"] * G["e"] == G["u"]
    assert (G["e*"] * G["f"]).is_zero()
    # ee* survives in Cohn mode without reduction
    Gc = gens(t, Q, algebra.COHN)
    p = Gc["e"] * Gc["e*"]
    assert algebra.render(p) == "e e*"


def test_normal_form_examples(graphs_by_name, Q):
    t = graphs_by_name["toeplitz"]
    G = gens(t, Q)
    assert algebra.render(G["f"] * G["f*"]) == "u - e e*"
    X = G["e*"] + G["f*"]
    Y = G["e"] + G["f"]
    assert X * Y == G["1"]
    assert Y * X == G["u"]
    assert (G["u"] * G["v"]).is_zero()
    # a raw forbidden monomial handed to the constructor gets rewritten
    raw = algebra.Monomial(("f",), ("f",), "v")
    x = algebra.element(t, Q, algebra.LEAVITT, {raw: fields.one(Q)})
    assert algebra.render(x) == "u - e e*"
    assert algebra.normal_form(x) == x
    # in Cohn mode the same monomial is already basic
    y = algebra.element(t, Q, algebra.COHN, {raw: fields.one(Q)})
    assert algebra.normal_form(y) == y and algebra.render(y) == "f f*"


def test_enumeration_order_changes_normal_form(Q):
    text = "graph g\nvertex u\nvertex v\nedge e u u\nedge f u v\n"
    g1 = graphs.parse_graph(text)
    g2 = graphs.parse_graph(text + "order u: f e\n")
    # with order (e, f): ff* rewrites; with order (f, e): ee* rewrites
    p1 = algebra.edge_element(g1, Q, "f") * algebra.ghost_element(g1, Q, "f")
    assert algebra.render(p1) == "u - e e*"
    p2 = algebra.edge_element(g2, Q, "e") * algebra.ghost_element(g2, Q, "e")
    assert algebra.render(p2) == "u - f f*"


def test_mul_examples(graphs_by_name, Q):
    t = graphs_by_name["toeplitz"]
    G = gens(t, Q)
    one = G["1"]
    alpha = fields.from_int(Q, 7)
    a = one + G["f*"].scale(alpha)
    ainv = one - G["f*"].scale(alpha)
    assert a * ainv == one             # (f*)^2 = 0 since s(f) != r(f)
    assert algebra.verify_inverse(a, ainv)
    assert one * a == a
    assert G["f*"] * G["f"] == G["v"]
    assert not algebra.verify_inverse(G["e"], G["e*"])      # ee* != 1


def test_ring_axioms_randomized(graphs_by_name, Q):
    rng = random.Random(7)
    for name, g in graphs_by_name.items():
        for _ in range(30):
            x = sampling.random_element(rng, g, Q)
            y = sampling.random_element(rng, g, Q)
            z = sampling.random_element(rng, g, Q)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z


@pytest.mark.parametrize("mode", [algebra.LEAVITT, algebra.COHN])
def test_confluence_against_random_order_rewriting(graphs_by_name, Q, mode):
    rng = random.Random(42)
    names = list(graphs_by_name)
    for i in range(120):
        g = graphs_by_name[names[i % len(names)]]
        combo = {}
        for _ in range(rng.randint(1, 4)):
            w = oracles.random_free_word(rng, g, 4)
            combo[w] = combo.get(w, 0) + rng.choice([-2, -1, 1, 2, 3])
        structured = algebra.zero(g, Q, mode)
        for w, c in combo.items():
            structured = structured + oracles.word_to_element(g, Q, w, mode).scale(
                fields.from_int(Q, c)
            )
        fix = oracles.rewrite_to_fixpoint(g, combo, rng, leavitt=(mode == algebra.LEAVITT))
        assert oracles.combo_to_element(g, Q, fix, mode) == structured


def test_star_properties(graphs_by_name, Q, rng):
    for name in ("toeplitz", "ex11", "r2", "a4"):
        g = graphs_by_name[name]
        for _ in range(20):
            x = sampling.random_element(rng, g, Q)
            y = sampling.random_element(rng, g, Q)
            assert algebra.star(algebra.star(x)) == x
            assert algebra.star(x * y) == algebra.star(y) * algebra.star(x)
            assert algebra.star(x + y) == algebra.star(x) + algebra.star(y)
    t = graphs_by_name["toeplitz"]
    G = gens(t, Q)
    assert algebra.render(algebra.star(G["e"])) == "e*"
    assert algebra.star(G["v"]) == G["v"]


def test_homogeneous_components(graphs_by_name, Q):
    t = graphs_by_name["toeplitz"]
    G = gens(t, Q)
    comps = algebra.homogeneous_components(G["e"] + G["e*"])
    assert set(comps) == {-1, 1}
    assert comps[1] == G["e"]
    comps = algebra.homogeneous_components(G["v"])
    assert set(comps) == {0}
    x = G["1"] + (G["f"] * G["f*"]).scale(fields.from_int(Q, 3))
    assert set(algebra.homogeneous_components(x)) == {0}


def test_grading_multiplicative(graphs_by_name, Q, rng):
    for name in ("toeplitz", "r2", "ex62"):
        g = graphs_by_name[name]
        for _ in range(15):
            x = sampling.random_element(rng, g, Q)
            y = sampling.random_element(rng, g, Q)
            cx = algebra.homogeneous_components(x)
            cy = algebra.homogeneous_components(y)
            prod = algebra.homogeneous_components(x * y)
            for d, comp in prod.items():
                total = algebra.zero(g, Q)
                for d1, c1 in cx.items():
                    d2 = d - d1
                    if d2 in cy:
                        total = total + c1 * cy[d2]
                assert total == comp
            # cross terms of mismatched degree cancel overall
            recombined = algebra.zero(g, Q)
            for comp in prod.values():
                recombined = recombined + comp
            assert recombined == x * y


def test_no_forbidden_monomials_ever(graphs_by_name, Q, rng):
    for g in graphs_by_name.values():
        for _ in range(25):
            x = sampling.random_element(rng, g, Q)
            y = sampling.random_element(rng, g, Q)
            for m, _ in (x * y).terms:
                assert not algebra.is_forbidden(g, m)


def test_pq_scalar_identity(graphs_by_name, Q):
    """p* p = v for any path into v, and p* q = 0 for distinct paths with a
    common range unless one extends the other (then p* (p kappa) = kappa)."""
    g = graphs_by_name["ex11"]
    paths = [("g",), ("g", "f"), ("h",), ("h", "f"), ("f",), ("f", "f")]
    for pe in paths:
        p = algebra.path_element(g, Q, pe)
        _, v = graphs.make_path(g, pe)
        assert algebra.star(p) * p == algebra.vertex_element(g, Q, v)
        for qe in paths:
            if pe == qe:
                continue
            if graphs.make_path(g, qe)[1] != v:
                continue
            q = algebra.path_element(g, Q, qe)
            prod = algebra.star(p) * q
            if qe[: len(pe)] == pe:
                assert prod == algebra.path_element(g, Q, qe[len(pe):], vertex=v)
            elif pe[: len(qe)] == qe:
                assert prod == algebra.star(
                    algebra.path_element(g, Q, pe[len(qe):], vertex=v)
                )
            else:
                assert prod.is_zero(), (pe, qe)


def test_cohn_to_leavitt(graphs_by_name, Q):
    t = graphs_by_name["toeplitz"]
    Gc = gens(t, Q, algebra.COHN)
    k = Gc["u"] - Gc["e"] * Gc["e*"] - Gc["f"] * Gc["f*"]
    assert algebra.cohn_to_leavitt(k).is_zero()
    assert algebra.cohn_to_leavitt(Gc["v"]) == algebra.vertex_element(t, Q, "v")
    ff = Gc["f"] * Gc["f*"]
    assert algebra.render(algebra.cohn_to_leavitt(ff)) == "u - e e*"


def test_evaluate_word(graphs_by_name, Q):
    t = graphs_by_name["toeplitz"]
    G = gens(t, Q)
    one = G["1"]
    two = fields.from_int(Q, 2)
    a = one + G["f*"].scale(two)
    b = one + G["f"].scale(two)
    inv = {a: one - G["f*"].scale(two), b: one - G["f"].scale(two)}
    assert algebra.evaluate_word([(a, 1), (a, -1)], inv) == one
    assert algebra.evaluate_word([(a, 1)], inv) == a
    comm = algebra.evaluate_word([(a, 1), (b, 1), (a, -1), (b, -1)], inv)
    assert comm != one
    with pytest.raises(algebra.AlgebraError):
        algebra.evaluate_word([(a, -1)], {})
    with pytest.raises(algebra.AlgebraError):
        algebra.evaluate_word([(a, -1)], {a: b})      # fails verification


def test_cohn_products_stay_in_the_monomial_basis(graphs_by_name, Q, rng):
    """Cohn mode never rewrites: products land in the lam nu* family."""
    g = graphs_by_name["a3"]
    slice_ = set(algebra.cohn_basis_up_to(g, 4))
    for _ in range(30):
        x = sampling.random_element(rng, g, Q, algebra.COHN, max_len=2)
        y = sampling.random_element(rng, g, Q, algebra.COHN, max_len=2)
        for m, _ in (x * y).terms:
            assert m in slice_
    # the slice is strictly bigger than the Leavitt basis (ee* survives)
    assert len(slice_) > len(algebra.leavitt_basis(g))


def check_bases(g):
    """Both bases of the acyclic, bundle-free g against the counting oracle
    (L_K(E) = sum over sinks w of M_n(w)(K), n(v) the paths into v) and
    the breadth-first reference walk, order included."""
    counts = oracles.recursive_paths_into(g, set())
    sinks = [v for v in g.vertices if graphs.classify_vertex(g, v) == graphs.SINK]
    leavitt = algebra.leavitt_basis(g)
    cohn = algebra.cohn_basis_up_to(g, len(g.vertices))
    assert len(leavitt) == sum(counts[w] ** 2 for w in sinks)
    assert len(cohn) == sum(n ** 2 for n in counts.values())
    assert leavitt == oracles.paired_basis(g, leavitt=True)
    assert cohn == oracles.paired_basis(g, leavitt=False)
    assert len(set(leavitt)) == len(leavitt) and len(set(cohn)) == len(cohn)
    assert not any(algebra.is_forbidden(g, m) for m in leavitt)


def test_leavitt_basis_counts(graphs_by_name):
    for g in graphs_by_name.values():
        if g.cycles:
            with pytest.raises(algebra.AlgebraError, match="needs an acyclic graph"):
                algebra.leavitt_basis(g)
        elif not g.bundles:
            check_bases(g)
    for n in (2, 3, 4, 5):
        assert len(algebra.leavitt_basis(graphs_by_name[f"a{n}"])) == n * n


@st.composite
def small_dags(draw):
    """Acyclic graphs on up to 7 vertices: each edge (parallel ones
    included) runs forward in a drawn rank order, the vertices are declared
    in another, and each emitting vertex draws its ``order`` permutation."""
    n = draw(st.integers(1, 7))
    names = [f"v{i}" for i in range(n)]
    rank = draw(st.permutations(names))
    edges = []
    for k in range(draw(st.integers(0, 12 if n > 1 else 0))):
        i = draw(st.integers(0, n - 2))
        edges.append((f"e{k}", rank[i], rank[draw(st.integers(i + 1, n - 1))]))
    out = {}
    for e, src, _ in edges:
        out.setdefault(src, []).append(e)
    order = {v: draw(st.permutations(es)) for v, es in out.items()}
    return graphs.make_graph("dag", names, edges, order=order)


@settings(max_examples=150, deadline=None)
@given(small_dags())
def test_bases_of_random_dags(g):
    check_bases(g)


def test_element_refuses_malformed_monomials(graphs_by_name, Q):
    """A monomial whose paths do not exist or do not share its range is
    refused with the message of the check that catches it."""
    t = graphs_by_name["toeplitz"]
    for lam, nu, v, error, message in [
        (("e",), (), "v", algebra.AlgebraError, "monomial paths do not share range 'v'"),
        (("f",), ("e",), "v", algebra.AlgebraError, "monomial paths do not share range 'v'"),
        (("f", "e"), (), "u", graphs.GraphError, "path breaks at 'e': v != u"),
        ((), ("zz",), "u", graphs.GraphError, "unknown edge 'zz'"),
        ((), (), "zz", graphs.GraphError, "unknown vertex 'zz' in graph 'toeplitz'"),
    ]:
        with pytest.raises(error) as info:
            algebra.element(t, Q, algebra.LEAVITT, {algebra.Monomial(lam, nu, v): fields.one(Q)})
        assert str(info.value) == message


def test_mode_and_field_mismatch(graphs_by_name, Q, F5):
    t = graphs_by_name["toeplitz"]
    with pytest.raises(algebra.AlgebraError):
        algebra.identity(t, Q) * algebra.identity(t, F5)
    with pytest.raises(algebra.AlgebraError):
        algebra.identity(t, Q) * algebra.identity(t, Q, algebra.COHN)


def test_deep_leavitt_rewrite_is_iterative(graphs_by_name, Q):
    # e^1200 (e*)^1200 on the rose with one petal peels to u, far past the
    # recursion limit of a recursive rewrite
    g = graphs_by_name["r1"]
    deep = algebra.Monomial(("e",) * 1200, ("e",) * 1200, "u")
    x = algebra.element(g, Q, algebra.LEAVITT, {deep: fields.one(Q)})
    assert x == algebra.identity(g, Q)
    r2 = graphs_by_name["r2"]
    deep2 = algebra.Monomial(("e2",) * 1200, ("e2",) * 1200, "u")
    x = algebra.element(r2, Q, algebra.LEAVITT, {deep2: fields.one(Q)})
    assert len(x.terms) == 1201 and x.coeff(algebra.Monomial((), (), "u")) == fields.one(Q)
