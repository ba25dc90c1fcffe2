"""Free-subgroup generators, matrix images, word verification, unit groups."""

from fractions import Fraction

import pytest

import oracles
from lpa import algebra, cli, fields, graphs, ideals, linalg, freegroups as fg
from lpa import reps


def two(field):
    return fields.from_int(field, 2)


def test_sanov_char_zero(Q):
    pair = fg.sanov_pair(Q, two(Q))
    one, zero = fields.one(Q), fields.zero(Q)
    assert pair.a.rows == ((one, zero), (two(Q), one))
    assert pair.b.rows == ((one, two(Q)), (zero, one))
    I = linalg.identity_matrix(Q, 2)
    assert pair.a * pair.a_inv == I
    assert pair.b * pair.b_inv == I


def test_sanov_char_p(F5st):
    s = fields.variable(F5st, "s")
    t = fields.variable(F5st, "t")
    pair = fg.sanov_pair(F5st, s, t)
    assert pair.a.entry(1, 1) == t
    assert pair.a.entry(2, 1) == s
    assert pair.a.entry(2, 2) == t.inverse()
    assert pair.a.entry(1, 2).is_zero()
    I = linalg.identity_matrix(F5st, 2)
    assert pair.a * pair.a_inv == I and pair.b * pair.b_inv == I


def test_parameter_validation(Q, Qt, F5, F5st):
    fg.validate_parameters(Q, two(Q), None)
    fg.validate_parameters(Qt, fields.variable(Qt, "t"), None)
    with pytest.raises(fg.ParameterError):
        fg.validate_parameters(Q, fields.from_int(Q, 3), None)
    with pytest.raises(fg.ParameterError):
        fg.validate_parameters(F5, fields.from_int(F5, 2), fields.from_int(F5, 3))
    s, t = fields.variable(F5st, "s"), fields.variable(F5st, "t")
    fg.validate_parameters(F5st, s, t)
    with pytest.raises(fg.ParameterError):
        fg.validate_parameters(F5st, s, s)
    with pytest.raises(fg.ParameterError):
        fg.validate_parameters(F5st, s, None)
    with pytest.raises(fg.ParameterError):
        fg.validate_parameters(F5st, s + t, t)


def test_sink_pair_toeplitz(graphs_by_name, Q):
    t = graphs_by_name["toeplitz"]
    pair = fg.build_generators(t, Q, fg.SinkEdge("f"), two(Q))
    assert algebra.render(pair.a) == "u + v + 2 f*"
    assert algebra.render(pair.b) == "u + v + 2 f"
    assert algebra.verify_inverse(pair.a, pair.a_inv)
    a_img, b_img = fg.matrix_images(pair)[:2]
    sanov = fg.sanov_pair(Q, two(Q))
    assert a_img == sanov.a and b_img == sanov.b


def test_example_type_two_sink(graphs_by_name, Q):
    """a = v + u + w + alpha f* over the loop-with-two-tails graph."""
    g = graphs_by_name["ex35"]
    spec = ideals.admissible_pair(g, ("w",), ())
    pair = fg.build_generators(g, Q, fg.QuotientSink(spec, "f", "v"), two(Q))
    G1 = algebra.identity(g, Q)
    fstar = algebra.star(algebra.edge_element(g, Q, "f"))
    assert pair.a == G1 + fstar.scale(two(Q))
    assert algebra.render(pair.a) == "u + v + w + 2 f*"
    a_img, b_img = fg.matrix_images(pair)[:2]
    assert (a_img, b_img) == (fg.sanov_pair(Q, two(Q)).a, fg.sanov_pair(Q, two(Q)).b)


def test_example_toeplitz_char_p(graphs_by_name, F5st):
    """c = u + v + alpha f* + (beta - 1) u + (beta^-1 - 1) v."""
    t = graphs_by_name["toeplitz"]
    s = fields.variable(F5st, "s")
    tt = fields.variable(F5st, "t")
    pair = fg.build_generators(t, F5st, fg.SinkEdge("f"), s, tt)
    u = algebra.vertex_element(t, F5st, "u")
    v = algebra.vertex_element(t, F5st, "v")
    fstar = algebra.star(algebra.edge_element(t, F5st, "f"))
    expected = u.scale(tt) + v.scale(tt.inverse()) + fstar.scale(s)
    assert pair.a == expected
    a_img, _ = fg.matrix_images(pair)[:2]
    assert a_img == fg.sanov_pair(F5st, s, tt).a


def test_example_breaking_vertex(graphs_by_name, Q):
    """a = 1 + alpha (w - f f*) f* on the two-emitter graph."""
    g = graphs_by_name["ex11"]
    spec = ideals.admissible_pair(g, ("v1", "v2"), ("v",))
    pair = fg.build_generators(g, Q, fg.BreakingVertex(spec, "w", "f"), two(Q))
    one = algebra.identity(g, Q)
    wh = ideals.wh_element(g, "w", spec.H, Q)
    f = algebra.edge_element(g, Q, "f")
    assert pair.a == one + (wh * algebra.star(f)).scale(two(Q))
    assert pair.b == one + (f * wh).scale(two(Q))
    assert pair.a_inv == one - (wh * algebra.star(f)).scale(two(Q))
    a_img, b_img = fg.matrix_images(pair)[:2]
    sanov = fg.sanov_pair(Q, two(Q))
    assert a_img == sanov.a and b_img == sanov.b


def test_breaking_vertex_char_p_needs_separate_source(graphs_by_name, F5st):
    g = graphs_by_name["ex11"]
    spec = ideals.admissible_pair(g, ("v1", "v2"), ("v",))
    s, t = fields.variable(F5st, "s"), fields.variable(F5st, "t")
    # f is the loop at w: s(f) = w collides with the w^H idempotent
    with pytest.raises(fg.WitnessError):
        fg.build_generators(g, F5st, fg.BreakingVertex(spec, "w", "f"), s, t)
    # g enters w from v: orthogonal idempotents, so the pair builds
    pair = fg.build_generators(g, F5st, fg.BreakingVertex(spec, "w", "g"), s, t)
    assert algebra.verify_inverse(pair.a, pair.a_inv)
    report = fg.verify_free_up_to(pair, 3)
    assert report.all_nontrivial and report.matrix_crosscheck


def test_example_rational_tail_char_p(graphs_by_name, F5st):
    """c = u + u2 + v + v2 + alpha g* + (beta-1) u2 + (beta^-1-1) u."""
    g = graphs_by_name["ex62"]
    s, t = fields.variable(F5st, "s"), fields.variable(F5st, "t")
    tail = reps.canonicalize_rational(g, (), ("e",), 0)
    pair = fg.build_generators(g, F5st, fg.RationalPathEdge("g", tail), s, t)
    expected = (
        algebra.vertex_element(g, F5st, "u").scale(t.inverse())
        + algebra.vertex_element(g, F5st, "u2").scale(t)
        + algebra.vertex_element(g, F5st, "v")
        + algebra.vertex_element(g, F5st, "v2")
        + algebra.star(algebra.edge_element(g, F5st, "g")).scale(s)
    )
    assert pair.a == expected


def test_line_graph_pair(graphs_by_name, Q):
    g = graphs_by_name["a4"]
    pair = fg.build_generators(g, Q, fg.LineGraph(1, 4), two(Q))
    path = algebra.path_element(g, Q, ("e1", "e2", "e3"))
    assert pair.a == algebra.identity(g, Q) + path.scale(two(Q))
    assert pair.b == algebra.identity(g, Q) + algebra.star(path).scale(two(Q))
    imgs = fg.matrix_images(pair)
    assert imgs[0] == pair.matrices.a
    report = fg.verify_free_up_to(pair, 4)
    assert report.all_nontrivial and report.matrix_crosscheck


def test_word_budget(graphs_by_name, Q):
    pair = fg.build_generators(graphs_by_name["toeplitz"], Q, fg.SinkEdge("f"), two(Q))
    for L in (0, fg.MAX_VERIFY_LEN + 1):
        with pytest.raises(ValueError):
            fg.verify_free_up_to(pair, L)


def test_witness_validation(graphs_by_name, Q):
    t = graphs_by_name["toeplitz"]
    with pytest.raises(fg.WitnessError):
        fg.build_generators(t, Q, fg.SinkEdge("e"), two(Q))      # r(e) not a sink
    g62 = graphs_by_name["ex62"]
    tail = reps.canonicalize_rational(g62, (), ("e",), 0)
    with pytest.raises(fg.WitnessError):
        fg.build_generators(g62, Q, fg.RationalPathEdge("e", tail), two(Q))  # s=r
    a4 = graphs_by_name["a4"]
    with pytest.raises(fg.WitnessError):
        fg.build_generators(a4, Q, fg.LineGraph(3, 3), two(Q))
    with pytest.raises(fg.WitnessError):
        fg.build_generators(t, Q, fg.LineGraph(1, 2), two(Q))    # not a line
    # n - 1 edges but no line: a fork, a merge, a line beside a loop
    for edges in ("edge x a b\nedge y a c\n", "edge x a b\nedge y c b\n",
                  "edge x a b\nedge y c c\n"):
        g = graphs.parse_graph("graph g\nvertex a\nvertex b\nvertex c\n" + edges)
        with pytest.raises(fg.WitnessError, match="not an oriented line"):
            fg.build_generators(g, Q, fg.LineGraph(1, 2), two(Q))
        assert not any(isinstance(w, fg.LineGraph) for w in fg.find_witness(g))


def test_lemma_bridge_breaking_to_quotient_sink(graphs_by_name, Q, F5st):
    """phi carries the breaking-vertex pair to the quotient's sink pair."""
    g = graphs_by_name["ex11"]
    spec = ideals.admissible_pair(g, ("v1", "v2"), ("v",))
    qm = ideals.make_quotient_map(g, spec, Q)
    pair = fg.build_generators(g, Q, fg.BreakingVertex(spec, "w", "f"), two(Q))
    qpair = fg.build_generators(qm.target, Q, fg.SinkEdge("f_q"), two(Q))
    assert ideals.phi_apply(qm, pair.a) == qpair.a
    assert ideals.phi_apply(qm, pair.b) == qpair.b
    assert ideals.phi_apply(qm, pair.a_inv) == qpair.a_inv
    # characteristic p variant through the edge g (s(g) = v survives)
    s, t = fields.variable(F5st, "s"), fields.variable(F5st, "t")
    qmp = ideals.make_quotient_map(g, spec, F5st)
    pairp = fg.build_generators(g, F5st, fg.BreakingVertex(spec, "w", "g"), s, t)
    qpairp = fg.build_generators(qmp.target, F5st, fg.SinkEdge("g_q"), s, t)
    assert ideals.phi_apply(qmp, pairp.a) == qpairp.a
    assert ideals.phi_apply(qmp, pairp.b) == qpairp.b


def test_homomorphism_consistency_per_word(graphs_by_name, Q):
    """The matrix image of every reduced word equals the matrix word: the
    corner span is multiplicatively closed, so the image is defined on all
    word products.  One pair per witness kind."""
    t = graphs_by_name["toeplitz"]
    pair = fg.build_generators(t, Q, fg.SinkEdge("f"), two(Q))
    e11 = graphs_by_name["ex11"]
    spec = ideals.admissible_pair(e11, ("v1", "v2"), ("v",))
    bpair = fg.build_generators(e11, Q, fg.BreakingVertex(spec, "w", "f"), two(Q))
    e35 = graphs_by_name["ex35"]
    qspec = ideals.admissible_pair(e35, ("w",), ())
    qpair = fg.build_generators(e35, Q, fg.QuotientSink(qspec, "f", "v"), two(Q))
    tail = reps.canonicalize_rational(e11, (), ("f",), 0)
    tpair = fg.build_generators(e11, Q, fg.RationalPathEdge("h", tail), two(Q))
    lpair = fg.build_generators(graphs_by_name["a5"], Q, fg.LineGraph(2, 5), two(Q))
    for p, L in ((pair, 4), (bpair, 3), (qpair, 3), (tpair, 3), (lpair, 3)):
        alg = (p.a, p.b, p.a_inv, p.b_inv)
        mat = fg.matrix_images(p)
        inverse_of = (2, 3, 0, 1)
        one = linalg.identity_matrix(p.field, p.matrices.a.n)
        stack = [(algebra.identity(p.graph, p.field), one, -1, 0)]
        while stack:
            elt, m, last, depth = stack.pop()
            if depth == L:
                continue
            for k in range(4):
                if last >= 0 and k == inverse_of[last]:
                    continue
                nelt, nmat = elt * alg[k], m * mat[k]
                assert p.corner(nelt) == nmat
                stack.append((nelt, nmat, k, depth + 1))


def test_quotient_witnesses_build_no_quotient_map(graphs_by_name, Q, monkeypatch,
                                                  tmp_path, capsys):
    """A quotient or breaking witness reads its corner in E's own module at
    w: building and verifying the pair neither builds the quotient map nor
    applies it, also when w is an infinite emitter of E."""
    calls = []
    for name in ("make_quotient_map", "phi_apply"):
        monkeypatch.setattr(ideals, name, lambda *args, name=name: calls.append(name))
    e35 = graphs_by_name["ex35"]
    qsink = fg.QuotientSink(ideals.admissible_pair(e35, ("w",), ()), "f", "v")
    e11 = graphs_by_name["ex11"]
    breaking = fg.BreakingVertex(ideals.admissible_pair(e11, ("v1", "v2"), ("v",)), "w", "f")
    for g, witness in ((e35, qsink), (e11, breaking)):
        report = fg.verify_free_up_to(fg.build_generators(g, Q, witness, two(Q)), 4)
        assert report.all_nontrivial and report.matrix_crosscheck, witness
    path = tmp_path / "emitter.graph"
    path.write_text("graph g\nvertex x\nvertex w\nvertex h1\nedge f x w\nbundle w h1\n")
    assert cli.main(["free-gens", "--graph", str(path), "--witness", "qsink:h1:f",
                     "--alpha", "2", "--verify-len", "4"]) == 0
    assert "all nontrivial: True" in capsys.readouterr().out
    assert calls == []


def test_verify_free_counts(graphs_by_name, Q):
    t = graphs_by_name["toeplitz"]
    pair = fg.build_generators(t, Q, fg.SinkEdge("f"), two(Q))
    report = fg.verify_free_up_to(pair, 3)
    assert report.words_checked == 4 + 12 + 36
    assert report.all_nontrivial and report.matrix_crosscheck
    assert fg.expected_word_count(8) == 13120


def _witnesses(graphs_by_name, prime):
    """One (graph, witness) per witness kind; in characteristic p the
    breaking vertex needs an edge whose source is not the vertex."""
    e11, e35 = graphs_by_name["ex11"], graphs_by_name["ex35"]
    spec = ideals.admissible_pair(e11, ("v1", "v2"), ("v",))
    return {
        "sink": (graphs_by_name["toeplitz"], fg.SinkEdge("f")),
        "qsink": (e35, fg.QuotientSink(ideals.admissible_pair(e35, ("w",), ()), "f", "v")),
        "breaking": (e11, fg.BreakingVertex(spec, "w", "g" if prime else "f")),
        "tail": (e11, fg.RationalPathEdge("h", reps.canonicalize_rational(e11, (), ("f",), 0))),
        "line": (graphs_by_name["a5"], fg.LineGraph(2, 5)),
    }


def _parameters(name, field):
    if name == "Q":
        return fields.from_int(field, 2), None
    if name == "Q(t)":
        return fields.variable(field, "t"), None
    return fields.variable(field, "s"), fields.variable(field, "t")


def _forced_pair(monkeypatch, g, field, witness, case, alpha, beta=None):
    """A pair whose parameters ``validate_parameters`` would refuse: the
    characteristic case is forced, so the matrix side need not be free."""
    with monkeypatch.context() as m:
        m.setattr(fg, "validate_parameters", lambda *args: case)
        return fg.build_generators(g, field, witness, alpha, beta)


@pytest.mark.parametrize("kind", ["sink", "qsink", "breaking", "tail", "line"])
@pytest.mark.parametrize("field_name", ["Q", "Q(t)", "F5(s,t)"])
def test_certified_walk_matches_two_sided_oracle(graphs_by_name, kind, field_name):
    """The certified matrix walk reports what evaluating every word on both
    sides reports, for each witness kind over each field kind."""
    field = fields.parse_descriptor(field_name)
    g, witness = _witnesses(graphs_by_name, field.char != 0)[kind]
    pair = fg.build_generators(g, field, witness, *_parameters(field_name, field))
    assert pair.matrices.a.n == 2
    assert fg.certify_corner(pair, 6) <= 6 < fg.MAX_CORNER_DIM
    for L in range(1, 7):
        assert fg.verify_free_up_to(pair, L) == oracles.two_sided_free_report(pair, L)


@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(1, 2)])
def test_non_free_pairs_match_the_oracle_to_length_10(graphs_by_name, Q, monkeypatch, alpha):
    """alpha = 1 and 1/2 lie outside Sanov's range: words of length <= 10
    are trivial, and both walks list the same ones in the same order."""
    pair = _forced_pair(monkeypatch, graphs_by_name["toeplitz"], Q, fg.SinkEdge("f"),
                        "zero", fields.from_fraction(Q, alpha))
    report = fg.verify_free_up_to(pair, 10)
    assert report == oracles.two_sided_free_report(pair, 10)
    assert not report.all_nontrivial and not report.matrix_crosscheck


def test_identity_matrix_alone_is_not_a_failure(graphs_by_name, F5, monkeypatch):
    """Over F5 with alpha = 1, beta = 2 the matrix group is finite, and a
    word whose matrix is I need not be 1 in the algebra: (c d)^3 is
    u + v + 3 e e*, which the corner sends to I.  Only the words that are 1
    in the algebra are failures, as the oracle lists them."""
    pair = _forced_pair(monkeypatch, graphs_by_name["toeplitz"], F5, fg.SinkEdge("f"),
                        "prime", fields.from_int(F5, 1), fields.from_int(F5, 2))
    cd = pair.a * pair.b
    assert pair.corner(cd * cd * cd) == linalg.identity_matrix(F5, 2)
    assert algebra.render(cd * cd * cd) == "u + v + 3 e e*"
    report = fg.verify_free_up_to(pair, 6)
    assert report == oracles.two_sided_free_report(pair, 6)
    assert not report.all_nontrivial and not report.matrix_crosscheck


def _transpose(m):
    return linalg.square(m.field, m.n, {(j, i): c for (i, j), c in m.terms})


@pytest.mark.parametrize("kind", ["sink", "qsink", "breaking", "tail", "line"])
def test_certificate_refuses_an_anti_homomorphism(graphs_by_name, Q, monkeypatch, kind):
    """A transposed corner with transposed matrix units passes the
    certificate at length 1, which checks the parts alone, but it reverses
    products, and the certificate refuses it from length 2 on."""
    corner = fg._corner

    def transposed(*args):
        parts, units, image = corner(*args)
        return parts, tuple((j, i) for i, j in units), lambda x: _transpose(image(x))

    monkeypatch.setattr(fg, "_corner", transposed)
    g, witness = _witnesses(graphs_by_name, False)[kind]
    pair = fg.build_generators(g, Q, witness, two(Q))
    assert fg.verify_free_up_to(pair, 1).all_nontrivial
    with pytest.raises(fg.WitnessError, match="not multiplicative"):
        fg.verify_free_up_to(pair, 2)


@pytest.mark.parametrize("kind", ["sink", "qsink", "breaking", "tail", "line"])
def test_certificate_alone_refuses_swapped_units_at_length_one(graphs_by_name, Q,
                                                               monkeypatch, kind):
    """With the units of a_part and b_part swapped, the matrix pair no longer
    matches the corner; the certificate refuses it already at length 1."""
    corner = fg._corner

    def swapped(*args):
        parts, (ua, ub, *rest), image = corner(*args)
        return parts, (ub, ua, *rest), image

    monkeypatch.setattr(fg, "_corner", swapped)
    g, witness = _witnesses(graphs_by_name, False)[kind]
    with pytest.raises(fg.WitnessError):
        fg.verify_free_up_to(fg.build_generators(g, Q, witness, two(Q)), 1)


def test_walk_multiplies_in_the_algebra_only_on_identity_matrices(graphs_by_name, Q,
                                                                   monkeypatch):
    """No word of the free pair has the identity matrix, so with the
    certificate stubbed out the walk makes no algebra product at all."""
    pair = fg.build_generators(graphs_by_name["toeplitz"], Q, fg.SinkEdge("f"), two(Q))
    calls = []
    mul = algebra.AlgebraElement.__mul__
    monkeypatch.setattr(fg, "certify_corner", lambda pair, L: 0)
    monkeypatch.setattr(algebra.AlgebraElement, "__mul__",
                        lambda x, y: calls.append(1) or mul(x, y))
    assert fg.verify_free_up_to(pair, 6).all_nontrivial
    assert calls == []


def test_corner_budget_overflow_exits_1(monkeypatch, capsys):
    argv = ["free-gens", "--graph", "toeplitz", "--witness", "sink:f", "--alpha", "2",
            "--verify-len", "2"]
    assert cli.main(argv) == 0
    monkeypatch.setattr(fg, "MAX_CORNER_DIM", 3)
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert "MAX_CORNER_DIM = 3" in capsys.readouterr().err
    assert cli.main(argv[:-1] + ["1"]) == 0         # 1, a_part, b_part: 3 basis elements


def test_word_length_one_nontrivial(graphs_by_name, Q):
    t = graphs_by_name["toeplitz"]
    pair = fg.build_generators(t, Q, fg.SinkEdge("f"), two(Q))
    one = algebra.identity(t, Q)
    assert pair.a != one                       # alpha f* != 0
    comm = pair.a * pair.b * pair.a_inv * pair.b_inv
    assert comm != one


def test_find_witness_examples(graphs_by_name):
    t = graphs_by_name["toeplitz"]
    assert fg.find_witness(t) == [fg.SinkEdge("f")]
    g62 = graphs_by_name["ex62"]
    tails = [w for w in fg.find_witness(g62) if isinstance(w, fg.RationalPathEdge)]
    assert fg.RationalPathEdge("g", reps.RationalTail((), ("e",), 0)) in tails
    for w in tails:
        assert g62.source(w.edge) != g62.range(w.edge)
    # commutative shapes admit no witness
    r1 = graphs_by_name["r1"]
    assert graphs.commutativity_shape(r1) and fg.find_witness(r1) == []
    iso = graphs.parse_graph("graph g\nvertex a\nvertex b\nedge e b b\n")
    assert graphs.commutativity_shape(iso) and fg.find_witness(iso) == []
    # line graphs expose the index pairs
    a3 = graphs_by_name["a3"]
    assert fg.LineGraph(1, 3) in fg.find_witness(a3)


def test_quotient_sink_witness_from_infinite_emitter(Q):
    """An infinite emitter whose edges all land in H becomes a sink of the
    quotient graph and supports the same generator shape."""
    g = graphs.parse_graph(
        "graph g\nvertex x\nvertex w\nvertex h1\nedge f x w\nbundle w h1\n"
    )
    spec = ideals.admissible_pair(g, ("h1",), ())
    assert ideals.breaking_vertices(g, ("h1",)) == ()
    quotient = ideals.quotient_graph(g, spec)
    assert graphs.classify_vertex(quotient, "w") == graphs.SINK
    assert graphs.classify_vertex(g, "w") == graphs.INFINITE_EMITTER
    pair = fg.build_generators(g, Q, fg.QuotientSink(spec, "f", "w"), two(Q))
    assert algebra.render(pair.a) == "h1 + w + x + 2 f*"
    a_img, b_img = fg.matrix_images(pair)[:2]
    sanov = fg.sanov_pair(Q, two(Q))
    assert a_img == sanov.a and b_img == sanov.b
    report = fg.verify_free_up_to(pair, 4)
    assert report.all_nontrivial and report.matrix_crosscheck
    assert fg.QuotientSink(spec, "f", "w") in fg.find_witness(g, spec)


def test_find_witness_with_spec(graphs_by_name):
    g = graphs_by_name["ex11"]
    spec = ideals.admissible_pair(g, ("v1", "v2"), ("v",))
    found = fg.find_witness(g, spec)
    assert fg.BreakingVertex(spec, "w", "f") in found
    assert fg.BreakingVertex(spec, "w", "g") in found
    g35 = graphs_by_name["ex35"]
    spec35 = ideals.admissible_pair(g35, ("w",), ())
    found35 = fg.find_witness(g35, spec35)
    assert fg.SinkEdge("f") in found35


def test_commutative_shape_means_no_witness(graphs_by_name):
    for g in graphs_by_name.values():
        if graphs.commutativity_shape(g):
            assert fg.find_witness(g) == []


def test_unit_group_examples(graphs_by_name, Q):
    assert fg.unit_group_structure(graphs_by_name["a4"]).render() == "GL_4(K)"
    r1 = fg.unit_group_structure(graphs_by_name["r1"])
    assert r1.render() == "K^x<x>"
    assert r1.laurent_sizes == (1,)
    toep = fg.unit_group_structure(graphs_by_name["toeplitz"])
    assert toep.kind == "not_artinian_or_noetherian"
    assert toep.diagnostics == ("cycle e has exit f",)
    e11 = fg.unit_group_structure(graphs_by_name["ex11"])
    assert any("infinite emitter" in d for d in e11.diagnostics)


def test_unit_group_disjoint_union(graphs_by_name, Q):
    a2 = graphs_by_name["a2"]
    r1 = graphs.parse_graph("graph rr\nvertex z\nedge ez z z\n")
    both = graphs.disjoint_union("both", a2, r1)
    d = fg.unit_group_structure(both)
    assert d.render() == "GL_2(K) x K^x<x>"
    da, dr = fg.unit_group_structure(a2), fg.unit_group_structure(r1)
    assert d.gl_sizes == da.gl_sizes + dr.gl_sizes
    assert d.laurent_sizes == da.laurent_sizes + dr.laurent_sizes
    a3 = graphs_by_name["a3"]
    renamed = graphs.parse_graph(
        "graph a3b\nvertex w1\nvertex w2\nvertex w3\n"
        "edge d1 w1 w2\nedge d2 w2 w3\n"
    )
    d2 = fg.unit_group_structure(graphs.disjoint_union("u2", a3, renamed))
    concat = fg.unit_group_structure(a3).gl_sizes + fg.unit_group_structure(renamed).gl_sizes
    assert d2.gl_sizes == concat


def test_unit_group_two_cycle_and_commutative(Q):
    # a 2-cycle with one inbound tail: GL_3(K[x,x^-1])
    g = graphs.parse_graph(
        "graph g\nvertex a\nvertex b\nvertex z\n"
        "edge p a b\nedge q b a\nedge d z a\n"
    )
    desc = fg.unit_group_structure(g)
    assert desc.kind == "product"
    assert desc.laurent_sizes == (3,) and desc.gl_sizes == ()
    assert desc.render() == "GL_3(K[x,x^-1])"
    # the commutative shape: isolated vertices and loops
    mixed = graphs.parse_graph(
        "graph m\nvertex a\nvertex b\nvertex c\nedge e c c\n"
    )
    assert graphs.commutativity_shape(mixed)
    assert fg.unit_group_structure(mixed).render() == "K^x x K^x x K^x<x>"


def test_line_graph_iso(Q):
    for n in range(2, 6):
        iso = fg.line_graph_iso(n, Q)
        basis = algebra.leavitt_basis(iso.graph)
        assert len(basis) == n * n
        images = set()
        for m in basis:
            x = algebra.element(iso.graph, Q, algebra.LEAVITT, {m: fields.one(Q)})
            img = iso.image(x)
            nonzero = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if not img.entry(i, j).is_zero()
            ]
            assert len(nonzero) == 1
            images.add(nonzero[0])
        assert len(images) == n * n      # bijective onto the matrix units
        # v_i -> E_ii, e_i -> E_{i,i+1}, e_i* -> E_{i+1,i}
        g = iso.graph
        for i in range(1, n + 1):
            assert iso.image(algebra.vertex_element(g, Q, f"v{i}")) == \
                linalg.matrix_unit(Q, n, i, i)
        for i in range(1, n):
            e = algebra.edge_element(g, Q, f"e{i}")
            assert iso.image(e) == linalg.matrix_unit(Q, n, i, i + 1)
            assert iso.image(algebra.star(e)) == linalg.matrix_unit(Q, n, i + 1, i)
    iso2 = fg.line_graph_iso(2, Q)
    # CK2 at v1 forces e1 e1* = v1 under the iso
    g2 = iso2.graph
    e1 = algebra.edge_element(g2, Q, "e1")
    assert iso2.image(e1 * algebra.star(e1)) == iso2.image(
        algebra.vertex_element(g2, Q, "v1")
    )


def test_line_corner_is_the_iso_block(graphs_by_name, Q):
    """On A_5 every line witness's corner is the (i, j) block of the matrix
    isomorphism: on each reduced word of length <= 3 the isomorphism's image
    is the identity outside rows and columns i, j and the corner within."""
    g = graphs_by_name["a5"]
    iso = fg.LineGraphIso(g, Q)
    n, one = len(g.vertices), fields.int_payload(Q, 1)
    for block in ((i, j) for j in range(2, n + 1) for i in range(1, j)):
        pair = fg.build_generators(g, Q, fg.LineGraph(*block), two(Q))
        off = {(k, k): one for k in range(1, n + 1) if k not in block}
        gens = (pair.a, pair.b, pair.a_inv, pair.b_inv)
        inverse_of = (2, 3, 0, 1)
        stack = [(algebra.identity(g, Q), -1, 0)]
        while stack:
            word, last, depth = stack.pop()
            for k in range(4):
                if last >= 0 and k == inverse_of[last]:
                    continue
                nword = word * gens[k]
                within = {(block[r - 1], block[c - 1]): x
                          for (r, c), x in pair.corner(nword).terms}
                assert iso.image(nword) == linalg.square(Q, n, {**off, **within})
                if depth + 1 < 3:
                    stack.append((nword, k, depth + 1))


def test_iso_is_multiplicative(Q, rng):
    import sampling

    iso = fg.line_graph_iso(4, Q)
    g = iso.graph
    for _ in range(25):
        x = sampling.random_element(rng, g, Q)
        y = sampling.random_element(rng, g, Q)
        assert iso.image(x * y) == iso.image(x) * iso.image(y)
        assert iso.image(x + y) == iso.image(x) + iso.image(y)
