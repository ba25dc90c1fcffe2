"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its elapsed time and asserting the stated tolerance (exactness) and
time budget."""

import random
import time

import oracles
import sampling
from lpa import (
    algebra,
    fields,
    freegroups as fg,
    graphs,
    ideals,
    linalg,
    reps,
    toeplitz as tp,
)
from test_algebra import relation_differences


class Criterion:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"\n[{status}] criterion {self.number}: {self.label} "
            f"({elapsed:.2f}s, budget {self.budget}s)"
        )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget"
            )
        return False


def test_criterion_1_relation_suite(graphs_by_name, Q):
    with Criterion(1, "defining relations normal-form to zero on the corpus", 5):
        for name, g in graphs_by_name.items():
            for mode in (algebra.LEAVITT, algebra.COHN):
                for d in relation_differences(g, Q, mode):
                    assert d.is_zero(), (name, mode)


def test_criterion_2_ring_axioms_and_confluence(graphs_by_name, Q):
    with Criterion(2, "ring axioms on 200 triples/graph + 500 confluence inputs", 60):
        rng = random.Random(2024)
        for name, g in graphs_by_name.items():
            for _ in range(200):
                x = sampling.random_element(rng, g, Q, max_terms=2, max_len=2)
                y = sampling.random_element(rng, g, Q, max_terms=2, max_len=2)
                z = sampling.random_element(rng, g, Q, max_terms=2, max_len=2)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
        names = list(graphs_by_name)
        for i in range(500):
            g = graphs_by_name[names[i % len(names)]]
            mode = algebra.LEAVITT if i % 3 else algebra.COHN
            combo = {}
            for _ in range(rng.randint(1, 3)):
                w = oracles.random_free_word(rng, g, 4)
                combo[w] = combo.get(w, 0) + rng.choice([-2, -1, 1, 2])
            structured = algebra.zero(g, Q, mode)
            for w, c in combo.items():
                structured = structured + oracles.word_to_element(
                    g, Q, w, mode
                ).scale(fields.from_int(Q, c))
            fix = oracles.rewrite_to_fixpoint(
                g, combo, rng, leavitt=(mode == algebra.LEAVITT)
            )
            assert oracles.combo_to_element(g, Q, fix, mode) == structured


def test_criterion_3_line_graph_basis(graphs_by_name, Q):
    with Criterion(3, "Leavitt basis of A_n has n^2 elements, no forbidden monomials", 10):
        for n in (2, 3, 4, 5):
            g = graphs_by_name[f"a{n}"]
            basis = algebra.leavitt_basis(g)
            assert len(basis) == n * n
            iso = fg.line_graph_iso(n, Q)
            images = set()
            for m in basis:
                assert not algebra.is_forbidden(g, m)
                x = algebra.element(g, Q, algebra.LEAVITT, {m: fields.one(Q)})
                img = iso.image(x)
                cells = [
                    (i, j)
                    for i in range(1, n + 1)
                    for j in range(1, n + 1)
                    if not img.entry(i, j).is_zero()
                ]
                assert len(cells) == 1
                images.add(cells[0])
            assert len(images) == n * n
        # forbidden monomials never appear in computed normal forms
        rng = random.Random(33)
        for g in graphs_by_name.values():
            for _ in range(40):
                x = sampling.random_element(rng, g, Q)
                y = sampling.random_element(rng, g, Q)
                for m, _ in (x * y).terms:
                    assert not algebra.is_forbidden(g, m)


def test_criterion_4_paper_examples_exact(graphs_by_name, Q, F5st):
    with Criterion(4, "worked examples reproduce exactly", 10):
        e11 = graphs_by_name["ex11"]
        H = ("v1", "v2")
        assert ideals.breaking_vertices(e11, H) == ("v", "w")
        # quotient graph of (H, {v}): vertices and edges as displayed
        spec = ideals.admissible_pair(e11, H, ("v",))
        F = ideals.quotient_graph(e11, spec)
        assert set(F.vertices) == {"v", "v3", "w", "w_q"}
        assert {e.name for e in F.edges} == {"f", "g", "h", "f_q", "g_q", "h_q"}
        assert all(F.edge_map[p].dst == "w_q" for p in ("f_q", "g_q", "h_q"))
        # w^H = w - f f*
        wh = ideals.wh_element(e11, "w", H, Q)
        fe = algebra.edge_element(e11, Q, "f")
        assert wh == algebra.vertex_element(e11, Q, "w") - fe * algebra.star(fe)
        # phi identities
        qm = ideals.make_quotient_map(e11, spec, Q)
        assert ideals.phi_apply(qm, wh) == algebra.vertex_element(qm.target, Q, "w_q")
        assert ideals.phi_apply(qm, fe * wh) == algebra.edge_element(qm.target, Q, "f_q")
        assert ideals.phi_apply(qm, wh * algebra.star(fe)) == algebra.star(
            algebra.edge_element(qm.target, Q, "f_q")
        )
        # classifications: type I / II / III on the three worked graphs
        assert ideals.classify_primitive_witness(e11, spec).kind == "I"
        assert ideals.classify_primitive_witness(e11, spec).witness_vertex == "w"
        e35 = graphs_by_name["ex35"]
        spec35 = ideals.admissible_pair(e35, ("w",), ())
        assert ideals.classify_primitive_witness(e35, spec35).kind == "II"
        e62 = graphs_by_name["ex62"]
        spec62 = ideals.admissible_pair(e62, ("v",), ())
        rep62 = ideals.classify_primitive_witness(e62, spec62)
        assert rep62.kind == "III" and rep62.witness_cycle == ("e",)
        # the sink-witness generator over the type II graph: a = v+u+w+2 f*
        two = fields.from_int(Q, 2)
        pair54 = fg.build_generators(e35, Q, fg.QuotientSink(spec35, "f", "v"), two)
        assert pair54.a == algebra.identity(e35, Q) + algebra.star(
            algebra.edge_element(e35, Q, "f")
        ).scale(two)
        # the char-p Toeplitz generator: c = t u + (1/t) v + s f*
        T = graphs_by_name["toeplitz"]
        s, t = fields.variable(F5st, "s"), fields.variable(F5st, "t")
        pair56 = fg.build_generators(T, F5st, fg.SinkEdge("f"), s, t)
        expected = (
            algebra.vertex_element(T, F5st, "u").scale(t)
            + algebra.vertex_element(T, F5st, "v").scale(t.inverse())
            + algebra.star(algebra.edge_element(T, F5st, "f")).scale(s)
        )
        assert pair56.a == expected
        # the breaking-vertex generator of the two-emitter graph
        pair45 = fg.build_generators(e11, Q, fg.BreakingVertex(spec, "w", "f"), two)
        assert pair45.a == algebra.identity(e11, Q) + (
            wh * algebra.star(fe)
        ).scale(two)


def test_criterion_5_toeplitz_realization(Q, rng):
    with Criterion(5, "Jacobson relations, matrix units, truncated embedding", 30):
        g = tp.toeplitz_graph()
        X, Y = tp.shift_generators(g, Q)
        assert X * Y == algebra.identity(g, Q)
        assert Y * X == algebra.vertex_element(g, Q, "u")
        assert algebra.render(tp.toeplitz_matrix_units(1, 1, Q)) == "v"
        assert algebra.render(tp.toeplitz_matrix_units(2, 1, Q)) == "f"
        assert algebra.render(tp.toeplitz_matrix_units(1, 2, Q)) == "f*"
        F = {
            (i, j): tp.toeplitz_matrix_units(i, j, Q)
            for i in range(1, 5)
            for j in range(1, 5)
        }
        zero = algebra.zero(g, Q)
        for (i, j), fij in F.items():
            for (k, l), fkl in F.items():
                assert fij * fkl == (F[(i, l)] if j == k else zero)
        N = 12
        for _ in range(30):
            x = sampling.random_element(rng, g, Q, max_terms=2, max_len=2)
            y = sampling.random_element(rng, g, Q, max_terms=2, max_len=2)
            lhs = tp.toeplitz_embed(x * y, N).dense(N)
            rhs = (tp.toeplitz_embed(x, N) * tp.toeplitz_embed(y, N)).dense(N)
            assert lhs.dense(N - 4) == rhs.dense(N - 4)


def test_criterion_6_free_subgroup_desk_verification(graphs_by_name, Q, F5st):
    with Criterion(6, "freeness to length 8 over Q and length 6 over F5(s,t)", 300):
        T = graphs_by_name["toeplitz"]
        pair = fg.build_generators(T, Q, fg.SinkEdge("f"), fields.from_int(Q, 2))
        report = fg.verify_free_up_to(pair, 8)
        assert report.words_checked == 13120
        assert report.all_nontrivial
        assert report.matrix_crosscheck
        s, t = fields.variable(F5st, "s"), fields.variable(F5st, "t")
        pairp = fg.build_generators(T, F5st, fg.SinkEdge("f"), s, t)
        reportp = fg.verify_free_up_to(pairp, 6)
        assert reportp.words_checked == 1456
        assert reportp.all_nontrivial
        assert reportp.matrix_crosscheck


def test_criterion_7_phi_homomorphism(graphs_by_name, Q):
    with Criterion(7, "phi is a ring homomorphism killing the kernel generators", 60):
        rng = random.Random(777)
        fixtures = []
        e11 = graphs_by_name["ex11"]
        fixtures.append((e11, ideals.admissible_pair(e11, ("v1", "v2"), ("v",))))
        fixtures.append((e11, ideals.admissible_pair(e11, ("v1", "v2"), ("v", "w"))))
        e35 = graphs_by_name["ex35"]
        fixtures.append((e35, ideals.admissible_pair(e35, ("w",), ())))
        e62 = graphs_by_name["ex62"]
        fixtures.append((e62, ideals.admissible_pair(e62, ("v",), ())))
        for g, spec in fixtures:
            qm = ideals.make_quotient_map(g, spec, Q)
            assert ideals.phi_apply(qm, algebra.identity(g, Q)) == algebra.identity(
                qm.target, Q
            )
            for _ in range(100):
                x = sampling.random_element(rng, g, Q, max_terms=2, max_len=3)
                y = sampling.random_element(rng, g, Q, max_terms=2, max_len=3)
                assert ideals.phi_apply(qm, x * y) == ideals.phi_apply(
                    qm, x
                ) * ideals.phi_apply(qm, y)
            for gen in ideals.kernel_generators(g, spec, Q):
                assert ideals.phi_apply(qm, gen).is_zero()


def test_criterion_8_module_representation(graphs_by_name, Q, Qi):
    with Criterion(8, "module actions satisfy the relations and compose", 60):
        T = graphs_by_name["toeplitz"]
        e11 = graphs_by_name["ex11"]
        modules = [
            reps.chen_module(T, Q, ("e",)),
            reps.sink_module(T, Q, "v"),
            reps.emitter_module(e11, Q, "v"),
        ]
        for module in modules:
            basis = reps.sample_basis(module, 50)
            rels = relation_differences(module.graph, Q, algebra.LEAVITT)
            for rel in rels:
                for b in basis:
                    assert reps.act(rel, reps.basis_vector(module, b)).is_zero()
        rng = random.Random(88)
        for module in modules:
            basis = reps.sample_basis(module, 20)
            for _ in range(100):
                x = sampling.random_element(rng, module.graph, Q)
                y = sampling.random_element(rng, module.graph, Q)
                m = reps.basis_vector(module, rng.choice(basis))
                assert reps.act(x * y, m) == reps.act(x, reps.act(y, m))
        # twisted variant over Q[x]/(x^2 + 1)
        tw = reps.chen_module(T, Qi, ("e",), twist_edge="e")
        basis = reps.sample_basis(tw, 50)
        for rel in relation_differences(T, Qi, algebra.LEAVITT):
            for b in basis:
                assert reps.act(rel, reps.basis_vector(tw, b)).is_zero()
        for _ in range(100):
            x = sampling.random_element(rng, T, Qi, max_terms=2, max_len=2)
            y = sampling.random_element(rng, T, Qi, max_terms=2, max_len=2)
            m = reps.basis_vector(tw, rng.choice(basis))
            assert reps.act(x * y, m) == reps.act(x, reps.act(y, m))


def test_criterion_9_unit_group_classifier(graphs_by_name):
    with Criterion(9, "unit-group structure of A4, R1, A2+R1, Toeplitz", 5):
        assert fg.unit_group_structure(graphs_by_name["a4"]).render() == "GL_4(K)"
        assert fg.unit_group_structure(graphs_by_name["r1"]).render() == "K^x<x>"
        r1b = graphs.parse_graph("graph rr\nvertex z\nedge ez z z\n")
        both = graphs.disjoint_union("both", graphs_by_name["a2"], r1b)
        assert fg.unit_group_structure(both).render() == "GL_2(K) x K^x<x>"
        toep = fg.unit_group_structure(graphs_by_name["toeplitz"])
        assert toep.kind == "not_artinian_or_noetherian"
        assert "cycle e has exit f" in toep.diagnostics


def test_criterion_10_global_determinant(Q, Qt):
    with Criterion(10, "global determinant: identity, multiplicativity, SL", 10):
        assert tp.global_det(tp.aug_identity(Q)) == fields.one(Q)
        rng = random.Random(1010)
        for _ in range(100):
            entries_u = {}
            entries_v = {}
            for _ in range(4):
                entries_u[(rng.randint(1, 6), rng.randint(1, 6))] = (
                    sampling.random_scalar(rng, Q, nonzero=True)
                )
                entries_v[(rng.randint(1, 6), rng.randint(1, 6))] = (
                    sampling.random_scalar(rng, Q, nonzero=True)
                )
            u = tp.AugmentedMatrix(linalg.finitary(Q, {p: c.payload for p, c in entries_u.items()}))
            v = tp.AugmentedMatrix(linalg.finitary(Q, {p: c.payload for p, c in entries_v.items()}))
            du, dv = tp.global_det(u), tp.global_det(v)
            assert tp.global_det(u * v) == du * dv
            n = max(u.perturbation.support_bound, 1)
            assert du == oracles.det_cofactor(u.dense(n))
        # unitriangular samples lie in SL
        for _ in range(20):
            i = rng.randint(1, 5)
            j = rng.randint(i + 1, 7)
            u = tp.aug_from_units(
                Q, [(i, j, fields.from_int(Q, rng.randint(1, 9)))]
            )
            assert tp.in_SL_inf(u)
        # determinant over a function field
        t = fields.variable(Qt, "t")
        u = tp.aug_from_units(Qt, [(1, 1, t - fields.one(Qt))])
        assert tp.global_det(u) == t
