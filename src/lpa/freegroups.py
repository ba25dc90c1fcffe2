"""Free-subgroup generators inside unit groups of path algebras.

Each witness pins a 2x2 (or n x n) matrix corner of the algebra; the
generator pair lifts the classical free matrix pair through that corner,
with closed-form inverses.  Freeness is certified up to a word-length bound
by exhaustive evaluation of reduced words, both in the algebra and in the
matrix image (a homomorphism, so a trivial algebra word would force a
trivial matrix word).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import algebra, corpus, fields, graphs, ideals, linalg, reps


class WitnessError(ValueError):
    pass


class ParameterError(ValueError):
    pass


# -- witnesses ---------------------------------------------------------------

@dataclass(frozen=True)
class SinkEdge:
    edge: str


@dataclass(frozen=True)
class QuotientSink:
    spec: ideals.IdealSpec
    edge: str
    target: str


@dataclass(frozen=True)
class BreakingVertex:
    spec: ideals.IdealSpec
    vertex: str
    edge: str


@dataclass(frozen=True)
class RationalPathEdge:
    edge: str
    tail: reps.RationalTail


@dataclass(frozen=True)
class LineGraph:
    i: int
    j: int


def validate_witness(g, witness):
    if isinstance(witness, SinkEdge):
        f = witness.edge
        if f not in g.edge_map:
            raise WitnessError(f"unknown edge {f!r}")
        if graphs.classify_vertex(g, g.range(f)) != graphs.SINK:
            raise WitnessError(f"range of {f!r} is not a sink")
    elif isinstance(witness, QuotientSink):
        f, w = witness.edge, witness.target
        if f not in g.edge_map or g.range(f) != w:
            raise WitnessError(f"edge {f!r} must end at the quotient sink {w!r}")
        if w in witness.spec.H:
            raise WitnessError(f"{w!r} lies in H")
        quotient = ideals.quotient_graph(g, witness.spec)
        if graphs.classify_vertex(quotient, w) != graphs.SINK:
            raise WitnessError(f"{w!r} is not a sink in the quotient graph")
    elif isinstance(witness, BreakingVertex):
        w, f = witness.vertex, witness.edge
        B = ideals.breaking_vertices(g, witness.spec.H)
        if w not in B or w in witness.spec.S:
            raise WitnessError(f"{w!r} is not in B_H \\ S")
        if f not in g.edge_map or g.range(f) != w:
            raise WitnessError(f"edge {f!r} must end at the breaking vertex {w!r}")
    elif isinstance(witness, RationalPathEdge):
        f, tail = witness.edge, witness.tail
        if f not in g.edge_map:
            raise WitnessError(f"unknown edge {f!r}")
        canon = reps.canonicalize_rational(g, tail.prefix, tail.cycle, tail.phase)
        if canon != tail:
            raise WitnessError("tail is not in canonical form")
        if g.range(f) != tail.start(g):
            raise WitnessError("the edge must end at the start of the tail")
        if g.source(f) == g.range(f):
            raise WitnessError("the entering edge must satisfy s(f) != r(f)")
    elif isinstance(witness, LineGraph):
        line = _line_order(g)
        if line is None:
            raise WitnessError("graph is not an oriented line")
        n = len(line[0])
        if not (1 <= witness.i < witness.j <= n):
            raise WitnessError(f"need 1 <= i < j <= {n}")
    else:
        raise WitnessError(f"unknown witness {witness!r}")


def _line_order(g):
    """``(chain, edges)`` when the graph is v1 -> v2 -> ... -> vn, n >= 2 (in
    some vertex order), else None."""
    if g.bundles or len(g.edges) != len(g.vertices) - 1 or len(g.vertices) < 2:
        return None
    indeg = {v: 0 for v in g.vertices}
    for e in g.edges:
        indeg[e.dst] += 1
    sources = [v for v in g.vertices if indeg[v] == 0]
    if len(sources) != 1:
        return None
    chain, edges = [sources[0]], []
    while g.out_edges[chain[-1]]:
        out = g.out_edges[chain[-1]]
        if len(out) != 1:
            return None
        edges.append(out[0])
        chain.append(g.range(out[0]))
    if len(chain) != len(g.vertices) or len(set(chain)) != len(chain):
        return None
    return chain, edges


# -- parameter validation ------------------------------------------------------

def validate_parameters(field, alpha, beta):
    """Characteristic 0 takes alpha = 2 or a function-field variable;
    characteristic p takes two distinct function-field variables."""
    prof = fields.profile(field)
    gens = prof["independent_generators"]
    if field.char == 0:
        if alpha != fields.from_int(field, 2) and alpha not in gens:
            raise ParameterError(
                "characteristic 0 needs alpha = 2 or a declared-transcendental "
                "function-field variable"
            )
        return "zero"
    if beta is None:
        raise ParameterError("characteristic p needs a second parameter beta")
    if alpha not in gens or beta not in gens or alpha == beta:
        raise ParameterError(
            "characteristic p needs alpha, beta two distinct function-field "
            "variables (algebraically independent by construction)"
        )
    return "prime"


# -- the classical matrix pair -------------------------------------------------

@dataclass(frozen=True)
class MatrixPair:
    char_case: str
    a: linalg.DenseMatrix
    b: linalg.DenseMatrix
    a_inv: linalg.DenseMatrix
    b_inv: linalg.DenseMatrix


def _dressed(one, a_part, b_part, p_idem, q_idem, alpha, beta):
    """``(a, b, a_inv, b_inv)`` with ``a = 1 + alpha a_part``, ``b = 1 + alpha
    b_part`` and their inverses ``1 - alpha part``; given beta, the pair adds
    ``(beta - 1) p + (beta^-1 - 1) q`` and the inverses the mirror image.
    Works on anything with ``+``, ``-`` and ``scale``."""
    a, b = one + a_part.scale(alpha), one + b_part.scale(alpha)
    a_inv, b_inv = one - a_part.scale(alpha), one - b_part.scale(alpha)
    if beta is None:
        return a, b, a_inv, b_inv
    om, bi = fields.one(beta.field), beta.inverse()
    dress = p_idem.scale(beta - om) + q_idem.scale(bi - om)
    undress = p_idem.scale(bi - om) + q_idem.scale(beta - om)
    return a + dress, b + dress, a_inv + undress, b_inv + undress


def _unit_pair(case, field, n, units, alpha, beta):
    """The pair of ``_dressed`` on n x n matrix units: ``units`` holds the
    (row, column) positions of a_part, b_part, p and q."""
    parts = (linalg.matrix_unit(field, n, i, j) for i, j in units)
    return MatrixPair(case, *_dressed(
        linalg.identity_matrix(field, n), *parts, alpha, beta if case == "prime" else None
    ))


def sanov_pair(field, alpha, beta=None):
    """I + alpha E21 and I + alpha E12, beta-dressed in characteristic p."""
    case = validate_parameters(field, alpha, beta)
    return _unit_pair(case, field, 2, ((2, 1), (1, 2), (1, 1), (2, 2)), alpha, beta)


# -- generator pairs -----------------------------------------------------------

@dataclass(frozen=True)
class GeneratorPair:
    graph: graphs.Graph
    field: fields.FieldDescriptor
    witness: object
    char_case: str
    alpha: fields.FieldElement
    beta: Optional[fields.FieldElement]
    a: algebra.AlgebraElement
    b: algebra.AlgebraElement
    a_inv: algebra.AlgebraElement
    b_inv: algebra.AlgebraElement
    matrices: MatrixPair


def _witness_parts(g, field, witness):
    """(a_part, b_part, p_idem, q_idem) with a = 1 + alpha a_part etc."""
    if isinstance(witness, (SinkEdge, QuotientSink, RationalPathEdge)):
        f = witness.edge
        fe = algebra.edge_element(g, field, f)
        return (
            algebra.star(fe),
            fe,
            algebra.vertex_element(g, field, g.source(f)),
            algebra.vertex_element(g, field, g.range(f)),
        )
    if isinstance(witness, BreakingVertex):
        f = witness.edge
        fe = algebra.edge_element(g, field, f)
        wh = ideals.wh_element(g, witness.vertex, witness.spec.H, field)
        return (
            wh * algebra.star(fe),
            fe * wh,
            algebra.vertex_element(g, field, g.source(f)),
            wh,
        )
    chain, edges = _line_order(g)
    path = algebra.path_element(g, field, edges[witness.i - 1:witness.j - 1])
    return (
        path,
        algebra.star(path),
        algebra.vertex_element(g, field, chain[witness.i - 1]),
        algebra.vertex_element(g, field, chain[witness.j - 1]),
    )


def build_generators(g, field, witness, alpha, beta=None):
    validate_witness(g, witness)
    case = validate_parameters(field, alpha, beta)
    if case == "prime" and isinstance(witness, BreakingVertex) \
            and g.source(witness.edge) == witness.vertex:
        raise WitnessError(
            "characteristic p needs s(f) != w: the beta idempotents s(f) "
            "and w^H must be orthogonal"
        )
    a, b, a_inv, b_inv = _dressed(
        algebra.identity(g, field), *_witness_parts(g, field, witness),
        alpha, beta if case == "prime" else None,
    )
    for x, y in ((a, a_inv), (b, b_inv)):
        if not algebra.verify_inverse(x, y):
            raise WitnessError("closed-form inverse failed verification")
    if isinstance(witness, LineGraph):
        i, j = witness.i, witness.j
        matrices = _unit_pair(case, field, len(g.vertices),
                              ((i, j), (j, i), (i, i), (j, j)), alpha, beta)
    else:
        matrices = sanov_pair(field, alpha, beta)
    pair = GeneratorPair(
        g, field, witness, case, alpha, beta, a, b, a_inv, b_inv, matrices
    )
    images = matrix_images(pair)
    for got, expect in zip(images, (matrices.a, matrices.b, matrices.a_inv, matrices.b_inv)):
        if got != expect:
            raise WitnessError("matrix image of a generator disagrees with the formula")
    return pair


# -- images in the matrix corner -----------------------------------------------

def _corner_image(module, b1, b2, x):
    """The matrix of x acting on the two-dimensional space spanned by the
    module vectors b1, b2 (the paper's corner map: s(f) -> E11, f -> E12);
    raises when x does not stabilize the span."""
    field = module.field
    cols = []
    for b in (b1, b2):
        out = reps.act(x, reps.basis_vector(module, b))
        coeffs = dict(out.terms)
        extra = set(coeffs) - {b1, b2}
        if extra:
            raise WitnessError(
                "element does not stabilize the corner: it moves "
                f"{reps.render_basis(b)} outside the span"
            )
        cols.append((coeffs.get(b1, fields.zero(field)), coeffs.get(b2, fields.zero(field))))
    return linalg.from_rows(field, zip(*cols))


def _sink_corner(g, field, fe, x):
    w = g.range(fe)
    module = reps.sink_module(g, field, w)
    return _corner_image(
        module, reps.SinkPath((fe,), w), reps.SinkPath((), w), x
    )


def element_image(pair, x):
    """The witness's matrix-corner image of an algebra element."""
    g, field, witness = pair.graph, pair.field, pair.witness
    if isinstance(witness, LineGraph):
        return LineGraphIso(g, field).image(x)
    if isinstance(witness, SinkEdge):
        return _sink_corner(g, field, witness.edge, x)
    if isinstance(witness, RationalPathEdge):
        tail = witness.tail
        module = reps.chen_module(g, field, tail.cycle)
        moved = reps.canonicalize_rational(
            g, (witness.edge,) + tail.prefix, tail.cycle, tail.phase
        )
        return _corner_image(module, moved, tail, x)
    if isinstance(witness, QuotientSink):
        qm = ideals.make_quotient_map(g, witness.spec, field, check=False)
        return _sink_corner(qm.target, field, witness.edge, ideals.phi_apply(qm, x))
    # breaking vertex: pass to the quotient, where w^H becomes the primed sink
    qm = ideals.make_quotient_map(g, witness.spec, field, check=False)
    return _sink_corner(
        qm.target, field, ideals.primed(witness.edge), ideals.phi_apply(qm, x)
    )


def matrix_images(pair):
    return tuple(element_image(pair, x) for x in (pair.a, pair.b, pair.a_inv, pair.b_inv))


def two_by_two_image(pair):
    """The 2x2 images of the generator pair; line-graph witnesses use the
    full n x n isomorphism instead."""
    if isinstance(pair.witness, LineGraph):
        raise WitnessError("line-graph witnesses map through the n x n isomorphism")
    a_img, b_img, _, _ = matrix_images(pair)
    return a_img, b_img


# -- word verification -----------------------------------------------------------

@dataclass(frozen=True)
class FreenessReport:
    max_length: int
    words_checked: int
    all_nontrivial: bool
    matrix_crosscheck: bool
    failures: tuple


def expected_word_count(L):
    return sum(4 * 3 ** (k - 1) for k in range(1, L + 1))


def verify_free_up_to(pair, L):
    """Evaluate every nonempty reduced word of length <= L over the pair and
    its inverses, in the algebra and in the matrix corner."""
    if L < 1:
        raise ValueError("word length bound must be >= 1")
    names = ("a", "b", "a^-1", "b^-1") if pair.char_case == "zero" else (
        "c", "d", "c^-1", "d^-1"
    )
    alg = (pair.a, pair.b, pair.a_inv, pair.b_inv)
    mat = matrix_images(pair)
    inverse_of = (2, 3, 0, 1)
    one_alg = algebra.identity(pair.graph, pair.field)
    one_mat = linalg.identity_matrix(pair.field, mat[0].n)
    checked = 0
    failures = []
    matrix_ok = True
    stack = [(one_alg, one_mat, -1, 0, ())]
    while stack:
        elt, m, last, depth, word = stack.pop()
        if depth == L:
            continue
        for k in range(4):
            if last >= 0 and k == inverse_of[last]:
                continue
            nelt = elt * alg[k]
            nmat = m * mat[k]
            nword = word + (names[k],)
            checked += 1
            alg_trivial = nelt == one_alg
            mat_trivial = nmat == one_mat
            if alg_trivial:
                failures.append(" ".join(nword))
            if mat_trivial:
                matrix_ok = False
            if alg_trivial and not mat_trivial:
                # impossible for a homomorphism; flag loudly
                failures.append("INCONSISTENT: " + " ".join(nword))
                matrix_ok = False
            stack.append((nelt, nmat, k, depth + 1, nword))
    if checked != expected_word_count(L):
        raise WitnessError(f"checked {checked} words, expected {expected_word_count(L)}")
    return FreenessReport(L, checked, not failures, matrix_ok, tuple(failures[:32]))


# -- witness search ----------------------------------------------------------------

def find_witness(g, spec=None, preferred=None):
    """Enumerate the free-pair witnesses the graph supports."""
    out = []
    for e in g.edges:
        if graphs.classify_vertex(g, e.dst) == graphs.SINK:
            out.append(SinkEdge(e.name))
    if spec is not None:
        quotient = ideals.quotient_graph(g, spec)
        H = set(spec.H)
        for w in g.vertices:
            if w in H or graphs.classify_vertex(quotient, w) != graphs.SINK:
                continue
            if graphs.classify_vertex(g, w) == graphs.SINK:
                continue    # already found as a plain sink witness
            for e in g.edges:
                if e.dst == w:
                    out.append(QuotientSink(spec, e.name, w))
        for w in ideals.breaking_vertices(g, spec.H):
            if w in spec.S:
                continue
            for e in g.edges:
                if e.dst == w:
                    out.append(BreakingVertex(spec, w, e.name))
    for c in g.cycles:
        if not graphs.is_exclusive_cycle(g, c):
            continue
        for k in range(len(c.edges)):
            tail = reps.canonicalize_rational(g, (), c.edges, k)
            u = tail.start(g)
            for e in g.edges:
                if e.dst == u and e.src != u:
                    out.append(RationalPathEdge(e.name, tail))
    line = _line_order(g)
    if line is not None:
        n = len(line[0])
        out += [LineGraph(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    if preferred is not None:
        ranked = [w for w in out if isinstance(w, preferred)]
        ranked += [w for w in out if not isinstance(w, preferred)]
        out = ranked
    return out


# -- the line-graph isomorphism ------------------------------------------------------

@dataclass(frozen=True)
class LineGraphIso:
    graph: graphs.Graph
    field: fields.FieldDescriptor

    def generator_table(self):
        chain, edges = _line_order(self.graph)
        n = len(chain)
        table = {}
        for i, v in enumerate(chain, start=1):
            table[v] = linalg.matrix_unit(self.field, n, i, i)
        for i, e in enumerate(edges, start=1):
            table[e] = linalg.matrix_unit(self.field, n, i, i + 1)
            table[e + "*"] = linalg.matrix_unit(self.field, n, i + 1, i)
        return table

    def image(self, x):
        g = self.graph
        chain, _ = _line_order(g)
        index = {v: i for i, v in enumerate(chain, start=1)}
        add, _, _, zero = self.field.ops
        acc = {}
        for m, c in x.terms:
            i = index[algebra.mono_source(g, m)]
            j = index[algebra.mono_range(g, m)]
            fields.add_term(acc, (i, j), c.payload, add, zero)
        return linalg.square(self.field, len(chain), acc)


def line_graph_iso(n, field):
    """L_K(A_n) -> M_n(K): v_i -> E_ii, e_i -> E_{i,i+1}, e_i* -> E_{i+1,i}."""
    return LineGraphIso(corpus.line_graph(n), field)


# -- unit-group structure ---------------------------------------------------------------

@dataclass(frozen=True)
class UnitGroupDescriptor:
    kind: str               # "product" | "not_artinian_or_noetherian"
    gl_sizes: tuple         # GL_n(K) factors, one per sink
    laurent_sizes: tuple    # GL_m(K[x,x^-1]) factors, one per no-exit cycle
    diagnostics: tuple = ()

    def render(self):
        if self.kind != "product":
            return "NotArtinianOrNoetherian(" + "; ".join(self.diagnostics) + ")"
        bits = []
        for n in self.gl_sizes:
            bits.append("K^x" if n == 1 else f"GL_{n}(K)")
        for m in self.laurent_sizes:
            bits.append("K^x<x>" if m == 1 else f"GL_{m}(K[x,x^-1])")
        return " x ".join(bits) if bits else "trivial"


def unit_group_structure(g, field=None):
    """Artinian case: one GL_n(K) per sink.  Noetherian case: additionally one
    GL_m(K[x,x^-1]) per (necessarily disjoint, exit-free) cycle.  Anything
    else is reported with the obstruction."""
    diags = []
    for v in g.vertices:
        if graphs.classify_vertex(g, v) == graphs.INFINITE_EMITTER:
            diags.append(f"infinite emitter {v}")
    for c in g.cycles:
        exit_edge = graphs.cycle_exit(g, c)
        if exit_edge is not None:
            diags.append(f"cycle {'.'.join(c.edges)} has exit {exit_edge}")
    if diags:
        return UnitGroupDescriptor("not_artinian_or_noetherian", (), (), tuple(diags))
    cycle_edges = {e for c in g.cycles for e in c.edges}
    counts = _paths_into(g, cycle_edges)
    gl = tuple(
        counts[v] for v in g.vertices if graphs.classify_vertex(g, v) == graphs.SINK
    )
    laurent = tuple(sum(counts[v] for v in c.vertices(g)) for c in g.cycles)
    return UnitGroupDescriptor("product", gl, laurent)


def _paths_into(g, excluded_edges):
    """Number of paths (trivial included) ending at each vertex, avoiding the
    excluded edges; the pruned graph must be acyclic.  Counted in a
    topological order (Kahn), so each in-edge adds its source's count."""
    pending = {v: 0 for v in g.vertices}
    for e in g.edges:
        if e.name not in excluded_edges:
            pending[e.dst] += 1
    ready = [v for v in g.vertices if not pending[v]]
    counts = {}
    while ready:
        v = ready.pop()
        counts[v] = 1 + sum(counts[g.source(e)] for e in g.in_edges[v]
                            if e not in excluded_edges)
        for e in g.out_edges[v]:
            if e not in excluded_edges:
                w = g.range(e)
                pending[w] -= 1
                if not pending[w]:
                    ready.append(w)
    if len(counts) != len(g.vertices):
        raise WitnessError("path counting hit a cycle outside the excluded set")
    return counts
