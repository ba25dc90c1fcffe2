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
        n = _line_length(g)
        if n is None:
            raise WitnessError("graph is not an oriented line")
        if not (1 <= witness.i < witness.j <= n):
            raise WitnessError(f"need 1 <= i < j <= {n}")
    else:
        raise WitnessError(f"unknown witness {witness!r}")


def _line_length(g):
    """n when the graph is v1 -> v2 -> ... -> vn (in some vertex order)."""
    if g.bundles or len(g.edges) != len(g.vertices) - 1 or len(g.vertices) < 2:
        return None
    indeg = {v: 0 for v in g.vertices}
    for e in g.edges:
        indeg[e.dst] += 1
    sources = [v for v in g.vertices if indeg[v] == 0]
    if len(sources) != 1:
        return None
    chain = [sources[0]]
    while True:
        out = g.out_edges[chain[-1]]
        if not out:
            break
        if len(out) != 1:
            return None
        chain.append(g.range(out[0]))
    if len(chain) != len(g.vertices) or len(set(chain)) != len(chain):
        return None
    return len(chain)


def _line_order(g):
    indeg = {v: 0 for v in g.vertices}
    for e in g.edges:
        indeg[e.dst] += 1
    start = next(v for v in g.vertices if indeg[v] == 0)
    chain = [start]
    edges = []
    while g.out_edges[chain[-1]]:
        e = g.out_edges[chain[-1]][0]
        edges.append(e)
        chain.append(g.range(e))
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


def sanov_pair(field, alpha, beta=None):
    """I + alpha E21 and I + alpha E12, beta-dressed in characteristic p."""
    case = validate_parameters(field, alpha, beta)
    o, z = fields.one(field), fields.zero(field)
    A = linalg.from_rows(field, [[o, z], [alpha, o]])
    B = linalg.from_rows(field, [[o, alpha], [z, o]])
    Ai = linalg.from_rows(field, [[o, z], [-alpha, o]])
    Bi = linalg.from_rows(field, [[o, -alpha], [z, o]])
    if case == "zero":
        return MatrixPair(case, A, B, Ai, Bi)
    bi = beta.inverse()
    C = linalg.from_rows(field, [[beta, z], [alpha, bi]])
    D = linalg.from_rows(field, [[beta, alpha], [z, bi]])
    Ci = linalg.from_rows(field, [[bi, z], [-alpha, beta]])
    Di = linalg.from_rows(field, [[bi, -alpha], [z, beta]])
    return MatrixPair(case, C, D, Ci, Di)


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
    a_part, b_part, p_idem, q_idem = _witness_parts(g, field, witness)
    one = algebra.identity(g, field)
    a = one + a_part.scale(alpha)
    b = one + b_part.scale(alpha)
    a_inv = one - a_part.scale(alpha)
    b_inv = one - b_part.scale(alpha)
    if case == "prime":
        if isinstance(witness, BreakingVertex) and g.source(witness.edge) == witness.vertex:
            raise WitnessError(
                "characteristic p needs s(f) != w: the beta idempotents s(f) "
                "and w^H must be orthogonal"
            )
        om = fields.one(field)
        bi = beta.inverse()
        a = a + p_idem.scale(beta - om) + q_idem.scale(bi - om)
        b = b + p_idem.scale(beta - om) + q_idem.scale(bi - om)
        a_inv = a_inv + p_idem.scale(bi - om) + q_idem.scale(beta - om)
        b_inv = b_inv + p_idem.scale(bi - om) + q_idem.scale(beta - om)
    for x, y in ((a, a_inv), (b, b_inv)):
        if not algebra.verify_inverse(x, y):
            raise WitnessError("closed-form inverse failed verification")
    if isinstance(witness, LineGraph):
        matrices = _line_matrix_pair(g, field, witness, alpha, beta, case)
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


def _line_matrix_pair(g, field, witness, alpha, beta, case):
    n = len(g.vertices)
    i, j = witness.i, witness.j
    I = linalg.identity_matrix(field, n)
    Ma = I + linalg.matrix_unit(field, n, i, j, alpha)
    Mb = I + linalg.matrix_unit(field, n, j, i, alpha)
    Mai = I - linalg.matrix_unit(field, n, i, j, alpha)
    Mbi = I - linalg.matrix_unit(field, n, j, i, alpha)
    if case == "prime":
        om = fields.one(field)
        bi = beta.inverse()
        dress = linalg.matrix_unit(field, n, i, i, beta - om) + linalg.matrix_unit(
            field, n, j, j, bi - om
        )
        undress = linalg.matrix_unit(field, n, i, i, bi - om) + linalg.matrix_unit(
            field, n, j, j, beta - om
        )
        Ma, Mb = Ma + dress, Mb + dress
        Mai, Mbi = Mai + undress, Mbi + undress
    return MatrixPair(case, Ma, Mb, Mai, Mbi)


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
    return linalg.DenseMatrix(
        field, ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))
    )


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

    def as_dict(self):
        return {
            "max_length": self.max_length,
            "words_checked": self.words_checked,
            "all_nontrivial": self.all_nontrivial,
            "matrix_crosscheck": self.matrix_crosscheck,
            "failures": list(self.failures),
        }


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
    for c in graphs.simple_cycles(g):
        if not graphs.is_exclusive_cycle(g, c):
            continue
        for k in range(len(c.edges)):
            tail = reps.canonicalize_rational(g, (), c.edges, k)
            u = tail.start(g)
            for e in g.edges:
                if e.dst == u and e.src != u:
                    out.append(RationalPathEdge(e.name, tail))
    n = _line_length(g)
    if n is not None:
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
        n = len(chain)
        out = linalg.zeros(self.field, n)
        for m, c in x.terms:
            i = index[algebra.mono_source(g, m)]
            j = index[algebra.mono_range(g, m)]
            out = out + linalg.matrix_unit(self.field, n, i, j, c)
        return out


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
    cycles = graphs.simple_cycles(g)
    for c in cycles:
        if graphs.cycle_has_exit(g, c):
            exit_edge = _first_exit(g, c)
            diags.append(f"cycle {'.'.join(c.edges)} has exit {exit_edge}")
    if diags:
        return UnitGroupDescriptor("not_artinian_or_noetherian", (), (), tuple(diags))
    cycle_edges = {e for c in cycles for e in c.edges}
    counts = _paths_into(g, cycle_edges)
    gl = tuple(
        counts[v] for v in g.vertices if graphs.classify_vertex(g, v) == graphs.SINK
    )
    laurent = tuple(sum(counts[v] for v in c.vertices(g)) for c in cycles)
    return UnitGroupDescriptor("product", gl, laurent)


def _first_exit(g, c):
    for name in c.edges:
        v = g.source(name)
        if g.out_bundles[v]:
            return f"bundle at {v}"
        for other in g.out_edges[v]:
            if other != name:
                return other
    raise AssertionError("cycle has no exit")


def _paths_into(g, excluded_edges):
    """Number of paths (trivial included) ending at each vertex, avoiding the
    excluded edges; the pruned graph must be acyclic."""
    counts = {}

    def count(v):
        if v in counts:
            return counts[v]
        counts[v] = None    # cycle guard
        total = 1
        for e in g.edges:
            if e.name in excluded_edges or e.dst != v:
                continue
            sub = count(e.src)
            if sub is None:
                raise WitnessError("path counting hit a cycle outside the excluded set")
            total += sub
        counts[v] = total
        return total

    for v in g.vertices:
        count(v)
    return counts
