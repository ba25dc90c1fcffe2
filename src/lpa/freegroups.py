"""Free-subgroup generators inside unit groups of path algebras.

Each witness pins a 2x2 matrix corner of the algebra: its action on two
basis vectors of a simple module of L_K(E) itself.  The generator pair lifts
the classical free matrix pair through that corner, with closed-form
inverses.  Freeness is certified up to a word-length bound in two steps: a
corner certificate, the one check of the corner against the matrices, proves
once per pair that the corner map sends every reduced word of that length to
its matrix word, and then the reduced words are walked on the matrices
alone.  Only a word whose matrix is the identity can be trivial, so only such
a word is evaluated in the algebra."""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional

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


def _line_order(g):
    """Vertex -> its position i when the graph is v1 -> v2 -> ... -> vn,
    n >= 2 (in some vertex order), else None."""
    if g.bundles or len(g.edges) != len(g.vertices) - 1 or len(g.vertices) < 2:
        return None
    chain = [v for v in g.vertices if not g.in_edges[v]]
    if len(chain) != 1:
        return None
    # with n - 1 edges and one source every other vertex has one in-edge, so
    # the walk visits distinct vertices, and all n only along a line
    while len(g.out_edges[chain[-1]]) == 1:
        chain.append(g.range(g.out_edges[chain[-1]][0]))
    if len(chain) != len(g.vertices):
        return None
    return {v: i for i, v in enumerate(chain, start=1)}


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


SANOV_UNITS = ((2, 1), (1, 2), (1, 1), (2, 2))
LINE_UNITS = ((1, 2), (2, 1), (1, 1), (2, 2))


def _unit_pair(field, units, alpha, beta):
    """The pair of ``_dressed`` on 2x2 matrix units: ``units`` holds the
    (row, column) positions of a_part, b_part, p and q."""
    parts = (linalg.matrix_unit(field, 2, i, j) for i, j in units)
    return MatrixPair(*_dressed(linalg.identity_matrix(field, 2), *parts, alpha, beta))


def sanov_pair(field, alpha, beta=None):
    """I + alpha E21 and I + alpha E12, beta-dressed in characteristic p."""
    case = validate_parameters(field, alpha, beta)
    return _unit_pair(field, SANOV_UNITS, alpha, beta if case == "prime" else None)


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
    # ((part, (i, j)), ...): the parts the generators use, with their matrix
    # units: a_part and b_part, and p and q in characteristic p
    parts: tuple = dataclasses.field(compare=False, repr=False)
    corner: Callable = dataclasses.field(compare=False, repr=False)

    @property
    def names(self):
        """The generators' names: a, b in characteristic 0, c, d in characteristic p."""
        return ("a", "b") if self.char_case == "zero" else ("c", "d")


def _corner(g, field, witness):
    """``(parts, units, corner)`` of a witness checked against the graph
    first: the parts (a_part, b_part, p_idem, q_idem) with a = 1 + alpha a_part
    etc., their 2x2 matrix units, and the corner map, built once on a module of E."""
    if isinstance(witness, LineGraph):
        index = _line_order(g)
        if index is None:
            raise WitnessError("graph is not an oriented line")
        chain, i, j = list(index), witness.i, witness.j
        if not 1 <= i < j <= len(chain):
            raise WitnessError(f"need 1 <= i < j <= {len(chain)}")
        edges = tuple(g.out_edges[v][0] for v in chain[:-1])
        path = algebra.path_element(g, field, edges[i - 1:j - 1])
        parts = (path, algebra.star(path), algebra.vertex_element(g, field, chain[i - 1]),
                 algebra.vertex_element(g, field, chain[j - 1]))
        # the corner of the sink module at v_n spanned by the paths from v_i and v_j
        return parts, LINE_UNITS, _sink_corner(g, field, chain[-1], edges[i - 1:], edges[j - 1:])
    if isinstance(witness, RationalPathEdge):
        f, tail = witness.edge, witness.tail
        if f not in g.edge_map:
            raise WitnessError(f"unknown edge {f!r}")
        if reps.canonicalize_rational(g, tail.prefix, tail.cycle, tail.phase) != tail:
            raise WitnessError("tail is not in canonical form")
        if g.range(f) != tail.start(g):
            raise WitnessError("the edge must end at the start of the tail")
        if g.source(f) == g.range(f):
            raise WitnessError("the entering edge must satisfy s(f) != r(f)")
        moved = reps.canonicalize_rational(g, (f,) + tail.prefix, tail.cycle, tail.phase)
        module = reps.chen_module(g, field, tail.cycle)
        return _edge_parts(g, field, f), SANOV_UNITS, _corner_map(module, moved, tail)
    if isinstance(witness, SinkEdge):
        f = witness.edge
        if f not in g.edge_map:
            raise WitnessError(f"unknown edge {f!r}")
        w = g.range(f)
        if graphs.classify_vertex(g, w) != graphs.SINK:
            raise WitnessError(f"range of {f!r} is not a sink")
        parts = _edge_parts(g, field, f)
    elif isinstance(witness, QuotientSink):
        f, w = witness.edge, witness.target
        if f not in g.edge_map or g.range(f) != w:
            raise WitnessError(f"edge {f!r} must end at the quotient sink {w!r}")
        if w in witness.spec.H:
            raise WitnessError(f"{w!r} lies in H")
        if graphs.classify_vertex(ideals.quotient_graph(g, witness.spec), w) != graphs.SINK:
            raise WitnessError(f"{w!r} is not a sink in the quotient graph")
        parts = _edge_parts(g, field, f)
    elif isinstance(witness, BreakingVertex):
        w, f = witness.vertex, witness.edge
        if w not in ideals.breaking_vertices(g, witness.spec.H) or w in witness.spec.S:
            raise WitnessError(f"{w!r} is not in B_H \\ S")
        if f not in g.edge_map or g.range(f) != w:
            raise WitnessError(f"edge {f!r} must end at the breaking vertex {w!r}")
        ideals.quotient_graph(g, witness.spec)     # refuses a quotient it cannot build
        fstar, fe, p_idem, _ = _edge_parts(g, field, f)
        wh = ideals.wh_element(g, w, witness.spec.H, field)
        parts = (wh * fstar, fe * wh, p_idem, wh)
    else:
        raise WitnessError(f"unknown witness {witness!r}")
    # E's module at w is the pullback along phi: E -> E/(H, S) of the quotient's
    # sink module at w, or at w_q for a breaking vertex: w^H acts as w_q does
    return parts, SANOV_UNITS, _sink_corner(g, field, w, (f,), ())


def _edge_parts(g, field, f):
    """(f*, f, s(f), r(f)) as algebra elements."""
    fe = algebra.edge_element(g, field, f)
    return (algebra.star(fe), fe, algebra.vertex_element(g, field, g.source(f)),
            algebra.vertex_element(g, field, g.range(f)))


def build_generators(g, field, witness, alpha, beta=None):
    parts, units, corner = _corner(g, field, witness)
    case = validate_parameters(field, alpha, beta)
    if case == "prime" and isinstance(witness, BreakingVertex) \
            and g.source(witness.edge) == witness.vertex:
        raise WitnessError(
            "characteristic p needs s(f) != w: the beta idempotents s(f) "
            "and w^H must be orthogonal"
        )
    dress = beta if case == "prime" else None
    a, b, a_inv, b_inv = _dressed(algebra.identity(g, field), *parts, alpha, dress)
    for x, y in ((a, a_inv), (b, b_inv)):
        if not algebra.verify_inverse(x, y):
            raise WitnessError("closed-form inverse failed verification")
    matrices = _unit_pair(field, units, alpha, dress)
    return GeneratorPair(g, field, witness, case, alpha, beta, a, b, a_inv, b_inv,
                         matrices, tuple(zip(parts, units))[:2 if dress is None else 4],
                         corner)


# -- images in the matrix corner -----------------------------------------------

def _corner_map(module, b1, b2):
    """The map sending x to its matrix acting on the two-dimensional space
    spanned by the module basis elements b1, b2 (the paper's corner map:
    s(f) -> E11, f -> E12); it raises when x does not stabilize the span."""
    index = {b1: 1, b2: 2}
    vectors = tuple((b, reps.basis_vector(module, b)) for b in index)

    def image(x):
        acc = {}
        for b, vec in vectors:
            for k, c in reps.act(x, vec).terms:
                if k not in index:
                    raise WitnessError(
                        "element does not stabilize the corner: it moves "
                        f"{reps.render_basis(b)} outside the span"
                    )
                acc[index[k], index[b]] = c
        return linalg.square(module.field, 2, acc)

    return image


def _sink_corner(g, field, w, path1, path2):
    """The corner map on the module at w, a sink or an infinite emitter,
    spanned by two paths into w."""
    sink = graphs.classify_vertex(g, w) == graphs.SINK
    module = (reps.sink_module if sink else reps.emitter_module)(g, field, w)
    return _corner_map(module, reps.FinitePath(path1, w), reps.FinitePath(path2, w))


def matrix_images(pair):
    return tuple(map(pair.corner, (pair.a, pair.b, pair.a_inv, pair.b_inv)))


# -- word verification -----------------------------------------------------------

@dataclass(frozen=True)
class FreenessReport:
    """``matrix_crosscheck`` is true when no walked word has the identity
    matrix; only such a word is evaluated in the algebra, and it is a
    failure when its value there is 1."""
    max_length: int
    words_checked: int
    all_nontrivial: bool
    matrix_crosscheck: bool
    failures: tuple


def expected_word_count(L):
    return sum(4 * 3 ** (k - 1) for k in range(1, L + 1))


# the word budget: expected_word_count(12) = 1,062,880 reduced words
MAX_VERIFY_LEN = 12

# the certificate's budget: basis elements of the span of part products
# (4 to 6 for the witnesses of the bundled graphs)
MAX_CORNER_DIM = 32


def certify_corner(pair, L):
    """Prove that the corner map sends every reduced word of length <= L to
    its matrix word; return the dimension of the span it built.

    Let S_d be the span of the products of at most d of the pair's parts.
    A word of length k lies in S_k, and a generator c 1 + sum c_s s has the
    matrix c I + sum c_s E_s, E_s the matrix unit of the part s.  So by
    induction on the word length it suffices that corner(1) = I and
    corner(y s) = corner(y) E_s for each part s and each y in a basis of
    S_(L-1).  The basis is built depth by depth by exact elimination, and
    each pivot row carries its corner: a product in the span gets its corner
    by linearity, and the corner map runs only on the products admitted to
    the basis.  At L = 1 this is corner(1) = I and corner(s) = E_s for each
    part, which by linearity is the claim on the generators' images."""
    field = pair.field
    add, mul, neg, zero = field.ops
    one, eye = algebra.identity(pair.graph, field), linalg.identity_matrix(field, 2)
    if pair.corner(one) != eye:
        raise WitnessError("the corner map does not send 1 to the identity")
    rows = []       # (pivot monomial, row with pivot coefficient 1, its corner)

    def admit(acc, corner):
        if len(rows) == MAX_CORNER_DIM:
            raise WitnessError(f"the corner certificate needs more than "
                               f"MAX_CORNER_DIM = {MAX_CORNER_DIM} basis elements")
        pivot, lead = next(iter(acc.items()))
        inv = fields._inv(field, lead)
        rows.append((pivot, tuple((m, mul(d, inv)) for m, d in acc.items()),
                     corner.scale_payload(inv)))

    admit(dict(one.terms), eye)
    null = linalg.square(field, 2, {})
    layer = [(one, eye)]
    for _ in range(L):
        admitted = []
        for y, cy in layer:
            for s, (i, j) in pair.parts:
                x = y * s
                acc, combo = dict(x.terms), []
                for pivot, row, corner in rows:
                    c = acc.get(pivot)
                    if c is not None:
                        k = neg(c)
                        for m, d in row:
                            fields.add_term(acc, m, mul(k, d), add, zero)
                        combo.append((corner, c))
                if acc:
                    cx = pair.corner(x)
                    admit(acc, cx.add_scaled((corner, neg(c)) for corner, c in combo))
                    admitted.append((x, cx))
                else:
                    cx = null.add_scaled(combo)
                # corner(y) E_ij: column i of corner(y) moved to column j
                if cx != linalg.square(field, 2, {(r, j): c for (r, k), c in cy.terms
                                                  if k == i}):
                    raise WitnessError(
                        "the corner map is not multiplicative on the span of the parts"
                    )
        layer = admitted
    return len(rows)


def verify_free_up_to(pair, L):
    """Walk every nonempty reduced word of length <= L over the pair and its
    inverses on the matrices, once ``certify_corner`` holds to length L; a
    word is evaluated in the algebra only when its matrix is the identity,
    and it is a failure when its value there is 1."""
    if not 1 <= L <= MAX_VERIFY_LEN:
        raise ValueError(f"word length bound must lie in 1..{MAX_VERIFY_LEN}")
    certify_corner(pair, L)
    a, b = pair.names
    names = (a, b, a + "^-1", b + "^-1")
    alg = (pair.a, pair.b, pair.a_inv, pair.b_inv)
    pm = pair.matrices
    mat = (pm.a, pm.b, pm.a_inv, pm.b_inv)
    inverse_of = (2, 3, 0, 1)
    one_alg = algebra.identity(pair.graph, pair.field)
    one_mat = linalg.identity_matrix(pair.field, 2)
    checked = 0
    failures = []
    matrix_ok = True
    stack = [(one_mat, -1, 0, ())]
    while stack:
        m, last, depth, word = stack.pop()
        for k in range(4):
            if last >= 0 and k == inverse_of[last]:
                continue
            nmat = m * mat[k]
            nword = word + (k,)
            checked += 1
            if nmat == one_mat:
                matrix_ok = False
                if reduce(operator.mul, (alg[i] for i in nword)) == one_alg:
                    failures.append(" ".join(names[i] for i in nword))
            if depth + 1 < L:
                stack.append((nmat, k, depth + 1, nword))
    if checked != expected_word_count(L):
        raise WitnessError(f"checked {checked} words, expected {expected_word_count(L)}")
    return FreenessReport(L, checked, not failures, matrix_ok, tuple(failures[:32]))


# -- witness search ----------------------------------------------------------------

def find_witness(g, spec=None):
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
        n = len(line)
        out += [LineGraph(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    return out


# -- the line-graph isomorphism ------------------------------------------------------

@dataclass(frozen=True)
class LineGraphIso:
    graph: graphs.Graph
    field: fields.FieldDescriptor

    def image(self, x):
        g, index = self.graph, _line_order(self.graph)
        add, _, _, zero = self.field.ops
        acc = {}
        for m, c in x.terms:
            i = index[algebra.mono_source(g, m)]
            j = index[algebra.mono_range(g, m)]
            fields.add_term(acc, (i, j), c, add, zero)
        return linalg.square(self.field, len(index), acc)


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


def unit_group_structure(g):
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
