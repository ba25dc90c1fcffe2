"""Exact arithmetic in Cohn and Leavitt path algebras.

Elements are K-linear combinations of monomials ``lam . nu*`` (a real path
times a ghost path with the same range).  Products are computed by CK1/vertex
matching at the junction, which yields at most one raw monomial; in Leavitt
mode the CK2-derived rewrite

    lam e_m (e_m)* nu*  ->  lam nu*  -  sum_{i<m} lam e_i (e_i)* nu*

(e_m the enumeration-maximal out-edge of a regular vertex) is then applied to
fixpoint.  The surviving monomials form the canonical basis, so equality of
elements is equality of stored terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import fields, graphs, polys

COHN = "cohn"
LEAVITT = "leavitt"


class AlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class Monomial:
    lam: tuple
    nu: tuple
    vertex: str     # common range of lam and nu

    def sort_key(self):
        return (len(self.lam), len(self.nu), self.lam, self.nu, self.vertex)

    def degree(self):
        return len(self.lam) - len(self.nu)


def mono_source(g, m):
    return g.edge_map[m.lam[0]].src if m.lam else m.vertex


def mono_range(g, m):
    # range of the whole monomial lam nu* = source of nu
    return g.edge_map[m.nu[0]].src if m.nu else m.vertex


def _validate_monomial(g, m):
    _, lam_range = graphs.make_path(g, m.lam, m.vertex if not m.lam else None)
    _, nu_range = graphs.make_path(g, m.nu, m.vertex if not m.nu else None)
    if lam_range != m.vertex or nu_range != m.vertex:
        raise AlgebraError(f"monomial paths do not share range {m.vertex!r}")


def is_forbidden(g, m):
    """The Leavitt basis excludes lam.e and nu.e both ending with the
    enumeration-maximal out-edge e of a regular vertex."""
    if not m.lam or not m.nu:
        return False
    e = m.lam[-1]
    if e != m.nu[-1]:
        return False
    v = g.edge_map[e].src
    out = g.out_edges[v]
    return bool(out) and e == out[-1] and not g.out_bundles[v]


@lru_cache(maxsize=None)
def _reduce_leavitt(g, m):
    """Rewrite a raw monomial into basis monomials with weights +1 or -1.

    Each trailing forbidden pair peels off in turn: the monomials it
    subtracts end in a non-maximal edge, so they are basis monomials, all of
    distinct lengths, and only the shortened remainder can be forbidden.
    """
    out = []
    while is_forbidden(g, m):
        v = g.edge_map[m.lam[-1]].src
        lam, nu = m.lam[:-1], m.nu[:-1]
        for other in g.out_edges[v][:-1]:
            out.append((Monomial(lam + (other,), nu + (other,), g.edge_map[other].dst), -1))
        m = Monomial(lam, nu, v)
    out.append((m, 1))
    return tuple(out)


def mono_mul(g, m1, m2):
    """Raw product of two monomials: one monomial or None (= 0)."""
    nu1, lam2 = m1.nu, m2.lam
    k1, k2 = len(nu1), len(lam2)
    n = min(k1, k2)
    if nu1[:n] != lam2[:n]:
        return None
    if k1 <= k2:
        if k1 == 0:
            start = g.edge_map[lam2[0]].src if lam2 else m2.vertex
            if m1.vertex != start:
                return None
        return Monomial(m1.lam + lam2[k1:], m2.nu, m2.vertex)
    if k2 == 0:
        if m2.vertex != g.edge_map[nu1[0]].src:
            return None
    return Monomial(m1.lam, m2.nu + nu1[k2:], m1.vertex)


@dataclass(frozen=True)
class AlgebraElement(fields.Combination):
    graph: graphs.Graph
    field: fields.FieldDescriptor
    mode: str
    terms: tuple    # ((Monomial, payload), ...) sorted by Monomial.sort_key

    error = AlgebraError

    def _check(self, other):
        if (not isinstance(other, AlgebraElement) or self.graph != other.graph
                or self.field != other.field or self.mode != other.mode):
            raise AlgebraError("elements live over different graphs, fields, or modes")

    def _make(self, acc):
        return _assemble(self.graph, self.field, self.mode, acc)

    @cached_property
    def _by_source(self):
        """The terms grouped by the source of their monomial: ``m1 * m2``
        can be nonzero only when m2 starts where m1 ends."""
        g = self.graph
        out = {}
        for m, c in self.terms:
            out.setdefault(mono_source(g, m), []).append((m, c))
        return out

    def __mul__(self, other):
        """The reduction of the raw products ``m1 * m2`` over the term pairs
        that meet: m2 starts where m1 ends."""
        self._check(other)
        g, mul = self.graph, self.field.ops[1]
        by_source = other._by_source
        raw = ((m, mul(c1, c2))
               for m1, c1 in self.terms
               for m2, c2 in by_source.get(mono_range(g, m1), ())
               if (m := mono_mul(g, m1, m2)) is not None)
        return _reduce(g, self.field, self.mode, raw)

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"<{render(self)} over {self.graph.name}/{self.field}/{self.mode}>"


def _assemble(g, field, mode, acc):
    """The element of the sparse payload dict ``acc``."""
    terms = tuple(sorted(acc.items(), key=lambda t: t[0].sort_key()))
    if mode == LEAVITT:
        for m, _ in terms:
            if is_forbidden(g, m):
                raise AlgebraError(f"forbidden monomial {m} survived reduction")
    return AlgebraElement(g, field, mode, terms)


def _reduce(g, field, mode, payloads):
    """The element of the ``(Monomial, nonzero payload)`` pairs, summed
    through the Leavitt rewrite in Leavitt mode."""
    add, _, neg, zero = field.ops
    leavitt = mode == LEAVITT
    acc = {}
    for m, c in payloads:
        for m2, k in _reduce_leavitt(g, m) if leavitt else ((m, 1),):
            fields.add_term(acc, m2, c if k == 1 else neg(c), add, zero)
    return _assemble(g, field, mode, acc)


def element(g, field, mode, coeffs):
    """Build an element from {Monomial: FieldElement}, validating and reducing."""
    payloads = []
    for m, c in coeffs.items():
        _validate_monomial(g, m)
        if c.field != field:
            raise AlgebraError("coefficient lies in the wrong field")
        if not c.is_zero():
            payloads.append((m, c.payload))
    return _reduce(g, field, mode, payloads)


def zero(g, field, mode=LEAVITT):
    return AlgebraElement(g, field, mode, ())


def vertex_element(g, field, v, mode=LEAVITT):
    g.require_vertex(v)
    return element(g, field, mode, {Monomial((), (), v): fields.one(field)})


def edge_element(g, field, name, mode=LEAVITT):
    e = g.edge_map[name]
    return element(g, field, mode, {Monomial((name,), (), e.dst): fields.one(field)})


def ghost_element(g, field, name, mode=LEAVITT):
    e = g.edge_map[name]
    return element(g, field, mode, {Monomial((), (name,), e.dst): fields.one(field)})


def path_element(g, field, edges, mode=LEAVITT, vertex=None):
    _, r = graphs.make_path(g, edges, vertex)
    return element(g, field, mode, {Monomial(tuple(edges), (), r): fields.one(field)})


def identity(g, field, mode=LEAVITT):
    """Sum of all vertices (E^0 finite, so the algebra is unital)."""
    acc = {Monomial((), (), v): fields.one(field) for v in g.vertices}
    return element(g, field, mode, acc)


def scalar(g, field, k, mode=LEAVITT):
    """k * identity."""
    return identity(g, field, mode).scale(k)


def normal_form(x):
    """Re-reduce an element; a stored element is already normal, so this is
    the identity on anything built through this module."""
    return _reduce(x.graph, x.field, x.mode, x.terms)


def star(x):
    """The involution: (lam nu*)* = nu lam*, fixing scalars."""
    payloads = ((Monomial(m.nu, m.lam, m.vertex), c) for m, c in x.terms)
    return _reduce(x.graph, x.field, x.mode, payloads)


def homogeneous_components(x):
    """Split by degree |lam| - |nu|."""
    comps = {}
    for term in x.terms:    # sorted, and so is every component's share
        comps.setdefault(term[0].degree(), []).append(term)
    return {d: AlgebraElement(x.graph, x.field, x.mode, tuple(ts))
            for d, ts in sorted(comps.items())}


def cohn_to_leavitt(x):
    """Project a Cohn element onto the Leavitt quotient by re-reducing."""
    if x.mode != COHN:
        raise AlgebraError("cohn_to_leavitt expects a Cohn-mode element")
    return _reduce(x.graph, x.field, LEAVITT, x.terms)


def verify_inverse(x, y):
    x._check(y)
    e = identity(x.graph, x.field, x.mode)
    return x * y == e and y * x == e


def substitute(x, vertex_images, edge_images, ghost_images, out):
    """The image of x under the homomorphism given on generators: each
    monomial lam nu* maps to the product of the edge images along lam, the
    vertex image of its range and the ghost images along nu*, scaled by its
    coefficient and added to ``out``, a zero of the target."""
    def image(m):
        img = vertex_images[m.vertex]
        for e in reversed(m.lam):
            img = edge_images[e] * img
        # nu* = (f1 ... fl)* multiplies the ghost images in reversed order
        for e in reversed(m.nu):
            img = img * ghost_images[e]
        return img

    return out.add_scaled((image(m), c) for m, c in x.terms)


def evaluate_word(letters, inverses=None):
    """Product of (element, +-1) letters; inverses are supplied and verified."""
    if not letters:
        raise AlgebraError("empty word")
    inverses = inverses or {}
    verified = set()
    resolved = []
    for x, exp in letters:
        if exp == 1:
            resolved.append(x)
        elif exp == -1:
            if x not in inverses:
                raise AlgebraError("letter with exponent -1 has no supplied inverse")
            if x not in verified:
                if not verify_inverse(x, inverses[x]):
                    raise AlgebraError("supplied inverse fails verification")
                verified.add(x)
            resolved.append(inverses[x])
        else:
            raise AlgebraError("exponents must be +1 or -1")
    out = resolved[0]
    for x in resolved[1:]:
        out = out * x
    return out


# -- basis enumeration (acyclic graphs) -----------------------------------

def leavitt_basis(g):
    """The canonical Leavitt basis of an acyclic graph: all lam nu* with a
    common range minus the excluded maximal-edge family.  An acyclic path
    visits each vertex at most once, so the Cohn slice to the vertex count
    holds every path."""
    if g.cycles:
        raise AlgebraError("path enumeration needs an acyclic graph")
    return [m for m in cohn_basis_up_to(g, len(g.vertices)) if not is_forbidden(g, m)]


def cohn_basis_up_to(g, max_len):
    """Cohn basis monomials with |lam|, |nu| <= max_len (finite slice)."""
    by_range = {v: [()] for v in g.vertices}
    frontier = [((), v) for v in g.vertices]    # (edges, range)
    for _ in range(max_len):
        nxt = []
        for p, end in frontier:
            for name in g.out_edges[end]:
                q = p + (name,)
                dst = g.range(name)
                nxt.append((q, dst))
                by_range[dst].append(q)
        frontier = nxt
    basis = []
    for v, paths in by_range.items():
        for lam in paths:
            for nu in paths:
                basis.append(Monomial(lam, nu, v))
    return sorted(basis, key=Monomial.sort_key)


# -- rendering -------------------------------------------------------------

def render_monomial(m):
    parts = list(m.lam) + [f"{e}*" for e in reversed(m.nu)]
    if not parts:
        return m.vertex
    return " ".join(parts)


def render(x):
    if not x.terms:
        return "0"
    parts = []
    for m, c in x.terms:
        mono = render_monomial(m)
        cs = str(fields.FieldElement(x.field, c))
        if cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append(f"-{mono}")
        else:
            parts.append(f"{cs} {mono}")
    return polys.signed_sum(parts)
