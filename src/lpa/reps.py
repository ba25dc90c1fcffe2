"""Simple-module actions on symbolic path bases.

Three basis-vector flavors: eventually periodic infinite paths (prefix plus a
rotated cycle tail), finite paths into a sink, and finite paths into an
infinite emitter.  The generator action is prepend / strip-from-the-front;
a ghost edge that cannot be stripped acts as zero, which covers the sink and
bare-emitter special cases uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import algebra, fields, graphs


class ModuleError(ValueError):
    pass


@dataclass(frozen=True)
class RationalTail:
    """prefix . (cycle rotated to start at ``phase``)^infinity, minimal prefix."""
    prefix: tuple
    cycle: tuple
    phase: int

    def sort_key(self):
        return (len(self.prefix), self.prefix, self.phase)

    def edge_at(self, g, i):
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(self.phase + i - len(self.prefix)) % len(self.cycle)]

    def start(self, g):
        if self.prefix:
            return g.edge_map[self.prefix[0]].src
        return g.edge_map[self.cycle[self.phase]].src


@dataclass(frozen=True)
class SinkPath:
    path: tuple
    sink: str

    def sort_key(self):
        return (len(self.path), self.path)

    def start(self, g):
        return g.edge_map[self.path[0]].src if self.path else self.sink


@dataclass(frozen=True)
class EmitterPath:
    path: tuple
    emitter: str

    def sort_key(self):
        return (len(self.path), self.path)

    def start(self, g):
        return g.edge_map[self.path[0]].src if self.path else self.emitter


def canonicalize_rational(g, prefix, cycle, phase):
    """Absorb trailing cycle edges of the prefix into the tail; two inputs
    denote the same infinite path iff their canonical forms are equal."""
    if isinstance(cycle, graphs.CycleDescriptor):
        cycle = cycle.edges
    c = graphs.make_cycle(g, cycle)
    n = len(c.edges)
    phase %= n
    prefix = tuple(prefix)
    if prefix:
        p = graphs.make_path(g, prefix)
        if graphs.path_range(g, p) != g.edge_map[c.edges[phase]].src:
            raise ModuleError("prefix does not compose with the cycle tail")
    prefix = list(prefix)
    while prefix and prefix[-1] == c.edges[(phase - 1) % n]:
        prefix.pop()
        phase = (phase - 1) % n
    return RationalTail(tuple(prefix), c.edges, phase)


@dataclass(frozen=True)
class TwistSpec:
    """Scale a distinguished cycle edge by xbar (ghost side by its inverse)."""
    edge: str
    cycle: tuple


@dataclass(frozen=True)
class ModuleSpec:
    kind: str                      # "chen" | "sink" | "emitter"
    graph: graphs.Graph
    field: fields.FieldDescriptor
    cycle: tuple = ()
    vertex: str = None
    twist: Optional[TwistSpec] = None


def chen_module(g, field, cycle, twist_edge=None):
    c = graphs.make_cycle(g, cycle if not isinstance(cycle, graphs.CycleDescriptor) else cycle.edges)
    twist = None
    if twist_edge is not None:
        if field.kind != "ext":
            raise ModuleError("a twisted module needs an extension field")
        if twist_edge not in c.edges:
            raise ModuleError(f"twist edge {twist_edge!r} does not lie on the cycle")
        if not graphs.is_exclusive_cycle(g, c):
            raise ModuleError("the twisted construction needs an exclusive cycle")
        twist = TwistSpec(twist_edge, c.edges)
    return ModuleSpec("chen", g, field, cycle=c.edges, twist=twist)


def sink_module(g, field, w):
    if graphs.classify_vertex(g, w) != graphs.SINK:
        raise ModuleError(f"{w!r} is not a sink")
    return ModuleSpec("sink", g, field, vertex=w)


def emitter_module(g, field, v):
    if graphs.classify_vertex(g, v) != graphs.INFINITE_EMITTER:
        raise ModuleError(f"{v!r} is not an infinite emitter")
    return ModuleSpec("emitter", g, field, vertex=v)


@dataclass(frozen=True)
class ModuleVector(fields.Combination):
    module: ModuleSpec
    terms: tuple    # ((BasisVector, FieldElement), ...) sorted

    error = ModuleError

    @property
    def field(self):
        return self.module.field

    def _check(self, other):
        if not isinstance(other, ModuleVector) or self.module != other.module:
            raise ModuleError("vectors live in different modules")

    def _make(self, acc):
        return _vec(self.module, acc)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for b, c in self.terms:
            cs = fields.element_str(c)
            head = "" if cs == "1" else f"{cs}*"
            bits.append(f"{head}{render_basis(b)}")
        return " + ".join(bits)


def _vec(module, acc):
    """The vector of the sparse payload dict ``acc``."""
    field = module.field
    basis = sorted(acc, key=lambda b: b.sort_key())
    return ModuleVector(module, tuple((b, fields.FieldElement(field, acc[b])) for b in basis))


def basis_vector(module, b):
    _validate_basis(module, b)
    return _vec(module, {b: fields.one(module.field).payload})


def _validate_basis(module, b):
    g = module.graph
    if module.kind == "chen":
        if not isinstance(b, RationalTail):
            raise ModuleError("chen modules take rational-tail vectors")
        canon = canonicalize_rational(g, b.prefix, b.cycle, b.phase)
        if canon != b:
            raise ModuleError(f"rational tail {b} is not canonical")
        if not graphs.same_cycle(
            graphs.make_cycle(g, b.cycle), graphs.make_cycle(g, module.cycle)
        ):
            raise ModuleError("tail does not belong to this module's class")
    else:
        kind = module.kind      # "sink" or "emitter", also the end's attribute
        cls = SinkPath if kind == "sink" else EmitterPath
        if not isinstance(b, cls) or getattr(b, kind) != module.vertex:
            raise ModuleError(f"vector does not belong to this {kind} module")
        if b.path and graphs.path_range(g, graphs.make_path(g, b.path)) != module.vertex:
            raise ModuleError(f"path does not end at the {kind}")


def render_basis(b):
    if isinstance(b, RationalTail):
        tail = "@" + ".".join(b.cycle[b.phase:] + b.cycle[:b.phase])
        if b.prefix:
            return ".".join(b.prefix) + "." + tail
        return tail
    head = ".".join(b.path) if b.path else (b.sink if isinstance(b, SinkPath) else b.emitter)
    return head


# -- the action -------------------------------------------------------------

def _strip_edge(g, b, e):
    """e* action on a basis vector: strip e from the front or die."""
    if isinstance(b, RationalTail):
        if b.prefix:
            if b.prefix[0] != e:
                return None
            return RationalTail(b.prefix[1:], b.cycle, b.phase)
        if b.cycle[b.phase] != e:
            return None
        return RationalTail((), b.cycle, (b.phase + 1) % len(b.cycle))
    if not b.path or b.path[0] != e:
        return None
    if isinstance(b, SinkPath):
        return SinkPath(b.path[1:], b.sink)
    return EmitterPath(b.path[1:], b.emitter)


def _prepend_edge(g, b, e):
    if g.edge_map[e].dst != b.start(g):
        return None
    if isinstance(b, RationalTail):
        return canonicalize_rational(g, (e,) + b.prefix, b.cycle, b.phase)
    if isinstance(b, SinkPath):
        return SinkPath((e,) + b.path, b.sink)
    return EmitterPath((e,) + b.path, b.emitter)


def _act_monomial(g, m, b):
    """(lam nu*) . b, returning a basis vector or None."""
    cur = b
    for e in m.nu:
        cur = _strip_edge(g, cur, e)
        if cur is None:
            return None
    # vertex action of the anchor
    if cur.start(g) != m.vertex:
        return None
    for e in reversed(m.lam):
        cur = _prepend_edge(g, cur, e)
        if cur is None:
            return None
    return cur


def sigma_substitute(twist, x):
    """The twisting automorphism: e1 -> xbar e1, e1* -> xbar^{-1} e1*."""
    field = x.field
    if field.kind != "ext":
        raise ModuleError("the twist lives over an extension field")
    xb = fields.xbar(field)
    xbinv = xb.inverse()
    acc = {}
    for m, c in x.terms:
        k = m.lam.count(twist.edge) - m.nu.count(twist.edge)
        acc[m] = c * (xb ** k if k >= 0 else xbinv ** (-k))
    return algebra.element(x.graph, field, x.mode, acc)


def act(x, mv):
    """Left action of an algebra element on a module vector."""
    module = mv.module
    if x.graph != module.graph or x.field != module.field:
        raise ModuleError("element and module vector are over different data")
    if x.mode != algebra.LEAVITT:
        raise ModuleError("modules are acted on by Leavitt elements")
    if module.twist is not None:
        x = sigma_substitute(module.twist, x)
    g = module.graph
    add, mul, _, zero = module.field.ops
    acc = {}
    vec = [(b, k.payload) for b, k in mv.terms]
    for m, c in x.terms:
        c = c.payload
        for b, k in vec:
            out = _act_monomial(g, m, b)
            if out is not None:
                fields.add_term(acc, out, mul(c, k), add, zero)
    return _vec(module, acc)


# -- basis sampling ---------------------------------------------------------

def sample_basis(module, count):
    """Deterministic breadth-first sample of basis vectors (all of them when
    fewer than ``count`` exist up to the traversal bound)."""
    g = module.graph
    out = []
    if module.kind == "chen":
        c = graphs.make_cycle(g, module.cycle)
        n = len(c.edges)
        seen = set()
        frontier = []
        for k in range(n):
            b = canonicalize_rational(g, (), c.edges, k)
            if b not in seen:
                seen.add(b)
                out.append(b)
                frontier.append(b)
        while frontier and len(out) < count:
            nxt = []
            for b in frontier:
                for e in g.edges:
                    if e.dst != b.start(g):
                        continue
                    nb = canonicalize_rational(g, (e.name,) + b.prefix, b.cycle, b.phase)
                    if nb not in seen:
                        seen.add(nb)
                        out.append(nb)
                        nxt.append(nb)
            frontier = nxt
        return out[:count]
    root_vertex = module.vertex
    make = (
        (lambda p: SinkPath(p, root_vertex))
        if module.kind == "sink"
        else (lambda p: EmitterPath(p, root_vertex))
    )
    frontier = [()]
    out.append(make(()))
    while frontier and len(out) < count:
        nxt = []
        for path in frontier:
            head = g.edge_map[path[0]].src if path else root_vertex
            for e in g.edges:
                if e.dst == head:
                    p = (e.name,) + path
                    out.append(make(p))
                    nxt.append(p)
        frontier = nxt
    return out[:count]


# -- tail alignment (two tail-equivalent infinite paths differ by one edge) --

@dataclass(frozen=True)
class Alignment:
    status: str                 # "equal" | "not_equivalent" | "aligned"
    edge: str = None
    base: RationalTail = None
    edge_side: str = None       # which input is f.base: "q" or "p"


def _suffix(b, m):
    if m <= len(b.prefix):
        return RationalTail(b.prefix[m:], b.cycle, b.phase)
    k = m - len(b.prefix)
    return RationalTail((), b.cycle, (b.phase + k) % len(b.cycle))


def align_tail_equivalent(g, p, q):
    """Find minimal truncations making the two rational paths agree and
    normalize the pair to (base, f.base)."""
    for b in (p, q):
        if canonicalize_rational(g, b.prefix, b.cycle, b.phase) != b:
            raise ModuleError("alignment expects canonical rational tails")
    if not graphs.same_cycle(graphs.make_cycle(g, p.cycle), graphs.make_cycle(g, q.cycle)):
        return Alignment("not_equivalent")
    if p == q:
        return Alignment("equal")
    L = len(p.cycle)
    max_m = len(p.prefix) + L
    max_n = len(q.prefix) + L
    for total in range(max_m + max_n + 1):
        # prefer stripping from q (the paper's normalization) on ties
        for n in range(min(total, max_n), -1, -1):
            m = total - n
            if m > max_m:
                continue
            if _suffix(p, m) == _suffix(q, n):
                base = _suffix(p, m)
                if n >= 1:
                    return Alignment("aligned", q.edge_at(g, n - 1), base, "q")
                return Alignment("aligned", p.edge_at(g, m - 1), base, "p")
    return Alignment("not_equivalent")


# -- annihilation reports -----------------------------------------------------

@dataclass(frozen=True)
class AnnihilationReport:
    checked: int
    failures: tuple     # ((generator index, basis vector), ...)

    @property
    def all_annihilated(self):
        return not self.failures


def annihilation_check(gens, module, samples):
    basis = sample_basis(module, samples)
    failures = []
    for i, gen in enumerate(gens):
        for b in basis:
            if not act(gen, basis_vector(module, b)).is_zero():
                failures.append((i, b))
    return AnnihilationReport(len(gens) * len(basis), tuple(failures))
