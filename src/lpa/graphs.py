"""Directed graphs with named edges, infinite-emitter bundles, and the
combinatorial predicates consumed everywhere else.

A *bundle* ``(src, dst)`` stands for countably many anonymous parallel edges.
Anonymous edges never occur in algebra elements; they only affect vertex
classification, reachability, exits, and breaking-vertex counts.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property


class GraphError(ValueError):
    pass


class GraphParseError(GraphError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


SINK = "sink"
REGULAR = "regular"
INFINITE_EMITTER = "infinite_emitter"

_IDENT_RE = re.compile(r"^[A-Za-z_]\w*$")


@dataclass(frozen=True)
class Edge:
    name: str
    src: str
    dst: str


@dataclass(frozen=True)
class Graph:
    name: str
    vertices: tuple
    edges: tuple
    bundles: tuple                      # (src, dst) pairs
    order: tuple                        # ((vertex, (edge names...)), ...) for emitting vertices

    @cached_property
    def edge_map(self):
        return {e.name: e for e in self.edges}

    @cached_property
    def out_edges(self):
        out = {v: [] for v in self.vertices}
        for v, names in self.order:
            out[v] = list(names)
        return {v: tuple(names) for v, names in out.items()}

    @cached_property
    def in_edges(self):
        inc = {v: [] for v in self.vertices}
        for e in self.edges:
            inc[e.dst].append(e.name)
        return {v: tuple(names) for v, names in inc.items()}

    @cached_property
    def out_bundles(self):
        out = {v: [] for v in self.vertices}
        for src, dst in self.bundles:
            out[src].append(dst)
        return {v: tuple(d) for v, d in out.items()}

    @cached_property
    def successors(self):
        succ = {v: set() for v in self.vertices}
        for e in self.edges:
            succ[e.src].add(e.dst)
        for src, dst in self.bundles:
            succ[src].add(dst)
        return {v: frozenset(s) for v, s in succ.items()}

    @cached_property
    def predecessors(self):
        pred = {v: set() for v in self.vertices}
        for u, succ in self.successors.items():
            for v in succ:
                pred[v].add(u)
        return {v: frozenset(s) for v, s in pred.items()}

    @cached_property
    def cycles(self):
        """Every cycle, listed once per graph by ``simple_cycles``."""
        return tuple(simple_cycles(self))

    @cached_property
    def cycles_through(self):
        """The number of listed cycles through each vertex."""
        return Counter(v for c in self.cycles for v in c.vertices(self))

    def require_vertex(self, v):
        if v not in self.successors:
            raise GraphError(f"unknown vertex {v!r} in graph {self.name!r}")

    def source(self, name):
        return self.edge_map[name].src

    def range(self, name):
        return self.edge_map[name].dst

    def __str__(self):
        return serialize_graph(self)


def make_graph(name, vertices, edges, bundles=(), order=None):
    """Validate and build a Graph; edge enumeration defaults to declaration order."""
    vertices = tuple(vertices)
    if not vertices:
        raise GraphError("graph needs at least one vertex (unital algebras only)")
    if len(set(vertices)) != len(vertices):
        raise GraphError("duplicate vertex names")
    vset = set(vertices)
    edges = tuple(Edge(*e) if not isinstance(e, Edge) else e for e in edges)
    names = [e.name for e in edges]
    if len(set(names)) != len(names):
        raise GraphError("duplicate edge names")
    if vset & set(names):
        raise GraphError("edge names must not collide with vertex names")
    for e in edges:
        if e.src not in vset or e.dst not in vset:
            raise GraphError(f"edge {e.name!r} has a dangling endpoint")
    bundles = tuple(tuple(b) for b in bundles)
    for src, dst in bundles:
        if src not in vset or dst not in vset:
            raise GraphError("bundle has a dangling endpoint")
    declared = {}
    for e in edges:
        declared.setdefault(e.src, []).append(e.name)
    order = dict(order or {})
    final = []
    for v in vertices:
        if v in order:
            perm = tuple(order[v])
            if sorted(perm) != sorted(declared.get(v, [])):
                raise GraphError(f"order for {v!r} is not a permutation of its out-edges")
            final.append((v, perm))
        elif v in declared:
            final.append((v, tuple(declared[v])))
    for v in order:
        if v not in vset:
            raise GraphError(f"order given for unknown vertex {v!r}")
    return Graph(name, vertices, edges, bundles, tuple(final))


# -- vertex classification and reachability ------------------------------

def classify_vertex(g, v):
    g.require_vertex(v)
    if g.out_bundles[v]:
        return INFINITE_EMITTER
    if g.out_edges[v]:
        return REGULAR
    return SINK


def is_regular(g, v):
    return classify_vertex(g, v) == REGULAR


def _closure(v, step):
    """Every vertex reached from v by repeated ``step``, v included."""
    seen, stack = {v}, [v]
    while stack:
        for x in step(stack.pop()):
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return seen


def reaches(g, u, v):
    """True iff there is a path (length >= 0) from u to v; bundles count."""
    g.require_vertex(u)
    g.require_vertex(v)
    return v in _closure(u, g.successors.get)


def M_of_vertex(g, v):
    """M(v): all vertices with a path into v."""
    g.require_vertex(v)
    return frozenset(_closure(v, g.predecessors.get))


def is_downward_directed(g):
    """Every pair of vertices reaches a common vertex.  In a finite graph that
    holds exactly when some vertex is reached from all of them: a common
    descendant of u and v, and w, have one in turn, and so on."""
    common = set(g.vertices)
    for v in g.vertices:
        common &= _closure(v, g.successors.get)
        if not common:
            return False
    return True


def has_countable_separation(g):
    # finite vertex set: C = E^0 works, so the property is vacuous
    return True


# -- paths and cycles -----------------------------------------------------

@dataclass(frozen=True)
class PathSeq:
    """A finite path: an edge-name sequence, or a trivial path at a vertex."""
    edges: tuple
    vertex: str     # = source when edges nonempty is implied; anchor when trivial

    def __len__(self):
        return len(self.edges)


def make_path(g, edges, vertex=None):
    edges = tuple(edges)
    if not edges:
        if vertex is None:
            raise GraphError("trivial path needs a vertex")
        g.require_vertex(vertex)
        return PathSeq((), vertex)
    prev = None
    for name in edges:
        if name not in g.edge_map:
            raise GraphError(f"unknown edge {name!r}")
        e = g.edge_map[name]
        if prev is not None and prev != e.src:
            raise GraphError(f"path breaks at {name!r}: {prev} != {e.src}")
        prev = e.dst
    src = g.edge_map[edges[0]].src
    if vertex is not None and vertex != src:
        raise GraphError("declared source does not match the first edge")
    return PathSeq(edges, src)


def path_source(g, p):
    return p.vertex if not p.edges else g.edge_map[p.edges[0]].src


def path_range(g, p):
    return p.vertex if not p.edges else g.edge_map[p.edges[-1]].dst


@dataclass(frozen=True)
class CycleDescriptor:
    edges: tuple
    base: str

    def vertices(self, g):
        return tuple(g.edge_map[e].src for e in self.edges)


def make_cycle(g, edges):
    edges = tuple(edges)
    if not edges:
        raise GraphError("a cycle has at least one edge")
    p = make_path(g, edges)
    if path_source(g, p) != path_range(g, p):
        raise GraphError("edge sequence is not closed")
    sources = [g.edge_map[e].src for e in edges]
    if len(set(sources)) != len(sources):
        raise GraphError("cycle sources must be pairwise distinct")
    return CycleDescriptor(edges, sources[0])


def rotate_cycle(g, c, k):
    n = len(c.edges)
    k %= n
    return make_cycle(g, c.edges[k:] + c.edges[:k])


def same_cycle(a, b):
    """True iff b is a rotation of a."""
    if len(a.edges) != len(b.edges):
        return False
    n = len(a.edges)
    return any(a.edges[k:] + a.edges[:k] == b.edges for k in range(n))


def simple_cycles(g):
    """All cycles, one representative per rotation class (based at the
    declaration-least vertex on the cycle), by an iterative depth-first
    search from each base through the vertices declared after it that lead
    back to it."""
    index = {v: i for i, v in enumerate(g.vertices)}
    dst_of = {e.name: e.dst for e in g.edges}
    out = []
    for base in g.vertices:
        # predecessors through bundles too: a superset of those that matter
        back = _closure(base, lambda w: (u for u in g.predecessors[w] if index[u] > index[base]))
        path, on_path = [], {base}
        stack = [iter(g.out_edges[base])]     # one edge iterator per path vertex
        while stack:
            name = next(stack[-1], None)
            if name is None:
                stack.pop()
                if path:
                    on_path.discard(dst_of[path.pop()])
                continue
            dst = dst_of[name]
            if dst == base:
                out.append(make_cycle(g, path + [name]))
            elif dst in back and dst not in on_path:
                path.append(name)
                on_path.add(dst)
                stack.append(iter(g.out_edges[dst]))
    return out


def cycle_exit(g, c):
    """The first exit of the cycle c, an edge name or ``bundle at v``, or
    None when it has none."""
    for name in c.edges:
        v = g.source(name)
        if g.out_bundles[v]:
            return f"bundle at {v}"
        for other in g.out_edges[v]:
            if other != name:
                return other
    return None


def cycle_has_exit(g, c):
    return cycle_exit(g, c) is not None


def condition_L(g):
    return all(cycle_has_exit(g, c) for c in g.cycles)


def is_exclusive_cycle(g, c):
    """No vertex of c lies on a different cycle (rotations of c excluded):
    each lies on exactly one listed cycle, the one c is a rotation of."""
    return all(g.cycles_through[v] == 1 for v in c.vertices(g))


# -- hereditary / saturated machinery -------------------------------------

def is_hereditary(g, H):
    H = set(H)
    for v in H:
        g.require_vertex(v)
        if g.successors[v] - H:
            return False
    return True


def is_saturated(g, H):
    H = set(H)
    for v in H:
        g.require_vertex(v)
    for v in g.vertices:
        if v in H or not is_regular(g, v):
            continue
        ranges = {g.range(e) for e in g.out_edges[v]}
        if ranges <= H:
            return False
    return True


def hs_closure(g, X):
    """Least hereditary saturated superset of X."""
    H = set(X)
    for v in H:
        g.require_vertex(v)
    changed = True
    while changed:
        changed = False
        for v in list(H):
            missing = g.successors[v] - H
            if missing:
                H |= missing
                changed = True
        for v in g.vertices:
            if v in H or not is_regular(g, v):
                continue
            if {g.range(e) for e in g.out_edges[v]} <= H:
                H.add(v)
                changed = True
    return frozenset(H)


def commutativity_shape(g):
    """True iff every component is an isolated vertex or a single loop,
    equivalently L_K(E) (and C_K(E)) is commutative."""
    if g.bundles:
        return False
    loop_at = set()
    for e in g.edges:
        if e.src != e.dst:
            return False
        if e.src in loop_at:
            return False
        loop_at.add(e.src)
    return True


# -- file format -----------------------------------------------------------

def parse_graph(text):
    name = None
    vertices = []
    edges = []
    bundles = []
    order = {}
    seen_names = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "graph":
            if name is not None:
                raise GraphParseError("duplicate graph line", lineno)
            if len(parts) != 2:
                raise GraphParseError("expected: graph <name>", lineno)
            name = parts[1]
        elif kw == "vertex":
            if len(parts) != 2 or not _IDENT_RE.match(parts[1]):
                raise GraphParseError("expected: vertex <id>", lineno)
            if parts[1] in seen_names:
                raise GraphParseError(f"duplicate name {parts[1]!r}", lineno)
            seen_names.add(parts[1])
            vertices.append(parts[1])
        elif kw == "edge":
            if len(parts) != 4 or not _IDENT_RE.match(parts[1]):
                raise GraphParseError("expected: edge <id> <src> <dst>", lineno)
            if parts[1] in seen_names:
                raise GraphParseError(f"duplicate name {parts[1]!r}", lineno)
            seen_names.add(parts[1])
            edges.append(Edge(parts[1], parts[2], parts[3]))
        elif kw == "bundle":
            if len(parts) != 3:
                raise GraphParseError("expected: bundle <src> <dst>", lineno)
            bundles.append((parts[1], parts[2]))
        elif kw == "order":
            m = re.match(r"^order\s+(\w+)\s*:\s*(.*)$", line)
            if not m:
                raise GraphParseError("expected: order <v>: <e1> <e2> ...", lineno)
            order[m.group(1)] = tuple(m.group(2).split())
        else:
            raise GraphParseError(f"unknown directive {kw!r}", lineno)
    if name is None:
        raise GraphParseError("missing graph <name> line")
    try:
        return make_graph(name, vertices, edges, bundles, order)
    except GraphError as exc:
        raise GraphParseError(str(exc)) from exc


def serialize_graph(g):
    lines = [f"graph {g.name}"]
    lines += [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {e.name} {e.src} {e.dst}" for e in g.edges]
    lines += [f"bundle {src} {dst}" for src, dst in g.bundles]
    for v, names in g.order:
        if len(names) > 1:
            lines.append(f"order {v}: {' '.join(names)}")
    return "\n".join(lines) + "\n"


def disjoint_union(name, *graphs):
    """Disjoint union; vertex/edge names must already be disjoint."""
    vertices, edges, bundles, order = [], [], [], {}
    for g in graphs:
        vertices += list(g.vertices)
        edges += list(g.edges)
        bundles += list(g.bundles)
        order.update({v: names for v, names in g.order})
    return make_graph(name, vertices, edges, bundles, order)
