"""Breaking vertices, admissible pairs, quotient graphs, the graded-ideal
epimorphism, and the primitive-ideal witness classifier."""

from __future__ import annotations

from dataclasses import dataclass

from . import algebra, fields, graphs


class IdealError(ValueError):
    pass


@dataclass(frozen=True)
class IdealSpec:
    """An admissible pair: H hereditary saturated, S a set of breaking vertices."""
    H: tuple
    S: tuple


def admissible_pair(g, H, S=()):
    for v in (*H, *S):
        g.require_vertex(v)
    H = tuple(sorted(set(H), key=g.vertices.index))
    S = tuple(sorted(set(S), key=g.vertices.index))
    if not graphs.is_hereditary(g, H):
        raise IdealError(f"H={set(H) or '{}'} is not hereditary")
    if not graphs.is_saturated(g, H):
        raise IdealError(f"H={set(H) or '{}'} is not saturated")
    B = breaking_vertices(g, H)
    extra = set(S) - set(B)
    if extra:
        raise IdealError(f"S contains non-breaking vertices {sorted(extra)}")
    return IdealSpec(H, S)


def breaking_vertices(g, H):
    """Infinite emitters outside H with finitely many (>= 1) edges into E^0\\H.

    A bundle out of w pointing outside H makes the count infinite, so such w
    are excluded; bundles into H do not count.
    """
    H = set(H)
    out = []
    for w in g.vertices:
        if w in H or graphs.classify_vertex(g, w) != graphs.INFINITE_EMITTER:
            continue
        if any(dst not in H for dst in g.out_bundles[w]):
            continue
        named_out = [e for e in g.out_edges[w] if g.range(e) not in H]
        if named_out:
            out.append(w)
    return tuple(out)


def wh_element(g, w, H, field):
    """w - sum of ee* over the named edges from w into E^0\\H."""
    if w not in breaking_vertices(g, H):
        raise IdealError(f"{w!r} is not a breaking vertex of H")
    H = set(H)
    acc = {algebra.Monomial((), (), w): fields.one(field)}
    minus_one = -fields.one(field)
    for e in g.out_edges[w]:
        if g.range(e) not in H:
            acc[algebra.Monomial((e,), (e,), g.range(e))] = minus_one
    return algebra.element(g, field, algebra.LEAVITT, acc)


def primed(name):
    return f"{name}_q"


def quotient_graph(g, spec):
    """The quotient graph: drop H, add a primed sink v_q for each v in
    B_H \\ S, and duplicate every edge into such v as a primed edge."""
    H = set(spec.H)
    B = set(breaking_vertices(g, spec.H))
    primes = [v for v in g.vertices if v in B - set(spec.S)]
    kept_vertices = [v for v in g.vertices if v not in H]
    new_vertices = kept_vertices + [primed(v) for v in primes]
    taken = set(new_vertices)
    kept_edges = [e for e in g.edges if e.dst not in H]
    new_edges = list(kept_edges)
    for e in kept_edges:
        if e.dst in B - set(spec.S):
            if primed(e.name) in taken:
                raise IdealError(f"primed name {primed(e.name)!r} collides")
            new_edges.append(graphs.Edge(primed(e.name), e.src, primed(e.dst)))
    for name in (e.name for e in new_edges):
        if name in taken:
            raise IdealError(f"primed name {name!r} collides")
    new_bundles = []
    for src, dst in g.bundles:
        if dst in H:
            continue
        if dst in B - set(spec.S):
            raise IdealError(
                f"bundle {src}->{dst} targets a vertex of B_H\\S; the quotient "
                "would need infinitely many primed edges"
            )
        new_bundles.append((src, dst))
    order = {}
    for v, names in g.order:
        if v in H:
            continue
        kept = [n for n in names if g.range(n) not in H]
        kept += [primed(n) for n in kept if g.range(n) in B - set(spec.S)]
        if kept:
            order[v] = tuple(kept)
    return graphs.make_graph(
        f"{g.name}_mod", new_vertices, new_edges, new_bundles, order
    )


@dataclass(frozen=True)
class QuotientMap:
    """Generator-level substitution realizing the epimorphism onto the
    quotient-graph algebra; the kernel is the graded ideal of the pair."""
    source: graphs.Graph
    spec: IdealSpec
    target: graphs.Graph
    field: fields.FieldDescriptor
    vertex_images: tuple    # ((v, AlgebraElement), ...)
    edge_images: tuple


def make_quotient_map(g, spec, field, check=True):
    H = set(spec.H)
    B = set(breaking_vertices(g, spec.H))
    primes = B - set(spec.S)
    target = quotient_graph(g, spec)
    zero = algebra.zero(target, field)
    vimgs = []
    for v in g.vertices:
        if v in H:
            vimgs.append((v, zero))
        elif v in primes:
            vv = algebra.vertex_element(target, field, v)
            vq = algebra.vertex_element(target, field, primed(v))
            vimgs.append((v, vv + vq))
        else:
            vimgs.append((v, algebra.vertex_element(target, field, v)))
    eimgs = []
    for e in g.edges:
        if e.dst in H:
            eimgs.append((e.name, zero))
        elif e.dst in primes:
            ee = algebra.edge_element(target, field, e.name)
            eq = algebra.edge_element(target, field, primed(e.name))
            eimgs.append((e.name, ee + eq))
        else:
            eimgs.append((e.name, algebra.edge_element(target, field, e.name)))
    qm = QuotientMap(g, spec, target, field, tuple(vimgs), tuple(eimgs))
    if check:
        _check_relations(qm)
    return qm


def _check_relations(qm):
    """The substitution images must satisfy the source algebra's relations."""
    g, field = qm.source, qm.field
    vimg = dict(qm.vertex_images)
    eimg = dict(qm.edge_images)
    one_t = algebra.identity(qm.target, field)
    total = algebra.zero(qm.target, field)
    for v in g.vertices:
        total = total + vimg[v]
    _require(total == one_t, "vertex images do not sum to the target identity")
    for v in g.vertices:
        for w in g.vertices:
            expect = vimg[v] if v == w else algebra.zero(qm.target, field)
            _require(vimg[v] * vimg[w] == expect, "(V) fails under substitution")
    for e in g.edges:
        img = eimg[e.name]
        _require(vimg[e.src] * img == img == img * vimg[e.dst], "(E1) fails")
        simg = algebra.star(img)
        _require(vimg[e.dst] * simg == simg == simg * vimg[e.src], "(E2) fails")
        for f in g.edges:
            prod = algebra.star(eimg[e.name]) * eimg[f.name]
            expect = vimg[e.dst] if e.name == f.name else algebra.zero(qm.target, field)
            _require(prod == expect, "(CK1) fails under substitution")
    for v in g.vertices:
        if graphs.is_regular(g, v):
            total = algebra.zero(qm.target, field)
            for e in g.out_edges[v]:
                total = total + eimg[e] * algebra.star(eimg[e])
            _require(total == vimg[v], "(CK2) fails under substitution")


def _require(holds, message):
    if not holds:
        raise IdealError(message)


def phi_apply(qm, x):
    """Apply the epimorphism: substitute generators and renormalize."""
    if x.mode != algebra.LEAVITT:
        raise IdealError("the quotient epimorphism is defined on Leavitt elements")
    if x.graph != qm.source or x.field != qm.field:
        raise IdealError("element does not live over the map's source algebra")
    eimg = dict(qm.edge_images)
    ghosts = {e: algebra.star(eimg[e]) for m, _ in x.terms for e in m.nu}
    return algebra.substitute(x, dict(qm.vertex_images), eimg, ghosts,
                              algebra.zero(qm.target, qm.field))


def kernel_generators(g, spec, field):
    """H's vertices plus w^H for each w in S; phi kills each of them."""
    gens = [algebra.vertex_element(g, field, v) for v in spec.H]
    gens += [wh_element(g, w, spec.H, field) for w in spec.S]
    return gens


def phi_preimage_table(qm):
    """An explicit phi-preimage for every generator of the target algebra,
    witnessing surjectivity on generators."""
    g, field = qm.source, qm.field
    B = set(breaking_vertices(g, qm.spec.H))
    primes = B - set(qm.spec.S)
    primed_vertices = {primed(v) for v in primes}
    table = {}
    for v in qm.target.vertices:
        if v in primed_vertices:
            continue    # handled via the unprimed partner below
        if v in primes:
            # v survives; v_q is hit by w^H
            wh = wh_element(g, v, qm.spec.H, field)
            table[primed(v)] = wh
            table[v] = algebra.vertex_element(g, field, v) - wh
        else:
            table[v] = algebra.vertex_element(g, field, v)
    source_edges = set(g.edge_map)
    for e in qm.target.edges:
        if e.name not in source_edges:
            continue    # a primed edge, handled via its parent
        src_edge = algebra.edge_element(g, field, e.name)
        if g.range(e.name) in primes:
            wh = wh_element(g, g.range(e.name), qm.spec.H, field)
            table[primed(e.name)] = src_edge * wh
            table[e.name] = src_edge - src_edge * wh
        else:
            table[e.name] = src_edge
    return table


# -- primitive-ideal witness classification --------------------------------

@dataclass(frozen=True)
class WitnessReport:
    kind: str               # "I" | "II" | "III" | "not_applicable"
    spec: IdealSpec
    breaking: tuple
    witness_vertex: str = None
    witness_cycle: tuple = None
    diagnostics: tuple = ()


def classify_primitive_witness(g, spec, cycle=None):
    """Check the graph-level witness conditions for the three primitive types.

    With ``cycle`` supplied only the type III conditions for that cycle are
    checked; otherwise types are tried in the order I, II, III.
    """
    B = breaking_vertices(g, spec.H)
    H = set(spec.H)
    complement = frozenset(v for v in g.vertices if v not in H)
    diags = []

    def type_one():
        missing = [w for w in B if w not in spec.S]
        if len(missing) != 1:
            diags.append(
                f"type I needs S = B_H minus one vertex; B_H\\S = {missing}"
            )
            return None
        w = missing[0]
        if graphs.M_of_vertex(g, w) != complement:
            diags.append(f"type I fails: M({w}) != E^0\\H")
            return None
        return WitnessReport("I", spec, B, witness_vertex=w)

    def type_two():
        if set(spec.S) != set(B):
            diags.append("type II needs S = B_H")
            return None
        quotient = quotient_graph(g, spec)
        ok = True
        if not graphs.is_downward_directed(quotient):
            diags.append("type II fails: quotient graph is not downward directed")
            ok = False
        bad = [c for c in quotient.cycles if not graphs.cycle_has_exit(quotient, c)]
        if bad:
            names = ", ".join(".".join(c.edges) for c in bad)
            diags.append(f"type II fails: Condition (L) fails on cycle(s) {names}")
            ok = False
        # countable separation is vacuous over a finite vertex set
        return WitnessReport("II", spec, B) if ok else None

    def type_three(c):
        if set(spec.S) != set(B):
            diags.append("type III needs S = B_H")
            return None
        if not graphs.is_exclusive_cycle(g, c):
            diags.append(f"type III fails: cycle {'.'.join(c.edges)} is not exclusive")
            return None
        if graphs.M_of_vertex(g, c.base) != complement:
            diags.append(
                f"type III fails: M({c.base}) != E^0\\H for cycle {'.'.join(c.edges)}"
            )
            return None
        return WitnessReport("III", spec, B, witness_cycle=c.edges)

    if cycle is not None:
        report = type_three(cycle)
        if report:
            return report
        return WitnessReport("not_applicable", spec, B, diagnostics=tuple(diags))

    for attempt in (type_one, type_two):
        report = attempt()
        if report:
            return report
    for c in g.cycles:
        report = type_three(c)
        if report:
            return report
    if not g.cycles:
        diags.append("type III fails: the graph has no cycles")
    return WitnessReport("not_applicable", spec, B, diagnostics=tuple(diags))
