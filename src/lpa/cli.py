"""Command-line interface: graph analyses, normal forms, quotients, witness
classification, free-generator verification, module actions, and the
Toeplitz matrix realization.  ``--json`` emits a schema-stable report that is
byte-identical for identical inputs and seed."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import algebra, corpus, exprs, fields, freegroups, graphs, ideals, linalg, reps, toeplitz

SCHEMA = "lpa-report/1"

PARSE_ERRORS = (graphs.GraphParseError, exprs.ExprError, fields.FieldError)
DOMAIN_ERRORS = (
    graphs.GraphError,
    algebra.AlgebraError,
    ideals.IdealError,
    reps.ModuleError,
    freegroups.WitnessError,
    freegroups.ParameterError,
    toeplitz.ToeplitzError,
    linalg.MatrixError,
    ZeroDivisionError,
)


class CliInputError(ValueError):
    """Bad command-line inputs that are not covered by a parser error."""


def _common_flags(p):
    p.add_argument("--graph", help="graph file path or bundled corpus name")
    p.add_argument("--field", default="Q", help="field descriptor (default Q)")
    p.add_argument(
        "--mode", choices=(algebra.LEAVITT, algebra.COHN), default=algebra.LEAVITT
    )
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--seed", type=int, default=0, help="seed echoed into reports")


def build_parser():
    root = argparse.ArgumentParser(
        prog="lpa",
        description="Exact computation in Leavitt and Cohn path algebras",
    )
    sub = root.add_subparsers(dest="command", required=True)

    def cmd(name, **kw):
        p = sub.add_parser(name, **kw)
        _common_flags(p)
        return p

    cmd("analyze", help="graph-level predicates and classifications")

    p = cmd("nf", help="normal form of an expression")
    p.add_argument("--expr", required=True)

    p = cmd("mul", help="product of two expressions")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)

    p = cmd("star", help="involution of an expression")
    p.add_argument("--expr", required=True)

    p = cmd("quotient", help="quotient graph and kernel generators of (H,S)")
    p.add_argument("--H", default="", help="comma-separated vertices")
    p.add_argument("--S", default="", help="comma-separated breaking vertices")

    p = cmd("classify", help="primitive-ideal witness type of (H,S)")
    p.add_argument("--H", default="")
    p.add_argument("--S", default="")
    p.add_argument("--cycle", help="dot-joined cycle edges for a type III check")

    p = cmd("free-gens", help="build and verify a free generator pair")
    p.add_argument(
        "--witness",
        required=True,
        help="sink:<f> | qsink:<H>;<S>:<f> | breaking:<H>:<w>:<f> | "
        "tail:<cycle>:<f> | line:<i>:<j>",
    )
    p.add_argument("--alpha", required=True, help="field literal")
    p.add_argument("--beta", help="field literal (characteristic p)")
    p.add_argument("--verify-len", type=int, default=8)

    cmd("unit-group", help="unit-group structure of the algebra")

    p = cmd("act", help="apply an element to a module vector")
    p.add_argument(
        "--module",
        required=True,
        help="chen-cycle:<cycle>[:prefix] | sink:<w> | emitter:<v>",
    )
    p.add_argument("--expr", required=True)
    p.add_argument("--vector", required=True, help="e.g. '2*f.@e + 1/3*@e'")

    p = cmd("toeplitz", help="truncated matrix image over the Toeplitz graph")
    p.add_argument("--expr", required=True)
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--det", action="store_true", help="also report the corner determinant")
    return root


# -- input loading ----------------------------------------------------------

def _load_graph(args):
    if not args.graph:
        raise CliInputError("this command needs --graph")
    if os.path.exists(args.graph):
        try:
            with open(args.graph, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliInputError(f"cannot read graph file {args.graph!r}: {exc.strerror}") from None
        return graphs.parse_graph(text), text
    if args.graph in corpus.NAMES:
        text = corpus.graph_text(args.graph)
        return graphs.parse_graph(text), text
    raise CliInputError(f"no such graph file or corpus name: {args.graph!r}")


def _vertices(raw):
    return tuple(v for v in (s.strip() for s in raw.split(",")) if v)


def _elem_str(x):
    return algebra.render(x)


# -- command handlers ---------------------------------------------------------

def _run_analyze(args, ctx):
    g = ctx["graph"]
    result = {
        "vertices": {v: graphs.classify_vertex(g, v) for v in g.vertices},
        "sinks": [v for v in g.vertices if graphs.classify_vertex(g, v) == graphs.SINK],
        "infinite_emitters": [
            v for v in g.vertices
            if graphs.classify_vertex(g, v) == graphs.INFINITE_EMITTER
        ],
        "cycles": [
            {
                "edges": list(c.edges),
                "base": c.base,
                "has_exit": graphs.cycle_has_exit(g, c),
                "exclusive": graphs.is_exclusive_cycle(g, c),
            }
            for c in g.cycles
        ],
        "condition_L": graphs.condition_L(g),
        "downward_directed": graphs.is_downward_directed(g),
        "commutative_shape": graphs.commutativity_shape(g),
        "countable_separation": graphs.has_countable_separation(g),
        "edge_order": {v: list(names) for v, names in g.order},
    }
    diags = [
        "downward directed uses the standard definition: every two vertices "
        "reach a common vertex",
        "countable separation is vacuous: the vertex set is finite",
    ]
    lines = [f"graph {g.name}: {len(g.vertices)} vertices, {len(g.edges)} edges"]
    for v in g.vertices:
        lines.append(f"  {v}: {graphs.classify_vertex(g, v)}")
    for c in result["cycles"]:
        lines.append(
            f"  cycle {'.'.join(c['edges'])}: "
            f"{'has exit' if c['has_exit'] else 'no exit'}, "
            f"{'exclusive' if c['exclusive'] else 'not exclusive'}"
        )
    lines.append(f"  condition (L): {result['condition_L']}")
    lines.append(f"  downward directed: {result['downward_directed']}")
    lines.append(f"  commutative shape: {result['commutative_shape']}")
    return result, lines, diags


def _parse_in_ctx(args, ctx, text):
    return exprs.parse_expr(text, ctx["graph"], ctx["field"], args.mode)


def _run_nf(args, ctx):
    x = ctx["exprs"]["expr"]
    return {"element": _elem_str(x)}, [_elem_str(x)], []


def _run_mul(args, ctx):
    x = ctx["exprs"]["lhs"] * ctx["exprs"]["rhs"]
    return {"element": _elem_str(x)}, [_elem_str(x)], []


def _run_star(args, ctx):
    x = algebra.star(ctx["exprs"]["expr"])
    return {"element": _elem_str(x)}, [_elem_str(x)], []


def _run_quotient(args, ctx):
    g, field = ctx["graph"], ctx["field"]
    spec = ideals.admissible_pair(g, _vertices(args.H), _vertices(args.S))
    target = ideals.quotient_graph(g, spec)
    gens = ideals.kernel_generators(g, spec, field)
    result = {
        "H": list(spec.H),
        "S": list(spec.S),
        "B_H": list(ideals.breaking_vertices(g, spec.H)),
        "quotient_graph": graphs.serialize_graph(target),
        "kernel_generators": [_elem_str(x) for x in gens],
    }
    lines = [graphs.serialize_graph(target).rstrip()]
    lines.append("kernel generators: " + "; ".join(result["kernel_generators"]))
    return result, lines, []


def _run_classify(args, ctx):
    g = ctx["graph"]
    spec = ideals.admissible_pair(g, _vertices(args.H), _vertices(args.S))
    cycle = graphs.make_cycle(g, args.cycle.split(".")) if args.cycle else None
    report = ideals.classify_primitive_witness(g, spec, cycle)
    kind = report.kind if report.kind != "not_applicable" else "NotApplicable"
    result = {
        "H": list(spec.H),
        "S": list(spec.S),
        "B_H": list(report.breaking),
        "type": kind,
        "witness_vertex": report.witness_vertex,
        "witness_cycle": list(report.witness_cycle) if report.witness_cycle else None,
        "failing_conditions": list(report.diagnostics),
    }
    lines = [f"type: {kind}"]
    if report.witness_vertex:
        lines.append(f"witness vertex: {report.witness_vertex}")
    if report.witness_cycle:
        lines.append(f"witness cycle: {'.'.join(report.witness_cycle)}")
    lines += [f"failing: {d}" for d in report.diagnostics]
    return result, lines, []


def _parse_witness(args, ctx):
    g, field = ctx["graph"], ctx["field"]
    raw = args.witness
    head, _, rest = raw.partition(":")
    if head == "sink":
        return freegroups.SinkEdge(rest)
    if head == "qsink":
        bits = rest.split(":")
        if len(bits) == 2:
            hs, f = bits
            if ";" in hs:
                h_raw, s_raw = hs.split(";", 1)
                H = _vertices(h_raw)
                S = _vertices(s_raw)
            else:
                H = _vertices(hs)
                S = ideals.breaking_vertices(g, H)
            spec = ideals.admissible_pair(g, H, S)
            if f not in g.edge_map:
                raise CliInputError(f"unknown edge {f!r}")
            return freegroups.QuotientSink(spec, f, g.range(f))
        raise CliInputError("expected qsink:<H>[;<S>]:<f>")
    if head == "breaking":
        bits = rest.split(":")
        if len(bits) != 3:
            raise CliInputError("expected breaking:<H>:<w>:<f>")
        H = _vertices(bits[0])
        B = ideals.breaking_vertices(g, H)
        w = bits[1]
        spec = ideals.admissible_pair(g, H, tuple(x for x in B if x != w))
        return freegroups.BreakingVertex(spec, w, bits[2])
    if head == "tail":
        bits = rest.split(":")
        if len(bits) != 2:
            raise CliInputError("expected tail:<cycle>:<f>")
        cycle = graphs.make_cycle(g, bits[0].split("."))
        f = bits[1]
        if f not in g.edge_map:
            raise CliInputError(f"unknown edge {f!r}")
        start = g.range(f)
        for k, e in enumerate(cycle.edges):
            if g.source(e) == start:
                tail = reps.canonicalize_rational(g, (), cycle.edges, k)
                return freegroups.RationalPathEdge(f, tail)
        raise CliInputError("the edge does not enter the cycle")
    if head == "line":
        try:
            i, j = map(int, rest.split(":"))
        except ValueError:
            raise CliInputError("expected line:<i>:<j> with integers i and j") from None
        return freegroups.LineGraph(i, j)
    raise CliInputError(f"unknown witness kind {head!r}")


def _run_free_gens(args, ctx):
    g, field = ctx["graph"], ctx["field"]
    witness = _parse_witness(args, ctx)
    alpha = fields.parse_element(field, args.alpha)
    beta = fields.parse_element(field, args.beta) if args.beta else None
    if args.verify_len < 1:
        raise CliInputError("--verify-len must be >= 1")
    pair = freegroups.build_generators(g, field, witness, alpha, beta)
    report = freegroups.verify_free_up_to(pair, args.verify_len)
    names = ("a", "b") if pair.char_case == "zero" else ("c", "d")
    result = {
        "witness": args.witness,
        "char_case": pair.char_case,
        "generators": {names[0]: _elem_str(pair.a), names[1]: _elem_str(pair.b)},
        "inverses": {
            names[0]: _elem_str(pair.a_inv),
            names[1]: _elem_str(pair.b_inv),
        },
        "words_checked": report.words_checked,
        "all_nontrivial": report.all_nontrivial,
        "matrix_crosscheck": report.matrix_crosscheck,
        "failures": list(report.failures),
    }
    lines = [
        f"{names[0]} = {_elem_str(pair.a)}",
        f"{names[1]} = {_elem_str(pair.b)}",
        f"{names[0]}^-1 = {_elem_str(pair.a_inv)}",
        f"{names[1]}^-1 = {_elem_str(pair.b_inv)}",
        f"checked {report.words_checked} reduced words of length <= {args.verify_len}",
        f"all nontrivial: {report.all_nontrivial}; "
        f"matrix crosscheck: {report.matrix_crosscheck}",
    ]
    return result, lines, []


def _run_unit_group(args, ctx):
    g = ctx["graph"]
    desc = freegroups.unit_group_structure(g, ctx["field"])
    result = {
        "kind": desc.kind,
        "gl_factors": list(desc.gl_sizes),
        "laurent_factors": list(desc.laurent_sizes),
        "descriptor": desc.render(),
        "diagnostics": list(desc.diagnostics),
    }
    return result, [desc.render()], list(desc.diagnostics)


def _parse_module(args, ctx):
    g, field = ctx["graph"], ctx["field"]
    head, _, rest = args.module.partition(":")
    if head == "chen-cycle":
        bits = rest.split(":")
        cycle = bits[0].split(".")
        if len(bits) > 1 and bits[1]:
            # an optional prefix picks a representative; the tail-equivalence
            # class, and hence the module, is unchanged, so just validate it
            prefix = tuple(bits[1].split("."))
            reps.canonicalize_rational(g, prefix, tuple(cycle), 0)
        return reps.chen_module(g, field, cycle)
    if head == "sink":
        return reps.sink_module(g, field, rest)
    if head == "emitter":
        return reps.emitter_module(g, field, rest)
    raise CliInputError(f"unknown module kind {head!r}")


def _parse_vector(module, raw):
    g, field = module.graph, module.field
    out = reps.ModuleVector(module, ())
    for term in raw.split("+"):
        term = term.strip()
        if not term:
            continue
        if "*" in term:
            coef_raw, path_raw = term.split("*", 1)
            coef = fields.parse_element(field, coef_raw.strip())
        else:
            coef, path_raw = fields.one(field), term
        path_raw = path_raw.strip()
        if "@" in path_raw:
            prefix_raw, cycle_raw = path_raw.split("@", 1)
            prefix = tuple(p for p in prefix_raw.strip(".").split(".") if p)
            cycle = tuple(cycle_raw.split("."))
            b = reps.canonicalize_rational(g, prefix, cycle, 0)
        else:
            comps = tuple(p for p in path_raw.split(".") if p)
            if module.kind == "chen":
                raise CliInputError("chen-module vectors need an @cycle tail")
            path = () if comps == (module.vertex,) else comps
            b = (reps.SinkPath if module.kind == "sink" else reps.EmitterPath)(path, module.vertex)
        out = out + reps.basis_vector(module, b).scale(coef)
    return out


def _run_act(args, ctx):
    module = _parse_module(args, ctx)
    vec = _parse_vector(module, args.vector)
    x = ctx["exprs"]["expr"]
    result_vec = reps.act(x, vec)
    result = {"vector": str(result_vec)}
    return result, [str(result_vec)], []


def _run_toeplitz(args, ctx):
    field = ctx["field"]
    g = toeplitz.toeplitz_graph()
    x = exprs.parse_expr(args.expr, g, field, algebra.LEAVITT)
    mat = toeplitz.toeplitz_embed(x, args.size)
    triples = [[i, j, fields.element_str(c)] for (i, j), c in mat.terms]
    result = {"size": args.size, "entries": triples}
    lines = [str(mat)]
    if args.det:
        det = linalg.det_gauss(toeplitz.AugmentedMatrix(mat).dense(args.size))
        result["det_of_I_plus_M"] = fields.element_str(det)
        lines.append(f"det(I + M) over the {args.size} corner: {result['det_of_I_plus_M']}")
    return result, lines, []


HANDLERS = {
    "analyze": (_run_analyze, (), True),
    "nf": (_run_nf, ("expr",), True),
    "mul": (_run_mul, ("lhs", "rhs"), True),
    "star": (_run_star, ("expr",), True),
    "quotient": (_run_quotient, (), True),
    "classify": (_run_classify, (), True),
    "free-gens": (_run_free_gens, (), True),
    "unit-group": (_run_unit_group, (), True),
    "act": (_run_act, ("expr",), True),
    "toeplitz": (_run_toeplitz, (), False),
}


def _report(args, ctx, result, diagnostics, error=None):
    inputs = {
        "field": str(ctx.get("field", "")) if ctx.get("field") else args.field,
        "mode": args.mode,
        "seed": args.seed,
    }
    if ctx.get("graph_text") is not None:
        inputs["graph"] = ctx["graph"].name
        inputs["graph_digest"] = hashlib.sha256(
            ctx["graph_text"].encode()
        ).hexdigest()[:16]
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "inputs": inputs,
        "result": result,
        "diagnostics": diagnostics,
        "timing_ms": None,
    }
    if error is not None:
        report["error"] = error
    return report


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler, expr_keys, needs_graph = HANDLERS[args.command]
    ctx = {}
    started = time.monotonic()
    # input-parsing stage: failures exit 2
    try:
        ctx["field"] = fields.parse_descriptor(args.field)
        if needs_graph:
            ctx["graph"], ctx["graph_text"] = _load_graph(args)
        ctx["exprs"] = {
            key: _parse_in_ctx(args, ctx, getattr(args, key)) for key in expr_keys
        }
    except (*PARSE_ERRORS, CliInputError) as exc:
        return _fail(args, ctx, exc, 2)
    # domain stage: failures exit 1
    try:
        result, lines, diagnostics = handler(args, ctx)
    except PARSE_ERRORS as exc:
        return _fail(args, ctx, exc, 2)
    except DOMAIN_ERRORS as exc:
        return _fail(args, ctx, exc, 1)
    except CliInputError as exc:
        return _fail(args, ctx, exc, 2)
    elapsed = (time.monotonic() - started) * 1000.0
    if args.json:
        print(json.dumps(_report(args, ctx, result, diagnostics), sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
        for d in diagnostics:
            print(f"note: {d}")
        print(f"[{elapsed:.1f} ms]")
    return 0


def _fail(args, ctx, exc, code):
    error = {"kind": type(exc).__name__, "message": str(exc)}
    if args.json:
        print(json.dumps(_report(args, ctx, None, [], error), sort_keys=True, indent=2))
    else:
        print(f"error ({error['kind']}): {error['message']}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
