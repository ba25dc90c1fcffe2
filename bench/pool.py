#!/usr/bin/env python3
"""Generate the corpus-mix request pool and record its goldens.

    python3 bench/pool.py            # rewrite bench/goldens.json

The pool is a fixed list of ``lpa`` argv lists drawn from a fixed seed, each
stored with the exit code and report digest the program gives at the commit
where it was recorded.  A benchmark run never regenerates the pool: it draws
its requests from ``goldens.json`` with its own seed (see ``workloads.py``),
so the goldens stay the check even after the library is refactored.  Rerun
this script only when a change is meant to alter reports.

Every generated request lies in the documented input domain: field literals
have nonzero denominators prime to 7, word lengths are >= 1, graphs are
corpus names.  Hardening against malformed argv is not what this benchmark
measures.  The ``domain-error`` stratum holds requests whose documented
answer is exit code 1.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import workloads  # noqa: E402
from lpa import cli, corpus, freegroups, graphs, ideals  # noqa: E402

POOL_SEED = 20230319

FIELDS = ("Q", "F7", "Q(t)", "Q[x]/(x^2+1)")
SCALARS = {
    "Q": ("2", "3", "1/2", "2/3", "5"),
    "F7": ("2", "3", "5", "1/2", "3/4"),
    "Q(t)": ("t", "2", "1/2", "3"),
    "Q[x]/(x^2+1)": ("xbar", "2", "1/3", "3"),
}
# free-gens needs characteristic 0: alpha = 2 or a transcendental variable
FREE_FIELDS = (("Q", "2"), ("Q(t)", "t"), ("Q[x]/(x^2+1)", "2"))
MODES = ("leavitt", "cohn")

# pool entries per sampled stratum, as a multiple of its quota
POOL_FACTOR = 2


# -- random expressions ----------------------------------------------------------

def _forward_walk(rng, g, v, max_len):
    path = []
    for _ in range(rng.randint(0, max_len)):
        out = g.out_edges[v]
        if not out:
            break
        e = rng.choice(out)
        path.append(e)
        v = g.range(e)
    return path, v


def _backward_walk(rng, g, v, max_len):
    """A path ending at v, listed in traversal order."""
    path = []
    for _ in range(rng.randint(0, max_len)):
        inc = g.in_edges[v]
        if not inc:
            break
        e = rng.choice(inc)
        path.insert(0, e)
        v = g.source(e)
    return path


def _monomial(rng, g, max_len=3):
    """lam nu* with a common range, or a run of random atoms (usually 0)."""
    if rng.random() < 0.25:
        atoms = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.3:
                atoms.append(rng.choice(g.vertices))
            elif kind < 0.65:
                atoms.append(rng.choice(g.edges).name)
            else:
                atoms.append(rng.choice(g.edges).name + "*")
        return " ".join(atoms)
    lam, v = _forward_walk(rng, g, rng.choice(g.vertices), max_len)
    nu = _backward_walk(rng, g, v, max_len)
    atoms = lam + [e + "*" for e in reversed(nu)]
    return " ".join(atoms) if atoms else v


def _term(rng, g, field):
    parts = []
    if rng.random() < 0.5:
        parts.append(rng.choice(SCALARS[field]))
    if rng.random() < 0.2:
        inner = f"({_monomial(rng, g, 2)} + {_monomial(rng, g, 2)})"
        parts.append(inner + ("*" if rng.random() < 0.5 else ""))
    parts.append(_monomial(rng, g))
    return " ".join(parts)


def random_expr(rng, g, field, max_terms=3):
    out = _term(rng, g, field)
    for _ in range(rng.randint(0, max_terms - 1)):
        out += rng.choice((" + ", " - ")) + _term(rng, g, field)
    return out


# -- graph-derived request parts --------------------------------------------------

def _hs_pair(rng, g):
    """A random admissible pair (H, S) as CLI vertex lists."""
    while True:     # H = E^0 leaves an empty quotient, which is no algebra
        k = rng.randint(0, min(2, len(g.vertices)))
        closure = graphs.hs_closure(g, rng.sample(g.vertices, k))
        if len(closure) < len(g.vertices):
            break
    H = [v for v in g.vertices if v in closure]
    B = ideals.breaking_vertices(g, H)
    S = [w for w in B if rng.random() < 0.5]
    return ",".join(H), ",".join(S)


def _witness_str(w):
    if isinstance(w, freegroups.SinkEdge):
        return "sink", f"sink:{w.edge}"
    if isinstance(w, freegroups.QuotientSink):
        return "qsink", f"qsink:{','.join(w.spec.H)};{','.join(w.spec.S)}:{w.edge}"
    if isinstance(w, freegroups.BreakingVertex):
        return "breaking", f"breaking:{','.join(w.spec.H)}:{w.vertex}:{w.edge}"
    if isinstance(w, freegroups.RationalPathEdge):
        return "tail", f"tail:{'.'.join(w.tail.cycle)}:{w.edge}"
    return "line", f"line:{w.i}:{w.j}"


def witnesses_by_kind():
    """Every CLI witness string the corpus supports, by witness kind."""
    found = defaultdict(set)
    for name in corpus.NAMES:
        g = corpus.load(name)
        specs = [None]
        subsets = {graphs.hs_closure(g, [v]) for v in g.vertices}
        for H in sorted(subsets, key=sorted):
            if len(H) == len(g.vertices):
                continue
            Hs = [v for v in g.vertices if v in H]
            B = ideals.breaking_vertices(g, Hs)
            for w in B:
                specs.append(ideals.admissible_pair(g, Hs, [x for x in B if x != w]))
            specs.append(ideals.admissible_pair(g, Hs, B))
        for spec in specs[1:]:
            # find_witness leaves out quotient sinks that are sinks of g already
            quotient = ideals.quotient_graph(g, spec)
            for e in g.edges:
                if (e.dst not in spec.H and e.src not in spec.H
                        and graphs.classify_vertex(quotient, e.dst) == graphs.SINK):
                    w = freegroups.QuotientSink(spec, e.name, e.dst)
                    found["qsink"].add((name, _witness_str(w)[1]))
        for spec in specs:
            for w in freegroups.find_witness(g, spec):
                kind, text = _witness_str(w)
                if kind == "breaking" and set(w.spec.S) != set(
                    ideals.breaking_vertices(g, w.spec.H)
                ) - {w.vertex}:
                    continue    # the CLI form fixes S = B_H minus w
                found[kind].add((name, text))
    return {k: sorted(v) for k, v in found.items()}


def _module_specs(g):
    specs = []
    for v in g.vertices:
        kind = graphs.classify_vertex(g, v)
        if kind == graphs.SINK:
            specs.append(("sink", v))
        elif kind == graphs.INFINITE_EMITTER:
            specs.append(("emitter", v))
    for c in graphs.simple_cycles(g):
        specs.append(("chen-cycle", c))
    return specs


def _vector(rng, g, field, spec):
    kind, target = spec
    terms = []
    for _ in range(rng.randint(1, 3)):
        if kind == "chen-cycle":
            base = g.source(target.edges[0])
            prefix = _backward_walk(rng, g, base, 2)
            path = ".".join(prefix) + (".@" if prefix else "@") + ".".join(target.edges)
        else:
            path = ".".join(_backward_walk(rng, g, target, 3)) or target
        if rng.random() < 0.6:
            coef = rng.choice(SCALARS[field])
            terms.append(f"{coef}*{path}")
        else:
            terms.append(path)
    return " + ".join(terms)


# -- strata ---------------------------------------------------------------------------

def generate(rng, counts):
    """{stratum: [argv, ...]} with counts[stratum] requests each."""
    G = {name: corpus.load(name) for name in corpus.NAMES}
    names = list(corpus.NAMES)
    witnesses = witnesses_by_kind()
    toeplitz = G["toeplitz"]

    def common(argv, field, mode=None):
        argv += ["--field", field]
        if mode is not None:
            argv += ["--mode", mode]
        return argv + ["--json"]

    def analyze():
        return common(["analyze", "--graph", rng.choice(names)],
                      rng.choice(FIELDS), rng.choice(MODES))

    def unit_group():
        return common(["unit-group", "--graph", rng.choice(names)],
                      rng.choice(FIELDS), rng.choice(MODES))

    def expr_cmd(cmd):
        def make():
            name, field = rng.choice(names), rng.choice(FIELDS)
            g = G[name]
            if cmd == "mul":
                body = ["--lhs", random_expr(rng, g, field), "--rhs", random_expr(rng, g, field)]
            else:
                body = ["--expr", random_expr(rng, g, field)]
            return common([cmd, "--graph", name] + body, field, rng.choice(MODES))
        return make

    def hs_cmd(cmd):
        def make():
            name = rng.choice(names)
            g = G[name]
            H, S = _hs_pair(rng, g)
            argv = [cmd, "--graph", name, "--H", H, "--S", S]
            cycles = graphs.simple_cycles(g)
            if cmd == "classify" and cycles and rng.random() < 0.3:
                argv += ["--cycle", ".".join(rng.choice(cycles).edges)]
            return common(argv, rng.choice(FIELDS), rng.choice(MODES))
        return make

    def act():
        while True:
            name = rng.choice(names)
            specs = _module_specs(G[name])
            if specs:
                break
        g, field = G[name], rng.choice(FIELDS)
        spec = rng.choice(specs)
        module = f"{spec[0]}:" + (".".join(spec[1].edges) if spec[0] == "chen-cycle" else spec[1])
        return common(
            ["act", "--graph", name, "--module", module,
             "--expr", random_expr(rng, g, field), "--vector", _vector(rng, g, field, spec)],
            field, "leavitt",
        )

    def toeplitz_cmd(lo, hi):
        def make():
            field = rng.choice(FIELDS)
            argv = ["toeplitz", "--expr", random_expr(rng, toeplitz, field),
                    "--size", str(rng.randint(lo, hi))]
            if rng.random() < 0.75:
                argv.append("--det")
            return common(argv, field)
        return make

    def free_gens(kind):
        def make():
            name, witness = rng.choice(witnesses[kind])
            field, alpha = rng.choice(FREE_FIELDS)
            return common(
                ["free-gens", "--graph", name, "--witness", witness, "--alpha", alpha,
                 "--verify-len", str(rng.randint(1, 4))],
                field,
            )
        return make

    def domain_error():
        kind = rng.randrange(4)
        if kind == 0:       # characteristic p without two transcendental parameters
            name, witness = rng.choice(witnesses["sink"])
            return common(["free-gens", "--graph", name, "--witness", witness,
                           "--alpha", "2", "--verify-len", "2"], "F7")
        if kind == 1:       # H not hereditary: a vertex without its successors
            name = rng.choice(("toeplitz", "ex35", "ex62", "a3", "a4", "a5"))
            g = G[name]
            v = next(x for x in g.vertices if g.out_edges[x])
            return common(["quotient", "--graph", name, "--H", v], rng.choice(FIELDS))
        if kind == 2:       # a module over a Cohn-mode element
            return common(["act", "--graph", "toeplitz", "--module", "sink:v",
                           "--expr", random_expr(rng, toeplitz, "Q"), "--vector", "f"],
                          "Q", "cohn")
        name = rng.choice(("toeplitz", "ex35", "ex62"))   # a witness edge into a non-sink
        loop = next(e.name for e in G[name].edges if e.src == e.dst)
        return common(["free-gens", "--graph", name, "--witness", f"sink:{loop}",
                       "--alpha", "2", "--verify-len", "2"], "Q")

    makers = {
        "analyze": analyze,
        "unit-group": unit_group,
        "nf": expr_cmd("nf"),
        "mul": expr_cmd("mul"),
        "star": expr_cmd("star"),
        "quotient": hs_cmd("quotient"),
        "classify": hs_cmd("classify"),
        "act": act,
        "toeplitz-small": toeplitz_cmd(2, 10),
        "toeplitz-large": toeplitz_cmd(11, 24),
        "domain-error": domain_error,
    }
    for kind in ("sink", "qsink", "breaking", "tail", "line"):
        makers[f"free-gens-{kind}"] = free_gens(kind)
    pool = {}
    for stratum, n in counts.items():
        pool[stratum] = [makers[stratum]() for _ in range(n)]
    return pool


def record(argv_list):
    """Run each request in this process; return (exit, digest, ms) triples."""
    out = []
    for argv in argv_list:
        t0 = time.perf_counter()
        code, text, crash = workloads.call_cli(cli.main, argv)
        ms = (time.perf_counter() - t0) * 1000.0
        if crash is not None:
            raise SystemExit(f"request crashed: {argv!r}: {crash}")
        out.append((code, workloads.digest(text), ms))
    return out


def main():
    rng = random.Random(POOL_SEED)
    counts = {s: q if s in workloads.CENSUS else POOL_FACTOR * q
              for s, q in workloads.QUOTA.items()}
    pool = generate(rng, counts)
    pool["anchors"] = [list(a["argv"]) for a in workloads.ANCHORS]
    entries = []
    cost = defaultdict(list)
    codes = defaultdict(int)
    for stratum in sorted(pool):
        for argv, (code, dig, ms) in zip(pool[stratum], record(pool[stratum])):
            entries.append({"stratum": stratum, "argv": argv, "exit": code, "digest": dig})
            cost[stratum].append(ms)
            codes[(stratum, code)] += 1
    path = os.path.join(HERE, "goldens.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"pool_seed": %d, "requests": [\n' % POOL_SEED)
        fh.write(",\n".join(json.dumps(e, sort_keys=True) for e in entries))
        fh.write("\n]}\n")
    for stratum in sorted(cost):
        ms = cost[stratum]
        exits = {c: n for (s, c), n in codes.items() if s == stratum}
        print(f"{stratum:18s} n={len(ms):4d} mean={sum(ms) / len(ms):8.2f} ms "
              f"max={max(ms):8.2f} ms exits={exits}", file=sys.stderr)
    print(f"wrote {len(entries)} requests to {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
