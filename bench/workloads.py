"""Workload definitions: the argv each workload sends to ``lpa.cli.main`` and
the checks its outputs must pass.  Imported by the parent (``run.py``), the
child (``child.py``) and the pool recorder; it does not import ``lpa``.

* ``free-Q``     -- the paper's Sanov pair over Q, 13,120 reduced words.
* ``free-ff``    -- the same witness over F5(s,t) and Q(t), 1,456 words each.
* ``corpus-mix`` -- a seeded, stratified draw of small CLI requests from the
                    recorded pool in ``goldens.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.json")

WORKLOADS = ("free-Q", "free-ff", "corpus-mix")

# Requests drawn per corpus-mix run, by stratum.  Each stratum is narrow in
# cost, so that seeds differ in which requests they draw but not in how much
# work they ask for; the pool holds twice as many of each.  free-gens costs
# 1 ms to 1 s a request, so its strata are sent whole (the CENSUS) and the
# seed only orders them.
QUOTA = {
    "analyze": 55,
    "unit-group": 40,
    "nf": 100,
    "mul": 75,
    "star": 50,
    "quotient": 40,
    "classify": 40,
    "act": 75,
    "toeplitz-small": 30,
    "toeplitz-large": 15,
    "free-gens-sink": 4,
    "free-gens-qsink": 4,
    "free-gens-breaking": 4,
    "free-gens-tail": 4,
    "free-gens-line": 4,
    "domain-error": 15,
}
CENSUS = frozenset(s for s in QUOTA if s.startswith("free-gens-"))

# Known answers from the README and the paper, sent in every corpus-mix run
# and checked by value as well as by digest.
ANCHORS = (
    {"argv": ["nf", "--graph", "toeplitz", "--field", "Q", "--expr", "(e + f)(e* + f*)",
              "--json"],
     "expect": {"result.element": "u"}},
    {"argv": ["classify", "--graph", "ex11", "--H", "v1,v2", "--S", "v", "--json"],
     "expect": {"result.type": "I"}},
    {"argv": ["unit-group", "--graph", "a4", "--json"],
     "expect": {"result.descriptor": "GL_4(K)"}},
)


def _free(field, alpha, beta, length, names, gens, words):
    argv = ["free-gens", "--graph", "toeplitz", "--field", field, "--witness", "sink:f",
            "--alpha", alpha]
    if beta is not None:
        argv += ["--beta", beta]
    argv += ["--verify-len", str(length), "--json"]
    expect = {
        "result.all_nontrivial": True,
        "result.matrix_crosscheck": True,
        "result.words_checked": words,
        f"result.generators.{names[0]}": gens[0],
        f"result.generators.{names[1]}": gens[1],
    }
    return {"argv": argv, "exit": 0, "digest": None, "expect": expect}


# The generators must equal their closed forms: a = 1 + alpha f*, b = 1 + alpha f
# in characteristic 0, and the beta-dressed c, d in characteristic p.
FREE = {
    "free-Q": (
        _free("Q", "2", None, 8, "ab", ("u + v + 2 f*", "u + v + 2 f"), 13120),
    ),
    "free-ff": (
        _free("F5(s,t)", "s", "t", 6, "cd",
              ("t u + 1/(t) v + s f*", "t u + 1/(t) v + s f"), 1456),
        _free("Q(t)", "t", None, 6, "ab", ("u + v + t f*", "u + v + t f"), 1456),
    ),
}


def load_pool(path=GOLDENS):
    """{stratum: [request, ...]} from the recorded goldens."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    pool = {}
    for entry in data["requests"]:
        pool.setdefault(entry["stratum"], []).append(entry)
    return pool


def corpus_plan(seed, pool):
    """The corpus-mix request stream for a seed: QUOTA[s] requests drawn
    without replacement from each stratum, the anchors, then shuffled."""
    rng = random.Random(seed)
    anchors = {tuple(a["argv"]): a["expect"] for a in ANCHORS}
    plan = []
    for stratum in sorted(QUOTA):
        entries = pool.get(stratum, [])
        if len(entries) < QUOTA[stratum]:
            raise ValueError(f"pool stratum {stratum!r} holds {len(entries)} requests, "
                             f"needs {QUOTA[stratum]}")
        plan += rng.sample(entries, QUOTA[stratum])
    plan += pool["anchors"]
    requests = []
    for entry in plan:
        requests.append({
            "argv": list(entry["argv"]),
            "exit": entry["exit"],
            "digest": entry["digest"],
            "expect": anchors.get(tuple(entry["argv"]), {}),
        })
    rng.shuffle(requests)
    return requests


def plan(workload, seed, pool=None):
    """The list of requests one pass of a workload sends, in order."""
    if workload in FREE:
        out = []
        for req in FREE[workload]:
            req = dict(req)
            argv = list(req["argv"])
            req["argv"] = argv[:-1] + ["--seed", str(seed), argv[-1]]
            out.append(req)
        return out
    if workload == "corpus-mix":
        return corpus_plan(seed, load_pool() if pool is None else pool)
    raise ValueError(f"unknown workload {workload!r}")


# -- calling the program and checking what it returns ----------------------------------

def call_cli(main, argv):
    """Run main(argv) with captured output: (exit code, stdout, crash)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
    except Exception as exc:  # an uncaught exception is a failed request, not a crash here
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), None


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


_MISSING = object()


def _lookup(report, dotted):
    node = report
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return _MISSING
        node = node[key]
    return node


def check(request, code, text, crash):
    """The reasons a request's outputs are wrong; empty when they are right."""
    if crash is not None:
        return [f"uncaught exception: {crash}"]
    problems = []
    if code != request["exit"]:
        problems.append(f"exit code {code}, expected {request['exit']}")
    if request["digest"] is not None and digest(text) != request["digest"]:
        problems.append("report digest differs from the golden")
    if request["expect"]:
        try:
            report = json.loads(text)
        except ValueError:
            return problems + ["report is not JSON"]
        for path, want in request["expect"].items():
            got = _lookup(report, path)
            if got is _MISSING:
                problems.append(f"{path} missing from the report")
            elif got != want:
                problems.append(f"{path} = {got!r}, expected {want!r}")
    return problems
