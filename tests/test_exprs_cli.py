"""Expression grammar (star lexing is bit-exact) and the CLI surface."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sampling
from conftest import complete_digraph, gens, line_text
from lpa import algebra, cli, corpus, exprs, fields, freegroups, graphs, linalg


def parse(text, g, field, mode=algebra.LEAVITT):
    return exprs.parse_expr(text, g, field, mode)


def test_star_lexing_rule(graphs_by_name, Q):
    t = graphs_by_name["toeplitz"]
    G = gens(t, Q)
    # tight star after an identifier is the ghost postfix
    assert parse("f*", t, Q) == G["f*"]
    # star surrounded by whitespace multiplies
    assert parse("f * f*", t, Q) == G["f"] * G["f*"]
    # star after ) applies to the whole parenthesized expression
    assert parse("(e f)*", t, Q) == algebra.star(G["e"] * G["f"])
    # a second tight star multiplies: f**f is (f*) * f
    assert parse("f**f", t, Q) == G["f*"] * G["f"]
    # star with whitespace before binds as multiplication even when tight after
    assert parse("f *f", t, Q) == G["f"] * G["f"]


def test_expr_examples(graphs_by_name, Q):
    t = graphs_by_name["toeplitz"]
    G = gens(t, Q)
    x = parse("1 + 2 f*", t, Q)
    assert x == G["1"] + G["f*"].scale(fields.from_int(Q, 2))
    assert parse("e* f", t, Q).is_zero()
    assert parse("(e + f)(e* + f*)", t, Q) == G["u"]
    assert parse("1/2 e", t, Q) == G["e"].scale(fields.from_fraction(Q, __import__("fractions").Fraction(1, 2)))
    assert parse("u - v", t, Q) == G["u"] - G["v"]
    assert parse("-u + u", t, Q).is_zero()


def test_expr_whf_example(graphs_by_name, Q):
    g = graphs_by_name["ex11"]
    x = parse("(w - f f*) f*", g, Q)
    from lpa import ideals

    wh = ideals.wh_element(g, "w", ("v1", "v2"), Q)
    fstar = algebra.star(algebra.edge_element(g, Q, "f"))
    assert x == wh * fstar


def test_expr_field_literals(graphs_by_name, Qt, Qi):
    t = graphs_by_name["toeplitz"]
    x = parse("t f", t, Qt)
    assert x == algebra.edge_element(t, Qt, "f").scale(fields.variable(Qt, "t"))
    y = parse("xbar u", t, Qi)
    assert y == algebra.vertex_element(t, Qi, "u").scale(fields.xbar(Qi))


def test_expr_errors(graphs_by_name, Q):
    t = graphs_by_name["toeplitz"]
    for bad in ("zz", "e +", "(e", "e )", "", "e @ f", "2/"):
        with pytest.raises(exprs.ExprError):
            parse(bad, t, Q)
    try:
        parse("e zz", t, Q)
    except exprs.ExprError as e:
        assert e.col == 3


def test_roundtrip_on_corpus_of_expressions(graphs_by_name, Q):
    """serialize(parse(t)) reparses to an equal element, 100 expressions."""
    rng = random.Random(101)
    names = ("toeplitz", "ex11", "ex35", "ex62", "a4", "r2")
    count = 0
    while count < 100:
        g = graphs_by_name[names[count % len(names)]]
        x = sampling.random_element(rng, g, Q)
        assert all(fields.is_literal_scalar(fields.FieldElement(Q, c)) for _, c in x.terms)
        text = algebra.render(x)
        again = parse(text, g, Q)
        assert again == x, text
        count += 1


def run_cli(*argv, timeout=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "lpa.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


def test_cli_nf(tmp_path):
    out = run_cli("nf", "--graph", "toeplitz", "--field", "Q",
                  "--expr", "(e + f)(e* + f*)")
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "u"


def test_cli_parse_error_exit_2():
    out = run_cli("nf", "--graph", "toeplitz", "--expr", "zz")
    assert out.returncode == 2
    assert "ExprError" in out.stderr
    out2 = run_cli("nf", "--graph", "nosuchgraph", "--expr", "u")
    assert out2.returncode == 2


def test_cli_parser_built_once_per_process_not_at_import(monkeypatch, capsys):
    """Importing ``lpa.cli`` builds no parser; the first ``main`` builds it and
    later calls reuse it, each with a fresh namespace."""
    out = subprocess.run([sys.executable, "-c", "import lpa.cli; "
                          "print(lpa.cli.build_parser.cache_info().currsize)"],
                         capture_output=True, text=True)
    assert out.stdout == "0\n", out.stderr
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert cli.main(["nf", "--graph", "toeplitz", "--expr", "e", "--json"]) == 0
    first = len(built)
    assert first > 10
    assert json.loads(capsys.readouterr().out)["result"] == {"element": "e"}
    assert cli.main(["nf", "--graph", "toeplitz", "--expr", "f"]) == 0
    assert len(built) == first
    assert capsys.readouterr().out.startswith("f\n")     # --json did not carry over


OWN_FLAGS = {
    "analyze": [], "nf": ["--expr"], "mul": ["--lhs", "--rhs"], "star": ["--expr"],
    "quotient": ["--H", "--S"], "classify": ["--H", "--S", "--cycle"],
    "free-gens": ["--witness", "--alpha", "--beta", "--verify-len"], "unit-group": [],
    "act": ["--module", "--expr", "--vector"], "toeplitz": ["--expr", "--size", "--det"],
}


@pytest.mark.parametrize("command", list(OWN_FLAGS))
def test_cli_help_lists_common_and_own_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ["--graph", "--field", "--mode", "--json", "--seed", *OWN_FLAGS[command]]:
        assert f"  {flag}" in text, (command, flag)


TESTS_DIR = os.path.dirname(os.path.abspath(__file__))


@pytest.mark.parametrize("argv", [
    ("nf", "--graph", "toeplitz", "--expr", "1/0"),
    ("nf", "--graph", "toeplitz", "--field", "F5", "--expr", "1/5 u"),
    ("free-gens", "--graph", "toeplitz", "--witness", "sink:f", "--alpha", "2",
     "--verify-len", "0"),
    ("nf", "--graph", TESTS_DIR, "--expr", "u"),
    ("nf", "--graph", "toeplitz", "--field", "Q[x]/(x^2)", "--expr", "xbar*u"),
    ("nf", "--graph", "toeplitz", "--field", "Q[x]/(x^2-1)", "--expr",
     "(xbar - 1)(xbar + 1) u"),
    ("free-gens", "--graph", "toeplitz", "--witness", "sink:f", "--alpha", "1/0"),
    ("free-gens", "--graph", "toeplitz", "--witness", "sink:f", "--field", "F5(s,t)",
     "--alpha", "1/5", "--beta", "t"),
    ("nf", "--graph", "toeplitz", "--expr", "(" * 3000 + "u" + ")" * 3000),
    ("nf", "--graph", "toeplitz", "--field", "F5[x]/(x^12+x+2)", "--expr", "xbar u"),
    ("free-gens", "--graph", "a3", "--witness", "line:a:2", "--alpha", "2"),
    ("free-gens", "--graph", "toeplitz", "--witness", "qsink:v:zz", "--alpha", "2"),
    ("free-gens", "--graph", "toeplitz", "--witness", "sink:f", "--alpha", "2",
     "--verify-len", "1000000000"),
    ("nf", "--graph", "toeplitz", "--field", "Q[x]/(x^2+1/0)", "--expr", "u"),
    ("nf", "--graph", "toeplitz", "--field", "F7[x]/(x^2+3/7)", "--expr", "u"),
    ("nf", "--graph", "toeplitz", "--field", "Q[x]/(x^9+x+1)", "--expr", "u"),
    # integer literals longer than the interpreter reads
    ("nf", "--graph", "toeplitz", "--expr", "7" * 5000 + " u"),
    ("free-gens", "--graph", "toeplitz", "--witness", "sink:f", "--alpha", "1" * 5000),
    ("nf", "--graph", "toeplitz", "--field", "F" + "1" * 5000, "--expr", "u"),
    ("nf", "--graph", "toeplitz", "--field", f"Q[x]/(x^2+{'1' * 5000})", "--expr", "u"),
    ("act", "--graph", "toeplitz", "--module", "sink:v", "--expr", "u", "--vector", "2*f - e.f"),
    # like terms sum to a modulus coefficient longer than the interpreter writes out
    ("nf", "--graph", "toeplitz", "--field", f"Q[x]/(x+{'9' * 4300}+{'9' * 4300})",
     "--expr", "u"),
    # an empty edge or vertex name in a module vector or module spec
    *[("act", "--graph", "toeplitz", "--module", "chen-cycle:e", "--expr", "u", "--vector", v)
      for v in ("@", "f@", "@e.", "@.e", "e.@")],
    *[("act", "--graph", "ex11", "--module", m, "--expr", "v1", "--vector", "@f")
      for m in ("chen-cycle:", "chen-cycle:e.", "sink:", "emitter:")],
    # a second @ in a vector term
    *[("act", "--graph", "toeplitz", "--module", "chen-cycle:e", "--expr", "u", "--vector", v)
      for v in ("e@f@g", "e@e@")],
    # an empty edge name in a --cycle value, a tail: cycle or a chen-cycle: prefix
    ("classify", "--graph", "toeplitz", "--cycle", "e."),
    ("free-gens", "--graph", "toeplitz", "--witness", "tail:.e:f", "--alpha", "2"),
    *[("act", "--graph", "toeplitz", "--module", m, "--expr", "u", "--vector", "@e")
      for m in ("chen-cycle:e:.e", "chen-cycle:e:e.", "chen-cycle:e:f.")],
    # a spare piece of a sink: witness or a chen-cycle:, sink: or emitter: module
    ("free-gens", "--graph", "toeplitz", "--witness", "sink:f:junk", "--alpha", "2"),
    ("act", "--graph", "r1", "--module", "chen-cycle:e:e:junk", "--expr", "u", "--vector", "@e"),
    *[("act", "--graph", "toeplitz", "--module", m, "--expr", "u", "--vector", "v")
      for m in ("sink:v:junk", "emitter:u:junk")],
    # an empty piece of a vector path, before an @ tail or in a finite path
    *[("act", "--graph", "r1", "--module", "chen-cycle:e", "--expr", "u", "--vector", v)
      for v in ("e..@e", ".e.@e")],
    *[("act", "--graph", "toeplitz", "--module", "sink:v", "--expr", "u", "--vector", v)
      for v in ("e..f", "f.", ".f")],
])
def test_cli_bad_input_exit_2_without_traceback(argv):
    out = run_cli(*argv)
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error (")


@pytest.mark.parametrize("argv", [
    ("toeplitz", "--expr", "10000000000 u", "--size", "500", "--det"),
    ("nf", "--graph", "toeplitz", "--expr", f"{'3' * 3000} {'3' * 3000} u"),
])
def test_cli_result_past_digit_limit_exit_1_without_traceback(argv):
    """A valid request whose result has a coefficient longer than the
    interpreter writes out is a domain error, not a traceback."""
    out = run_cli(*argv, timeout=60)
    assert out.returncode == 1, out.stderr[-500:]
    assert out.stderr.startswith(
        f"error (RenderError): coefficient exceeds {sys.get_int_max_str_digits()} digits")


def test_cli_q_modulus_degree_capped_before_expansion():
    """The Q modulus degree cap applies before the coefficient list is built,
    so a ten-million-degree modulus is refused at once."""
    started = time.perf_counter()
    out = run_cli("nf", "--graph", "toeplitz", "--field", "Q[x]/(x^10000000+1)",
                  "--expr", "u", timeout=60)
    elapsed = time.perf_counter() - started
    assert out.returncode == 2, out.stderr[-500:]
    assert out.stderr.startswith(
        "error (FieldError): Q moduli may have degree at most 8, got degree 10000000")
    assert elapsed < 1, elapsed


def test_cli_toeplitz_size_budget():
    """A size outside 2..toeplitz.MAX_SIZE is refused at once (exit 2), on
    either side of the range."""
    started = time.perf_counter()
    out = run_cli("toeplitz", "--expr", "u + e", "--size", "501", "--det", timeout=60)
    elapsed = time.perf_counter() - started
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error (CliInputError): --size must lie in 2..500")
    assert elapsed < 1, elapsed
    assert run_cli("toeplitz", "--expr", "u", "--size", "1").returncode == 2


@pytest.mark.parametrize("argv", [
    ("quotient", "--graph", "toeplitz", "--H", "zz"),
    ("classify", "--graph", "toeplitz", "--H", "u", "--S", "zz"),
    ("free-gens", "--graph", "toeplitz", "--witness", "qsink:zz:f", "--alpha", "2"),
])
def test_cli_unknown_vertex_in_ideal_exit_1_without_traceback(argv):
    out = run_cli(*argv)
    assert out.returncode == 1, out.stderr
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error (GraphError): unknown vertex 'zz' in graph 'toeplitz'")


def test_cli_analyze_complete_digraph_k7(tmp_path):
    path = tmp_path / "k7.lpa"
    path.write_text(complete_digraph(7))
    started = time.perf_counter()
    out = run_cli("analyze", "--graph", str(path), "--json", timeout=60)
    elapsed = time.perf_counter() - started
    assert out.returncode == 0, out.stderr[-500:]
    assert len(json.loads(out.stdout)["result"]["cycles"]) == 2365
    assert elapsed < 5, elapsed


def test_cli_analyze_complete_digraph_k9_past_cycle_budget(tmp_path):
    """K9 has 125,664 cycles, past graphs.MAX_CYCLES: refused at once."""
    path = tmp_path / "k9.lpa"
    path.write_text(complete_digraph(9))
    started = time.perf_counter()
    out = run_cli("analyze", "--graph", str(path), timeout=60)
    elapsed = time.perf_counter() - started
    assert out.returncode == 1, out.stderr[-500:]
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error (GraphError): graph 'K9' has more than")
    assert elapsed < 1, elapsed


def test_cli_large_prime_field():
    out = run_cli("nf", "--graph", "toeplitz", "--field", "F1000000000000000000000000000057",
                  "--expr", "2 u", timeout=60)
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "2 u"


def test_cli_domain_error_exit_1():
    out = run_cli("quotient", "--graph", "ex11", "--H", "v1")
    assert out.returncode == 1
    assert "not hereditary" in out.stderr


def test_cli_classify_json_fields():
    out = run_cli("classify", "--graph", "ex11", "--H", "v1,v2", "--S", "v", "--json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["schema"] == "lpa-report/1"
    r = data["result"]
    assert r["H"] == ["v1", "v2"]
    assert r["S"] == ["v"]
    assert r["B_H"] == ["v", "w"]
    assert r["type"] == "I"
    assert r["witness_vertex"] == "w"
    assert r["failing_conditions"] == []


def test_cli_json_byte_identical():
    a = run_cli("classify", "--graph", "ex11", "--H", "v1,v2", "--S", "v",
                "--json", "--seed", "7")
    b = run_cli("classify", "--graph", "ex11", "--H", "v1,v2", "--S", "v",
                "--json", "--seed", "7")
    assert a.stdout == b.stdout
    c = run_cli("free-gens", "--graph", "toeplitz", "--witness", "sink:f",
                "--alpha", "2", "--verify-len", "3", "--json")
    d = run_cli("free-gens", "--graph", "toeplitz", "--witness", "sink:f",
                "--alpha", "2", "--verify-len", "3", "--json")
    assert c.stdout == d.stdout
    # hash seeds 0 and 3 iterate the set {'v1', 'v3'} in opposite orders
    e, f = (run_cli("quotient", "--graph", "a5", "--H", "v1,v3", "--json",
                    env={**os.environ, "PYTHONHASHSEED": seed}) for seed in ("0", "3"))
    assert e.stdout == f.stdout
    assert "H={'v1', 'v3'} is not hereditary" in e.stdout


def test_cli_free_gens_json():
    out = run_cli("free-gens", "--graph", "toeplitz", "--witness", "sink:f",
                  "--alpha", "2", "--verify-len", "4", "--json")
    assert out.returncode == 0
    r = json.loads(out.stdout)["result"]
    assert r["generators"]["a"] == "u + v + 2 f*"
    assert r["words_checked"] == 160
    assert r["all_nontrivial"] and r["matrix_crosscheck"]


def test_cli_act_and_toeplitz_and_unit_group():
    out = run_cli("act", "--graph", "toeplitz", "--module", "sink:v",
                  "--expr", "f f*", "--vector", "f + 2*e.f")
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "f"
    out2 = run_cli("toeplitz", "--expr", "v", "--size", "5", "--json")
    assert json.loads(out2.stdout)["result"]["entries"] == [[1, 1, "1"]]
    out3 = run_cli("unit-group", "--graph", "a4", "--json")
    assert json.loads(out3.stdout)["result"]["descriptor"] == "GL_4(K)"
    out4 = run_cli("unit-group", "--graph", "toeplitz", "--json")
    assert json.loads(out4.stdout)["result"]["diagnostics"] == [
        "cycle e has exit f"
    ]


def test_cli_quotient_and_graph_file(tmp_path):
    gfile = tmp_path / "mine.lpa"
    gfile.write_text(corpus.graph_text("ex11"))
    out = run_cli("quotient", "--graph", str(gfile), "--H", "v1,v2", "--S", "v")
    assert out.returncode == 0
    assert "vertex w_q" in out.stdout
    assert "kernel generators: v1; v2; v - g g*" in out.stdout


def test_cli_main_function_direct():
    assert cli.main([
        "nf", "--graph", "toeplitz", "--expr", "e* e",
    ]) == 0


REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema", "command", "inputs", "result", "diagnostics", "timing_ms"],
    "properties": {
        "schema": {"const": "lpa-report/1"},
        "command": {"type": "string"},
        "inputs": {
            "type": "object",
            "required": ["field", "mode", "seed"],
            "properties": {
                "field": {"type": "string"},
                "mode": {"enum": ["leavitt", "cohn"]},
                "seed": {"type": "integer"},
                "graph": {"type": "string"},
                "graph_digest": {"type": "string", "pattern": "^[0-9a-f]{16}$"},
            },
        },
        "result": {"type": ["object", "null"]},
        "diagnostics": {"type": "array", "items": {"type": "string"}},
        "timing_ms": {"type": "null"},
        "error": {
            "type": "object",
            "required": ["kind", "message"],
            "properties": {"kind": {"type": "string"}, "message": {"type": "string"}},
        },
    },
    "additionalProperties": False,
}


def test_json_reports_validate_against_schema():
    import jsonschema

    invocations = [
        ("analyze", "--graph", "ex62", "--json"),
        ("nf", "--graph", "toeplitz", "--expr", "e* e", "--json"),
        ("classify", "--graph", "ex11", "--H", "v1,v2", "--S", "v", "--json"),
        ("quotient", "--graph", "ex11", "--H", "v1,v2", "--S", "v", "--json"),
        ("free-gens", "--graph", "toeplitz", "--witness", "sink:f",
         "--alpha", "2", "--verify-len", "2", "--json"),
        ("unit-group", "--graph", "r1", "--json"),
        ("act", "--graph", "toeplitz", "--module", "chen-cycle:e",
         "--expr", "e*", "--vector", "@e", "--json"),
        ("toeplitz", "--expr", "v", "--size", "4", "--json"),
        # error reports carry the same envelope
        ("quotient", "--graph", "ex11", "--H", "v1", "--json"),
    ]
    for argv in invocations:
        out = run_cli(*argv)
        report = json.loads(out.stdout)
        jsonschema.validate(report, REPORT_SCHEMA)


def test_cli_cohn_mode():
    out = run_cli("nf", "--graph", "toeplitz", "--mode", "cohn",
                  "--expr", "f f*")
    assert out.stdout.splitlines()[0] == "f f*"
    out2 = run_cli("nf", "--graph", "toeplitz", "--mode", "leavitt",
                   "--expr", "f f*")
    assert out2.stdout.splitlines()[0] == "u - e e*"


def test_cli_classify_with_cycle():
    out = run_cli("classify", "--graph", "ex62", "--H", "v", "--cycle", "e",
                  "--json")
    r = json.loads(out.stdout)["result"]
    assert r["type"] == "III" and r["witness_cycle"] == ["e"]
    out2 = run_cli("classify", "--graph", "ex62", "--H", "v", "--cycle", "e2",
                   "--json")
    r2 = json.loads(out2.stdout)["result"]
    assert r2["type"] == "NotApplicable" and r2["failing_conditions"]


def test_cli_analyze_reports_enumeration():
    out = run_cli("analyze", "--graph", "toeplitz", "--json")
    r = json.loads(out.stdout)["result"]
    assert r["edge_order"] == {"u": ["e", "f"]}
    assert r["countable_separation"] is True


def test_cli_act_chen_twist_free():
    out = run_cli("act", "--graph", "toeplitz", "--module", "chen-cycle:e",
                  "--expr", "e*", "--vector", "@e")
    assert out.stdout.splitlines()[0] == "@e"
    out2 = run_cli("act", "--graph", "ex62", "--module", "chen-cycle:e",
                   "--expr", "g*", "--vector", "g.@e")
    assert out2.stdout.splitlines()[0] == "@e"


def test_expr_nesting_bound(graphs_by_name, Q):
    t = graphs_by_name["toeplitz"]
    depth = exprs.MAX_NESTING
    expected = gens(t, Q)["f*" if depth % 2 else "f"]
    assert parse("(" * depth + "f" + ")*" * depth, t, Q) == expected
    with pytest.raises(exprs.ExprError, match="nested deeper"):
        parse("(" * (depth + 1) + "f" + ")" * (depth + 1), t, Q)


@pytest.mark.parametrize("text", [
    "graph renamed\nvertex p\nvertex q\nvertex r\nedge x p q\nedge y q r\n",
    "graph against\nvertex v1\nvertex v2\nvertex v3\nedge e1 v3 v2\nedge e2 v2 v1\n",
])
def test_cli_line_witness_on_user_line_graph(tmp_path, text):
    gfile = tmp_path / "line.lpa"
    gfile.write_text(text)
    for witness in ("line:1:2", "line:1:3", "line:2:3"):
        out = run_cli("free-gens", "--graph", str(gfile), "--witness", witness,
                      "--alpha", "2", "--verify-len", "3", "--json")
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout)["result"]
        assert result["all_nontrivial"] and result["matrix_crosscheck"], result


def test_cli_line_witness_scales_with_the_line(tmp_path, Q):
    n = 160
    text = (f"graph a{n}\n" + "".join(f"vertex v{i}\n" for i in range(1, n + 1))
            + "".join(f"edge e{i} v{i} v{i + 1}\n" for i in range(1, n)))
    gfile = tmp_path / "line.lpa"
    gfile.write_text(text)
    started = time.perf_counter()
    out = run_cli("free-gens", "--graph", str(gfile), "--witness", "line:1:2", "--alpha", "2",
                  "--verify-len", "1", "--json", timeout=60)
    elapsed = time.perf_counter() - started
    assert out.returncode == 0, out.stderr[-500:]
    result = json.loads(out.stdout)["result"]
    assert result["all_nontrivial"] and result["matrix_crosscheck"], result
    assert elapsed < 10, elapsed
    g = graphs.parse_graph(text)
    image = freegroups.LineGraphIso(g, Q).image(algebra.identity(g, Q))
    assert image == linalg.identity_matrix(Q, n)


def test_cli_long_line_witness_verifies_length_four(tmp_path):
    """The line witness walks its words on a 2x2 corner whatever the line's
    length: on a 1,500-vertex line it certifies every word of length <= 4,
    and then of length <= 8, each in under 10 s."""
    n = 1500
    gfile = tmp_path / "line.lpa"
    gfile.write_text(line_text(n))
    for length in ("4", "8"):
        started = time.perf_counter()
        out = run_cli("free-gens", "--graph", str(gfile), "--witness", "line:1:2",
                      "--alpha", "2", "--verify-len", length, "--json", timeout=60)
        elapsed = time.perf_counter() - started
        assert out.returncode == 0, out.stderr[-500:]
        result = json.loads(out.stdout)["result"]
        assert result["all_nontrivial"] and result["matrix_crosscheck"], result
        assert elapsed < 10, (length, elapsed)


def test_cli_long_qsink_witness_sums_images_once(tmp_path):
    """The quotient map and its relation check add each image sum in one
    pass: on a 3,000-vertex line beside x -> w => h1, the qsink witness of
    H = {h1} certifies every word of length <= 4 in under 10 s."""
    n = 3000
    gfile = tmp_path / "line.lpa"
    gfile.write_text(line_text(n).replace(
        "\n", "\nvertex x\nvertex w\nvertex h1\nedge f x w\nbundle w h1\n", 1))
    started = time.perf_counter()
    out = run_cli("free-gens", "--graph", str(gfile), "--witness", "qsink:h1:f", "--alpha", "2",
                  "--verify-len", "4", "--json", timeout=120)
    elapsed = time.perf_counter() - started
    assert out.returncode == 0, out.stderr[-500:]
    result = json.loads(out.stdout)["result"]
    assert result["all_nontrivial"] and result["matrix_crosscheck"], result
    assert elapsed < 10, elapsed


def test_cli_long_sum_chain_normalizes_in_one_pass(tmp_path):
    """A 3,000-term +/- chain of vertices is summed once, not term by term:
    ``nf`` returns every signed vertex in under 2 s."""
    n = 3000
    gfile = tmp_path / "line.lpa"
    gfile.write_text(line_text(n))
    chain = "v1" + "".join(f" {'-' if i % 3 == 0 else '+'} v{i}" for i in range(2, n + 1))
    started = time.perf_counter()
    out = run_cli("nf", "--graph", str(gfile), "--expr", chain, "--json", timeout=60)
    elapsed = time.perf_counter() - started
    assert out.returncode == 0, out.stderr[-500:]
    element = json.loads(out.stdout)["result"]["element"]
    signed = ("" if element.startswith("-") else "+") + element
    signed = signed.replace(" + ", " +").replace(" - ", " -").split(" ")
    assert sorted(signed) == sorted(f"{'-' if i % 3 == 0 else '+'}v{i}"
                                    for i in range(1, n + 1)), element[:200]
    assert elapsed < 2, elapsed


# -- argv fuzz over the sum grammar: expressions, vectors, Toeplitz sizes ------

FUZZ_FIELDS = {"Q": ["2", "1/3", "-1"], "F5": ["3", "4"], "Q(t)": ["t", "1/2"],
               "Q[x]/(x^2+1)": ["x", "xbar", "2"]}
_ATOMS = ["u", "v", "e", "f", "e*", "f*", "1", "0", "(e f)*", "(u - v)"]
_JUNK = ["zz", "1/0", "*", "(", ")", "+", "-", ""]


@st.composite
def _chain(draw, literals):
    """Up to 12 signed terms of atoms and field literals, an optional leading
    minus, and the odd junk token."""
    size = draw(st.integers(1, 12))
    atoms = st.sampled_from(4 * (_ATOMS + literals) + _JUNK)
    terms = [" ".join(draw(st.lists(atoms, min_size=1, max_size=3))) for _ in range(size)]
    signs = draw(st.lists(st.sampled_from([" + ", " - "]), min_size=size, max_size=size))
    lead = draw(st.sampled_from(["", "-", "- "]))
    return lead + terms[0] + "".join(sign + t for sign, t in zip(signs[1:], terms[1:]))


def _long_chain(n, rng):
    return " ".join(rng.choice("+-") + " " + rng.choice(["u", "v", "e f*", "2 e", "f* f"])
                    for _ in range(n)).lstrip("+ ")


@st.composite
def sum_grammar_argv(draw):
    field = draw(st.sampled_from(sorted(FUZZ_FIELDS)))
    literals = FUZZ_FIELDS[field]
    expr = st.one_of(_chain(literals), st.builds(_long_chain, st.integers(200, 800), st.randoms()))
    command = draw(st.sampled_from(["nf", "star", "mul", "act", "toeplitz"]))
    head = [command, "--field", field] + (["--json"] if draw(st.booleans()) else [])
    if command == "toeplitz":
        size = draw(st.one_of(st.integers(-2, 12).map(str), st.sampled_from(["501", "x", ""])))
        det = ["--det"] if draw(st.booleans()) else []
        return head + ["--expr", draw(expr), "--size", size] + det
    head += ["--graph", "toeplitz"]
    if command == "mul":
        return head + ["--lhs", draw(expr), "--rhs", draw(expr)]
    if command == "act":
        paths = st.sampled_from(4 * ["v", "f", "e.f", "e.e.f"] + ["g", ".", ""])
        coef = st.sampled_from(literals + ["0", "", "", "zz"]).map(lambda c: c and c + "*")
        vector = " + ".join(draw(st.lists(st.tuples(coef, paths).map("".join),
                                          min_size=1, max_size=40)))
        return head + ["--module", "sink:v", "--expr", draw(expr), "--vector", vector]
    return head + ["--expr", draw(expr)]


WITNESS_FIELDS = {"Q": ["2", "3", "1/2"], "F7": ["2", "3"], "Q(t)": ["t", "2"],
                  "F5(s,t)": ["s", "t", "2"]}
_WITNESS_JUNK = ["", "sink", "qsink:", "qsink:a:b:c", "breaking::", "tail:e", "line:1",
                 "line:a:b", "nope:f", ":::"]


@st.composite
def witness_argv(draw):
    """``free-gens`` over every corpus graph: the five witness kinds built
    from the graph's own names (plus an unknown one), and malformed specs."""
    name = draw(st.sampled_from(corpus.NAMES))
    g = corpus.load(name)
    edge = st.sampled_from([e.name for e in g.edges] + ["zz"])
    vertex = st.sampled_from(list(g.vertices) + ["zz"])
    H = st.lists(vertex, max_size=3).map(",".join)
    cycle = st.sampled_from([".".join(c.edges) for c in g.cycles] + ["zz"])
    kind = draw(st.sampled_from(["sink", "qsink", "breaking", "tail", "line", "junk"]))
    if kind == "sink":
        spec = f"sink:{draw(edge)}"
    elif kind == "qsink":
        S = f";{draw(H)}" if draw(st.booleans()) else ""
        spec = f"qsink:{draw(H)}{S}:{draw(edge)}"
    elif kind == "breaking":
        spec = f"breaking:{draw(H)}:{draw(vertex)}:{draw(edge)}"
    elif kind == "tail":
        spec = f"tail:{draw(cycle)}:{draw(edge)}"
    elif kind == "line":
        spec = f"line:{draw(st.integers(-1, 6))}:{draw(st.integers(-1, 6))}"
    else:
        spec = draw(st.sampled_from(_WITNESS_JUNK))
    field = draw(st.sampled_from(sorted(WITNESS_FIELDS)))
    literal = st.sampled_from(WITNESS_FIELDS[field])
    argv = ["free-gens", "--graph", name, "--field", field, "--witness", spec,
            "--alpha", draw(literal), "--verify-len", draw(st.sampled_from(["1", "2"]))]
    if draw(st.booleans()):
        argv += ["--beta", draw(literal)]
    return argv + (["--json"] if draw(st.booleans()) else [])


MODULE_FIELDS = {"Q": ["2", "1/3"], "F5": ["3", "4"]}
_MODULE_JUNK = ["", ":", "chen-cycle:", "chen-cycle:.", "chen-cycle::", "sink:", "sink:.",
                "emitter:", "emitter::", "nope:v"]


@st.composite
def module_argv(draw):
    """``act --module`` over every corpus graph: chen-cycle, sink and emitter
    modules from the graph's own cycles, sinks and emitters (plus an unknown
    name), malformed specs, and vectors with and without an ``@cycle`` tail."""
    name = draw(st.sampled_from(corpus.NAMES))
    g = corpus.load(name)
    edges = [e.name for e in g.edges]
    cycles = [".".join(c.edges) for c in g.cycles]
    kinds = {v: graphs.classify_vertex(g, v) for v in g.vertices}
    names = {"chen-cycle": cycles,
             "sink": [v for v, k in kinds.items() if k == graphs.SINK],
             "emitter": [v for v, k in kinds.items() if k == graphs.INFINITE_EMITTER]}
    prefix = st.lists(st.sampled_from(4 * edges + ["zz", ""]), max_size=3).map(".".join)
    kind = draw(st.sampled_from([*names, "junk"]))
    if kind == "junk":
        spec = draw(st.sampled_from(_MODULE_JUNK))
    else:
        spec = f"{kind}:{draw(st.sampled_from(4 * names[kind] + ['zz']))}"
        if kind == "chen-cycle" and draw(st.booleans()):
            spec += ":" + draw(prefix)
    field = draw(st.sampled_from(sorted(MODULE_FIELDS)))
    coef = st.sampled_from(MODULE_FIELDS[field] + [""]).map(lambda c: c and c + "*")
    tail = st.sampled_from(4 * cycles + ["", ".", "zz", "e."]).map("@".__add__)
    path = st.one_of(prefix, st.sampled_from(list(g.vertices)),
                     st.tuples(prefix, st.sampled_from(["", "."]), tail).map("".join))
    vector = " + ".join(draw(st.lists(st.tuples(coef, path).map("".join),
                                      min_size=1, max_size=4)))
    atoms = ["1", *g.vertices, *edges, *(e + "*" for e in edges)]
    expr = " ".join(draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=3)))
    argv = ["act", "--graph", name, "--field", field, "--module", spec,
            "--expr", expr, "--vector", vector]
    return argv + (["--json"] if draw(st.booleans()) else [])


@settings(max_examples=240, deadline=None)
@given(st.one_of(sum_grammar_argv(), witness_argv(), module_argv()))
def test_cli_sum_grammar_argv_exits_0_1_or_2(argv):
    """Every argv over the grammar the one n-ary sum serves, every
    ``free-gens --witness`` argv and every ``act --module`` argv ends in exit
    0, 1 or 2; any other exception escapes and fails the test."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:     # argparse refuses the argv
            code = exc.code
    assert code in (0, 1, 2), argv


# -- argv fuzz over graph text ---------------------------------------------------

_GRAPH_JUNK = ["frob v0", "vertex", "vertex 1v", "vertex v0 v1", "edge e0", "edge e0 v0",
               "graph", "graph g h", "graph g2", "bundle v0", "order", "order v0 e0",
               "order zz: e0", "order v0: zz", "edge v0 v0 v0", "vertex v0"]


def _cycle_text(n):
    return (f"graph c{n}\n" + "".join(f"vertex v{i}\n" for i in range(1, n + 1))
            + "".join(f"edge e{i} v{i} v{i % n + 1}\n" for i in range(1, n + 1)))


@st.composite
def _random_graph_text(draw):
    """Up to six vertices and eight edges over a small name pool, so names
    repeat, collide and dangle; bundles; ``order`` lines that may not be
    permutations."""
    vertices = draw(st.lists(st.sampled_from([f"v{i}" for i in range(6)]), min_size=1,
                             max_size=6, unique=draw(st.booleans())))
    end = st.sampled_from(8 * vertices + ["zz"])
    edges = [(draw(st.sampled_from(12 * [f"e{k}"] + ["e0", "v0"])), draw(end), draw(end))
             for k in range(draw(st.integers(0, 8)))]
    lines = ["graph g"] + [f"vertex {v}" for v in vertices]
    lines += [f"edge {name} {src} {dst}" for name, src, dst in edges]
    lines += [f"bundle {draw(end)} {draw(end)}" for _ in range(draw(st.integers(0, 2)))]
    for v in draw(st.lists(end, max_size=2)):
        out = [name for name, src, _ in edges if src == v]
        names = draw(st.one_of(st.permutations(out), st.lists(st.sampled_from(out + ["zz"]))))
        lines.append(f"order {v}: {' '.join(names)}")
    return "\n".join(lines) + "\n"


@st.composite
def graph_text_argvs(draw):
    """A graph file's text and six argv to run on it: random graphs, lines of
    a few hundred vertices, long cycles and complete digraphs up to K9 (past
    the cycle budget), with the odd junk line; ``analyze``, ``unit-group``,
    ``quotient`` and ``classify`` with a drawn ``--H``, ``nf``, and
    ``free-gens --witness sink:<edge>`` at ``--verify-len`` 1 or 2."""
    text = draw(st.one_of(_random_graph_text(),
                          st.builds(line_text, st.integers(100, 400)),
                          st.builds(_cycle_text, st.integers(100, 400)),
                          st.builds(complete_digraph, st.integers(2, 9))))
    lines = text.splitlines()
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_GRAPH_JUNK)))
    words = [line.split() for line in lines]
    vertices = [w[1] for w in words if len(w) > 1 and w[0] == "vertex"] + ["zz"]
    edges = [w[1] for w in words if len(w) > 1 and w[0] == "edge"] + ["zz"]
    # a suffix of the declared vertices is hereditary on a line
    H = st.one_of(st.lists(st.sampled_from(vertices), max_size=3),
                  st.integers(0, len(vertices)).map(lambda k: vertices[k:-1])).map(",".join)
    atoms = ["1", *vertices, *edges, *(e + "*" for e in edges)]
    # the last declared edge enters the sink of a line
    edge = draw(st.sampled_from(edges) | st.sampled_from(edges[-2:]))
    argvs = [
        ["analyze"],
        ["unit-group"],
        ["quotient", "--H", draw(H)],
        ["classify", "--H", draw(H)],
        ["nf", "--expr", " ".join(draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=3)))],
        ["free-gens", "--witness", f"sink:{edge}", "--alpha", "2",
         "--verify-len", draw(st.sampled_from(["1", "2"]))],
    ]
    json_flag = ["--json"] if draw(st.booleans()) else []
    return "\n".join(lines) + "\n", [argv + json_flag for argv in argvs]


# the file is written afresh by every example, so sharing tmp_path is safe
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graph_text_argvs())
def test_cli_graph_text_argv_exits_0_1_or_2(tmp_path, case):
    """Every graph file, well formed or not, ends each command in exit 0, 1
    or 2 within 5 s; any other exception escapes and fails the test."""
    text, argvs = case
    gfile = tmp_path / "fuzz.lpa"
    gfile.write_text(text)
    for argv in argvs:
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv + ["--graph", str(gfile)])
        elapsed = time.perf_counter() - started
        assert code in (0, 1, 2), argv
        assert elapsed < 5, (argv, elapsed)
