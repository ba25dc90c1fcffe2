"""Expression grammar (star lexing is bit-exact) and the CLI surface."""

import json
import os
import random
import subprocess
import sys
import time

import pytest

from conftest import complete_digraph, gens
from lpa import algebra, cli, corpus, exprs, fields, freegroups, graphs, linalg, sampling


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
        assert all(fields.is_literal_scalar(c) for _, c in x.terms)
        text = algebra.render(x)
        again = parse(text, g, Q)
        assert again == x, text
        count += 1


def run_cli(*argv, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "lpa.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
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
])
def test_cli_bad_input_exit_2_without_traceback(argv):
    out = run_cli(*argv)
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error (")


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
