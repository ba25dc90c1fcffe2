"""Graph model: parsing, classification, reachability, cycles, closures."""

import json
import subprocess
import sys
import time

import pytest

import oracles
from conftest import complete_digraph
from lpa import algebra, cli, freegroups, graphs


def test_parse_toeplitz(graphs_by_name):
    g = graphs_by_name["toeplitz"]
    assert g.vertices == ("u", "v")
    assert graphs.classify_vertex(g, "u") == graphs.REGULAR
    assert graphs.classify_vertex(g, "v") == graphs.SINK


def test_parse_ex11_emitters(graphs_by_name):
    g = graphs_by_name["ex11"]
    assert graphs.classify_vertex(g, "v") == graphs.INFINITE_EMITTER
    assert graphs.classify_vertex(g, "w") == graphs.INFINITE_EMITTER
    assert graphs.classify_vertex(g, "v2") == graphs.SINK


def test_parse_errors_have_line_numbers():
    with pytest.raises(graphs.GraphParseError) as exc:
        graphs.parse_graph("graph g\nvertex a\nvertex a\n")
    assert "line 3" in str(exc.value)
    with pytest.raises(graphs.GraphParseError):
        graphs.parse_graph("graph g\nedge e a b\n")      # dangling endpoints
    with pytest.raises(graphs.GraphParseError):
        graphs.parse_graph("graph g\nnonsense\n")
    with pytest.raises(graphs.GraphParseError):
        graphs.parse_graph("graph g\n")                  # empty vertex set


def test_serialize_roundtrip(graphs_by_name):
    for g in graphs_by_name.values():
        text = graphs.serialize_graph(g)
        again = graphs.parse_graph(text)
        assert again == g
        assert graphs.serialize_graph(again) == text


def test_order_override():
    text = "graph g\nvertex u\nvertex v\nedge e u u\nedge f u v\norder u: f e\n"
    g = graphs.parse_graph(text)
    assert g.out_edges["u"] == ("f", "e")
    with pytest.raises(graphs.GraphParseError):
        graphs.parse_graph(text.replace("order u: f e", "order u: f f"))


def test_reaches_and_M(graphs_by_name):
    t = graphs_by_name["toeplitz"]
    assert graphs.M_of_vertex(t, "v") == {"u", "v"}
    a3 = graphs_by_name["a3"]
    assert graphs.M_of_vertex(a3, "v1") == {"v1"}
    e = graphs_by_name["ex11"]
    assert graphs.M_of_vertex(e, "w") == {"v", "v3", "w"}
    assert graphs.reaches(e, "v", "v1")      # through the bundle
    assert not graphs.reaches(e, "v1", "v")


def test_reaches_matches_closure_oracle(graphs_by_name):
    for g in graphs_by_name.values():
        rel = oracles.reachability_closure(g)
        for u in g.vertices:
            for v in g.vertices:
                assert graphs.reaches(g, u, v) == ((u, v) in rel)
                assert (u in graphs.M_of_vertex(g, v)) == ((u, v) in rel)


def test_simple_cycles_vs_bruteforce(graphs_by_name):
    for name, g in graphs_by_name.items():
        mine = {
            min(tuple(c.edges[k:] + c.edges[:k]) for k in range(len(c.edges)))
            for c in graphs.simple_cycles(g)
        }
        assert mine == oracles.closed_walks_cycles(g), name


def test_condition_L(graphs_by_name):
    assert not graphs.condition_L(graphs_by_name["r1"])
    assert graphs.condition_L(graphs_by_name["toeplitz"])
    assert graphs.condition_L(graphs_by_name["a4"])      # vacuous
    # definition expansion: (L) false iff some simple cycle lacks an exit
    for g in graphs_by_name.values():
        expanded = all(
            graphs.cycle_has_exit(g, c) for c in graphs.simple_cycles(g)
        )
        assert graphs.condition_L(g) == expanded


def test_bundle_counts_as_exit():
    g = graphs.parse_graph(
        "graph g\nvertex u\nvertex v\nedge e u u\nbundle u v\n"
    )
    (c,) = graphs.simple_cycles(g)
    assert graphs.cycle_has_exit(g, c)


def test_exclusive_cycles(graphs_by_name):
    e62 = graphs_by_name["ex62"]
    loop_e = next(c for c in graphs.simple_cycles(e62) if c.edges == ("e",))
    assert graphs.is_exclusive_cycle(e62, loop_e)
    r2 = graphs_by_name["r2"]
    c = graphs.simple_cycles(r2)[0]
    assert not graphs.is_exclusive_cycle(r2, c)
    t = graphs_by_name["toeplitz"]
    (ct,) = graphs.simple_cycles(t)
    assert graphs.is_exclusive_cycle(t, ct)


def test_cycle_exit_names_the_first_exit(graphs_by_name):
    g = graphs.parse_graph("graph g\nvertex u\nvertex v\nedge e u u\nbundle u v\n")
    (c,) = graphs.simple_cycles(g)
    assert graphs.cycle_exit(g, c) == "bundle at u"
    (ct,) = graphs.simple_cycles(graphs_by_name["toeplitz"])
    assert graphs.cycle_exit(graphs_by_name["toeplitz"], ct) == "f"
    (c1,) = graphs.simple_cycles(graphs_by_name["r1"])
    assert graphs.cycle_exit(graphs_by_name["r1"], c1) is None


LARGE = 1500


@pytest.mark.parametrize("command, shape, expect", [
    ("analyze", "line", ("cycles", [])),
    ("analyze", "cycle", ("condition_L", False)),
    ("unit-group", "line", ("descriptor", f"GL_{LARGE}(K)")),
    ("unit-group", "cycle", ("descriptor", f"GL_{LARGE}(K[x,x^-1])")),
])
def test_large_graphs_run_without_recursion(tmp_path, command, shape, expect):
    edges = LARGE - 1 if shape == "line" else LARGE
    path = tmp_path / f"{shape}.lpa"
    path.write_text(
        f"graph {shape}\n" + "".join(f"vertex v{i}\n" for i in range(LARGE))
        + "".join(f"edge e{i} v{i} v{(i + 1) % LARGE}\n" for i in range(edges))
    )
    started = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "lpa.cli", command, "--graph", str(path),
                          "--json"], capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - started
    assert out.returncode == 0 and "Traceback" not in out.stderr, out.stderr[-500:]
    key, value = expect
    assert json.loads(out.stdout)["result"][key] == value
    assert elapsed < 10, elapsed


def test_each_graph_lists_its_cycles_once(tmp_path, monkeypatch, capsys):
    calls = []
    listing = graphs.simple_cycles
    monkeypatch.setattr(graphs, "simple_cycles", lambda g: calls.append(g.name) or listing(g))
    path = tmp_path / "k6.lpa"
    path.write_text(complete_digraph(6))
    assert cli.main(["analyze", "--graph", str(path), "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["result"]["cycles"]) == 409
    assert calls == ["K6"]
    calls.clear()
    assert freegroups.find_witness(graphs.parse_graph(complete_digraph(6))) == []
    assert calls == ["K6"]


def test_downward_directed(graphs_by_name):
    assert graphs.is_downward_directed(graphs_by_name["toeplitz"])
    assert graphs.is_downward_directed(graphs_by_name["a4"])
    two = graphs.parse_graph("graph g\nvertex a\nvertex b\n")
    assert not graphs.is_downward_directed(two)


def test_hereditary_saturated_ex11(graphs_by_name):
    g = graphs_by_name["ex11"]
    H = {"v1", "v2"}
    assert graphs.is_hereditary(g, H)
    assert graphs.is_saturated(g, H)
    assert not graphs.is_saturated(g, {"v2"})      # v1 must be pulled in
    assert graphs.hs_closure(g, {"v2"}) == frozenset(H)


def test_hs_closure_examples(graphs_by_name):
    a3 = graphs_by_name["a3"]
    assert graphs.hs_closure(a3, set()) == frozenset()
    assert graphs.hs_closure(a3, {"v3"}) == {"v1", "v2", "v3"}


def test_hs_closure_matches_enumeration_oracle(graphs_by_name):
    import itertools

    for name in ("toeplitz", "a3", "ex11", "ex35", "ex62", "r2"):
        g = graphs_by_name[name]
        for r in range(len(g.vertices) + 1):
            for X in itertools.combinations(g.vertices, r):
                assert graphs.hs_closure(g, X) == oracles.hs_closure_by_enumeration(g, X), (name, X)


def test_hs_closure_properties(graphs_by_name):
    for g in graphs_by_name.values():
        for X in ({}, set(g.vertices[:1])):
            H = graphs.hs_closure(g, X)
            assert graphs.is_hereditary(g, H)
            assert graphs.is_saturated(g, H)
            assert graphs.hs_closure(g, H) == H
            assert set(X) <= H


def test_commutativity_shape(graphs_by_name):
    mix = graphs.parse_graph(
        "graph g\nvertex a\nvertex b\nvertex c\nedge e c c\n"
    )
    assert graphs.commutativity_shape(mix)
    assert not graphs.commutativity_shape(graphs_by_name["toeplitz"])
    assert not graphs.commutativity_shape(graphs_by_name["r2"])
    assert graphs.commutativity_shape(graphs_by_name["r1"])
    with_bundle = graphs.parse_graph("graph g\nvertex a\nbundle a a\n")
    assert not graphs.commutativity_shape(with_bundle)


def test_paths():
    g = graphs.parse_graph(
        "graph g\nvertex a\nvertex b\nvertex c\nedge e a b\nedge f b c\n"
    )
    assert graphs.make_path(g, ["e", "f"]) == ("a", "c")
    assert graphs.make_path(g, ["e", "f"], "a") == ("a", "c")
    assert graphs.make_path(g, [], "b") == ("b", "b")
    for edges, vertex, message in [
        (["f", "e"], None, "path breaks at 'e': c != a"),
        (["e", "zz"], None, "unknown edge 'zz'"),
        ([], None, "trivial path needs a vertex"),
        ([], "zz", "unknown vertex 'zz' in graph 'g'"),
        (["f"], "a", "declared source does not match the first edge"),
    ]:
        with pytest.raises(graphs.GraphError) as info:
            graphs.make_path(g, edges, vertex)
        assert str(info.value) == message


def test_cycle_validation(graphs_by_name):
    g = graphs_by_name["r2"]
    c = graphs.make_cycle(g, ["e1"])
    assert c.base == "u"
    with pytest.raises(graphs.GraphError, match="^cycle sources must be pairwise distinct$"):
        graphs.make_cycle(g, ["e1", "e2"])      # repeated source
    with pytest.raises(graphs.GraphError, match="^a cycle has at least one edge$"):
        graphs.make_cycle(g, [])
    t = graphs_by_name["toeplitz"]
    with pytest.raises(graphs.GraphError, match="^edge sequence is not closed$"):
        graphs.make_cycle(t, ["f"])             # not closed


def test_cycle_rotation():
    g = graphs.parse_graph(
        "graph g\nvertex a\nvertex b\nedge p a b\nedge q b a\n"
    )
    c = graphs.make_cycle(g, ["p", "q"])
    r = graphs.rotate_cycle(g, c, 1)
    assert r.edges == ("q", "p") and r.base == "b"
    assert graphs.same_cycle(c, r)
    assert graphs.same_cycle(c, graphs.make_cycle(g, ["p", "q"]))
    other = graphs.parse_graph("graph h\nvertex a\nedge x a a\nedge y a a\n")
    assert not graphs.same_cycle(
        graphs.make_cycle(other, ["x"]), graphs.make_cycle(other, ["y"])
    )


def test_equal_parses_hash_equal_and_share_a_rewrite_entry():
    """Graph equality is structural, and the hash, computed once per graph,
    agrees with it: the Leavitt rewrite cache keyed on a second parse of the
    same text hits the first parse's entry."""
    text = "graph twin\nvertex u\nvertex v\nedge e u u\nedge f u v\n"
    g1, g2 = graphs.parse_graph(text), graphs.parse_graph(text)
    assert g1 is not g2 and g1 == g2 and hash(g1) == hash(g2)
    assert hash(g1) != hash(graphs.parse_graph(text.replace("twin", "other")))
    m = algebra.Monomial(("f",), ("f",), "v")     # f is u's maximal out-edge
    first = algebra._reduce_leavitt(g1, m)
    assert len(first) == 2
    before = algebra._reduce_leavitt.cache_info()
    assert algebra._reduce_leavitt(g2, m) == first
    after = algebra._reduce_leavitt.cache_info()
    assert after.hits == before.hits + 1 and after.currsize == before.currsize
