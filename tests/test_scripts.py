"""Smoke tests: the README's scripts and the benchmark's self-tests run to
completion and exit 0."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *argv],
        capture_output=True, text=True, timeout=300,
    )


def test_bench_self_tests_pass():
    """The benchmark's own unittest suite, run from the repository root as
    its module docstring asks."""
    out = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench", "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]


def test_verify_freeness_over_function_field():
    out = run_script("verify_freeness.py", "--graph", "toeplitz", "--field", "F5(s,t)",
                     "--witness", "sink:f", "--alpha", "s", "--beta", "t", "--max-len", "3")
    assert out.returncode == 0, out.stderr
    lines = [line for line in out.stdout.splitlines() if line.strip().startswith("L = ")]
    assert len(lines) == 3
    assert all("all nontrivial, no word's matrix is I" in line for line in lines), out.stdout


@pytest.mark.parametrize("graph, witness", [
    ("toeplitz", "sink:f"),
    ("ex35", "qsink:w;:f"),
    ("ex11", "breaking:v1,v2:w:f"),
    ("ex11", "tail:f:h"),
    ("a5", "line:2:5"),
])
def test_verify_freeness_every_witness_kind(graph, witness):
    out = run_script("verify_freeness.py", "--graph", graph, "--witness", witness,
                     "--alpha", "2", "--max-len", "2")
    assert out.returncode == 0, out.stderr
    lines = [line for line in out.stdout.splitlines() if line.strip().startswith("L = ")]
    assert len(lines) == 2
    assert all("all nontrivial, no word's matrix is I" in line for line in lines), out.stdout


@pytest.mark.parametrize("argv, message", [
    (("--graph", "toeplitz", "--witness", "bogus:f"),
     "error (CliInputError): unknown witness kind 'bogus'"),
    (("--graph", "toeplitz", "--witness", "sink:f", "--max-len", "13"),
     "error (CliInputError): --max-len must lie in 1..12"),
    (("--graph", "nosuchgraph", "--witness", "sink:f"),
     "error (CliInputError): no such graph file or corpus name: 'nosuchgraph'"),
    # like terms sum to a coefficient longer than the interpreter writes out
    (("--graph", "toeplitz", "--field", f"Q[x]/(x+{'9' * 4300}+{'9' * 4300})",
      "--witness", "sink:f"),
     f"error (RenderError): coefficient exceeds {sys.get_int_max_str_digits()} digits"),
], ids=["unknown-kind", "max-len", "unknown-graph", "long-modulus"])
def test_verify_freeness_bad_input_exits_2(argv, message):
    out = run_script("verify_freeness.py", *argv, "--alpha", "2")
    assert out.returncode == 2, out.stderr
    assert out.stderr.strip() == message
    assert out.stdout == ""


@pytest.mark.parametrize("name, argv", [
    ("confluence_fuzz.py", ("--iterations", "20", "--seed", "1")),
    ("paper_examples.py", ()),
])
def test_script_exits_0(name, argv):
    out = run_script(name, *argv)
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
