"""Smoke tests: the README's scripts run to completion and exit 0."""

import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *argv],
        capture_output=True, text=True, timeout=300,
    )


def test_verify_freeness_over_function_field():
    out = run_script("verify_freeness.py", "--graph", "toeplitz", "--field", "F5(s,t)",
                     "--witness", "sink:f", "--alpha", "s", "--beta", "t", "--max-len", "3")
    assert out.returncode == 0, out.stderr
    lines = [line for line in out.stdout.splitlines() if line.strip().startswith("L = ")]
    assert len(lines) == 3
    assert all("all nontrivial, matrix image consistent" in line for line in lines), out.stdout


@pytest.mark.parametrize("name, argv", [
    ("confluence_fuzz.py", ("--iterations", "20", "--seed", "1")),
    ("paper_examples.py", ()),
])
def test_script_exits_0(name, argv):
    out = run_script(name, *argv)
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
