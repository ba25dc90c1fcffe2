"""The benchmark's traced result line: every name ``bench/tracer.py`` looks
up in ``lpa`` still exists, and a traced request yields every metric."""

import pathlib
import types

from lpa import cli

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    """bench/tracer.py as a module, read from source and never written back."""
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_traced_request_reports_every_metric(capsys):
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert tracer.absent == {}
        code = cli.main(["free-gens", "--graph", "toeplitz", "--witness", "sink:f",
                         "--alpha", "2", "--verify-len", "2", "--json"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = tracer.metrics(tracer.by_name())
    assert [name for name, value in metrics.items() if value is None] == []
    assert metrics["cli.main.calls"] == 1 and metrics["algebra.rewrite.cache_entries"] > 0
    assert metrics["linalg.matmul.calls"] == 16     # expected_word_count(2)
