"""Every recorded corpus request still gives its recorded exit code and
report bytes: ``bench/goldens.json`` replayed in-process through
``lpa.cli.main``, with the benchmark's own call and check."""

import pathlib
import types

from lpa import cli

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    """bench/workloads.py as a module, read from source and never written back."""
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"),
         module.__dict__)
    return module


def test_every_golden_replays_byte_for_byte():
    workloads = _load_workloads()
    expect = {tuple(a["argv"]): a["expect"] for a in workloads.ANCHORS}
    requests = [entry for entries in workloads.load_pool().values() for entry in entries]
    assert len(requests) == 1093
    problems = {}
    for entry in requests:
        request = dict(entry, expect=expect.get(tuple(entry["argv"]), {}))
        found = workloads.check(request, *workloads.call_cli(cli.main, entry["argv"]))
        if found:
            problems[" ".join(entry["argv"])] = found
    assert problems == {}
