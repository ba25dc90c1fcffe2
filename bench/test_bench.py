"""Self-tests for the benchmark's own code.

    python3 -m unittest discover -s bench -p "test_*.py"

Run from the root of a source checkout; the child-process tests import the
program from ``src``.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_child(mode, requests):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), mode],
        input=json.dumps(requests), capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=120,
    )
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0 and lines[0] == "ready", proc.stderr
    return json.loads(lines[-1])


class PlanTest(unittest.TestCase):
    def test_same_seed_same_stream_other_seed_other_stream(self):
        pool = workloads.load_pool()
        a = [r["argv"] for r in workloads.plan("corpus-mix", 7, pool)]
        b = [r["argv"] for r in workloads.plan("corpus-mix", 7, pool)]
        c = [r["argv"] for r in workloads.plan("corpus-mix", 8, pool)]
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertNotEqual(sorted(map(tuple, a)), sorted(map(tuple, c)))
        for workload in workloads.FREE:
            self.assertEqual(workloads.plan(workload, 3), workloads.plan(workload, 3))
            self.assertNotEqual(workloads.plan(workload, 3), workloads.plan(workload, 4))

    def test_corpus_mix_covers_the_mix(self):
        plan = workloads.plan("corpus-mix", 1)
        def values(flag):
            return {r["argv"][r["argv"].index(flag) + 1] for r in plan if flag in r["argv"]}
        self.assertEqual(len({r["argv"][0] for r in plan}), 10)
        self.assertEqual(len(values("--graph")), 11)
        self.assertEqual(values("--mode"), {"leavitt", "cohn"})
        self.assertEqual(values("--field") - {"F5(s,t)"}, {"Q", "F7", "Q(t)", "Q[x]/(x^2+1)"})
        witnesses = {w.split(":")[0] for w in values("--witness")}
        self.assertEqual(witnesses, {"sink", "qsink", "breaking", "tail", "line"})
        self.assertEqual(sum(1 for r in plan if r["expect"]), len(workloads.ANCHORS))
        self.assertTrue(any(r["exit"] == 1 for r in plan))


class PercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertIsNone(run.percentile(range(999), 0.99))
        self.assertEqual(run.percentile(range(1000), 0.99), 989)
        self.assertEqual(run.percentile(range(1, 1001), 0.99), 990)
        self.assertIsNone(run.percentile([5.0] * 7, 0.99))
        self.assertIsNone(run.percentile(range(19), 0.5))
        self.assertEqual(run.percentile(range(20), 0.5), 9)


class CheckTest(unittest.TestCase):
    def setUp(self):
        pool = workloads.load_pool()
        self.requests = workloads.corpus_plan(1, pool)[:3]

    def test_corrupted_golden_is_a_failure(self):
        req = dict(self.requests[0], digest="0" * 20)
        self.assertIn("report digest differs from the golden",
                      workloads.check(req, req["exit"], "{}", None))
        req = dict(self.requests[0], exit=(self.requests[0]["exit"] + 1))
        self.assertTrue(workloads.check(req, self.requests[0]["exit"], "", None))

    def test_uncaught_exception_is_a_failure(self):
        def boom(argv):
            raise RuntimeError("boom")
        code, text, crash = workloads.call_cli(boom, ["nf"])
        self.assertTrue(workloads.check(self.requests[0], code, text, crash))

    def test_expected_values_are_checked(self):
        req = {"argv": [], "exit": 0, "digest": None, "expect": {"result.type": "I"}}
        self.assertEqual(workloads.check(req, 0, '{"result": {"type": "I"}}', None), [])
        self.assertTrue(workloads.check(req, 0, '{"result": {"type": "II"}}', None))
        self.assertTrue(workloads.check(req, 0, '{"result": {}}', None))

    def test_child_counts_corrupted_goldens_traced_and_untraced(self):
        requests = [dict(r) for r in self.requests]
        requests[1]["digest"] = "f" * 20
        for mode in ("run", "trace"):
            result = run_child(mode, requests)
            self.assertEqual(result["failed"], 1, mode)
            self.assertEqual(len(result["latencies_ms"]), 3)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # a [0,10] > b [1,4] > c [2,3];  a > d [5,9];  e [20,21] a second root
        names = [0, 1, 2, 3, 0]
        parents = [-1, 0, 1, 0, -1]
        starts = [0.0, 1.0, 2.0, 5.0, 20.0]
        ends = [10.0, 4.0, 3.0, 9.0, 21.0]
        total, self_s = tracer.self_time_by_name(names, parents, starts, ends, 4)
        self.assertEqual(total, [11.0, 3.0, 1.0, 4.0])
        self.assertEqual(self_s, [4.0, 2.0, 1.0, 4.0])

    def test_children_count_once_and_only_inside_the_parent(self):
        # two overlapping children and one running past the parent's end
        names, parents = [0, 1, 1, 1], [-1, 0, 0, 0]
        starts, ends = [0.0, 1.0, 2.0, 8.0], [10.0, 3.0, 4.0, 12.0]
        _, self_s = tracer.self_time_by_name(names, parents, starts, ends, 2)
        self.assertEqual(self_s[0], 10.0 - 3.0 - 2.0)


class TracerTest(unittest.TestCase):
    def test_missing_names_are_absent_not_fatal(self):
        saved = dict(tracer.CALLS), dict(tracer.CACHES)
        tracer.CALLS["algebra.gone.calls"] = ("algebra", "no_such_function")
        tracer.CALLS["nosuch.main.calls"] = ("nosuch", "main")
        tracer.CACHES["algebra.gone.cache_entries"] = ("algebra", "mono_mul")
        t = tracer.Tracer()
        try:
            t.install()
            from lpa import cli
            code, _, crash = workloads.call_cli(cli.main, workloads.ANCHORS[0]["argv"])
            t.uninstall()
            metrics = t.metrics(t.by_name())
        finally:
            t.uninstall()
            tracer.CALLS.clear(), tracer.CALLS.update(saved[0])
            tracer.CACHES.clear(), tracer.CACHES.update(saved[1])
        self.assertEqual((code, crash), (0, None))
        self.assertIn("no_such_function", t.absent["algebra.gone.calls"])
        self.assertIn("nosuch", t.absent["nosuch.main.calls"])
        self.assertIn("cache_info", t.absent["algebra.gone.cache_entries"])
        self.assertIsNone(metrics["algebra.gone.calls"])
        self.assertIsNone(metrics["algebra.gone.cache_entries"])
        self.assertEqual(metrics["cli.main.calls"], 1)
        self.assertGreater(metrics["algebra.mul.calls"], 0)

    def test_uninstall_restores_the_program(self):
        from lpa import algebra, fields
        before = (algebra.mono_mul, fields.FieldElement.__add__)
        t = tracer.Tracer()
        t.install()
        self.assertIsNot(algebra.mono_mul, before[0])
        t.uninstall()
        self.assertEqual((algebra.mono_mul, fields.FieldElement.__add__), before)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_what_the_run_reports(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "free-Q", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
