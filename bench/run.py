#!/usr/bin/env python3
"""The lpa benchmark.

    python3 bench/run.py --workload free-Q|free-ff|corpus-mix \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark drives ``lpa`` only
through ``lpa.cli.main(argv)`` with ``--json``.  Every pass of a workload
runs in a fresh child interpreter (``child.py``), started one at a time, so
each pass pays a fresh import and a cold rewrite cache, as a CLI user does.

``--trace 0`` repeats passes until ``--seconds`` have gone by and reports
the end-to-end metrics.  ``--trace 1`` runs one untraced and one traced
pass and reports the per-layer metrics.  Either way every output is checked,
and the last line of stdout is the result object; the line before it holds
the run's metadata.  The same is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "certify_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{m: "count" for m in tracer.CALLS},
    **{m: "ratio" for m in tracer.RATIOS},
    **{m: "count" for m in tracer.CACHES},
    **{m: "s" for m in tracer.SELF_METRICS},
    "freegroups.words_checked": "count",
    "trace.overhead_s": "s",
}

# Set-up is timed in PROBES import-only children as well as in every pass,
# after one untimed child has warmed the file cache.
PROBES = 9
BUDGET_S = 170.0        # the whole run, so that it ends within 180 s


class BenchError(RuntimeError):
    pass


def percentile(samples, q):
    """The nearest-rank q-quantile, or None when fewer than 10 samples lie
    beyond it (a tail value resting on fewer is not reported)."""
    xs = sorted(samples)
    rank = max(1, math.ceil(q * len(xs)))
    if len(xs) - rank < 10:
        return None
    return xs[rank - 1]


# -- children ------------------------------------------------------------------------------

class Child:
    """One child interpreter; the constructor returns once it is ready."""

    def __init__(self, mode, deadline):
        self.mode, self.deadline = mode, deadline
        env = dict(os.environ, PYTHONPATH=SRC)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), mode],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
            line = self.proc.stdout.readline() if ready else b""
            self.setup_s = time.perf_counter() - t0
            if line != b"ready\n":
                raise BenchError(f"{mode} child did not start (the program failed to import)")
        except BaseException:
            self.close()
            raise

    def _left(self):
        return max(0.1, self.deadline - time.perf_counter())

    def run(self, requests):
        try:
            out, _ = self.proc.communicate(json.dumps(requests).encode(), timeout=self._left())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.mode} child ran past the time budget") from None
        finally:
            self.close()
        if self.proc.returncode != 0:
            raise BenchError(f"{self.mode} child exited with code {self.proc.returncode}")
        return json.loads(out.decode().splitlines()[-1])

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


def probe(deadline):
    child = Child("probe", deadline)
    try:
        child.proc.wait(timeout=child._left())
    except subprocess.TimeoutExpired:
        raise BenchError("probe child did not exit") from None
    finally:
        child.close()
    return child.setup_s


# -- measuring --------------------------------------------------------------------------------

def measure(requests, seconds, deadline):
    """Untraced passes until `seconds` have gone by: end-to-end metrics."""
    probe(deadline)
    setups = [probe(deadline) for _ in range(PROBES)]
    passes, took = [], []
    start = time.perf_counter()
    # start a pass only if one more of median length still ends within `seconds`
    while not passes or time.perf_counter() - start + statistics.median(took) <= seconds:
        t0 = time.perf_counter()
        child = Child("run", deadline)
        setups.append(child.setup_s)
        passes.append(child.run(requests))
        took.append(time.perf_counter() - t0)
    latencies = [ms for p in passes for ms in p["latencies_ms"]]
    p99 = percentile(latencies, 0.99)
    notes = {}
    if p99 is None:
        notes["op_p99_ms"] = (f"fewer than 10 of {len(latencies)} samples lie beyond p99: "
                              "reports the maximum")
        p99 = max(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "certify_s": statistics.median(p["certify_s"] for p in passes),
        "ops_per_s": len(latencies) / sum(p["wall_s"] for p in passes),
        "op_p50_ms": statistics.median(latencies),
        "op_p99_ms": p99,
        "peak_rss_mb": statistics.median(p["rss_kb"] / 1024.0 for p in passes),
    }
    samples = {
        "setup_s": len(setups),
        "certify_s": len(passes),
        "ops_per_s": len(latencies),
        "op_p50_ms": len(latencies),
        "op_p99_ms": len(latencies),
        "peak_rss_mb": len(passes),
    }
    return values, samples, passes, notes


def measure_traced(requests, deadline):
    """One untraced and one traced pass: per-layer metrics."""
    plain = Child("run", deadline).run(requests)
    traced = Child("trace", deadline).run(requests)
    values = dict(traced["layer"])
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    samples = {m: 1 for m in values}
    notes = {m: f"absent: {why}" for m, why in traced["absent"].items()}
    return values, samples, [plain, traced], notes


# -- metadata -------------------------------------------------------------------------------------

def git_sha(root):
    """HEAD's commit, read from .git without running git; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the program's sources, which identifies it where git cannot."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "lpa")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".lpa")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:20]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args, samples, notes, passes, attempted, failed):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(ROOT),
        "source_sha256": source_digest(),
        "passes": len(passes),
        "samples": samples,
        "notes": notes,
        "failed_ratio": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]][:5],
    }


# -- entry point ------------------------------------------------------------------------------------

def build():
    """Byte-compile the program once, so that no pass times a compile."""
    pkg = os.path.join(SRC, "lpa")
    if not os.path.isfile(os.path.join(pkg, "cli.py")):
        raise BenchError(f"no program to measure: {os.path.relpath(pkg, ROOT)}/cli.py is missing")
    if not compileall.compile_dir(pkg, quiet=2):
        raise BenchError("the program does not compile")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    deadline = time.perf_counter() + BUDGET_S
    try:
        build()
        requests = workloads.plan(args.workload, args.seed)
        if args.trace:
            values, samples, passes, notes = measure_traced(requests, deadline)
            units = PER_LAYER
        else:
            values, samples, passes, notes = measure(requests, args.seconds, deadline)
            units = END_TO_END
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(len(p["latencies_ms"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values.get(m), "unit": u} for m, u in units.items()},
    }
    meta = metadata(args, samples, notes, passes, attempted, failed)
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        record = {"meta": meta, "result": result}
        if args.trace:
            record["by_name"] = passes[1]["by_name"]
            record["spans"] = passes[1]["spans"]
        json.dump(record, fh, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
