"""One pass of a workload in a fresh interpreter, started by ``run.py``.

    python3 bench/child.py run|trace|probe

The child imports ``lpa.cli`` and writes ``ready`` on stdout; the parent
times the set-up from the child's start to that line.  ``probe`` exits
there.  Otherwise the child reads its request list (JSON) from stdin, sends
each request to ``lpa.cli.main`` as soon as the previous one returns, checks
every output, and writes one JSON result line.  ``trace`` wraps the layers
first (``tracer.py``), after the set-up has been timed.
"""

import sys

import lpa.cli

if __name__ == "__main__":
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    mode = sys.argv[1]
    if mode == "probe":
        sys.exit(0)

    import json
    import resource
    import time

    import workloads

    requests = json.loads(sys.stdin.read())
    tracer = None
    if mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    main = lpa.cli.main     # looked up after install, so the traced main runs

    latencies = []
    certify_s = 0.0
    words = 0
    failures = []
    started = time.perf_counter()
    for req in requests:
        t0 = time.perf_counter()
        code, text, crash = workloads.call_cli(main, req["argv"])
        dt = time.perf_counter() - t0
        latencies.append(dt * 1000.0)
        problems = workloads.check(req, code, text, crash)
        if problems:
            failures.append({"argv": req["argv"], "problems": problems})
        if req["argv"][0] == "free-gens":
            certify_s += dt
            if tracer is not None and code == 0:
                words += json.loads(text).get("result", {}).get("words_checked", 0)
    wall_s = time.perf_counter() - started

    result = {
        "latencies_ms": latencies,
        "certify_s": certify_s,
        "wall_s": wall_s,
        "failed": len(failures),
        "failures": failures[:5],
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        rows = tracer.by_name()
        layer = tracer.metrics(rows)
        layer["freegroups.words_checked"] = words
        result["layer"] = layer
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.span_start)
        result["by_name"] = [list(r) for r in rows if r[2]]
    sys.stdout.write(json.dumps(result) + "\n")
