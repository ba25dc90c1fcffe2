#!/usr/bin/env python3
"""Print every metric of every workload by name, with its unit and sample
count, after the runs have checked the program's outputs.

    python3 bench/report.py [--seed N] [--seconds S]

Runs ``bench/run.py`` untraced and then traced on each workload, from the
root of a source checkout.  Exits non-zero when a run fails or an output is
wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=os.path.dirname(HERE),
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed: {proc.stderr.strip()}")
    meta_line, result_line = proc.stdout.splitlines()[-2:]
    return json.loads(meta_line)["meta"], json.loads(result_line)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()
    ok = True
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            meta, result = run_once(workload, args.seed, args.seconds, trace)
            ok = ok and result["correct"]
            print(f"== {workload} ({'traced' if trace else 'untraced'}): "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} failed_ratio={meta['failed_ratio']:.4g}")
            for name, metric in result["metrics"].items():
                value = metric["value"]
                shown = "absent" if value is None else f"{value:.6g}"
                note = meta["notes"].get(name, "")
                print(f"  {name:36s} {shown:>14s} {metric['unit']:6s} "
                      f"n={meta['samples'].get(name, 0)}  {note}")
            for failure in meta["failures"]:
                print(f"  FAILED {' '.join(failure['argv'])}: {'; '.join(failure['problems'])}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
