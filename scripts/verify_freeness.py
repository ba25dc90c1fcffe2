#!/usr/bin/env python3
"""Desk-scale freeness experiment: build a generator pair from a witness and
sweep the reduced-word bound, reporting counts and timings per length.

Exits 0 when every word is nontrivial, 1 on a trivial word or a domain error,
and 2 on a parse error, as the ``lpa`` CLI does.

Examples:
    python scripts/verify_freeness.py --graph toeplitz --witness sink:f --alpha 2 --max-len 8
    python scripts/verify_freeness.py --graph toeplitz --field "F5(s,t)" \
        --witness sink:f --alpha s --beta t --max-len 6
    python scripts/verify_freeness.py --graph ex62 --field "F5(s,t)" \
        --witness tail:e:g --alpha s --beta t --max-len 5
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from lpa import cli, fields, freegroups


def sweep(args):
    if not 1 <= args.max_len <= freegroups.MAX_VERIFY_LEN:
        raise cli.CliInputError(f"--max-len must lie in 1..{freegroups.MAX_VERIFY_LEN}")
    g, _ = cli.load_graph(args.graph)
    field = fields.parse_descriptor(args.field)
    witness = cli.parse_witness(g, args.witness)
    alpha = fields.parse_element(field, args.alpha)
    beta = fields.parse_element(field, args.beta) if args.beta else None

    pair = freegroups.build_generators(g, field, witness, alpha, beta)
    a, b = pair.names
    print(f"graph {g.name} over {field}, witness {args.witness}")
    print(f"  {a} = {pair.a}")
    print(f"  {b} = {pair.b}")
    print(f"  {a}^-1 = {pair.a_inv}")
    print(f"  {b}^-1 = {pair.b_inv}")
    for L in range(1, args.max_len + 1):
        t0 = time.monotonic()
        report = freegroups.verify_free_up_to(pair, L)
        dt = time.monotonic() - t0
        verdict = "all nontrivial" if report.all_nontrivial else "FAILED"
        matrices = "no word's matrix is I" if report.matrix_crosscheck \
            else "some word's matrix is I"
        print(
            f"  L = {L}: {report.words_checked:6d} words, {verdict}, "
            f"{matrices} [{dt:.2f}s]"
        )
        if not report.all_nontrivial:
            for w in report.failures[:5]:
                print(f"    trivial word: {w}")
            return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graph", required=True)
    ap.add_argument("--field", default="Q")
    ap.add_argument("--witness", required=True)
    ap.add_argument("--alpha", required=True)
    ap.add_argument("--beta")
    ap.add_argument("--max-len", type=int, default=8)
    args = ap.parse_args()
    try:
        return sweep(args)
    except (*cli.PARSE_ERRORS, cli.CliInputError, fields.RenderError) as exc:
        # alpha is 2 or a variable, so only a parsed modulus can be too long to write out
        return fail(exc, 2)
    except cli.DOMAIN_ERRORS as exc:
        return fail(exc, 1)


def fail(exc, code):
    print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
