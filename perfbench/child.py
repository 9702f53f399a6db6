"""Child processes of the benchmark; run with PYTHONPATH=src from the checkout.

  python perfbench/child.py cli --trace FILE --run-id ID -- <gsalg args>
      one traced `gsalg` command; spans go to FILE when it ends.
  python perfbench/child.py membership --seed N --workdir DIR --out FILE
                            [--trace FILE --run-id ID]
      one membership pass in a library process: a blueprint set-up over
      each field, then one round of queries; its samples and answer checks
      go to FILE as JSON.  Between the two it prints "ready" and waits for
      a line on stdin.

Untraced CLI operations do not come through here: run.py starts them as
``python -c "... from gsalg.cli import main ..."`` so that nothing of the
benchmark runs inside them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
import time

from known import (
    MEMBERSHIP_B,
    MEMBERSHIP_C,
    MEMBERSHIP_D,
    MEMBERSHIP_FIELDS,
    MEMBERSHIP_N,
    QUERIES_PER_TABLE,
)
from tracer import IMPORT_SPAN, Tracer


def _import_gsalg(tracer):
    span = tracer.begin(IMPORT_SPAN) if tracer else None
    import gsalg.cli  # noqa: F401  (loads every gsalg module)

    if tracer:
        tracer.end(span)
        tracer.install()


def run_cli(args) -> int:
    tracer = Tracer(args.run_id)
    _import_gsalg(tracer)
    from gsalg import cli

    try:
        return cli.main(args.rest)
    finally:
        tracer.dump(args.trace)


# -- membership -----------------------------------------------------------------

def _setup(field_name, workdir):
    """Build the dense toy blueprint, save, load it back and build its table."""
    from gsalg import field as gfield, gscore

    field = gfield.parse_field(field_name)
    bp = gscore.build_blueprint(
        None, 1, "dense", d=MEMBERSHIP_D, field=field,
        toy_c=MEMBERSHIP_C, toy_n=MEMBERSHIP_N,
    )
    path = os.path.join(workdir, "membership-%s.json" % field_name)
    gscore.save_blueprint(bp, path)
    loaded = gscore.load_blueprint(path)
    table = gscore.blueprint_table(loaded)
    checks = [
        gscore.blueprint_to_dict(loaded) == gscore.blueprint_to_dict(bp),
        tuple(table.b_sequence()) == MEMBERSHIP_B[field_name],
    ]
    return loaded, table, checks


def _queries(bp, table, rng):
    """Seeded queries with answers known by construction: (kind, input, expected).

    What sets a query's cost is fixed: which window words g uses, which
    generator f is multiplied and to what degree, which degrees a normal
    form spans.  The seed draws only the words of u, v and the standard
    words, and the coefficients, so every seed asks for about the same work.
    """
    from gsalg.freealg import Polynomial

    d, field = bp.d, bp.field
    p = field.p if field.p is not None else 2
    maxdeg = table.maxdeg
    window = [(i,) for i in range(1, d + 1)] + [
        (i, j) for i in range(1, d + 1) for j in range(1, d + 1)
    ]
    # g: one window word of degree 1 and three of degree 2, every choice in turn
    shapes = [(a,) + rest for a in window[:d] for rest in itertools.combinations(window[d:], 3)]
    gens = sorted((g for g in bp.all_generators() if not g.is_zero()),
                  key=lambda g: (len(g.terms), g.degree()))

    def word(n):
        return tuple(rng.randrange(1, d + 1) for _ in range(n))

    def poly(n, terms):
        return Polynomial(d, field, {word(n): rng.randrange(1, p) for _ in range(terms)})

    out = []
    for i in range(QUERIES_PER_TABLE):
        kind, k = ("nil", "contains", "normal_form")[i % 3], i // 3
        if kind == "nil":
            # g lives in the window degrees, so g**n lies in the ideal
            terms = {w: rng.randrange(1, p) for w in shapes[k % len(shapes)]}
            out.append((kind, Polynomial(d, field, terms), MEMBERSHIP_N))
        elif kind == "contains":
            # generators spread evenly over the sizes, padded to every degree
            f = gens[k * len(gens) // (QUERIES_PER_TABLE // 3 + 1)]
            extra = k % (maxdeg - f.degree() + 1)
            left = k % (extra + 1)
            out.append((kind, poly(left, 2) * f * poly(extra - left, 2), True))
        else:
            terms = {}
            for j in range(3):
                basis = table.basis((3 * k + j) % maxdeg + 1)
                for w in rng.sample(basis, min(8, len(basis))):
                    terms[w] = rng.randrange(1, p)
            nf = Polynomial(d, field, terms)
            out.append((kind, nf, nf))
    rng.shuffle(out)
    return out


def _answer(kind, poly, bp, table):
    from gsalg import gscore

    if kind == "nil":
        cert = gscore.nil_certificate(poly, bp, table)
        return cert.exponent if cert.verified else None
    if kind == "contains":
        return table.contains(poly)
    return table.normal_form(poly)


def run_membership(args) -> int:
    """One blueprint set-up over each field, then one round of queries."""
    tracer = Tracer(args.run_id) if args.trace else None
    _import_gsalg(tracer)

    t, c = time.perf_counter(), time.process_time()
    built = [_setup(name, args.workdir) for name in MEMBERSHIP_FIELDS]
    setup_s, setup_cpu_s = time.perf_counter() - t, time.process_time() - c
    checks = [ok for _, _, found in built for ok in found]
    attempted, failed = len(checks), checks.count(False)

    rng = random.Random(args.seed)
    suites = [(bp, table, _queries(bp, table, rng)) for bp, table, _ in built]
    # the parent reads its speed reference between the two phases
    print("ready", flush=True)
    sys.stdin.readline()
    latency_ms = []
    t, c = time.perf_counter(), time.process_time()
    for bp, table, queries in suites:
        for kind, poly, expected in queries:
            q = time.perf_counter()
            answer = _answer(kind, poly, bp, table)
            latency_ms.append((time.perf_counter() - q) * 1000.0)
            attempted += 1
            failed += answer != expected
    round_s, round_cpu_s = time.perf_counter() - t, time.process_time() - c

    if tracer:
        tracer.dump(args.trace)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "setup_s": setup_s,
                "setup_cpu_s": setup_cpu_s,
                "round_s": round_s,
                "round_cpu_s": round_cpu_s,
                "latency_ms": latency_ms,
                "attempted": attempted,
                "failed": failed,
            },
            fh,
        )
    return 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--trace", required=True)
    p.add_argument("--run-id", required=True)
    p.add_argument("rest", nargs=argparse.REMAINDER)
    p = sub.add_parser("membership")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p.add_argument("--run-id", default="")
    args = parser.parse_args(argv)
    if args.mode == "cli":
        if args.rest[:1] == ["--"]:
            args.rest = args.rest[1:]
        return run_cli(args)
    return run_membership(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
