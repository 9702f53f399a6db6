"""Check the frozen answers in known.py against sources outside the fast paths.

  PYTHONPATH=src python3 perfbench/crosscheck.py

- dims b-sequences: the Golod-Shafarevich recurrence they meet with equality,
  and the naive full-width oracle (naive_dimension_table) up to the degree
  it reaches, on seeded automorphic images of the generators;
- construct blocks: q = d + ... + d**c, c_k = n_(k-1) * c_(k-1) + 1, block 1's
  n by an exact linear scan, block 2's n by a 200-digit log comparison on
  both sides of the boundary;
- membership b-sequences: the naive oracle on the toy blueprint's generators.

Prints one line per check and exits 1 if any fails.  Not part of a timed run.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import comb

import mpmath as mp

import known
from gsalg import graded
from gsalg.field import parse_field
from gsalg.freealg import parse_poly
from gsalg.gscore import blueprint_table, build_blueprint

NAIVE_COLUMNS = 2**12


def naive_oracle():
    if hasattr(graded, "naive_dimension_table"):
        return graded.naive_dimension_table
    sys.path.insert(0, "tests")
    from oracles import naive_dimension_table

    return naive_dimension_table


def gs_series(d, degrees, length):
    b = []
    for n in range(length):
        b.append(1 if n == 0 else d * b[n - 1] - sum(b[n - k] for k in degrees if k <= n))
    return tuple(b)


def block_gap(q, n, eps, d):
    """log(eps**2 * u**(n-2)) - log C(n+q-1, q-1) at 200 digits."""
    u = d - 2 * eps
    with mp.workdps(200):
        count = mp.loggamma(n + q) - mp.loggamma(n + 1) - mp.loggamma(q)
        bound = 2 * mp.log(mp.mpf(eps.numerator) / eps.denominator) + (n - 2) * mp.log(
            mp.mpf(u.numerator) / u.denominator
        )
        return bound - count


def first_block_n(q, eps, d):
    u = d - 2 * eps
    n = 2
    while Fraction(comb(n + q - 1, n)) >= eps * eps * u ** (n - 2):
        n += 1
    return n


def main() -> int:
    results = []
    naive = naive_oracle()
    for name, cells in known.DIMS.items():
        for cell in cells:
            label = "%s %s maxdeg %d" % (name, cell.field, cell.maxdeg)
            degrees = [len(gen[0][1]) for gen in cell.gens]
            results.append((label + ": GS recurrence", gs_series(cell.d, degrees, len(cell.b)) == cell.b))
            field = parse_field(cell.field)
            top = max(n for n in range(len(cell.b)) if cell.d**n <= NAIVE_COLUMNS)
            for seed in (1, 2):
                text = known.seeded_generators(cell, random.Random(seed))
                gens = [parse_poly(t, cell.d, field) for t in text]
                table = naive(gens, top, d=cell.d, field=field, column_cap=NAIVE_COLUMNS)
                results.append(("%s: naive oracle to degree %d, seed %d" % (label, top, seed),
                                tuple(table.b) == cell.b[: top + 1]))

    for cell in known.CONSTRUCT:
        eps = Fraction(cell.eps)
        label = "construct d=%d eps=%s" % (cell.d, cell.eps)
        c_prime = 0
        ok = True
        for k, (c, q, n) in enumerate(cell.blocks):
            ok &= c == c_prime + 1 and q == sum(cell.d**i for i in range(1, c + 1))
            if k == 0:
                ok &= n == first_block_n(q, eps, cell.d)
            else:
                ok &= block_gap(q, n, eps, cell.d) > 0 > block_gap(q, n - 1, eps, cell.d)
            c_prime = n * c
        results.append((label + ": block shapes and minimal n", ok))

    for name in known.MEMBERSHIP_FIELDS:
        field = parse_field(name)
        bp = build_blueprint(None, 1, "dense", d=known.MEMBERSHIP_D, field=field,
                             toy_c=known.MEMBERSHIP_C, toy_n=known.MEMBERSHIP_N)
        gens = [g for g in bp.all_generators() if not g.is_zero()]
        maxdeg = len(known.MEMBERSHIP_B[name]) - 1
        table = naive(gens, maxdeg, d=known.MEMBERSHIP_D, field=field, column_cap=NAIVE_COLUMNS)
        results.append(("membership %s: naive oracle to degree %d" % (name, maxdeg),
                        tuple(table.b) == known.MEMBERSHIP_B[name]))
        results.append(("membership %s: incremental table" % name,
                        tuple(blueprint_table(bp).b_sequence()) == known.MEMBERSHIP_B[name]))

    for label, ok in results:
        print("%-4s %s" % ("ok" if ok else "FAIL", label))
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
