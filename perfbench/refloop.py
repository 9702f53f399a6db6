"""Speed reference that runs beside every measured child, on the same core.

  python perfbench/refloop.py

runs fixed work in rounds, at low priority (nice 10), until its stdin
closes.  Each line it reads on stdin is answered on stdout with
"<rounds> <cpu seconds>" so far.  A round is one chunk of each kind of
work gsalg does, about a millisecond each: interpreter work (int
arithmetic, tuple keys, dict updates, as in the row walk), numpy work
(float64 matmul and remainder, as in the GF(p) kernel) and big-integer
work (products and gcds of some thousand digits, as in the exact scan of
`gsalg construct`).  While a child runs on the core, the scheduler hands
this process about a tenth of it, in slices of a few milliseconds, so its
rounds per CPU second over the child's lifetime sample the speed the core
had during that child.
"""

from __future__ import annotations

import math
import os
import select
import sys
import time

import numpy as np

NICE = 10                  # weight 110 against a child's 1024: about 10% of the core
LOOP = 1000                # interpreter iterations per round


def interpreter_work(x: int) -> int:
    table = {}
    for i in range(LOOP):
        x = x * 48271 % 2147483647
        key = (i & 255, x & 7)
        table[key] = table.get(key, 0) ^ x
    return x


def bigint_work(a: int, b: int) -> int:
    return math.gcd(a * b + 1, b * b + a)


def main() -> int:
    os.nice(NICE)
    rng = np.random.default_rng(1)
    a = rng.integers(0, 5, (64, 256))
    b = rng.integers(0, 5, (256, 256))
    big = (3**4500 + 7, 5**3000 + 11)
    fd = sys.stdin.fileno()
    rounds, x = 0, 1
    while True:
        x = interpreter_work(x)
        acc = a.astype(np.float64) @ b.astype(np.float64)
        acc %= 5
        acc.astype(np.int64)
        bigint_work(*big)
        rounds += 1
        if select.select([fd], [], [], 0)[0]:
            if not os.read(fd, 4096):
                return 0
            os.write(1, b"%d %.9f\n" % (rounds, time.process_time()))


if __name__ == "__main__":
    sys.exit(main())
