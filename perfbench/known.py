"""Workload inputs and the known answers the benchmark checks them against.

Every expected value here is frozen: it was taken once from the seed code and
cross-checked against sources outside the incremental engine (see
crosscheck.py and README.md).  Nothing in this module imports gsalg.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

WORKLOADS = ("dims-gf2", "dims-gfp", "construct", "membership")

Word = Tuple[int, ...]
# A generator is a tuple of (coefficient, word) terms.
Gen = Tuple[Tuple[int, Word], ...]


def _gen(*words: Word) -> Gen:
    return tuple((1, w) for w in words)


QUADRIC = _gen((1, 2), (2, 3), (3, 1))                  # x1*x2 + x2*x3 + x3*x1
CUBIC_PAIR = (_gen((1, 2, 3), (3, 2, 1)), _gen((1, 1), (2, 3)))
BINARY_CUBIC = _gen((1, 1, 2), (1, 2, 2))               # x1*x1*x2 + x1*x2*x2

# b_n of each ideal.  All three meet the Golod-Shafarevich bound with
# equality, so b_n is the n-th coefficient of 1/(1 - d*t + sum_g t**deg g):
# F(2n+2) for the quadric, partial sums of the Pell numbers for the cubic
# pair, F(n+3) - 1 for the binary cubic.
B_QUADRIC = (1, 3, 8, 21, 55, 144, 377, 987, 2584, 6765, 17711, 46368, 121393)
B_CUBIC_PAIR = (1, 3, 8, 20, 49, 119, 288, 696, 1681, 4059, 9800, 23660, 57121)
B_BINARY_CUBIC = (
    1, 2, 4, 7, 12, 20, 33, 54, 88, 143, 232, 376, 609, 986, 1596, 2583, 4180,
    6764, 10945, 17710, 28656,
)


@dataclass(frozen=True)
class DimsCell:
    d: int
    field: str
    maxdeg: int
    gens: Tuple[Gen, ...]
    b: Tuple[int, ...]

    @property
    def p(self) -> int:
        return int(self.field[2:])


DIMS = {
    "dims-gf2": (
        DimsCell(3, "gf2", 12, (QUADRIC,), B_QUADRIC),
        DimsCell(3, "gf2", 12, CUBIC_PAIR, B_CUBIC_PAIR),
        DimsCell(2, "gf2", 20, (BINARY_CUBIC,), B_BINARY_CUBIC),
    ),
    "dims-gfp": (
        DimsCell(3, "gf5", 10, (QUADRIC,), B_QUADRIC[:11]),
        DimsCell(3, "gf65521", 9, (QUADRIC,), B_QUADRIC[:10]),
        DimsCell(3, "gf2147483647", 8, (QUADRIC,), B_QUADRIC[:9]),
    ),
}


def seeded_generators(cell: DimsCell, rng: random.Random) -> List[str]:
    """The cell's generators under random letter scalings, in random order.

    x_i -> lam_i * x_i is an automorphism of the free algebra that keeps the
    monomial order, so every seed has the cell's frozen b-sequence and does
    the same work.  (A letter permutation is an automorphism too, but it
    moves the generators against the monomial order: the two images of the
    binary cubic differ twofold in cost.)  Over GF(2) only the order of the
    generators changes.
    """
    lam = [rng.randrange(1, cell.p) for _ in range(cell.d)]
    lines = []
    for gen in cell.gens:
        terms = []
        for coeff, word in gen:
            c = coeff
            for letter in word:
                c = c * lam[letter - 1] % cell.p
            terms.append("%d*%s" % (c, "*".join("x%d" % t for t in word)))
        lines.append(" + ".join(terms))
    rng.shuffle(lines)
    return lines


def expected_dims_csv(cell: DimsCell) -> str:
    """The full `gsalg dims` CSV: n, d**n, dim I_n, b_n, bound = b_n, slack 0."""
    lines = ["n,dim_Tn,dim_In,b_n,eq1_bound,slack"]
    for n, b in enumerate(cell.b):
        total = cell.d**n
        tail = "%d,0" % b if n >= 2 else ","
        lines.append("%d,%d,%d,%d,%s" % (n, total, total - b, b, tail))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ConstructCell:
    d: int
    eps: str
    blocks: Tuple[Tuple[int, int, int], ...]     # (c, q, n) per block


# (3, 1/2) is the worked example of the package README; (2, 9/20) has the
# README's second-block degree of about 1.9e21.
CONSTRUCT = (
    ConstructCell(3, "1/2", ((1, 3, 11), (12, 797160, 2713118))),
    ConstructCell(2, "9/20", ((1, 2, 63), (64, 36893488147419103230, 1920719647090318049267))),
    ConstructCell(4, "1", ((1, 4, 11), (12, 22369620, 76134933))),
)


# The membership blueprint: dense toy window (d, c, n) over each field.
MEMBERSHIP_D, MEMBERSHIP_C, MEMBERSHIP_N = 2, 2, 5
MEMBERSHIP_FIELDS = ("gf5", "gf2")
MEMBERSHIP_B = {
    "gf5": (1, 2, 4, 8, 16, 26, 44, 70, 104, 140, 185),
    "gf2": (1, 2, 4, 8, 16, 26, 44, 70, 104, 140, 176),
}
QUERIES_PER_TABLE = 100
