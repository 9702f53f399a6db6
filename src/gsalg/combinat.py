"""Weakly increasing index tuples and their permutation orbits.

A weak tuple is a weakly increasing n-tuple with entries in [1..q]; it is the
canonical representative of an orbit of the symmetric group permuting tuple
positions.  Orbit sizes are the multinomials n! / prod(multiplicities!), and
summing them over all weak tuples partitions the q**n arbitrary tuples.
ENUM_CAP bounds the entries of the tuple lists here (count times n) and the
windows, orbits and expansions of symfun; weak_tuple_count_within sizes a
count without forming one past it.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional, Tuple

from .errors import InvalidParams, TooLarge, require_int

WeakTuple = Tuple[int, ...]

ENUM_CAP = 10**7


def validate_weak_tuple(j: WeakTuple, q: int) -> None:
    """Raise InvalidParams unless j is weakly increasing with entries in [1..q]."""
    for a, b in zip(j, j[1:]):
        if a > b:
            raise InvalidParams("tuple %r is not weakly increasing" % (j,))
    for a in j:
        require_int(a, "tuple entry", 1, q)


def weak_tuple_count(q: int, n: int) -> int:
    """Number of weak tuples: C(n+q-1, q-1)."""
    require_int(q, "q", 1)
    require_int(n, "n", 0)
    return math.comb(n + q - 1, q - 1)


def weak_tuple_count_within(q: int, n: int, limit: int) -> Optional[int]:
    """C(n+q-1, q-1) if it is at most limit, else None.

    With k = min(n, q-1) and m = n+q-1-k, it forms C(m+i, i) for i = 1..k.
    Each step multiplies by (m+i)/i >= 2, since i <= k <= m, so a count past
    limit is known within bit_length(limit)+1 steps and never formed.
    """
    require_int(q, "q", 1)
    require_int(n, "n", 0)
    k = min(n, q - 1)
    m = n + q - 1 - k
    count, i = 1, 0
    while count <= limit:
        if i == k:
            return count
        i += 1
        count = count * (m + i) // i
    return None


def weak_tuples(q: int, n: int) -> list[WeakTuple]:
    """All weak tuples in lexicographic order, at most ENUM_CAP entries in all."""
    if weak_tuple_count_within(q, n, ENUM_CAP // max(n, 1)) is None:
        raise TooLarge("J(%d, %d) has more tuple entries than the cap %d" % (q, n, ENUM_CAP))
    if n == 0:
        return [()]  # combinations_with_replacement would copy all q entries first
    return list(itertools.combinations_with_replacement(range(1, q + 1), n))


def orbit_size(j: WeakTuple) -> int:
    """Number of distinct position-permutations of j: n! / prod(mult!)."""
    counts: dict[int, int] = {}
    for a in j:
        counts[a] = counts.get(a, 0) + 1
    size = math.factorial(len(j))
    for m in counts.values():
        size //= math.factorial(m)
    return size


def orbit_iter(j: WeakTuple) -> Iterator[Tuple[int, ...]]:
    """All distinct position-permutations of j, lazily, in lexicographic order."""
    cur = sorted(j)
    n = len(cur)
    while True:
        yield tuple(cur)
        # textbook next-permutation step
        i = n - 2
        while i >= 0 and cur[i] >= cur[i + 1]:
            i -= 1
        if i < 0:
            return
        k = n - 1
        while cur[k] <= cur[i]:
            k -= 1
        cur[i], cur[k] = cur[k], cur[i]
        cur[i + 1 :] = reversed(cur[i + 1 :])
