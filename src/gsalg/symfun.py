"""Weak tuples and window generators: order-symmetric sums at a monomial window.

A weak tuple is a weakly increasing n-tuple with entries in [1..q]; it is the
canonical representative of an orbit of the symmetric group permuting tuple
positions.  Orbit sizes are the multinomials n! / prod(multiplicities!), and
summing them over all weak tuples partitions the q**n arbitrary tuples.

The monomial window of parameters (d, c) is the q = d + d**2 + ... + d**c
words of degree 1..c, shortest first, word i being i in bijective base d
(window_word, window_rank), so it keeps only (d, c).  For a weak
tuple j in [1..q]**n, the order-symmetric polynomial s_j is the sum of the
distinct position-permutations of j read as words in q commuting-slot
variables (coefficients all 1, which stays correct in positive
characteristic), and the window generator is s_j evaluated at the window
words.  Any g of degree <= c without constant term satisfies

    g**n = sum over j of (prod of g-coefficients along j) * generator(j),

which power_expansion computes and, at toy scale, re-verifies by expanding.
ENUM_CAP is the one enumeration cap: tuple lists (count times n entries),
windows, orbits and expansions are sized against it before they are made,
and weak_tuple_count_within sizes a count without forming one past it.
Only window_generator makes a polynomial, so only it imports freealg.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple, Optional, Tuple

from .errors import ConstantTerm, DegreeTooHigh, InvalidParams, TooLarge, require_int
from .field import FieldDescriptor, mod_p

WeakTuple = Tuple[int, ...]
Word = Tuple[int, ...]

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


def _refuse_past_cap(q: int, n: int) -> None:
    if weak_tuple_count_within(q, n, ENUM_CAP // max(n, 1)) is None:
        raise TooLarge("J(%d, %d) has more tuple entries than the cap %d" % (q, n, ENUM_CAP))


def weak_tuples(q: int, n: int) -> list[WeakTuple]:
    """All weak tuples in lexicographic order, at most ENUM_CAP entries in all."""
    _refuse_past_cap(q, n)
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


class MonomialWindow(NamedTuple):
    """The words of degree 1..c over d variables, word i being window_word(d, i)."""

    d: int
    c: int

    @property
    def q(self) -> int:
        return window_size(self.d, self.c)


def window_size(d: int, c: int) -> int:
    """q = d + d**2 + ... + d**c."""
    require_int(d, "window rank d", 1)
    require_int(c, "window cap c", 1)
    return (d ** (c + 1) - d) // (d - 1) if d > 1 else c


def window_word(d: int, i: int) -> Word:
    """Word i >= 1 of every window over d letters: the digits of i in
    bijective base d, whose counting order is the shortlex window order."""
    word: Word = ()
    while i:
        i, t = divmod(i - 1, d)
        word = (t + 1,) + word
    return word


def window_rank(d: int, word: Word) -> int:
    """The i with window_word(d, i) == word."""
    return sum(t * d**e for e, t in enumerate(reversed(word)))


def monomial_window(d: int, c: int) -> MonomialWindow:
    """The window (d, c), refused when it has more words than ENUM_CAP."""
    require_int(d, "window rank d", 1)
    require_int(c, "window cap c", 1)
    # q >= d**c >= 2**(c*(bit_length(d)-1)): a huge c is refused before
    # window_size builds d**(c+1)
    if c * (d.bit_length() - 1) >= ENUM_CAP.bit_length() or window_size(d, c) > ENUM_CAP:
        raise TooLarge("window d=%d, c=%d has more words than the cap %d" % (d, c, ENUM_CAP))
    return MonomialWindow(d, c)


def window_generator(j: WeakTuple, window: MonomialWindow, field: FieldDescriptor) -> Polynomial:
    """s_j evaluated at the window words (a polynomial over d variables).

    Distinct permutations can produce the same word after substitution, so
    coefficients accumulate; over small fields a generator can vanish.
    """
    from .freealg import Polynomial

    validate_weak_tuple(j, window.q)
    if (size := orbit_size(j)) > ENUM_CAP:
        raise TooLarge("orbit of %r has %d terms, over the cap %d" % (j, size, ENUM_CAP))
    words = {i: window_word(window.d, i) for i in set(j)}
    terms: dict[Word, object] = {}
    for t in orbit_iter(j):
        w = sum(map(words.__getitem__, t), ())
        terms[w] = terms.get(w, 0) + field.one
    return Polynomial._raw(window.d, field, mod_p(terms, field.p))


def generator_degree(j: WeakTuple, window: MonomialWindow) -> int:
    """Nominal degree of the window generator: sum of window-word degrees."""
    validate_weak_tuple(j, window.q)
    return sum(len(window_word(window.d, i)) for i in j)


def tuples_of_degree(window: MonomialWindow, n: int, k: int) -> list[WeakTuple]:
    """The weak tuples of [1..q]**n whose generator has degree k, in
    lexicographic order, refused as weak_tuples refuses.  Word lengths never
    drop along a weak tuple, so a first entry of length l is taken only when
    n*l <= k <= l + (n-1)*c, and every branch entered yields a tuple."""
    _refuse_past_cap(window.q, n)
    d, c = window.d, window.c

    def tails(lo: int, n: int, k: int) -> list[WeakTuple]:  # entries >= lo
        if n == 0:
            return [()] if k == 0 else []
        out, start = [], 1  # start: the rank of the first word of each length
        for length in range(1, min(c, k // n) + 1):
            if k <= length + (n - 1) * c:
                out += [(i,) + t for i in range(max(lo, start), start + d ** length)
                        for t in tails(i, n - 1, k - length)]
            start += d ** length
        return out

    return tails(1, n, k)


def tuple_counts_by_degree(window: MonomialWindow, n: int) -> dict[int, int]:
    """The number of weak tuples of [1..q]**n at each generator degree,
    refused as weak_tuples refuses, listing no tuple.

    The count at degree k is the coefficient of s**n * t**k in the product over
    l of (1 - s*t**l)**(-d**l), whose factor l picks e of the d**l words of length l.
    """
    _refuse_past_cap(window.q, n)
    counts = {(0, 0): 1}  # (entries, degree) -> count
    for length in range(1, window.c + 1):
        step: dict[tuple[int, int], int] = {}
        for (m, k), count in counts.items():
            for e in range(n - m + 1):
                key = (m + e, k + e * length)
                step[key] = step.get(key, 0) + count * math.comb(window.d ** length + e - 1, e)
        counts = step
    return dict(sorted((k, count) for (m, k), count in counts.items() if m == n))


def window_generators(window: MonomialWindow, n: int,
                      field: FieldDescriptor) -> list[tuple[WeakTuple, Polynomial]]:
    """(j, generator) for every weak tuple j in [1..q]**n, in lexicographic order."""
    return [(j, window_generator(j, window, field)) for j in weak_tuples(window.q, n)]


def power_expansion(g: Polynomial, n: int, window: MonomialWindow) -> dict[WeakTuple, object]:
    """Coefficients lambda_j with g**n = sum lambda_j * generator(j).

    g must have no constant term and degree <= window.c.  lambda_j is the
    product of g's coefficients at the window words selected by j; zero
    products are omitted.  The identity is re-checked by direct expansion
    whenever the tuple entries that check builds sit under the cap.
    """
    if g.d != window.d:
        raise InvalidParams("g lives over %d variables, window over %d" % (g.d, window.d))
    require_int(n, "power n", 1)
    if g.constant_coefficient():
        raise ConstantTerm("g must lie in T_{>=1}")
    if g.degree() > window.c:
        raise DegreeTooHigh("deg g = %d exceeds the window degree %d" % (g.degree(), window.c))
    f = g.field
    alpha = {window_rank(window.d, w): a for w, a in g.terms.items()}
    support = sorted(alpha)
    lam: dict[WeakTuple, object] = {}
    if support:
        if weak_tuple_count_within(len(support), n, ENUM_CAP // n) is None:
            raise TooLarge("expansion has more entries than the cap %d" % ENUM_CAP)
        # nonzero factors, so lambda_j != 0; one power per run of weakly increasing j
        for pick in itertools.combinations_with_replacement(support, n):
            c = 1
            for i, run in itertools.groupby(pick):
                c *= f.pow(alpha[i], len(list(run)))
            lam[pick] = c
        lam = mod_p(lam, f.p)

    # the re-check builds m**i words of i*deg(g) letters at step i of g**n (m
    # terms), and n prefixes of at most generator_degree(j) letters for each
    # orbit word of h_j; the running total stops at the first one past the cap
    built = itertools.chain((len(g.terms) ** i * i * g.degree() for i in range(1, n + 1)),
                            (orbit_size(j) * n * generator_degree(j, window) for j in lam))
    if lam and all(entries <= ENUM_CAP for entries in itertools.accumulate(built)):
        total: dict[Word, object] = {}
        for j, c in lam.items():
            for w, a in window_generator(j, window, f).terms.items():
                total[w] = total.get(w, 0) + c * a
        if mod_p(total, f.p) != (g ** n).terms:
            raise AssertionError("power expansion identity failed; this is a bug")
    return lam
