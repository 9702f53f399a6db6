"""Independent oracles for the test suite.

Everything here is deliberately implemented with different machinery than
the package under test: two-term Stirling bounds and exact binomials in
Decimal, with explicit remainder and rounding slack (the package also
works in Decimal, but sums Stirling's full series to its working precision
and takes the factorials of small arguments exactly; mpmath, which the
tests use as a third implementation, checks both), direct transfer-style
word counting (the package uses row reduction), literal binomial scans
(the package uses a search guided by a float estimate of the root), and
full-width elimination over all d**n words (the package works in the
d*b_{n-1}-column quotient space).  Agreement between the stacks is the
point.  One oracle shares the package's machinery on purpose:
gallop_minimal_power is the search that minimal_power replaced, run on the
package's own certified comparison, so that the two searches are compared
on one predicate; and dense_bound_conditions is the loop over every degree
that check_bound_conditions replaced.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import insort
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb
from typing import List, Optional, Sequence, Tuple

import numpy as np

from gsalg.errors import (
    AmbientMismatch,
    DegreeExceedsTable,
    InvalidParams,
    MixedFields,
    TooLarge,
)
from gsalg.field import FieldDescriptor
from gsalg.freealg import Polynomial, Word, order_key, word_index, words_of_degree
from gsalg.graded import _check_generators
from gsalg.gscore import BoundConditionReport, _certified_sides, _exact_predicate

# 100 digits, hardcoded so the oracle does not depend on any library constant
PI_100 = Decimal(
    "3.141592653589793238462643383279502884197169399375105820974944592307816406286208998628034825342117068"
)


@functools.lru_cache(maxsize=None)
def _ln(x: Decimal, prec: int) -> Decimal:
    """ln x at the given precision, kept for the constants used over and over."""
    with localcontext() as ctx:
        ctx.prec = prec
        return x.ln()


def stirling_ln_gamma_bounds(z: int, prec: int = 60) -> Tuple[Decimal, Decimal]:
    """Two-sided bounds on ln Gamma(z) for integer z >= 1.

    ln Gamma(z) = (z - 1/2) ln z - z + ln(2 pi)/2 + R(z) with
    1/(12z) - 1/(360 z^3) < R(z) < 1/(12z) for all z > 0.  Decimal
    operations are correctly rounded at the context precision; the final
    slack absorbs the handful of roundings with a wide margin.
    """
    if z < 1:
        raise ValueError("z must be >= 1")
    with localcontext() as ctx:
        ctx.prec = prec
        zd = Decimal(z)
        main = (zd - Decimal(1) / 2) * zd.ln() - zd + _ln(2 * PI_100, prec) / 2
        hi = main + Decimal(1) / (12 * zd)
        lo = hi - Decimal(1) / (360 * zd**3)
        slack = (abs(main) + 1) * Decimal(10) ** (6 - prec)
        return lo - slack, hi + slack


def log2_comb_bounds(N: int, K: int, prec: int = 60) -> Tuple[Decimal, Decimal]:
    """Two-sided bounds on log2 C(N, K), 1 <= K <= N - 1, from Stirling."""
    with localcontext() as ctx:
        ctx.prec = prec
        ln2 = _ln(Decimal(2), prec)
        top_lo, top_hi = stirling_ln_gamma_bounds(N + 1, prec)
        a_lo, a_hi = stirling_ln_gamma_bounds(K + 1, prec)
        b_lo, b_hi = stirling_ln_gamma_bounds(N - K + 1, prec)
        return (top_lo - a_hi - b_hi) / ln2, (top_hi - a_lo - b_lo) / ln2


def log2_envelope_bounds(
    eps: Fraction, u: Fraction, n: int, prec: int = 60
) -> Tuple[Decimal, Decimal]:
    """Two-sided bounds on log2(eps**2 * u**(n-2))."""
    with localcontext() as ctx:
        ctx.prec = prec
        ln2 = _ln(Decimal(2), prec)
        val = 2 * (_ln(Decimal(eps.numerator), prec) - _ln(Decimal(eps.denominator), prec)) + (
            n - 2
        ) * (_ln(Decimal(u.numerator), prec) - _ln(Decimal(u.denominator), prec))
        slack = (abs(val) + 1) * Decimal(10) ** (6 - prec)
        return (val - slack) / ln2, (val + slack) / ln2


# up to this min(K, N - K) the binomial is taken exactly: the Stirling
# remainder bound is 1/(360 z**3) wide at z = K + 1 (1.3e-5 at K = 5), too
# wide to settle a near-tie, while C(N, K) costs about K*log2(N) bits
EXACT_COMB_K = 64


def exact_log2_comb_bounds(N: int, K: int, prec: int = 60) -> Tuple[Decimal, Decimal]:
    """Two-sided bounds on log2 C(N, K) from the exact integer C: with its
    top 4*prec bits t = C >> s, t * 2**s <= C < (t + 1) * 2**s (C itself
    when s = 0)."""
    with localcontext() as ctx:
        ctx.prec = prec
        ln2 = _ln(Decimal(2), prec)
        c = comb(N, K)
        s = max(c.bit_length() - 4 * prec, 0)
        t = c >> s
        lo = Decimal(t).ln() / ln2 + s
        hi = Decimal(t + (s > 0)).ln() / ln2 + s
        slack = (hi + 1) * Decimal(10) ** (6 - prec)
        return lo - slack, hi + slack


def certified_predicate(
    q: int, n: int, eps: Fraction, u: Fraction, prec: int = 60
) -> bool:
    """Certified C(n+q-1, q-1) < eps**2 * u**(n-2) via the Decimal bounds.

    The count's bounds are exact ones when min(K, N - K) <= EXACT_COMB_K,
    Stirling ones otherwise.  Escalates precision; raises if the bounds
    still overlap at prec 400 (which would mean a near-tie this oracle
    cannot settle).
    """
    N, K = n + q - 1, min(n, q - 1)
    count_bounds = exact_log2_comb_bounds if min(K, N - K) <= EXACT_COMB_K else log2_comb_bounds
    while prec <= 400:
        count_lo, count_hi = count_bounds(N, K, prec)
        env_lo, env_hi = log2_envelope_bounds(eps, u, n, prec)
        if count_hi < env_lo:
            return True
        if count_lo > env_hi:
            return False
        prec *= 2
    raise ArithmeticError("oracle bounds overlap at q=%d n=%d" % (q, n))


def exact_predicate(q: int, n: int, eps: Fraction, u: Fraction) -> bool:
    return comb(n + q - 1, n) < eps * eps * u ** (n - 2)


def brute_minimal_n(
    q: int, c_prev: int, eps: Fraction, u: Fraction, limit: int = 10_000
) -> int:
    """Literal scan in exact integers, desk scale only: C(n+q-1, n) < eps**2 *
    u**(n-2) cleared of denominators, each side updated by one factor per n."""
    n = max(c_prev + 1, 2)
    count = comb(n + q - 1, n)
    lhs = eps.denominator**2 * u.denominator ** (n - 2)
    rhs = eps.numerator**2 * u.numerator ** (n - 2)
    while n <= limit:
        if count * lhs < rhs:
            assert exact_predicate(q, n, eps, u)
            return n
        n += 1
        count = count * (n + q - 1) // n
        lhs *= u.denominator
        rhs *= u.numerator
    raise ArithmeticError("no admissible n below %d" % limit)


def gallop_minimal_power(q: int, c_prev: int, params) -> int:
    """minimal_power as the package searched before its root guide: test
    n_lo = max(c_prev + 1, 2), gallop upward through n_lo + 1, n_lo + 2,
    n_lo + 4, ..., n_lo + 2**199 until the predicate holds (TooLarge if it
    never does), then bisect the last bracket.  The predicate is the
    package's certified comparison, settled exactly on a tie."""
    n_lo = max(c_prev + 1, 2)

    def pred(m: int) -> bool:
        try:
            return _certified_sides(q, m, params)[0] > 0
        except TooLarge:
            exact = _exact_predicate(q, m, params)
            if exact is None:
                raise
            return exact

    lo = hi = n_lo
    step = 1
    for _ in range(201):
        if pred(hi):
            break
        lo, hi = hi, n_lo + step
        step *= 2
    else:
        raise TooLarge("no block degree found below astronomically large bounds")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def dense_bound_conditions(r: dict, cert, max_degree: int) -> BoundConditionReport:
    """check_bound_conditions as the package ran it before it skipped the
    empty degrees: the envelope c*u**(ell-2) multiplied up by u at every
    ell from 2 to max_degree, each r.get(ell, 0) compared with it."""
    first = None
    bound = cert.c
    for ell in range(2, max_degree + 1):
        if r.get(ell, 0) > bound:
            first = ell
            break
        bound *= cert.u
    ok_b = cert.condition_b_holds
    return BoundConditionReport(ok=first is None and ok_b, ok_a=first is None, first_violation=first,
                                envelope=None if first is None else bound,
                                ok_b=ok_b, b_value=cert.condition_b_value, v=cert.v)


def scan_all_false(
    q: int, lo: int, hi: int, eps: Fraction, u: Fraction, margin: float = 0.05
) -> List[int]:
    """Check ln-predicate(n) < -margin for every n in [lo, hi], vectorized.

    Uses the incremental identity ln C(n+q-1, n) - ln C(n+q-2, n-1)
    = ln(n+q-1) - ln(n) so the whole range costs two vectorized logs and a
    cumulative sum.  Returns the degrees whose ln-gap lies within the
    margin; the caller must settle those with certified_predicate.  A
    worst-case error analysis (per-log 1e-15 relative on O(10) terms plus
    cumsum rounding at ~ulp(1e6) over ~3e6 terms) stays below 1e-3, far
    inside the margin.
    """
    if hi < lo:
        return []
    base = (
        math.lgamma(lo + q) - math.lgamma(lo + 1) - math.lgamma(q)
    )
    ns = np.arange(lo, hi + 1, dtype=np.float64)
    steps = np.log(ns[1:] + q - 1) - np.log(ns[1:])
    ln_count = base + np.concatenate(([0.0], np.cumsum(steps)))
    ln_eps = math.log(eps.numerator) - math.log(eps.denominator)
    ln_u = math.log(u.numerator) - math.log(u.denominator)
    gap = (2 * ln_eps + (ns - 2) * ln_u) - ln_count
    if np.all(gap < -margin):
        return []
    return [int(m) for m in ns[gap >= -margin]]


def count_avoiding_factor(d: int, forbidden: Tuple[int, int], n: int) -> int:
    """Words of length n over {1..d} with no two adjacent letters equal to
    the forbidden pair, by direct dynamic programming on the last letter."""
    if n == 0:
        return 1
    state = {letter: 1 for letter in range(1, d + 1)}
    for _ in range(n - 1):
        nxt = {}
        for b in range(1, d + 1):
            nxt[b] = sum(
                cnt for a, cnt in state.items() if (a, b) != forbidden
            )
        state = nxt
    return sum(state.values())


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# -- the text form, printed term by term ------------------------------------------

def reference_poly_str(p: Polynomial) -> str:
    """The text form as the package printed it before its one-pass printer:
    terms sorted by (word, coefficient) pairs under order_key, each word's
    letters formatted one by one."""
    if p.is_zero():
        return "0"
    parts = []
    for w, c in sorted(p.terms.items(), key=lambda kv: order_key(kv[0])):
        txt = str(abs(c))
        if w:
            word = "*".join(["x%d" % t for t in w])
            txt = word if txt == "1" else txt + "*" + word
        parts.append((" - " if c < 0 else " + ") + txt)
    out = "".join(parts)
    return out[3:] if out[1] == "+" else "-" + out[3:]


# -- coefficient maps folded term by term ------------------------------------------

def field_add(field: FieldDescriptor, a, b):
    """a + b in the field, reduced at once (the package reduces sums with mod_p)."""
    return (a + b) % field.p if field.p is not None else a + b


def field_sub(field: FieldDescriptor, a, b):
    """a - b in the field, reduced at once."""
    return (a - b) % field.p if field.p is not None else a - b


def field_mul(field: FieldDescriptor, a, b):
    """a * b in the field, reduced at once."""
    return (a * b) % field.p if field.p is not None else a * b


def field_inv(field: FieldDescriptor, a):
    """The inverse of a nonzero a in the field."""
    return pow(a, -1, field.p) if field.p is not None else 1 / a


def reference_fold(pairs, field: FieldDescriptor) -> dict:
    """{word: coefficient} from (word, raw value) pairs, folded eagerly: each
    value is coerced and added in with field_add, and a sum that is zero is
    dropped at once (the package adds raw values and reduces once, mod_p)."""
    out: dict = {}
    for word, raw in pairs:
        s = field_add(field, out.get(word, field.zero), field.coerce(raw))
        if s == 0:
            out.pop(word, None)
        else:
            out[word] = s
    return out


# -- window generators from their definition -------------------------------------

def reference_window_generator(j: Sequence[int], d: int, c: int,
                               field: FieldDescriptor) -> Polynomial:
    """h_j = s_j(M_1, ..., M_q) from the definition: the sum, over the
    distinct permutations t of j, of the products M_{t_1} * ... * M_{t_n},
    M_i being the i-th word of degree 1..c in the monomial order.  The
    permutations are deduplicated from itertools.permutations, and each
    product is multiplied out with Polynomial products."""
    words = [w for k in range(1, c + 1) for w in words_of_degree(d, k)]
    total = Polynomial.zero(d, field)
    for t in set(itertools.permutations(j)):
        prod = Polynomial.one(d, field)
        for i in t:
            prod = prod * Polynomial.monomial(words[i - 1], d, field)
        total = total + prod
    return total


# -- naive full-width cross-check ----------------------------------------------

class NaiveTable:
    """Textbook reference: spans {m1*f*m2} at full d**n width and eliminates.

    Deliberately simple and independent of the incremental machinery; used to
    cross-check dimensions, standard words, and membership at desk scale.
    """

    def __init__(self, d, field, b, standard_words, bases):
        self.d = d
        self.field = field
        self.b = b
        self.standard_words = standard_words
        self._bases = bases

    def contains(self, p: Polynomial) -> bool:
        if p.d != self.d:
            raise AmbientMismatch("polynomial ambient does not match")
        if p.field != self.field:
            raise MixedFields("polynomial field does not match")
        for m, comp in p.homogeneous_components().items():
            if m >= len(self._bases):
                raise DegreeExceedsTable("degree %d beyond naive table" % m)
            if self.field.p == 2:
                if _naive_reduce_gf2(_pack_gf2(comp, self.d), self._bases[m]):
                    return False
            else:
                vec = _full_vector(comp, self.d, self.field)
                if any(_naive_reduce(vec, self._bases[m], self.field)):
                    return False
        return True

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Residue on the standard words: each component reduced at full
        width until it is zero at every pivot."""
        terms = {}
        for m, comp in p.homogeneous_components().items():
            if m >= len(self._bases):
                raise DegreeExceedsTable("degree %d beyond naive table" % m)
            words = list(words_of_degree(self.d, m))
            if self.field.p == 2:
                row = _naive_reduce_gf2(_pack_gf2(comp, self.d), self._bases[m])
                coeffs = [(row >> i) & 1 for i in range(len(words))]
            else:
                vec = _full_vector(comp, self.d, self.field)
                coeffs = _naive_reduce(vec, self._bases[m], self.field)
            terms.update((w, c) for w, c in zip(words, coeffs) if c)
        return Polynomial(self.d, self.field, terms)


def _full_vector(p: Polynomial, d: int, field: FieldDescriptor):
    n = p.degree()
    vec = [field.zero] * (d**n)
    for word, c in p.terms.items():
        idx = word_index(word, d)
        vec[idx] = field_add(field, vec[idx], c)
    return vec


def _pack_gf2(p: Polynomial, d: int) -> int:
    row = 0
    for word in p.terms:
        row ^= 1 << word_index(word, d)
    return row


class _GF2Basis:
    """Packed GF(2) rows keyed by their lowest set bit, and the mask of those bits."""

    def __init__(self):
        self.rows = {}
        self.mask = 0


def _naive_reduce_gf2(row: int, basis: _GF2Basis) -> int:
    # each basis row is zero below its own pivot bit, so clearing the lowest
    # pivot bit of row changes only higher bits, and the loop ends
    rows, mask = basis.rows, basis.mask
    x = row & mask
    while x:
        row ^= rows[x & -x]
        x = row & mask
    return row


def _naive_insert_gf2(row: int, basis: _GF2Basis) -> None:
    row = _naive_reduce_gf2(row, basis)
    if row:
        low = row & -row
        basis.rows[low] = row
        basis.mask |= low


def _naive_reduce(vec, basis, field):
    # basis rows sorted by pivot; each row is zero before its own pivot,
    # so one ascending pass is a complete reduction
    for piv, row in basis:
        c = vec[piv]
        if c:
            vec = [field_sub(field, a, field_mul(field, c, b)) for a, b in zip(vec, row)]
    return vec


def _naive_insert(vec, basis, field):
    vec = _naive_reduce(vec, basis, field)
    piv = next((i for i, a in enumerate(vec) if a), None)
    if piv is None:
        return
    inv = field_inv(field, vec[piv])
    insort(basis, (piv, [field_mul(field, inv, a) for a in vec]))


def naive_dimension_table(
    generators: Sequence[Polynomial],
    maxdeg: int,
    *,
    d: Optional[int] = None,
    field: Optional[FieldDescriptor] = None,
    column_cap: int = 2**14,
) -> NaiveTable:
    gens, d, field = _check_generators(generators, d, field)
    if not isinstance(maxdeg, int) or isinstance(maxdeg, bool) or maxdeg < 0:
        raise InvalidParams("maxdeg must be a nonnegative integer, got %r" % (maxdeg,))
    if d**maxdeg > column_cap:
        raise TooLarge(
            "d**maxdeg = %d exceeds the naive %d-column cap" % (d**maxdeg, column_cap)
        )
    dims: List[int] = []
    std_words: List[List[Word]] = []
    bases = []
    binary = field.p == 2
    for n in range(maxdeg + 1):
        basis = _GF2Basis() if binary else []
        for f in gens:
            k = f.degree()
            if k > n:
                continue
            for a in range(n - k + 1):
                for u in words_of_degree(d, a):
                    for v in words_of_degree(d, n - k - a):
                        if binary:
                            row = 0
                            for w in f.terms:
                                row ^= 1 << word_index(u + w + v, d)
                            _naive_insert_gf2(row, basis)
                        else:
                            vec = [field.zero] * (d**n)
                            for w, c in f.terms.items():
                                idx = word_index(u + w + v, d)
                                vec[idx] = field_add(field, vec[idx], c)
                            _naive_insert(vec, basis, field)
        if binary:
            pivots = {pb.bit_length() - 1 for pb in basis.rows}
        else:
            pivots = {piv for piv, _ in basis}
        dims.append(d**n - len(pivots))
        std_words.append(
            [w for i, w in enumerate(words_of_degree(d, n)) if i not in pivots]
        )
        bases.append(basis)
    return NaiveTable(d, field, dims, std_words, bases)
