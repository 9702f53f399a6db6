"""Growth bounds and the inductive generator-sequence construction.

Three layers live here.  First, the certificate algebra: a parameter pair
(d, eps) with d - 2*eps > 1 reduces to a triple (v, c, u) = (eps, eps**2,
d - 2*eps) whose two conditions (generator counts dominated by c*u**(n-2),
and (v*d - c)/(v + u) >= v) force the quotient dimensions to grow at least
like (d - v)**n; verify_growth replays that induction line by line on a
concrete b-sequence.  Second, minimal_power finds the smallest block degree
n whose weak-tuple count C(n+q-1, q-1) drops below eps**2 * u**(n-2); the
count grows polynomially in n while the bound grows exponentially, so such
an n exists, and the log of bound/count is convex in n, so above a start
where the comparison fails it fails on a prefix and holds after it; a float
estimate of the root and Newton steps on the certified comparison find the
switch in a few probes.  Third, blueprints: the
block-by-block construction whose union of window generators bounds every
generator count by the block's tuple count while covering every low-degree
polynomial with a nil exponent.

All verdicts are exact.  A count/bound comparison is settled in
integer/Fraction arithmetic whenever integer sizes show the numbers fit;
past that it is a certified log comparison in the standard library's
decimal arithmetic, correctly rounded, with lnGamma from exact factorials
or Stirling's series; its slack covers every rounding and the series'
remainder, and the working precision climbs a ladder (block-2 boundary
sizes reach 10**20-bit binomials).  A block whose window is too large for
any reachable block degree is refused before it is built.
"""

from __future__ import annotations

import re
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, getcontext, localcontext
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, factorial, log, log1p, log2, nextafter, pi, sqrt
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    BlueprintMismatch,
    ConstantTerm,
    DegreeNotCovered,
    DimensionBoundViolated,
    InvalidParams,
    TooLarge,
    read_json,
    require_int,
    write_text_atomic,
)
from .field import GF2, FieldDescriptor, parse_field
from .symfun import monomial_window, window_generators, window_size, window_tuple_counts

# exact-arithmetic effort caps; beyond them verdicts come from the certified
# log path (see _certified_sides)
EXACT_VALUE_BIT_CAP = 50_000
EXACT_PREDICATE_BIT_CAP = 400_000
# an exact count or margin is kept below this bound, so that it prints: the
# interpreter's default int-to-text limit, fixed here so files do not vary
EXACT_VALUE_BOUND = 10**4300
_DPS_LADDER = (40, 80, 160, 320, 640, 1280)
# the certified comparison's slack, in units of the rung's binary epsilon
# times the summed magnitudes of the terms it adds (see _certified_sides)
_SLACK_ULPS = 1024


def parse_ratio(text: str) -> Fraction:
    """Exact rational from 'a' or 'a/b'; decimals are rejected on purpose."""
    if not isinstance(text, str) or not re.fullmatch(r"[+-]?\d+(/\d+)?", text.strip()):
        raise InvalidParams("expected an integer or num/den ratio, got %r" % (text,))
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise InvalidParams("ratio %r has a zero denominator" % (text,)) from None
    except ValueError:  # past the interpreter's int-from-text digit limit
        raise InvalidParams("a ratio of %d characters has too many digits" % len(text)) from None


def _positive_fraction(x, what: str) -> Fraction:
    if not (isinstance(x, Fraction) or isinstance(x, int) and not isinstance(x, bool)):
        raise InvalidParams("%s must be exact (int or Fraction), got %r" % (what, x))
    if x <= 0:
        raise InvalidParams("%s must be positive, got %s" % (what, x))
    return Fraction(x)


# -- parameters and certificates ------------------------------------------------

class _ParamFields(NamedTuple):
    d: int
    eps: Fraction


class GSParams(_ParamFields):
    """Ambient rank d and the accuracy parameter eps, with d - 2*eps > 1."""

    __slots__ = ()

    def __new__(cls, d: int, eps: Fraction):
        require_int(d, "d", 2)
        eps = _positive_fraction(eps, "eps")
        if d - 2 * eps <= 1:
            raise InvalidParams("need d - 2*eps > 1, got %s" % (d - 2 * eps,))
        return super().__new__(cls, d, eps)

    @classmethod
    def _make(cls, iterable):
        # the named-tuple copy constructor (also behind _replace), validated too
        return cls(*iterable)

    @property
    def u(self) -> Fraction:
        return self.d - 2 * self.eps

    @property
    def eps_sq(self) -> Fraction:
        return self.eps * self.eps


class _CertificateFields(NamedTuple):
    d: int
    v: Fraction
    c: Fraction
    u: Fraction


class BoundCertificate(_CertificateFields):
    """A (v, c, u) triple certifying growth at least (d - v)**n."""

    __slots__ = ()

    def __new__(cls, d: int, v: Fraction, c: Fraction, u: Fraction):
        require_int(d, "d", 2)
        return super().__new__(cls, d, _positive_fraction(v, "v"),
                               _positive_fraction(c, "c"), _positive_fraction(u, "u"))

    @classmethod
    def _make(cls, iterable):
        # the named-tuple copy constructor (also behind _replace), validated too
        return cls(*iterable)

    @property
    def growth_base(self) -> Fraction:
        return self.d - self.v

    @property
    def condition_b_value(self) -> Fraction:
        return (self.v * self.d - self.c) / (self.v + self.u)

    @property
    def condition_b_holds(self) -> bool:
        return self.condition_b_value >= self.v


def certificate_from_epsilon(params: GSParams) -> BoundCertificate:
    """The canonical reduction (v, c, u) = (eps, eps**2, d - 2*eps).

    Condition (b) then holds with exact equality:
    (eps*d - eps**2) / (eps + d - 2*eps) = eps.
    """
    return BoundCertificate(params.d, params.eps, params.eps_sq, params.u)


def validate_r(r: Dict[int, int]) -> None:
    """Check a degree -> generator-count table: r_0 = r_1 = 0, counts >= 0."""
    for deg, count in r.items():
        require_int(deg, "a degree key of r", 0)
        require_int(count, "r[%d]" % deg, 0)
        if deg < 2 and count != 0:
            raise InvalidParams("r[%d] must be 0 (no generators below degree 2)" % deg)


class BoundConditionReport(NamedTuple):
    ok: bool
    ok_a: bool
    first_violation: Optional[int]
    envelope: Optional[Fraction]  # c * u**(first_violation - 2), None when (a) holds
    ok_b: bool
    b_value: Fraction
    v: Fraction


def check_bound_conditions(
    r: Dict[int, int], cert: BoundCertificate, max_degree: int
) -> BoundConditionReport:
    """Exact check of both certificate conditions against a generator table.

    (a): r_ell <= c * u**(ell-2) for 2 <= ell <= max_degree, where r_ell > 0;
    (b): (v*d - c)/(v + u) >= v.
    """
    validate_r(r)
    require_int(max_degree, "max_degree", 0)
    if max_degree > 100_000:
        raise TooLarge(
            "exact power checks capped at degree 100000; got %d" % max_degree
        )
    first, ell, bound = None, 2, cert.c  # the envelope c * u**(ell-2) at ell
    for deg in sorted(k for k, cnt in r.items() if cnt and k <= max_degree):
        bound, ell = bound * cert.u ** (deg - ell), deg
        if r[deg] > bound:
            first = deg
            break
    ok_b = cert.condition_b_holds
    return BoundConditionReport(
        ok=first is None and ok_b,
        ok_a=first is None,
        first_violation=first,
        envelope=None if first is None else bound,
        ok_b=ok_b,
        b_value=cert.condition_b_value,
        v=cert.v,
    )


# -- the growth ledger -----------------------------------------------------------

class LedgerLine(NamedTuple):
    kind: str
    n: int
    lhs: Fraction
    rhs: Fraction
    ok: bool


class GrowthReport(NamedTuple):
    ok: bool
    lines: Tuple[LedgerLine, ...]

    @property
    def first_failure(self) -> Optional[LedgerLine]:
        return next((line for line in self.lines if not line.ok), None)


def verify_growth(
    b: Sequence[int], r: Dict[int, int], cert: BoundCertificate
) -> GrowthReport:
    """Replay the growth induction on a concrete dimension sequence.

    The input must already satisfy the degree-wise lower bound
    b_n >= d*b_{n-1} - sum r_{n-j}*b_j (raises DimensionBoundViolated
    otherwise).  Four exact line families are then checked:

      weighted_tail:   v*b_{n+1} >= sum_{j<=n} c*u**(n-j)*b_j
      generator_tail:  v*b_{n+1} >= sum_{j<=n} r_{n+2-j}*b_j
      stepwise_ratio:  b_{n+2}   >= (d-v)*b_{n+1}
      power_bound:     b_n       >= (d-v)**n
    """
    from .graded import degree_bound

    b = list(b)
    if not b or b[0] != 1:
        raise InvalidParams("b must start with b_0 = 1")
    if len(b) > 1 and b[1] != cert.d:
        raise InvalidParams("b_1 must equal d = %d, got %r" % (cert.d, b[1]))
    for n, val in enumerate(b):
        require_int(val, "b_%d" % n, 0)
    validate_r(r)
    N = len(b) - 1
    for n in range(2, N + 1):
        bound = degree_bound(cert.d, b, r, n)
        if b[n] < bound:
            raise DimensionBoundViolated(
                "b_%d = %d is below the degree-wise bound %d implied by r"
                % (n, b[n], bound)
            )

    v, c, u = cert.v, cert.c, cert.u
    base = cert.growth_base
    lines: List[LedgerLine] = []
    rhs = Fraction(0)
    for n in range(N):
        lhs = v * b[n + 1]
        rhs = u * rhs + c * b[n]  # sum_{j<=n} c*u**(n-j)*b_j, by Horner's rule
        lines.append(LedgerLine("weighted_tail", n, lhs, rhs, lhs >= rhs))
    for n in range(max(N - 1, 0)):
        lhs = v * b[n + 1]
        rhs = Fraction(sum(cnt * b[n + 2 - k] for k, cnt in r.items() if 2 <= k <= n + 2))
        lines.append(LedgerLine("generator_tail", n, lhs, rhs, lhs >= rhs))
    for n in range(max(N - 1, 0)):
        lhs = Fraction(b[n + 2])
        rhs = base * b[n + 1]
        lines.append(LedgerLine("stepwise_ratio", n, lhs, rhs, lhs >= rhs))
    rhs = Fraction(1)
    for n in range(N + 1):
        lhs = Fraction(b[n])
        lines.append(LedgerLine("power_bound", n, lhs, rhs, lhs >= rhs))
        rhs *= base
    return GrowthReport(ok=all(line.ok for line in lines), lines=tuple(lines))


# -- minimal block degree ----------------------------------------------------------

_BERNOULLI: List[Fraction] = []  # B_2, B_4, ..., extended on demand


def _digits(prec: int):
    """A local decimal context of prec digits rounding half to even, whatever
    the caller's context."""
    return localcontext(Context(prec=prec, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX))


def _bernoulli(k: int) -> Fraction:
    """B_2k for k >= 1, from the tangent numbers T_j by the integer recurrence
    of R. P. Brent and D. Harvey (Fast computation of Bernoulli, tangent and
    secant numbers, 2013): B_2j = (-1)**(j-1) 2j T_j / (4**j (4**j - 1))."""
    if k > len(_BERNOULLI):
        m = max(k, 2 * len(_BERNOULLI))
        t = [0, 1] + [0] * (m - 1)
        for j in range(2, m + 1):
            t[j] = (j - 1) * t[j - 1]
        for i in range(2, m + 1):
            for j in range(i, m + 1):
                t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
        _BERNOULLI[:] = [Fraction((-1) ** (j - 1) * 2 * j * t[j], 4**j * (4**j - 1))
                         for j in range(1, m + 1)]
    return _BERNOULLI[k - 1]


@lru_cache(maxsize=None)
def _rung_constants(prec: int) -> Tuple[Decimal, Decimal]:
    """(ln 2, ln(2 pi)/2) to prec digits.  pi is Machin's 16 atan(1/5) -
    4 atan(1/239), summed in integers scaled by 10**(prec+10): each of the
    under prec+10 terms of a series is floored twice, so pi is off by under
    50*(prec+10) units of 10**-(prec+10), far below 10**-prec."""
    scale = 10 ** (prec + 10)

    def atan_inv(x: int) -> int:
        total = term = scale // x
        k = 1
        while term:
            term //= x * x
            k += 2
            total += term // k if k % 4 == 1 else -(term // k)
        return total

    with _digits(prec):
        two_pi = Decimal(2 * (16 * atan_inv(5) - 4 * atan_inv(239))) / scale
        return Decimal(2).ln(), two_pi.ln() / 2


@lru_cache(maxsize=64)
def _param_logs(params: GSParams, prec: int) -> Tuple[Decimal, ...]:
    """(ln en, ln ed, ln un, ln ud) to prec digits, eps = en/ed, u = un/ud."""
    with _digits(prec):
        return tuple(Decimal(x).ln() for x in (params.eps.numerator, params.eps.denominator,
                                               params.u.numerator, params.u.denominator))


def _ln_gamma(z: int, half_ln_2pi: Decimal) -> Decimal:
    """lnGamma(z), z an integer >= 1, in the context's precision P.

    Up to z = 2P it is ln((z-1)!), one correctly rounded log of an exact
    integer.  Past it, Stirling's series (DLMF 5.11.1) (z - 1/2) ln z - z +
    ln(2 pi)/2 + sum B_2k / (2k (2k-1) z**(2k-1)), each term one rounded
    division of exact integers, summed until a term falls below 10**-P.  That
    term is left out, and it bounds the remainder: for real z > 0 the
    remainder is smaller than the first term left out (DLMF 5.11(ii)).
    """
    prec = getcontext().prec
    if z <= 2 * prec:
        return Decimal(factorial(z - 1)).ln()
    zd = Decimal(z)
    total = (zd - Decimal("0.5")) * zd.ln() - zd + half_ln_2pi
    tol, k = Decimal(1).scaleb(-prec), 1
    while True:
        b = _bernoulli(k)
        term = Decimal(b.numerator) / (b.denominator * 2 * k * (2 * k - 1) * z ** (2 * k - 1))
        if abs(term) < tol:
            return total
        total += term
        k += 1


class _Sides(tuple):
    """(sign, log2_count, gap_log2) of _certified_sides; .mid is the gap's
    computed value in nats, the middle of its enclosure."""

    mid: Decimal


def _certified_sides(q: int, n: int, params: GSParams) -> _Sides:
    """Certified sign of eps**2 * u**(n-2) - C(n+q-1, q-1), via logs.

    With eps = en/ed and u = un/ud the log-gap diff is the sum of the terms
    2 ln en, -2 ln ed, (n-2) ln un, -(n-2) ln ud, -lnGamma(n+q), lnGamma(n+1)
    and lnGamma(q) (_ln_gamma), let S be the sum of their magnitudes.  A rung
    of _DPS_LADDER with dps digits works at P = dps + 5 digits in decimal
    arithmetic, whose + - * / and ln are correctly rounded, each within u =
    10**(1-P)/2 of its result.  diff is then off by at most R*u*M + 3*10**-P
    (N. J. Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sec. 4.2): R, the count of roundings, is under 40 plus two per Stirling
    term; M, the largest partial term, is at most 2(S + 1), the product (z -
    1/2) ln z of Stirling's series being the largest above S; and each of
    three Stirling remainders is below 10**-P (DLMF 5.11(ii)).  The sign is
    accepted only when |diff| exceeds slack = _SLACK_ULPS * 2**(1-b) * (S +
    1), b = round((dps + 1) log2 10) the binary precision of dps digits:
    slack exceeds 144 * 10**-dps * (S + 1), over twice that error for any R
    below 10**5.  Otherwise the precision climbs the ladder, and an exact tie
    raises TooLarge.

    Returns (sign, log2_count, gap_log2) as Decimals, gap_log2 being the end
    of the gap's enclosure nearest 0, (diff -+ slack)/ln 2, and diff itself
    as .mid.
    """
    for dps in _DPS_LADDER:
        prec = dps + 5
        ln2, half_ln_2pi = _rung_constants(prec)
        le, ld, lu, lv = _param_logs(params, prec)
        with _digits(prec):
            top, low, win = (_ln_gamma(z, half_ln_2pi) for z in (n + q, n + 1, q))
            ln_count = top - low - win
            diff = 2 * (le - ld) + (n - 2) * (lu - lv) - ln_count
            # every term is the log of an integer >= 1, so none is negative
            terms = top + low + win + 2 * (le + ld) + (n - 2) * (lu + lv)
            slack = _SLACK_ULPS * (terms + 1) / (1 << (round((dps + 1) * log2(10)) - 1))
            if abs(diff) > slack:
                edge = diff - slack if diff > 0 else diff + slack
                sides = _Sides((1 if diff > 0 else -1, ln_count / ln2, edge / ln2))
                sides.mid = diff
                return sides
    raise TooLarge(
        "could not certify the count/bound comparison at q=%d, n=%d "
        "within precision limits" % (q, n)
    )


def _printable(x):
    """x (an int or Fraction), or None when it reaches EXACT_VALUE_BOUND."""
    return x if max(abs(x.numerator), x.denominator) < EXACT_VALUE_BOUND else None


def _envelope_bits(n: int, params: GSParams) -> int:
    """Bound on the bit length of u**(n-2)'s numerator and denominator."""
    u = params.u
    return (n - 2) * max(u.numerator.bit_length(), u.denominator.bit_length())


def _exact_predicate(q: int, n: int, params: GSParams):
    """Exact C(n+q-1, q-1) < eps**2 * u**(n-2), or None beyond the bit caps.

    Every probe of minimal_power asks this first, and only a None sends it
    to the certified log comparison.  The caps are read off integer sizes,
    before any big number is built: C(N, k) <= (e*N/k)**k with N = n+q-1
    and k = min(n, q-1), so the count has at most
    k * bit_length(ceil(3*(n+q)/k)) bits.
    """
    k = min(n, q - 1)
    if k * (-(-3 * (n + q) // k)).bit_length() > EXACT_PREDICATE_BIT_CAP:
        return None
    if _envelope_bits(n, params) > 4 * EXACT_PREDICATE_BIT_CAP:
        return None
    return comb(n + q - 1, n) < params.eps_sq * params.u ** (n - 2)


def _root_guide(q: int, n_lo: int, reach: int, params: GSParams) -> int:
    """Float estimate in (n_lo, reach] of the least n with a positive log gap.

    The log count ln C(x+q-1, q-1) is Stirling's series arranged so that no
    two large terms cancel, (x + 1/2) log1p((q-1)/(x+1)) + (q-1) log1p(x/q)
    - ln(q)/2 + 1 - ln(2 pi)/2; lnGamma differences cancel, and an estimate
    from them lands 2.6 * 10**7 off the root at q = 3.7 * 10**19.  The gap
    2 ln eps + (x-2) ln u minus the count is bisected on a log scale from
    n_lo, or the gap's minimum near (q-u)/(u-1) if later, to reach; ln eps
    is read from eps's integer numerator and denominator, so it has no
    float range.  reach when the other inputs leave float range: a probe
    there refuses the search at once or starts the Newton steps down.
    """
    u = params.u
    try:
        ln_u, qf = log1p(u - 1), float(q)
        if not ln_u > 0:
            return reach
        ln_eps = log(params.eps.numerator) - log(params.eps.denominator)
        base = 2 * ln_eps - 2 * ln_u + log(qf) / 2 - 1 + log(2 * pi) / 2
        lo, hi = max(float(n_lo), float((q - u) / (u - 1))), float(reach)
        while lo < (x := sqrt(lo * hi)) < hi:
            if base + x * ln_u - (x + 0.5) * log1p((qf - 1) / (x + 1)) - (qf - 1) * log1p(x / qf) > 0:
                hi = x
            else:
                lo = x
        return min(max(ceil(hi), n_lo + 1), reach)
    except (OverflowError, ValueError):
        return reach


def minimal_power(q: int, c_prev: int, params: GSParams) -> int:
    """Smallest n > c_prev with C(n+q-1, q-1) < eps**2 * (d-2*eps)**(n-2).

    Each probe settles the predicate exactly when integer sizes show the
    numbers fit (_exact_predicate), and by the certified log comparison
    otherwise.  It is tested at n_lo = max(c_prev + 1, 2) first.  If false
    there, the search probes a float estimate of the root (_root_guide),
    then takes Newton steps on the log gap, each from the middle of the last
    certified probe's enclosure with the slope ln u - ln((n+q)/(n+1)), for
    as long as each lands strictly inside the bracket of known verdicts.
    From its last probe it gallops in doubling steps, up while the predicate
    is false and down while it is true, and bisects the bracket that closes.

    The estimate and the steps only choose where to probe; every verdict is
    exact or certified.  The search is sound because the log-gap ln(eps**2 *
    u**(n-2)) - ln C(n+q-1, q-1) is convex in n: its increment ln u -
    ln((n+q)/(n+1)) grows with n.  A convex gap that is not positive at
    n_lo and at some m > n_lo is not positive anywhere in between, so above
    a false n_lo the false region is a prefix and the true region the rest,
    and a search that ends on a settled pair, false at N-1 (or N = n_lo)
    and true at N, has found the least N wherever it started.  No n is
    probed twice and none past n_lo + 2**199; the predicate false there
    raises TooLarge.
    """
    require_int(q, "q", 2)
    require_int(c_prev, "c_prev", 0)
    n_lo = max(c_prev + 1, 2)
    reach = n_lo + 2**199
    lo, hi = n_lo - 1, None  # false at lo (or lo < n_lo), true at hi

    def probe(m: int) -> Optional[float]:
        """Record the verdict at m in (lo, hi); return the middle of the
        certified log gap's enclosure at m in nats (None when exact
        arithmetic settled it)."""
        nonlocal lo, hi
        holds, gap = _exact_predicate(q, m, params), None
        if holds is None:
            sides = _certified_sides(q, m, params)
            holds, gap = sides[0] > 0, float(sides.mid)
        if holds:
            hi = m
        elif m == reach:
            raise TooLarge("no block degree found below astronomically large bounds")
        else:
            lo = m
        return gap

    def inside(m: int) -> bool:
        return lo < m and (hi is None or m < hi)

    m = n_lo
    probe(m)
    if hi is None:
        m = _root_guide(q, n_lo, reach, params)
        gap = probe(m)
        # as many Newton steps at most as the gallop below has doublings
        for _ in range(200):
            if gap is None or hi is not None and hi - lo == 1:
                break
            try:
                slope = log1p(params.u - 1) - log1p((q - 1) / (m + 1))
                # the first n past the root of the line through (m, gap)
                # with that slope; a step of 0 (m holds) checks m - 1 next
                t = min(m + (ceil(-gap / slope) or -1), reach) if slope > 0 else None
            except (OverflowError, ValueError):
                t = None
            if t is None or not inside(t):
                break
            m = t
            gap = probe(m)

    # gallop away from m toward the boundary, then bisect the closed bracket
    down, jump = m == hi, 1
    while hi is None or hi - lo > 1:
        t = m - jump if down else min(m + jump, reach)
        jump *= 2
        probe(t if inside(t) else (lo + hi) // 2)
    return hi


def certified_log2_gap(q: int, n: int, params: GSParams) -> Tuple[float, float]:
    """(lower bound on log2(bound/count) when positive, else an upper bound
    below 0; log2 of the count), sign-certified."""
    sign, log2_count, edge = _certified_sides(q, n, params)
    gap = float(edge)  # rounded toward 0, so that the bound still holds
    if (gap > edge) if sign > 0 else (gap < edge):
        gap = nextafter(gap, 0.0)
    return gap, float(log2_count)


# -- blueprints -------------------------------------------------------------------

class BlueprintBlock(NamedTuple):
    """One inductive block: window degree cap c, tuple degree n, c' = n*c.

    j_count and margin are exact when they are within the effort caps and
    print (None otherwise, with the log2 diagnostics always present for
    non-toy blocks); degree_counts maps generator degree to count when
    exactly known.
    """

    k: int
    c: int
    c_prime: int
    q: int
    n: int
    j_count: Optional[int]
    j_count_log2: Optional[float]
    margin: Optional[Fraction]
    margin_log2_lo: Optional[float]
    min_degree: int
    max_degree: int
    degree_counts: Optional[Dict[int, int]]


def _summed_counts(blocks: Sequence[BlueprintBlock]) -> Dict[int, int]:
    """Degree -> generator count summed over the blocks with exact counts."""
    merged: Dict[int, int] = {}
    for block in blocks:
        for deg, cnt in (block.degree_counts or {}).items():
            merged[deg] = merged.get(deg, 0) + cnt
    return dict(sorted(merged.items()))


class GSBlueprint(NamedTuple):
    d: int
    eps: Optional[Fraction]
    mode: str
    toy: bool
    field: Optional[FieldDescriptor]
    blocks: Tuple[BlueprintBlock, ...]

    @property
    def params(self) -> Optional[GSParams]:
        return None if self.eps is None else GSParams(self.d, self.eps)

    def max_covered_degree(self) -> int:
        return max(block.c for block in self.blocks)

    def find_block(self, degree: int) -> Optional[BlueprintBlock]:
        """First block whose window cap covers the given degree."""
        for block in self.blocks:
            if block.c >= degree:
                return block
        return None

    def r_table(self) -> Dict[int, int]:
        """Exact degree -> generator count over all blocks.

        Raises TooLarge when any block's counts are beyond exact
        representation; Def-1 style soundness is then available through
        check_blueprint's per-block domination route instead.
        """
        for block in self.blocks:
            if block.degree_counts is None:
                raise TooLarge(
                    "block %d has no exact degree counts; use check_blueprint"
                    % block.k
                )
        return _summed_counts(self.blocks)

    def all_generators(self) -> List[Polynomial]:
        """A dense blueprint's window generators in weak-tuple order, made here."""
        return [p for block in self.blocks if self.mode == "dense"
                for _, p in window_generators(monomial_window(self.d, block.c), block.n, self.field)]


def build_blueprint(
    params: Optional[GSParams],
    num_blocks: int = 1,
    mode: str = "symbolic",
    *,
    d: Optional[int] = None,
    field: Optional[FieldDescriptor] = None,
    toy_c: Optional[int] = None,
    toy_n: Optional[int] = None,
) -> GSBlueprint:
    """Run the inductive block construction.

    Each block takes the smallest admissible window cap c = c'_prev + 1, the
    full monomial window of size q = d + d**2 + ... + d**c, and the minimal
    block degree n from minimal_power; its generator degrees lie in
    [n, n*c], strictly above the previous block's c'.  Dense mode counts
    the generators over the given field (default GF(2)) per degree, making
    none; the toy override (toy_c, toy_n) skips the eps-condition to keep
    the window small and is flagged as such.
    """
    if mode not in ("symbolic", "dense"):
        raise InvalidParams("mode must be 'symbolic' or 'dense', got %r" % (mode,))
    toy = toy_c is not None or toy_n is not None
    if toy:
        if toy_c is None or toy_n is None:
            raise InvalidParams("toy mode needs both toy_c and toy_n")
        if mode != "dense":
            raise InvalidParams("toy mode is a dense-mode override")
        if num_blocks != 1:
            raise InvalidParams("toy mode builds exactly one block")
        require_int(toy_c, "toy_c", 1)
        require_int(toy_n, "toy_n", 1)
    elif params is None:
        raise InvalidParams("params are required outside toy mode")
    if params is not None:
        if d is not None and d != params.d:
            raise InvalidParams("conflicting d: %r vs params.d = %d" % (d, params.d))
        d = params.d
    require_int(d, "d", 2)
    require_int(num_blocks, "num_blocks", 1)
    if mode == "dense":
        field = field if field is not None else GF2
    elif field is not None:
        raise InvalidParams("field applies to dense mode only")

    blocks: List[BlueprintBlock] = []
    c_prime_prev = 0
    for k in range(1, num_blocks + 1):
        if toy:
            c, n = toy_c, toy_n
        else:
            c = c_prime_prev + 1
            # size wall: for n <= N, C(n+q-1, n) >= (q/n)**n >= (q/N)**n while
            # eps**2 * u**(n-2) <= (u * max(1, (eps/u)**2))**n, so no n <= N
            # passes once q >= N * u * max(1, (eps/u)**2).  q >= d**c, and
            # minimal_power never probes past N = c + 2**200, so this refuses
            # only what its search would refuse, before q is built.
            reach = (c + 2**200) * ceil(params.u * max(1, (params.eps / params.u) ** 2))
            if c * (d.bit_length() - 1) >= reach.bit_length():
                raise TooLarge("block %d: window cap c=%d makes q >= %d**%d, beyond "
                               "any block degree the search reaches" % (k, c, d, c))
            q = window_size(d, c)
            n = minimal_power(q, c_prime_prev, params)
        c_prime = n * c

        j_count = j_log2 = margin = margin_lo = None
        if not toy:
            margin_lo, j_log2 = certified_log2_gap(q, n, params)
            if j_log2 <= EXACT_VALUE_BIT_CAP:
                count = comb(n + q - 1, n)
                j_count = _printable(count)
                if _envelope_bits(n, params) <= EXACT_VALUE_BIT_CAP:
                    margin = _printable(params.eps_sq * params.u ** (n - 2) - count)

        degree_counts: Optional[Dict[int, int]] = None
        if mode == "dense":
            # counted from (d, c, n), after the window's and the tuples' cap checks
            q, degree_counts = window_tuple_counts(d, c, n)
            if toy:
                j_count = sum(degree_counts.values())  # one generator per weak tuple
        elif c == 1 and j_count is not None:
            # a width-1 window makes every generator degree exactly n
            degree_counts = {n: j_count}

        if degree_counts:
            min_degree, max_degree = min(degree_counts), max(degree_counts)
        else:
            min_degree, max_degree = n, n * c

        blocks.append(
            BlueprintBlock(
                k=k,
                c=c,
                c_prime=c_prime,
                q=q,
                n=n,
                j_count=j_count,
                j_count_log2=j_log2,
                margin=margin,
                margin_log2_lo=margin_lo,
                min_degree=min_degree,
                max_degree=max_degree,
                degree_counts=degree_counts,
            )
        )
        c_prime_prev = c_prime

    return GSBlueprint(
        d=d,
        eps=None if params is None else params.eps,
        mode=mode,
        toy=toy,
        field=field,
        blocks=tuple(blocks),
    )


# -- blueprint verification --------------------------------------------------------

class BlockCheck(NamedTuple):
    k: int
    separation_ok: bool
    shape_ok: bool
    margin_ok: bool
    margin_route: str
    dominated_ok: bool
    dominated_route: str

    @property
    def ok(self) -> bool:
        return (
            self.separation_ok and self.shape_ok and self.margin_ok and self.dominated_ok
        )


class BlueprintReport(NamedTuple):
    ok: bool
    toy: bool
    blocks: Tuple[BlockCheck, ...]


def check_blueprint(bp: GSBlueprint) -> BlueprintReport:
    """Re-verify a blueprint's invariants from scratch.

    Per block: degree separation (n and hence every generator degree exceeds
    the previous c'), shape (c = c'_prev + 1 for non-toy, c' = n*c, q the
    window size, (min_degree, max_degree) the extreme keys of degree_counts,
    else (n, c')), margin (tuple count strictly below eps**2 * u**(n-2), the
    stored margin being the difference — exact Fractions when representable,
    certified logs otherwise), and domination, r_ell <= eps**2 * u**(ell-2):
    route "exact" runs check_bound_conditions on degree_counts when they are
    known and u**(max_degree-2) has at most EXACT_VALUE_BIT_CAP bits; route
    "dominated-by-count" has r_ell <= C(n+q-1, n) < eps**2*u**(n-2) <=
    eps**2*u**(ell-2) for ell >= n, as u > 1.  Toys skip the eps checks.
    """
    params = bp.params
    checks: List[BlockCheck] = []
    c_prime_prev = 0
    for block in bp.blocks:
        separation_ok = block.n > c_prime_prev and block.min_degree >= block.n
        counts = block.degree_counts
        shape_ok = (
            block.c_prime == block.n * block.c
            and block.q == window_size(bp.d, block.c)
            and (bp.toy or block.c == c_prime_prev + 1)
            and (block.min_degree, block.max_degree)
            == ((min(counts), max(counts)) if counts else (block.n, block.c_prime))
        )
        if bp.toy or params is None:
            margin_ok, margin_route = True, "skipped-toy"
            dominated_ok, dominated_route = True, "skipped-toy"
        else:
            if block.j_count is not None and block.margin is not None:
                margin_ok = (
                    block.margin > 0
                    and block.j_count == comb(block.n + block.q - 1, block.n)
                    and block.margin == params.eps_sq * params.u ** (block.n - 2) - block.j_count
                )
                margin_route = "exact"
            else:
                gap_lo, _ = certified_log2_gap(block.q, block.n, params)
                margin_ok = gap_lo > 0
                margin_route = "certified-log"
            if counts is not None and _envelope_bits(block.max_degree, params) <= EXACT_VALUE_BIT_CAP:
                dominated_ok = check_bound_conditions(counts, certificate_from_epsilon(params), block.max_degree).ok_a
                dominated_route = "exact"
            else:
                # every per-degree count is at most the block's tuple count
                dominated_ok = margin_ok and block.min_degree >= block.n and (
                    counts is None or max(counts.values(), default=0) <= comb(block.n + block.q - 1, block.n))
                dominated_route = "dominated-by-count"
        checks.append(
            BlockCheck(
                k=block.k,
                separation_ok=separation_ok,
                shape_ok=shape_ok,
                margin_ok=margin_ok,
                margin_route=margin_route,
                dominated_ok=dominated_ok,
                dominated_route=dominated_route,
            )
        )
        c_prime_prev = block.c_prime
    return BlueprintReport(
        ok=all(c.ok for c in checks), toy=bp.toy, blocks=tuple(checks)
    )


# -- serialization ------------------------------------------------------------------

def blueprint_to_dict(bp: GSBlueprint) -> dict:
    """JSON-ready dict; lossless, keys in the records' field order, then r."""
    blocks = [b._asdict() | {
        "margin": None if b.margin is None else str(b.margin),
        "degree_counts": None if b.degree_counts is None
        else {str(k): v for k, v in sorted(b.degree_counts.items())},
        "generators": None,  # the key of a stored generator list, kept for the format
    } for b in bp.blocks]
    return bp._asdict() | {
        "eps": None if bp.eps is None else str(Fraction(bp.eps)),
        "field": None if bp.field is None else str(bp.field),
        "blocks": blocks,
        "r": {str(deg): cnt for deg, cnt in _summed_counts(bp.blocks).items()},
    }


def _first_difference(built: dict, data: dict) -> str:
    """Where data first departs from its rebuild: a block and key, or a key."""

    def first_key(want: dict, got) -> str:
        got = got if isinstance(got, dict) else {}
        return next(
            key for key in [*want, *got]
            if key not in want or key not in got or want[key] != got[key]
        )

    for rec_built, rec in zip(built["blocks"], data["blocks"]):
        if rec_built != rec:
            return "block %d key %r" % (rec_built["k"], first_key(rec_built, rec))
    return "key %r" % first_key(built, data)


def _without_stale_keys(data: dict) -> dict:
    """data without each block's j_count_log2, margin_log2_lo and generators."""
    return dict(data, blocks=[
        {key: val for key, val in rec.items()
         if key not in ("j_count_log2", "margin_log2_lo", "generators")}
        if isinstance(rec, dict) else rec
        for rec in data["blocks"]
    ])


def blueprint_from_dict(data: dict) -> GSBlueprint:
    """Blueprint from its JSON form, rebuilt from the construction's inputs.

    Only d, eps, mode, field, toy and the number of blocks are read, plus c
    and n of a toy's one block; build_blueprint derives everything else, and
    the data must equal the rebuild's dict.  Malformed or refused inputs
    raise InvalidParams, and so does data that differs from its rebuild only
    in what an older build saved otherwise: the derived floats j_count_log2
    and margin_log2_lo, and generator lists.  Any other difference raises
    BlueprintMismatch.  Both name the first block and key that differ.
    """
    try:
        blocks, toy, eps, field = data["blocks"], data["toy"], data["eps"], data["field"]
        if not isinstance(blocks, list) or not blocks:
            raise InvalidParams("blocks must be a non-empty list")
        if not isinstance(toy, bool):
            raise InvalidParams("toy = %r is not a boolean" % (toy,))
        bp = build_blueprint(
            None if eps is None else GSParams(data["d"], parse_ratio(eps)),
            len(blocks),
            data["mode"],
            d=data["d"],
            field=None if field is None else parse_field(field),
            toy_c=blocks[0]["c"] if toy else None,
            toy_n=blocks[0]["n"] if toy else None,
        )
    except (InvalidParams, KeyError, TypeError, AttributeError) as exc:
        raise InvalidParams("malformed blueprint data: %s" % exc) from None
    built = blueprint_to_dict(bp)
    if built != data:
        where = _first_difference(built, data)
        if _without_stale_keys(built) == _without_stale_keys(data):
            raise InvalidParams("malformed blueprint data: %s holds a stale value; "
                                "rebuild the file with construct" % where)
        raise BlueprintMismatch("blueprint invariants FAILED: %s differs from its rebuild" % where)
    return bp


def save_blueprint(bp: GSBlueprint, path: str) -> None:
    import json

    write_text_atomic(path, json.dumps(blueprint_to_dict(bp), indent=2) + "\n")


def load_blueprint(path: str) -> GSBlueprint:
    return blueprint_from_dict(read_json(path, "blueprint"))


# -- nil certificates ----------------------------------------------------------------

class NilCertificate(NamedTuple):
    exponent: int
    block_index: int
    verified: bool


def nil_certificate(
    g: Polynomial, bp: GSBlueprint, table: Optional[GradedIdealTable] = None
) -> NilCertificate:
    """Nil exponent for g from the first block whose window covers deg g.

    The certificate is g**n in the ideal for n the covering block's degree
    parameter.  With a dense table supplied, the membership is actually
    verified by graded reduction, n multiplications by g in the quotient
    (GradedIdealTable.power_normal_form), and `verified` reports the outcome;
    without one the certificate stands by construction.
    """
    from .freealg import Polynomial

    if not isinstance(g, Polynomial):
        raise InvalidParams("nil_certificate expects a Polynomial")
    if g.constant_coefficient():
        raise ConstantTerm("g has a constant term; no power can vanish")
    deg = max(g.degree(), 0)
    block = bp.find_block(deg)
    if block is None:
        raise DegreeNotCovered(
            "degree %d exceeds the covered window degree %d"
            % (deg, bp.max_covered_degree())
        )
    verified = False
    if table is not None:
        verified = table.power_normal_form(g, block.n).is_zero()
    return NilCertificate(exponent=block.n, block_index=block.k, verified=verified)


def blueprint_table(bp: GSBlueprint) -> GradedIdealTable:
    """Graded table of a dense blueprint's ideal, up to the last block's c'.

    Nothing is built or made here: a query builds each degree it first
    needs, its rows those of the window generators over the multiset lattice
    of their weak tuples (graded.WindowRows), with no generator made.
    Generators that vanish over the field (orbit-sum collisions) add no row
    and are left out of table.generators; the construction's nominal counts
    stay in GSBlueprint.r_table().
    """
    from .graded import GradedIdealTable, WindowRows

    if bp.mode != "dense":
        raise InvalidParams("a dense blueprint is required")
    rows = WindowRows(bp.field, [(monomial_window(bp.d, block.c), block.n) for block in bp.blocks])
    return GradedIdealTable(rows, max(block.c_prime for block in bp.blocks))
