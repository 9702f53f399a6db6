"""Growth bounds and the inductive generator-sequence construction.

Three layers live here.  First, the certificate algebra: a parameter pair
(d, eps) with d - 2*eps > 1 reduces to a triple (v, c, u) = (eps, eps**2,
d - 2*eps) whose two conditions (generator counts dominated by c*u**(n-2),
and (v*d - c)/(v + u) >= v) force the quotient dimensions to grow at least
like (d - v)**n; verify_growth replays that induction line by line on a
concrete b-sequence.  Second, minimal_power finds the smallest block degree
n whose weak-tuple count C(n+q-1, q-1) drops below eps**2 * u**(n-2); the
count grows polynomially in n while the bound grows exponentially, so such
an n exists, and the log of bound/count is convex in n, so a gallop and
bisection on the comparison finds the least one.  Third, blueprints: the
block-by-block construction whose union of window generators bounds every
generator count by the block's tuple count while covering every low-degree
polynomial with a nil exponent.

All verdicts are exact.  Each count/bound comparison is a certified
multiprecision log comparison with an explicit error threshold and
precision escalation (block-2 boundary sizes reach 10**20-bit binomials);
an exact tie falls back to integer/Fraction arithmetic, and the boundary
found is re-confirmed exactly whenever the numbers are representable.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, nextafter
from typing import Dict, List, Optional, Sequence, Tuple

from .combinat import DEFAULT_ENUM_CAP
from .errors import (
    BlueprintMismatch,
    ConstantTerm,
    DegreeNotCovered,
    DimensionBoundViolated,
    InvalidParams,
    TooLarge,
)
from .field import GF2, FieldDescriptor, parse_field
from .freealg import Polynomial, poly_str
from .graded import DEFAULT_COLUMN_CAP, GradedIdealTable, build_table, validate_r
from .symfun import generator_degree, monomial_window, window_generators, window_size

# exact-arithmetic effort caps; beyond them verdicts come from the certified
# log path (see _certified_sides)
EXACT_VALUE_BIT_CAP = 50_000
EXACT_CONFIRM_BIT_CAP = 400_000
_DPS_LADDER = (40, 80, 160, 320, 640, 1280)


def parse_ratio(text: str) -> Fraction:
    """Exact rational from 'a' or 'a/b'; decimals are rejected on purpose."""
    if not isinstance(text, str) or not re.fullmatch(r"[+-]?\d+(/\d+)?", text.strip()):
        raise InvalidParams("expected an integer or num/den ratio, got %r" % (text,))
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise InvalidParams("ratio %r has a zero denominator" % (text,)) from None


def _as_fraction(x, what: str) -> Fraction:
    if isinstance(x, bool) or isinstance(x, float):
        raise InvalidParams("%s must be exact (int or Fraction), got %r" % (what, x))
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise InvalidParams("%s must be exact (int or Fraction), got %r" % (what, x))


# -- parameters and certificates ------------------------------------------------

@dataclass(frozen=True)
class GSParams:
    """Ambient rank d and the accuracy parameter eps, with d - 2*eps > 1."""

    d: int
    eps: Fraction

    def __post_init__(self):
        if not isinstance(self.d, int) or isinstance(self.d, bool) or self.d < 2:
            raise InvalidParams("d must be an integer >= 2, got %r" % (self.d,))
        object.__setattr__(self, "eps", _as_fraction(self.eps, "eps"))
        if self.eps <= 0:
            raise InvalidParams("eps must be positive, got %s" % (self.eps,))
        if self.d - 2 * self.eps <= 1:
            raise InvalidParams(
                "need d - 2*eps > 1, got %s" % (self.d - 2 * self.eps,)
            )

    @property
    def u(self) -> Fraction:
        return self.d - 2 * self.eps

    @property
    def eps_sq(self) -> Fraction:
        return self.eps * self.eps


@dataclass(frozen=True)
class BoundCertificate:
    """A (v, c, u) triple certifying growth at least (d - v)**n."""

    d: int
    v: Fraction
    c: Fraction
    u: Fraction

    def __post_init__(self):
        if not isinstance(self.d, int) or isinstance(self.d, bool) or self.d < 2:
            raise InvalidParams("d must be an integer >= 2, got %r" % (self.d,))
        for name in ("v", "c", "u"):
            val = _as_fraction(getattr(self, name), name)
            object.__setattr__(self, name, val)
            if val <= 0:
                raise InvalidParams("%s must be positive, got %s" % (name, val))

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


@dataclass(frozen=True)
class BoundConditionReport:
    ok: bool
    ok_a: bool
    first_violation: Optional[int]
    ok_b: bool
    b_value: Fraction
    v: Fraction


def check_bound_conditions(
    r: Dict[int, int], cert: BoundCertificate, max_degree: int
) -> BoundConditionReport:
    """Exact check of both certificate conditions against a generator table.

    (a): r_ell <= c * u**(ell-2) for 2 <= ell <= max_degree;
    (b): (v*d - c)/(v + u) >= v.
    """
    validate_r(r)
    if not isinstance(max_degree, int) or isinstance(max_degree, bool) or max_degree < 0:
        raise InvalidParams("max_degree must be a nonnegative integer")
    if max_degree > 100_000:
        raise TooLarge(
            "exact power checks capped at degree 100000; got %d" % max_degree
        )
    first = None
    bound = cert.c  # c * u**(ell-2) at ell = 2, multiplied up incrementally
    for ell in range(2, max_degree + 1):
        if r.get(ell, 0) > bound:
            first = ell
            break
        bound *= cert.u
    ok_b = cert.condition_b_holds
    return BoundConditionReport(
        ok=first is None and ok_b,
        ok_a=first is None,
        first_violation=first,
        ok_b=ok_b,
        b_value=cert.condition_b_value,
        v=cert.v,
    )


# -- the growth ledger -----------------------------------------------------------

@dataclass(frozen=True)
class LedgerLine:
    kind: str
    n: int
    lhs: Fraction
    rhs: Fraction
    ok: bool


@dataclass(frozen=True)
class GrowthReport:
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
    b = list(b)
    if not b or b[0] != 1:
        raise InvalidParams("b must start with b_0 = 1")
    if len(b) > 1 and b[1] != cert.d:
        raise InvalidParams("b_1 must equal d = %d, got %r" % (cert.d, b[1]))
    for n, val in enumerate(b):
        if not isinstance(val, int) or isinstance(val, bool) or val < 0:
            raise InvalidParams("b_%d = %r is not a nonnegative integer" % (n, val))
    validate_r(r)
    N = len(b) - 1
    d = cert.d
    for n in range(2, N + 1):
        bound = d * b[n - 1] - sum(r.get(n - j, 0) * b[j] for j in range(n - 1))
        if b[n] < bound:
            raise DimensionBoundViolated(
                "b_%d = %d is below the degree-wise bound %d implied by r"
                % (n, b[n], bound)
            )

    v, c, u = cert.v, cert.c, cert.u
    base = cert.growth_base
    lines: List[LedgerLine] = []
    for n in range(N):
        lhs = v * b[n + 1]
        rhs = sum(c * u ** (n - j) * b[j] for j in range(n + 1))
        lines.append(LedgerLine("weighted_tail", n, lhs, rhs, lhs >= rhs))
    for n in range(max(N - 1, 0)):
        lhs = v * b[n + 1]
        rhs = Fraction(sum(r.get(n + 2 - j, 0) * b[j] for j in range(n + 1)))
        lines.append(LedgerLine("generator_tail", n, lhs, rhs, lhs >= rhs))
    for n in range(max(N - 1, 0)):
        lhs = Fraction(b[n + 2])
        rhs = base * b[n + 1]
        lines.append(LedgerLine("stepwise_ratio", n, lhs, rhs, lhs >= rhs))
    for n in range(N + 1):
        lhs = Fraction(b[n])
        rhs = base**n
        lines.append(LedgerLine("power_bound", n, lhs, rhs, lhs >= rhs))
    return GrowthReport(ok=all(line.ok for line in lines), lines=tuple(lines))


# -- minimal block degree ----------------------------------------------------------

def _certified_sides(q: int, n: int, params: GSParams):
    """Certified sign of eps**2 * u**(n-2) - C(n+q-1, q-1), via logs.

    Returns (sign, log2_count, gap_log2) as mpf values at working precision
    (the sides reach 10**20 while the gap sits near 0.1), gap_log2 being the
    end of the gap's enclosure nearest 0, (diff -+ thresh)/ln 2.  The sign is
    accepted only when |diff| exceeds thresh = (|lhs|+|rhs|+1) *
    10**(12 - dps), escalating the working precision otherwise; an exact tie
    therefore raises TooLarge instead of guessing.
    """
    import mpmath as mp
    en, ed = params.eps.numerator, params.eps.denominator
    un, ud = params.u.numerator, params.u.denominator
    for dps in _DPS_LADDER:
        with mp.workdps(dps):
            ln_count = mp.loggamma(n + q) - mp.loggamma(n + 1) - mp.loggamma(q)
            ln_bound = 2 * (mp.log(en) - mp.log(ed)) + (n - 2) * (
                mp.log(un) - mp.log(ud)
            )
            diff = ln_bound - ln_count
            thresh = (abs(ln_bound) + abs(ln_count) + 1) * mp.mpf(10) ** (12 - dps)
            if abs(diff) > thresh:
                ln2 = mp.log(2)
                edge = diff - thresh if diff > 0 else diff + thresh
                return (1 if diff > 0 else -1), ln_count / ln2, edge / ln2
    raise TooLarge(
        "could not certify the count/bound comparison at q=%d, n=%d "
        "within precision limits" % (q, n)
    )


def _exact_predicate(q: int, n: int, params: GSParams, log2_count: float):
    """Exact C(n+q-1, q-1) < eps**2 * u**(n-2), or None beyond the bit caps."""
    if log2_count > EXACT_CONFIRM_BIT_CAP:
        return None
    scale = max(
        params.u.numerator.bit_length(), params.u.denominator.bit_length()
    )
    if (n - 2) * scale > 4 * EXACT_CONFIRM_BIT_CAP:
        return None
    count = comb(n + q - 1, n)
    return count < params.eps_sq * params.u ** (n - 2)


def minimal_power(q: int, c_prev: int, params: GSParams) -> int:
    """Smallest n > c_prev with C(n+q-1, q-1) < eps**2 * (d-2*eps)**(n-2).

    The predicate is the certified log comparison, settled in exact
    arithmetic when the two sides tie to working precision.  It is tested at
    n_lo = max(c_prev + 1, 2); if false there, the search gallops upward
    from n_lo in doubling steps until it holds and bisects the last bracket.
    Bisection is sound because the log-gap ln(eps**2 * u**(n-2)) -
    ln C(n+q-1, q-1) is convex in n: its increment ln u - ln((n+q)/(n+1))
    grows with n.  A convex gap that is not positive at n_lo and at some
    m > n_lo is not positive anywhere in between, so above a false n_lo the
    false region is a prefix and the true region the rest.  The boundary is
    re-confirmed exactly whenever the binomial still fits the confirm cap.
    """
    if not isinstance(q, int) or isinstance(q, bool) or q < 2:
        raise InvalidParams("q must be an integer >= 2, got %r" % (q,))
    if not isinstance(c_prev, int) or isinstance(c_prev, bool) or c_prev < 0:
        raise InvalidParams("c_prev must be a nonnegative integer, got %r" % (c_prev,))
    import mpmath as mp
    n_lo = max(c_prev + 1, 2)

    def rough_log2_count(m: int) -> float:
        # cost gate only; accuracy needs are mild even when the sign isn't
        # certifiable (ties are near-equalities, not wild values)
        with mp.workdps(40):
            v = mp.loggamma(m + q) - mp.loggamma(m + 1) - mp.loggamma(q)
            return float(v / mp.log(2))

    cache: Dict[int, bool] = {}

    def pred(m: int) -> bool:
        if m not in cache:
            try:
                cache[m] = _certified_sides(q, m, params)[0] > 0
            except TooLarge:
                exact = _exact_predicate(q, m, params, rough_log2_count(m))
                if exact is None:
                    raise
                cache[m] = exact
        return cache[m]

    # gallop through n_lo, n_lo + 1, n_lo + 2, n_lo + 4, ...; lo trails as
    # the last false probe
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

    # exact boundary confirmation when representable
    ok_hi = _exact_predicate(q, hi, params, rough_log2_count(hi))
    if ok_hi is False:
        raise AssertionError(
            "certified search and exact arithmetic disagree at n=%d; this is a bug" % hi
        )
    if hi - 1 >= n_lo:
        ok_prev = _exact_predicate(q, hi - 1, params, rough_log2_count(hi - 1))
        if ok_prev is True:
            raise AssertionError(
                "certified search missed an earlier block degree at n=%d; this is a bug"
                % (hi - 1)
            )
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

@dataclass(frozen=True)
class BlueprintBlock:
    """One inductive block: window degree cap c, tuple degree n, c' = n*c.

    j_count and margin are exact when representable (None otherwise, with
    the log2 diagnostics always present for non-toy blocks); degree_counts
    maps generator degree to count when exactly known.
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
    generators: Optional[Tuple[Polynomial, ...]]


def _summed_counts(blocks: Sequence[BlueprintBlock]) -> Dict[int, int]:
    """Degree -> generator count summed over the blocks with exact counts."""
    merged: Dict[int, int] = {}
    for block in blocks:
        for deg, cnt in (block.degree_counts or {}).items():
            merged[deg] = merged.get(deg, 0) + cnt
    return dict(sorted(merged.items()))


@dataclass(frozen=True)
class GSBlueprint:
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
        out: List[Polynomial] = []
        for block in self.blocks:
            if block.generators:
                out.extend(block.generators)
        return out


def build_blueprint(
    params: Optional[GSParams],
    num_blocks: int = 1,
    mode: str = "symbolic",
    *,
    d: Optional[int] = None,
    field: Optional[FieldDescriptor] = None,
    toy_c: Optional[int] = None,
    toy_n: Optional[int] = None,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> GSBlueprint:
    """Run the inductive block construction.

    Each block takes the smallest admissible window cap c = c'_prev + 1, the
    full monomial window of size q = d + d**2 + ... + d**c, and the minimal
    block degree n from minimal_power; its generator degrees lie in
    [n, n*c], strictly above the previous block's c'.  Dense mode
    materializes the window generators over the given field (default GF(2));
    the toy override (toy_c, toy_n) skips the eps-condition to keep the
    materialization small and is flagged as such.
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
        for name, val in (("toy_c", toy_c), ("toy_n", toy_n)):
            if not isinstance(val, int) or isinstance(val, bool) or val < 1:
                raise InvalidParams("%s must be a positive integer" % name)
    else:
        if params is None:
            raise InvalidParams("params are required outside toy mode")
    if params is not None:
        if d is not None and d != params.d:
            raise InvalidParams("conflicting d: %r vs params.d = %d" % (d, params.d))
        d = params.d
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise InvalidParams("d must be an integer >= 2, got %r" % (d,))
    if not isinstance(num_blocks, int) or isinstance(num_blocks, bool) or num_blocks < 1:
        raise InvalidParams("num_blocks must be a positive integer")
    if mode == "dense":
        field = field if field is not None else GF2
    elif field is not None:
        raise InvalidParams("field applies to dense mode only")

    blocks: List[BlueprintBlock] = []
    c_prime_prev = 0
    for k in range(1, num_blocks + 1):
        if toy:
            c, n = toy_c, toy_n
            q = window_size(d, c)
        else:
            c = c_prime_prev + 1
            q = window_size(d, c)
            n = minimal_power(q, c_prime_prev, params)
        c_prime = n * c

        j_count = j_log2 = margin = margin_lo = None
        if not toy:
            gap_lo, log2_count = certified_log2_gap(q, n, params)
            j_log2 = log2_count
            margin_lo = gap_lo
            if log2_count <= EXACT_VALUE_BIT_CAP:
                j_count = comb(n + q - 1, n)
                scale = max(
                    params.u.numerator.bit_length(),
                    params.u.denominator.bit_length(),
                )
                if (n - 2) * scale <= EXACT_VALUE_BIT_CAP:
                    margin = params.eps_sq * params.u ** (n - 2) - j_count

        generators = None
        degree_counts: Optional[Dict[int, int]] = None
        if mode == "dense":
            window = monomial_window(d, c, cap=enum_cap)
            pairs = window_generators(window, n, field, cap=enum_cap)
            generators = tuple(p for _, p in pairs)
            counts = Counter(generator_degree(j, window) for j, _ in pairs)
            degree_counts = dict(sorted(counts.items()))
            if toy:
                # one generator per weak tuple; counted after the window's cap check
                j_count = len(pairs)
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
                generators=generators,
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

@dataclass(frozen=True)
class BlockCheck:
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


@dataclass(frozen=True)
class BlueprintReport:
    ok: bool
    toy: bool
    blocks: Tuple[BlockCheck, ...]


def check_blueprint(bp: GSBlueprint) -> BlueprintReport:
    """Re-verify a blueprint's invariants from scratch.

    Per block: degree separation (n and hence every generator degree exceeds
    the previous c'), shape (c = c'_prev + 1 for non-toy, c' = n*c, q the
    window size), margin (tuple count strictly below eps**2 * u**(n-2) —
    exact Fractions when representable, certified logs otherwise), and
    domination (every generator count r_ell within the eps**2 * u**(ell-2)
    envelope — exact per-degree when counts are exact, otherwise via
    r_ell <= j_count < eps**2*u**(n-2) <= eps**2*u**(ell-2) for ell >= n,
    which is valid because u > 1).  Toy blueprints skip the eps checks.
    """
    params = bp.params
    checks: List[BlockCheck] = []
    c_prime_prev = 0
    for block in bp.blocks:
        separation_ok = block.n > c_prime_prev and block.min_degree >= block.n
        shape_ok = (
            block.c_prime == block.n * block.c
            and block.q == window_size(bp.d, block.c)
            and (bp.toy or block.c == c_prime_prev + 1)
        )
        if bp.toy or params is None:
            margin_ok, margin_route = True, "skipped-toy"
            dominated_ok, dominated_route = True, "skipped-toy"
        else:
            if block.j_count is not None and block.margin is not None:
                margin_ok = block.margin > 0 and block.j_count == comb(
                    block.n + block.q - 1, block.n
                )
                margin_route = "exact"
            else:
                gap_lo, _ = certified_log2_gap(block.q, block.n, params)
                margin_ok = gap_lo > 0
                margin_route = "certified-log"
            if block.degree_counts is not None:
                dominated_ok = all(
                    cnt <= params.eps_sq * params.u ** (deg - 2)
                    for deg, cnt in block.degree_counts.items()
                )
                dominated_route = "exact"
            else:
                # every per-degree count is at most the block's tuple count
                dominated_ok = margin_ok and params.u > 1 and block.min_degree >= block.n
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
    """JSON-ready dict; lossless, fixed key order."""
    return {
        "d": bp.d,
        "eps": None if bp.eps is None else str(Fraction(bp.eps)),
        "mode": bp.mode,
        "toy": bp.toy,
        "field": None if bp.field is None else str(bp.field),
        "blocks": [
            {
                "k": b.k,
                "c": b.c,
                "c_prime": b.c_prime,
                "q": b.q,
                "n": b.n,
                "j_count": b.j_count,
                "j_count_log2": b.j_count_log2,
                "margin": None if b.margin is None else str(b.margin),
                "margin_log2_lo": b.margin_log2_lo,
                "min_degree": b.min_degree,
                "max_degree": b.max_degree,
                "degree_counts": None
                if b.degree_counts is None
                else {str(k): v for k, v in sorted(b.degree_counts.items())},
                "generators": None
                if b.generators is None
                else [poly_str(p) for p in b.generators],
            }
            for b in bp.blocks
        ],
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


def blueprint_from_dict(data: dict) -> GSBlueprint:
    """Blueprint from its JSON form, rebuilt from the construction's inputs.

    Only d, eps, mode, field, toy and the number of blocks are read, plus c
    and n of a toy's one block; build_blueprint derives everything else, and
    the data must equal the rebuild's dict.  Malformed or refused inputs
    raise InvalidParams; data that differs from its rebuild raises
    BlueprintMismatch naming the first block and key that differ.
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
        raise BlueprintMismatch(
            "blueprint invariants FAILED: %s differs from its rebuild"
            % _first_difference(built, data)
        )
    return bp


def write_text_atomic(path: str, text: str) -> None:
    """Write text to path all at once or not at all.

    The text goes to a new file beside path, is flushed to disk and then
    renamed over path, so a failed write leaves an earlier file unchanged
    and removes its own temporary file.  Write errors raise InvalidParams.
    """
    tmp = os.path.join(
        os.path.dirname(os.path.abspath(path)),
        ".%s.%s.tmp" % (os.path.basename(path), os.urandom(4).hex()),
    )
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise InvalidParams("cannot write %s: %s" % (path, exc)) from None


def save_blueprint(bp: GSBlueprint, path: str) -> None:
    write_text_atomic(path, json.dumps(blueprint_to_dict(bp), indent=2) + "\n")


def load_blueprint(path: str) -> GSBlueprint:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers json.JSONDecodeError and undecodable bytes;
        # RecursionError a file nested deeper than the decoder recurses
        raise InvalidParams("cannot read blueprint %s: %s" % (path, exc)) from None
    return blueprint_from_dict(data)


# -- nil certificates ----------------------------------------------------------------

@dataclass(frozen=True)
class NilCertificate:
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


def blueprint_table(
    bp: GSBlueprint,
    maxdeg: Optional[int] = None,
    *,
    column_cap: int = DEFAULT_COLUMN_CAP,
) -> GradedIdealTable:
    """Graded table of a dense blueprint's ideal.

    Generators that vanish over the field (orbit-sum collisions) are
    excluded from the row space but still counted in the nominal r table, so
    bound reports reflect the construction's accounting.
    """
    if bp.mode != "dense" or any(block.generators is None for block in bp.blocks):
        raise InvalidParams("a dense blueprint with materialized generators is required")
    gens = [p for p in bp.all_generators() if not p.is_zero()]
    r_nominal = _summed_counts(bp.blocks)
    if maxdeg is None:
        maxdeg = max(block.c_prime for block in bp.blocks)
    return build_table(
        gens,
        maxdeg,
        d=bp.d,
        field=bp.field,
        column_cap=column_cap,
        r_override=r_nominal,
    )
