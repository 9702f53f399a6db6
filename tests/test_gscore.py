"""Certificates, growth ledgers, minimal block degrees, and blueprints."""

import itertools
import json
import math
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gsalg import gscore
from gsalg.errors import (
    ConstantTerm,
    DegreeExceedsTable,
    DegreeNotCovered,
    DimensionBoundViolated,
    InvalidParams,
    TooLarge,
)
from gsalg.field import GF2, QQ, FieldDescriptor
from gsalg.freealg import Polynomial, parse_poly
from gsalg.graded import build_table
from gsalg.symfun import monomial_window
from gsalg.gscore import (
    BoundCertificate,
    GSParams,
    LedgerLine,
    blueprint_from_dict,
    blueprint_table,
    blueprint_to_dict,
    build_blueprint,
    certificate_from_epsilon,
    _certified_sides,
    certified_log2_gap,
    check_blueprint,
    check_bound_conditions,
    load_blueprint,
    minimal_power,
    nil_certificate,
    parse_ratio,
    save_blueprint,
    verify_growth,
)

from oracles import (
    EXACT_COMB_K,
    brute_minimal_n,
    certified_predicate,
    dense_bound_conditions,
    exact_log2_comb_bounds,
    fibonacci,
    gallop_minimal_power,
    log2_comb_bounds,
    log2_envelope_bounds,
    naive_dimension_table,
)

P2 = GSParams(2, Fraction(9, 20))  # u = 11/10
P3 = GSParams(3, Fraction(1, 2))  # u = 2


@pytest.fixture(scope="module")
def bp2():
    return build_blueprint(P2, num_blocks=2)


@pytest.fixture(scope="module")
def bp3():
    return build_blueprint(P3, num_blocks=2)


@pytest.fixture(scope="module")
def toy13():
    return build_blueprint(None, mode="dense", d=2, toy_c=1, toy_n=3, field=FieldDescriptor(5))


@pytest.fixture(scope="module")
def toy22():
    return build_blueprint(None, mode="dense", d=2, toy_c=2, toy_n=2)


# -- parameter parsing and validation ----------------------------------------------


def test_parse_ratio():
    assert parse_ratio("9/20") == Fraction(9, 20)
    assert parse_ratio("-3/4") == Fraction(-3, 4)
    assert parse_ratio("+2") == Fraction(2)
    assert parse_ratio("7") == Fraction(7)
    for bad in ("0.45", "1/0", "", "3/", "1 / 2", "a/b", "1e-3"):
        with pytest.raises(InvalidParams):
            parse_ratio(bad)


def test_gsparams_validation():
    p = GSParams(2, Fraction(2, 5))
    assert p.u == Fraction(6, 5)
    assert p.eps_sq == Fraction(4, 25)
    with pytest.raises(InvalidParams):
        GSParams(2, Fraction(1, 2))  # d - 2*eps = 1, not > 1
    with pytest.raises(InvalidParams):
        GSParams(2, Fraction(0))
    with pytest.raises(InvalidParams):
        GSParams(2, Fraction(-1, 4))
    with pytest.raises(InvalidParams):
        GSParams(1, Fraction(1, 4))
    with pytest.raises(InvalidParams):
        GSParams(2, 0.4)  # floats are not exact


# -- the canonical certificate ------------------------------------------------------


def test_reduction_frozen_examples():
    cert = certificate_from_epsilon(GSParams(2, Fraction(2, 5)))
    assert (cert.v, cert.c, cert.u) == (
        Fraction(2, 5),
        Fraction(4, 25),
        Fraction(6, 5),
    )
    assert cert.condition_b_value == Fraction(2, 5)
    assert cert.condition_b_holds
    assert cert.growth_base == Fraction(8, 5)

    cert3 = certificate_from_epsilon(P3)
    assert (cert3.v, cert3.c, cert3.u) == (Fraction(1, 2), Fraction(1, 4), Fraction(2))
    assert cert3.condition_b_value == Fraction(1, 2)
    assert cert3.growth_base == Fraction(5, 2)


def test_certificate_requires_positive_entries():
    with pytest.raises(InvalidParams):
        BoundCertificate(2, Fraction(0), Fraction(1, 4), Fraction(6, 5))
    with pytest.raises(InvalidParams):
        BoundCertificate(2, Fraction(1, 5), Fraction(-1), Fraction(6, 5))


def test_params_and_certificate_are_validated_immutable_values():
    # like FieldDescriptor: fields cannot be assigned, and a copy made by
    # _replace passes the same checks as a new value
    params = GSParams(3, Fraction(1, 2))
    cert = certificate_from_epsilon(params)
    with pytest.raises(AttributeError):
        params.eps = Fraction(1, 3)
    with pytest.raises(AttributeError):
        cert.v = Fraction(1)
    with pytest.raises(InvalidParams):
        params._replace(eps=Fraction(2))  # d - 2*eps = -1
    with pytest.raises(InvalidParams):
        cert._replace(v=0)
    assert params._replace(d=4, eps=1) == GSParams(d=4, eps=Fraction(1))
    assert type(params._replace(d=4, eps=1).eps) is Fraction
    assert cert._replace(c=Fraction(1, 5)).c == Fraction(1, 5)
    assert repr(params) == "GSParams(d=3, eps=Fraction(1, 2))"
    assert repr(cert) == ("BoundCertificate(d=3, v=Fraction(1, 2), c=Fraction(1, 4), "
                          "u=Fraction(2, 1))")


@st.composite
def _valid_params(draw):
    d = draw(st.integers(min_value=2, max_value=9))
    den = draw(st.integers(min_value=3, max_value=60))
    # 2*num <= den*(d-1) - 1 gives d - 2*eps >= 1 + 1/den > 1 strictly
    top = (den * (d - 1) - 1) // 2
    num = draw(st.integers(min_value=1, max_value=top))
    return GSParams(d, Fraction(num, den))


@given(_valid_params())
def test_reduction_equality_property(params):
    cert = certificate_from_epsilon(params)
    assert cert.condition_b_value == params.eps
    assert cert.condition_b_holds


# -- condition checks ---------------------------------------------------------------


def test_conditions_empty_r():
    cert = certificate_from_epsilon(GSParams(2, Fraction(2, 5)))
    rep = check_bound_conditions({}, cert, 30)
    assert rep.ok and rep.ok_a and rep.ok_b
    assert rep.first_violation is None
    assert rep.b_value == Fraction(2, 5)


def test_conditions_quadratic_generator_fails():
    cert = certificate_from_epsilon(GSParams(2, Fraction(2, 5)))
    rep = check_bound_conditions({2: 1}, cert, 10)
    assert not rep.ok and not rep.ok_a
    assert rep.first_violation == 2
    assert rep.ok_b


def test_conditions_degree13_passes():
    cert = certificate_from_epsilon(GSParams(2, Fraction(2, 5)))
    # independent check of the same inequality before trusting the verdict
    assert Fraction(4, 25) * Fraction(6, 5) ** 11 > 1
    rep = check_bound_conditions({13: 1}, cert, 20)
    assert rep.ok and rep.first_violation is None


def test_conditions_boundary_equality_allowed():
    cert = BoundCertificate(3, Fraction(1), Fraction(1), Fraction(2))
    rep = check_bound_conditions({2: 1}, cert, 5)
    assert rep.ok_a  # r_2 = 1 <= c * u**0 = 1


def test_conditions_input_validation():
    cert = certificate_from_epsilon(P3)
    with pytest.raises(InvalidParams):
        check_bound_conditions({1: 1}, cert, 5)
    with pytest.raises(InvalidParams):
        check_bound_conditions({}, cert, -1)
    with pytest.raises(TooLarge):
        check_bound_conditions({}, cert, 200_000)


# u near 1, above and below it, keeps the envelope within reach of the
# counts for hundreds of degrees
_HUNDREDTHS = st.builds(Fraction, st.integers(1, 400), st.just(100))
_U = st.builds(Fraction, st.integers(90, 110), st.just(100)) | _HUNDREDTHS


@st.composite
def _condition_cases(draw):
    """A certificate, a sparse r of degrees 2..300 whose counts are 0 or
    within one of the envelope's floor, and a max_degree in 0..300."""
    cert = draw(st.builds(BoundCertificate, st.integers(2, 5), _HUNDREDTHS, _HUNDREDTHS, _U))
    r = {}
    for k in draw(st.lists(st.integers(2, 300), max_size=12, unique=True)):
        step = draw(st.sampled_from([None, -1, 0, 1]))
        r[k] = 0 if step is None else max(0, math.floor(cert.c * cert.u ** (k - 2)) + step)
    if draw(st.booleans()):
        r.update({0: 0, 1: 0})
    return r, cert, draw(st.sampled_from([0, 300, *r]) | st.integers(0, 300))


@given(_condition_cases())
def test_conditions_match_the_loop_over_every_degree(case):
    # skipping the empty degrees and multiplying by u**gap gives the report
    # of the loop over every degree
    r, cert, max_degree = case
    assert check_bound_conditions(r, cert, max_degree) == dense_bound_conditions(r, cert, max_degree)


# -- the growth ledger ----------------------------------------------------------------


def test_growth_ledger_full_algebra():
    cert = certificate_from_epsilon(P3)
    b = [3**n for n in range(6)]
    rep = verify_growth(b, {}, cert)
    assert rep.ok and rep.first_failure is None
    kinds = {}
    for line in rep.lines:
        kinds[line.kind] = kinds.get(line.kind, 0) + 1
        assert line.ok
    n_top = len(b) - 1
    assert kinds == {
        "weighted_tail": n_top,
        "generator_tail": n_top - 1,
        "stepwise_ratio": n_top - 1,
        "power_bound": n_top + 1,
    }
    assert len(rep.lines) == 4 * n_top - 1 == 19
    # one line replayed by hand: weighted tail at n=2
    line = next(l for l in rep.lines if l.kind == "weighted_tail" and l.n == 2)
    assert line.lhs == Fraction(1, 2) * 27
    assert line.rhs == Fraction(1, 4) * (4 * 1 + 2 * 3 + 1 * 9)


def test_growth_ledger_failure_located():
    cert = certificate_from_epsilon(GSParams(2, Fraction(2, 5)))
    # r_2 = 4 drives the degree-2 bound to zero, so b = (1,2,0,0) is
    # consistent with the recurrence yet fails the growth lines
    rep = verify_growth([1, 2, 0, 0], {2: 4}, cert)
    assert not rep.ok
    first = rep.first_failure
    assert first.kind == "weighted_tail" and first.n == 1
    assert first.lhs == 0
    assert first.rhs == Fraction(4, 25) * Fraction(6, 5) + Fraction(4, 25) * 2


def test_growth_rejects_inconsistent_b():
    cert = certificate_from_epsilon(P3)
    with pytest.raises(DimensionBoundViolated):
        verify_growth([1, 3, 0], {}, cert)


def test_growth_input_validation():
    cert = certificate_from_epsilon(P3)
    with pytest.raises(InvalidParams):
        verify_growth([2, 3], {}, cert)  # b_0 != 1
    with pytest.raises(InvalidParams):
        verify_growth([1, 2], {}, cert)  # b_1 != d
    with pytest.raises(InvalidParams):
        verify_growth([1, 3, -1], {}, cert)
    with pytest.raises(InvalidParams):
        verify_growth([1, 3, 9.0], {}, cert)


# several degrees, with the zero-count keys 0 and 1 and a degree past N = 29
@pytest.mark.parametrize("r", [{2: 1}, {0: 0, 1: 0, 2: 1, 3: 2, 7: 0, 13: 5, 40: 1}],
                         ids=["r2", "several-degrees"])
def test_growth_ledger_matches_its_definitions(r):
    cert = certificate_from_epsilon(GSParams(2, Fraction(2, 5)))
    b = [fibonacci(n + 2) for n in range(30)]  # b_n >= 2*b_{n-1} - b_{n-2}
    v, c, u, base, N = cert.v, cert.c, cert.u, cert.growth_base, len(b) - 1
    sides = (
        [("weighted_tail", n, v * b[n + 1], sum(c * u ** (n - j) * b[j] for j in range(n + 1)))
         for n in range(N)]
        + [("generator_tail", n, v * b[n + 1],
            Fraction(sum(r.get(n + 2 - j, 0) * b[j] for j in range(n + 1)))) for n in range(N - 1)]
        + [("stepwise_ratio", n, Fraction(b[n + 2]), base * b[n + 1]) for n in range(N - 1)]
        + [("power_bound", n, Fraction(b[n]), base**n) for n in range(N + 1)]
    )
    want = tuple(LedgerLine(kind, n, lhs, rhs, lhs >= rhs) for kind, n, lhs, rhs in sides)
    assert repr(verify_growth(b, r, cert).lines) == repr(want)


def test_growth_ledger_is_fast_on_a_long_sequence():
    cert = certificate_from_epsilon(GSParams(3, Fraction(9, 20)))
    b = [3**n for n in range(800)]
    start = time.perf_counter()
    rep = verify_growth(b, {}, cert)
    assert time.perf_counter() - start < 1.0
    assert rep.ok and len(rep.lines) == 4 * 799 - 1


# -- minimal block degree ---------------------------------------------------------------


def test_minimal_power_frozen_values():
    assert minimal_power(2, 0, P2) == 63
    assert minimal_power(3, 0, P3) == 11
    assert minimal_power(2, 0, P3) == 8


def test_minimal_power_strict_inequality_boundary():
    # at n=7 the count ties the envelope exactly (8 = (1/4)*2**5); the tie
    # must not count, pushing the answer to 8 where 9 < 16
    assert comb(7 + 1, 1) == 8 == Fraction(1, 4) * Fraction(2) ** 5
    assert comb(8 + 1, 1) == 9 < Fraction(1, 4) * Fraction(2) ** 6
    assert minimal_power(2, 0, P3) == 8


def test_minimal_power_respects_c_prev():
    assert minimal_power(2, 10, P3) == 11
    assert minimal_power(2, 63, P2) == 64
    # c_prev above the natural threshold just shifts the start of the scan
    assert minimal_power(3, 11, P3) == 12


def test_minimal_power_matches_brute_oracle():
    cases = [
        (2, 0, P2),
        (3, 0, P3),
        (2, 0, P3),
        (6, 0, P3),
        (6, 0, P2),
        (12, 2, P3),
    ]
    for q, c_prev, params in cases:
        want = brute_minimal_n(q, c_prev, params.eps, params.u, limit=2000)
        assert minimal_power(q, c_prev, params) == want
    # u = 1001/1000 puts the boundary at n = 10672, where the log gap is
    # inside the Stirling bounds' width at q = 2; the oracle takes this
    # count exactly and settles both sides
    params = GSParams(2, Fraction(999, 2000))
    want = brute_minimal_n(2, 0, params.eps, params.u, limit=20_000)
    assert minimal_power(2, 0, params) == want == 10672
    assert certified_predicate(2, want, params.eps, params.u)
    assert not certified_predicate(2, want - 1, params.eps, params.u)


@st.composite
def _minimal_power_cases(draw):
    q = draw(st.integers(min_value=2, max_value=12))
    c_prev = draw(st.integers(min_value=0, max_value=30))
    d = draw(st.integers(min_value=2, max_value=5))
    den = draw(st.integers(min_value=3, max_value=30))
    # 20*num <= den*(10*d - 11) gives u = d - 2*eps >= 11/10
    top = den * (10 * d - 11) // 20
    num = draw(st.integers(min_value=1, max_value=top))
    return q, c_prev, GSParams(d, Fraction(num, den))


@given(_minimal_power_cases())
def test_minimal_power_matches_brute_oracle_on_random_params(case):
    q, c_prev, params = case
    try:
        want = brute_minimal_n(q, c_prev, params.eps, params.u, limit=2000)
    except ArithmeticError:
        assume(False)
    assert minimal_power(q, c_prev, params) == want


def test_minimal_power_astronomical_blocks():
    # second-block inputs overflow any exact scan; the certified bracket
    # lands on values confirmed against independent decimal arithmetic
    assert minimal_power(797160, 11, P3) == 2713118
    assert minimal_power(36893488147419103230, 63, P2) == 1920719647090318049267


# the least n for q = 10**45 under P3, also found by bisecting
# oracles.certified_predicate
_N45 = 3403497879062293280675283112642723529902415318


@pytest.mark.parametrize("k", [20, 30, 45, 60, 300, 1000])
def test_certified_sides_match_the_oracle_at_large_q(k):
    # lnGamma(n+q) and lnGamma(q) cancel down to about n*ln q - ln n! (at
    # n = 5, to a few hundred); the sign must hold, and the gap edge must be
    # a bound on the true gap from the side of 0, and close to it
    import mpmath as mp

    q = 10**k
    ns = [5] + [34 * q // 10 + i for i in (-2, 1)]
    if k == 45:
        ns += [_N45 - 1, _N45]
    prec = 2 * k + 100
    en, ed = P3.eps.numerator, P3.eps.denominator
    un, ud = P3.u.numerator, P3.u.denominator
    for n in ns:
        K = min(n, q - 1)
        count_bounds = exact_log2_comb_bounds if K <= EXACT_COMB_K else log2_comb_bounds
        count_lo, count_hi = count_bounds(n + q - 1, K, prec)
        env_lo, env_hi = log2_envelope_bounds(P3.eps, P3.u, n, prec)
        with localcontext() as ctx:
            ctx.prec = prec
            gap_lo, gap_hi = env_lo - count_hi, env_hi - count_lo
        assert gap_lo > 0 or gap_hi < 0
        sign, _, edge = _certified_sides(q, n, P3)
        edge = Decimal(mp.nstr(edge, prec))
        # the edge may fall short of the oracle's enclosure only on the side
        # of 0, and by at most twice the slack of the ladder's first rung:
        # 1024 * mp.eps at 40 digits times one more than the summed
        # magnitudes of the log terms, in bits
        with mp.workdps(40):
            terms = (mp.loggamma(n + q) + mp.loggamma(n + 1) + mp.loggamma(q)
                     + 2 * mp.log(en * ed) + (n - 2) * mp.log(un * ud))
            tol = Decimal(mp.nstr(2 * 1024 * mp.eps * (terms + 1) / mp.log(2), 20))
        with localcontext() as ctx:
            ctx.prec = prec
            if gap_lo > 0:
                assert sign == 1 and 0 < edge <= gap_hi and edge >= gap_lo - tol
            else:
                assert sign == -1 and gap_lo <= edge < 0 and edge <= gap_hi + tol


def test_minimal_power_at_q_10_to_45():
    assert minimal_power(10**45, 0, P3) == _N45


def _record_probes(monkeypatch):
    """Record the probes of each search called through gscore.minimal_power.

    Wraps minimal_power, _exact_predicate and _certified_sides.  Each search
    appends (n_lo, answer, probes) to the list returned, the answer None if
    it raised, and probes holding one (route, n) per probe: "exact" when
    _exact_predicate settles n, "certified" when it returns None and
    _certified_sides settles n.
    """
    searches, active = [], []
    search, exact, sides = gscore.minimal_power, gscore._exact_predicate, gscore._certified_sides

    def recorded_search(q, c_prev, params):
        active.append([])
        n = None
        try:
            n = search(q, c_prev, params)
            return n
        finally:
            searches.append((max(c_prev + 1, 2), n, active.pop()))

    def recorded_exact(q, n, params):
        holds = exact(q, n, params)
        if active and holds is not None:
            active[-1].append(("exact", n))
        return holds

    def recorded_sides(q, n, params):
        if active:
            active[-1].append(("certified", n))
        return sides(q, n, params)

    monkeypatch.setattr(gscore, "minimal_power", recorded_search)
    monkeypatch.setattr(gscore, "_exact_predicate", recorded_exact)
    monkeypatch.setattr(gscore, "_certified_sides", recorded_sides)
    return searches


def test_newton_steps_start_from_the_middle_of_the_enclosure(monkeypatch):
    # at q = 10**45 the 40-digit slack is about 10**10 nats; a step from the
    # middle of the enclosure lands within its rounding error, about 10**3
    # nats, of the root, where one from the edge nearest 0 falls short by
    # the slack.  n_lo = 2 fits the exact caps.
    searches = _record_probes(monkeypatch)
    assert gscore.minimal_power(10**45, 0, P3) == _N45
    [(_, _, probes)] = searches
    assert probes[0] == ("exact", 2) and len(probes) == 6
    assert all(route == "certified" for route, _ in probes[1:])
    assert [n for _, n in probes[-2:]] == [_N45, _N45 - 1]


def test_minimal_power_beyond_the_gallop_reach():
    # the boundary, about 3.4 * 10**60, lies past n_lo + 2**199
    with pytest.raises(TooLarge):
        minimal_power(10**60, 0, P3)


def test_minimal_power_just_inside_the_reach():
    # the boundary, about 3.4 * 10**59, lies inside n_lo + 2**199
    assert minimal_power(10**59, 0, P3) == 340349787906229328067528311264272352990241543540590590459487


def test_minimal_power_where_floats_fail_or_u_is_near_one():
    # q past float range leaves the search without a float estimate; it
    # starts at the reach, where one probe refuses it
    with pytest.raises(TooLarge):
        minimal_power(10**400, 0, P3)
    # u = 1 + 2/10**6 and u = 1 + 2/1000 put the root far from n_lo
    assert minimal_power(2, 0, GSParams(2, Fraction(499999, 1000000))) == 8681514
    assert minimal_power(10**6, 0, GSParams(2, Fraction(499, 1000))) == 4736278831


def test_minimal_power_settles_small_sizes_exactly(monkeypatch):
    # inside the exact caps no probe needs the certified comparison, not
    # even at the exact tie of n = 7 for q = 2 under P3
    def refuse(q, n, params):
        raise AssertionError("certified comparison at q=%d, n=%d" % (q, n))

    monkeypatch.setattr(gscore, "_certified_sides", refuse)
    assert minimal_power(2, 0, P3) == 8
    assert minimal_power(3, 0, P3) == 11
    assert minimal_power(2, 10, P3) == 11
    # the block-1 searches of the construct benchmark cells
    assert minimal_power(2, 0, P2) == 63
    assert minimal_power(4, 0, GSParams(4, 1)) == 11


@pytest.mark.parametrize("case, want", [
    ((10**400, 0, P3), TooLarge),
    ((3, 0, GSParams(3, Fraction(1, 10**400))), 1692),
    ((10**20, 0, GSParams(3, Fraction(1, 10**400))), 155813206701920794259),
    ((5, 0, GSParams(3, 1 - Fraction(1, 10**400))), TooLarge),
], ids=["q-past-floats", "eps-below-floats", "eps-below-floats-large-q", "u-1-below-floats"])
def test_minimal_power_where_floats_fail_probes_few_points(monkeypatch, case, want):
    # ln eps comes from eps's numerator and denominator; past float range
    # the search starts at the reach, which refuses it or from which Newton
    # steps come down
    assert _outcome(gallop_minimal_power, case) == want
    searches = _record_probes(monkeypatch)
    assert _outcome(gscore.minimal_power, case) == want
    [(_, _, probes)] = searches
    assert len(probes) <= 6


@st.composite
def _search_cases(draw):
    d = draw(st.integers(min_value=2, max_value=5))
    # u - 1 = num/den in (0, d - 1), down to 1/10**8
    den = draw(st.integers(min_value=2, max_value=10 ** draw(st.integers(1, 8))))
    num = draw(st.integers(min_value=1, max_value=(d - 1) * den - 1))
    q = draw(st.integers(min_value=2, max_value=10**30))
    c_prev = draw(st.integers(min_value=0, max_value=10**6))
    return q, c_prev, GSParams(d, (d - 1 - Fraction(num, den)) / 2)


def _outcome(search, case):
    try:
        return search(*case)
    except TooLarge:
        return TooLarge


@given(_search_cases())
def test_minimal_power_matches_the_gallop_oracle(case):
    assert _outcome(minimal_power, case) == _outcome(gallop_minimal_power, case)


@given(_search_cases(), st.integers(-3, 3) | st.integers(-10**30, 10**30))
def test_certified_sides_sign_matches_the_oracle(case, offset):
    # near the least n (offset -3..3) and anywhere; where the oracle's
    # Stirling or exact-binomial bounds settle the sign, the package agrees
    q, _, params = case
    n = _outcome(minimal_power, (q, 0, params))
    assume(n is not TooLarge)
    n = max(2, n + offset)
    try:
        want = certified_predicate(q, n, params.eps, params.u)
    except ArithmeticError:
        assume(False)
    assert (_certified_sides(q, n, params)[0] > 0) == want


def _worst_ln_gamma_error(zs, dps):
    """Largest |error| / bound of gscore._ln_gamma over zs, at the rung's
    precision P = dps + 5, against mpmath.loggamma at 400+ digits.  The
    bound is 8 units u = 10**(1-P)/2 of lnGamma(z) + 1, plus 10**-P for
    Stirling's remainder.  Past z = 2P, (z - 1/2) ln z is at most 1.3
    (lnGamma(z) + 1), so its four roundings take 5.2 units; ln(2 pi)/2 and
    the series' terms, below 1/12, take under one more.  Up to 2P lnGamma
    is one rounded log."""
    import mpmath as mp

    prec = dps + 5
    _, half_ln_2pi = gscore._rung_constants(prec)
    worst = 0
    with mp.workdps(max(400, prec + 30)), localcontext() as ctx:
        ctx.prec = prec
        for z in zs:
            got, want = mp.mpf(str(gscore._ln_gamma(z, half_ln_2pi))), mp.loggamma(z)
            bound = 4 * mp.mpf(10) ** (1 - prec) * (want + 1) + mp.mpf(10) ** -prec
            worst = max(worst, abs(got - want) / bound)
    return worst


@pytest.mark.parametrize("dps", [40, 80])
def test_ln_gamma_matches_mpmath_on_small_integers(dps):
    # both routes: exact factorials up to 2P, Stirling's series past it
    assert _worst_ln_gamma_error(range(1, 3001), dps) <= 1


@pytest.mark.parametrize("dps", gscore._DPS_LADDER)
def test_ln_gamma_matches_mpmath_on_powers_of_ten(dps):
    ks = range(1, 1001) if dps <= 160 else [1, 2, 3, 5, 10, 20, 45, 60, 100, 300, 700, 1000]
    assert _worst_ln_gamma_error([10**k for k in ks], dps) <= 1


@pytest.mark.parametrize("dps", gscore._DPS_LADDER)
def test_ln_gamma_matches_mpmath_on_the_benchmark_blocks(dps):
    zs = {z for d, eps in [(3, "1/2"), (2, "9/20"), (4, "1")]
          for b in build_blueprint(GSParams(d, Fraction(eps)), 2).blocks
          for z in (b.n + b.q, b.n + 1, b.q)}
    assert _worst_ln_gamma_error(zs, dps) <= 1


def test_bernoulli_numbers_match_mpmath():
    import mpmath as mp

    for k in range(1, 121):
        b = gscore._bernoulli(k)
        assert mp.bernfrac(2 * k) == (b.numerator, b.denominator)


@pytest.mark.parametrize("d, eps", [(3, "1/2"), (2, "9/20"), (4, "1")])
def test_minimal_power_probes_few_points_near_the_root(monkeypatch, d, eps):
    # the two searches of build_blueprint(P, 2) each make at most six
    # probes, never past n_lo + 2**199, and end on a probed pair: true at
    # n, false at n - 1 unless n = n_lo
    searches = _record_probes(monkeypatch)
    build_blueprint(GSParams(d, Fraction(eps)), 2)
    assert len(searches) == 2
    for n_lo, n, probes in searches:
        probes = [m for _, m in probes]
        assert len(probes) <= 6 and max(probes) <= n_lo + 2**199
        assert n in probes and (n == n_lo or n - 1 in probes)


def test_minimal_power_validation():
    with pytest.raises(InvalidParams):
        minimal_power(1, 0, P3)
    with pytest.raises(InvalidParams):
        minimal_power(2, -1, P3)


def test_certified_gap_signs_at_the_boundary():
    gap_lo, log2_count = certified_log2_gap(797160, 2713118, P3)
    assert gap_lo == pytest.approx(0.05164793960533836, abs=1e-9)
    assert log2_count == pytest.approx(2713113.94835206, abs=1e-4)
    gap_before, _ = certified_log2_gap(797160, 2713117, P3)
    assert gap_before < 0
    gap2, _ = certified_log2_gap(36893488147419103230, 1920719647090318049267, P2)
    assert gap2 == pytest.approx(0.08856031986829642, abs=1e-9)


@pytest.mark.parametrize("d, eps", [(3, "1/2"), (2, "9/20"), (4, "1")])
def test_margin_log2_lo_is_a_lower_bound(d, eps):
    # the stored margin never exceeds the true log2 gap, taken at 400 digits
    import mpmath as mp

    params = GSParams(d, Fraction(eps))
    for b in build_blueprint(params, num_blocks=2).blocks:
        with mp.workdps(400):
            ln_count = mp.loggamma(b.n + b.q) - mp.loggamma(b.n + 1) - mp.loggamma(b.q)
            e, u = (mp.mpf(x.numerator) / x.denominator for x in (params.eps, params.u))
            ln_bound = 2 * mp.log(e) + (b.n - 2) * mp.log(u)
            assert mp.mpf(b.margin_log2_lo) <= (ln_bound - ln_count) / mp.log(2)


# -- blueprints --------------------------------------------------------------------------


def test_blueprint_d2_frozen_blocks(bp2):
    assert bp2.d == 2 and bp2.eps == Fraction(9, 20)
    assert bp2.mode == "symbolic" and not bp2.toy and bp2.field is None
    b1, b2 = bp2.blocks
    assert (b1.k, b1.c, b1.c_prime, b1.q, b1.n) == (1, 1, 63, 2, 63)
    assert b1.j_count == 64
    assert b1.margin == Fraction(81, 400) * Fraction(11, 10) ** 61 - 64
    assert b1.margin > 0
    assert b1.degree_counts == {63: 64}
    assert (b1.min_degree, b1.max_degree) == (63, 63)
    assert (b2.k, b2.c, b2.q) == (2, 64, 2**65 - 2)
    assert b2.n == 1920719647090318049267
    assert b2.c_prime == b2.n * 64 == 122926057413780355153088
    assert b2.j_count is None and b2.margin is None
    assert b2.margin_log2_lo > 0
    assert (b2.min_degree, b2.max_degree) == (b2.n, b2.c_prime)


def test_blueprint_d3_frozen_blocks(bp3):
    b1, b2 = bp3.blocks
    assert (b1.k, b1.c, b1.c_prime, b1.q, b1.n) == (1, 1, 11, 3, 11)
    assert b1.j_count == 78 == comb(13, 2)
    assert b1.margin == 50  # (1/4)*2**9 - 78
    assert b1.j_count_log2 == pytest.approx(math.log2(78), abs=1e-9)
    assert (b2.k, b2.c, b2.q, b2.n, b2.c_prime) == (
        2,
        12,
        797160,
        2713118,
        32557416,
    )
    assert b2.margin_log2_lo == pytest.approx(0.05164793960533836, abs=1e-9)


def test_blueprint_invariants_and_routes(bp3):
    rep = check_blueprint(bp3)
    assert rep.ok and not rep.toy
    routes = [(c.margin_route, c.dominated_route) for c in rep.blocks]
    assert routes == [("exact", "exact"), ("certified-log", "dominated-by-count")]
    for c in rep.blocks:
        assert c.separation_ok and c.shape_ok and c.margin_ok and c.dominated_ok


def test_blueprint_routes_at_u_near_one(bp2, bp3):
    # u = 50001/50000: block 1 has n = 745411 and counts {n: n + 1}, whose
    # envelope u**(n-2) has about 11.6 million bits, so the counts are dominated
    # by their tuple count, not checked degree by degree
    bp = build_blueprint(GSParams(2, Fraction(49999, 100000)), 1)
    start = time.perf_counter()
    rep = check_blueprint(bp)
    assert time.perf_counter() - start < 1.0
    assert rep.ok and [(c.margin_route, c.dominated_route) for c in rep.blocks] == [
        ("certified-log", "dominated-by-count")]
    for small in (bp2, bp3):
        first = check_blueprint(small).blocks[0]
        assert first.ok and (first.margin_route, first.dominated_route) == ("exact", "exact")
    # a stored count past the tuple count fails that route too
    block = bp.blocks[0]
    forged = block._replace(degree_counts={block.n: 10**9})
    assert not check_blueprint(bp._replace(blocks=(forged,))).blocks[0].dominated_ok


def test_blueprint_def1_bound_exact(bp2, bp3):
    for bp in (bp2, bp3):
        p = bp.params
        for block in bp.blocks:
            assert block.n > (0 if block.k == 1 else bp.blocks[block.k - 2].c_prime)
            if block.degree_counts is not None:
                for deg, cnt in block.degree_counts.items():
                    assert cnt <= p.eps_sq * p.u ** (deg - 2)


def test_check_blueprint_detects_tampering(bp3):
    good = bp3.blocks[1]
    bad = good._replace(n=5, min_degree=5)  # sits inside block 1's range
    rep = check_blueprint(bp3._replace(blocks=(bp3.blocks[0], bad)))
    assert not rep.ok
    assert not rep.blocks[1].separation_ok
    bad_shape = good._replace(c_prime=good.c_prime + 1)
    rep2 = check_blueprint(bp3._replace(blocks=(bp3.blocks[0], bad_shape)))
    assert not rep2.blocks[1].shape_ok


def test_check_blueprint_recomputes_stored_fields(bp3, bp2, toy13, toy22):
    # the stored margin and degree range of block 1 of (3, 1/2) are checked
    # against what they follow from, not trusted
    good = bp3.blocks[0]
    for field, value, failed in (("margin", 10**9, "margin_ok"), ("max_degree", 999, "shape_ok")):
        bad = good._replace(**{field: value})
        rep = check_blueprint(bp3._replace(blocks=(bad, bp3.blocks[1])))
        assert not rep.ok and not getattr(rep.blocks[0], failed)
    for bp in (bp2, bp3, toy13, toy22):
        assert check_blueprint(bp).ok


def test_blueprint_r_table(bp3, toy13, toy22):
    one_block = build_blueprint(P3, num_blocks=1)
    assert one_block.r_table() == {11: 78}
    with pytest.raises(TooLarge):
        bp3.r_table()  # block 2 counts exceed exact representation
    assert toy13.r_table() == {3: 4}
    assert toy22.r_table() == {2: 3, 3: 8, 4: 10}


def test_build_blueprint_validation():
    with pytest.raises(InvalidParams):
        build_blueprint(None)  # params required outside toy mode
    with pytest.raises(InvalidParams):
        build_blueprint(P3, mode="sparse")
    with pytest.raises(InvalidParams):
        build_blueprint(P3, d=4)  # conflicts with params.d
    with pytest.raises(InvalidParams):
        build_blueprint(P3, num_blocks=0)
    with pytest.raises(InvalidParams):
        build_blueprint(P3, field=GF2)  # symbolic mode has no field
    with pytest.raises(InvalidParams):
        build_blueprint(None, mode="dense", d=2, toy_c=1)  # toy_n missing
    with pytest.raises(InvalidParams):
        build_blueprint(None, mode="symbolic", d=2, toy_c=1, toy_n=3)
    with pytest.raises(InvalidParams):
        build_blueprint(None, mode="dense", d=2, toy_c=1, toy_n=3, num_blocks=2)
    for d in (None, True, 1):
        with pytest.raises(InvalidParams, match="d must be an integer >= 2"):
            build_blueprint(None, mode="dense", d=d, toy_c=1, toy_n=3)


# -- toy materialization -----------------------------------------------------------------


def test_toy_blueprint_generators(toy13, toy22):
    assert toy13.toy and toy13.mode == "dense"
    gens = toy13.all_generators()
    assert len(gens) == 4
    rendered = sorted(str(g) for g in gens)
    assert rendered == sorted(
        [
            "x1*x1*x1",
            "x1*x1*x2 + x1*x2*x1 + x2*x1*x1",
            "x1*x2*x2 + x2*x1*x2 + x2*x2*x1",
            "x2*x2*x2",
        ]
    )
    assert toy22.blocks[0].q == 6
    assert len(toy22.all_generators()) == 21
    # the (x1, x1*x1) pair collides into 2*x1**3 = 0 over GF(2)
    assert any(g.is_zero() for g in toy22.all_generators())


def test_toy_blueprint_check_skips_eps(toy13):
    rep = check_blueprint(toy13)
    assert rep.ok and rep.toy
    assert rep.blocks[0].margin_route == "skipped-toy"
    assert rep.blocks[0].dominated_route == "skipped-toy"


def test_blueprint_table_counts_vanished_generators(toy22):
    table = blueprint_table(toy22)
    assert table.maxdeg == 4
    # the two (letter, letter**2) pairs collapse to 2*x**3 = 0 over GF(2):
    # the table counts the 19 generators it holds, while the blueprint keeps
    # the construction's nominal 21
    nonzero = [g for g in toy22.all_generators() if not g.is_zero()]
    assert len(nonzero) == 19
    assert table.generators == tuple(nonzero)
    assert table.r_table() == {2: 3, 3: 6, 4: 10}
    assert toy22.r_table() == {2: 3, 3: 8, 4: 10}


def test_blueprint_table_requires_dense(bp3):
    with pytest.raises(InvalidParams):
        blueprint_table(bp3)


# -- nil certificates ----------------------------------------------------------------------


def test_nil_certificate_toy13_verified(toy13):
    table = blueprint_table(toy13)
    g = parse_poly("x1 + x2", 2, FieldDescriptor(5))
    cert = nil_certificate(g, toy13, table)
    assert (cert.exponent, cert.block_index, cert.verified) == (3, 1, True)
    bare = nil_certificate(g, toy13)
    assert bare.exponent == 3 and not bare.verified


def test_nil_certificate_toy22_mixed_degree(toy22):
    table = blueprint_table(toy22)
    g = parse_poly("x1 + x2*x1", 2, GF2)
    cert = nil_certificate(g, toy22, table)
    assert (cert.exponent, cert.verified) == (2, True)
    square = g * g
    assert sorted(square.homogeneous_components()) == [2, 3, 4]


def test_nil_certificate_errors(toy13):
    with pytest.raises(ConstantTerm):
        nil_certificate(parse_poly("1 + x1", 2, FieldDescriptor(5)), toy13)
    with pytest.raises(DegreeNotCovered):
        nil_certificate(parse_poly("x1*x2*x1", 2, FieldDescriptor(5)), toy13)


def test_block_one_of_d3_is_nil_with_exponent_eleven():
    """The paper's nil claim on a real block: block 1 of (d, eps) = (3, 1/2), GF(2).

    Its generators are the 78 window orbit sums of degree 11, and the linear
    g = x1 + x2 + x3 has g**11 in their ideal but not g**10.  Block 1 of
    (2, 9/20) and of (4, 1) cannot be checked so: their tables would need
    2**21 columns at degree 21 and 4**11 at degree 11, over COLUMN_CAP.
    """
    bp = build_blueprint(P3, 1, "dense", d=3, field=GF2)
    gens = bp.all_generators()
    assert len(gens) == 78 and {g.degree() for g in gens} == {11}
    table = build_table(gens, 12, d=3, field=GF2)
    assert table.b_sequence() == [3**n for n in range(11)] + [177069, 531064]
    g = parse_poly("x1 + x2 + x3", 3, GF2)
    assert table.power_normal_form(g, 11).is_zero()
    assert not table.power_normal_form(g, 10).is_zero()
    cert = nil_certificate(g, bp, table)
    assert (cert.exponent, cert.block_index, cert.verified) == (11, 1, True)
    # every nonzero linear g: a one-letter trie, whose walk is the top step
    # alone, through the image table of each built level
    _assert_nil_exactly_at(table, 11)


def _nonzero_linear_forms(d, field):
    """Every nonzero a_1*x1 + ... + a_d*xd over a finite field."""
    for coeffs in itertools.product(range(field.p), repeat=d):
        if any(coeffs):
            yield Polynomial(d, field, {(t,): a for t, a in enumerate(coeffs, 1) if a})


def _assert_nil_exactly_at(table, n):
    for g in _nonzero_linear_forms(table.d, table.field):
        assert table.power_normal_form(g, n).is_zero(), g
        assert not table.power_normal_form(g, n - 1).is_zero(), g


def test_block_one_of_d3_is_nil_with_exponent_eleven_over_gf3():
    """Block 1 of (3, 1/2) over GF(3), dense: the same 78 generators, b_11
    and b_12 as over GF(2), and each of the 26 nonzero linear g has g**11 in
    the ideal but not g**10."""
    gf3 = FieldDescriptor(3)
    gens = build_blueprint(P3, 1, "dense", d=3, field=gf3).all_generators()
    assert len(gens) == 78 and {g.degree() for g in gens} == {11}
    table = build_table(gens, 12, d=3, field=gf3)
    assert table.b_sequence() == [3**n for n in range(11)] + [177069, 531064]
    _assert_nil_exactly_at(table, 11)


@pytest.fixture(scope="module")
def toy25():
    return build_blueprint(None, mode="dense", d=2, toy_c=2, toy_n=5, field=FieldDescriptor(5))


def _random_poly(rng, d, field, top, constant):
    words = [
        tuple(rng.randrange(1, d + 1) for _ in range(rng.randrange(not constant, top + 1)))
        for _ in range(rng.randrange(1, 5))
    ]
    return Polynomial(d, field, {w: rng.randrange(1, 5) for w in words})


@pytest.mark.parametrize("case", ["toy13", "toy22", "toy25", "qq"])
def test_iterated_nil_check_matches_expansion(case, request):
    # nf(g**n) by n multiplications in the quotient must equal the reduction
    # of the expanded g**n, members and non-members alike
    if case == "qq":
        bp = None
        gens = [parse_poly("x1*x2 - 2*x2*x1", 2, QQ), parse_poly("x1*x1*x2 + 3/2*x2*x2*x2", 2, QQ)]
        table = build_table(gens, 6)
    else:
        bp = request.getfixturevalue(case)
        table = blueprint_table(bp)
    d, field, maxdeg = table.d, table.field, table.maxdeg
    # the full-width oracle is cheap up to 2**6 columns
    oracle = naive_dimension_table(list(table.generators), maxdeg) if maxdeg <= 6 else None
    rng = random.Random(case)
    outcomes = set()
    for trial in range(40):
        top = rng.randrange(1, 4)
        n = rng.randrange(1, maxdeg // top + 1)
        g = _random_poly(rng, d, field, top, constant=trial % 5 == 0)
        if n * g.degree() > maxdeg:
            with pytest.raises(DegreeExceedsTable):
                table.power_normal_form(g, n)
            continue
        nf = table.power_normal_form(g, n)
        assert nf.homogeneous_components() == table.normal_form(g**n).homogeneous_components()
        if oracle is not None:
            assert nf == oracle.normal_form(g**n)
        outcomes.add(nf.is_zero())
        if bp is not None and not g.constant_coefficient() and g.degree() <= bp.max_covered_degree():
            cert = nil_certificate(g, bp, table)
            if cert.exponent * g.degree() <= maxdeg:
                # the construction makes every such g nil
                assert cert.verified
                assert table.normal_form(g**cert.exponent).is_zero()
    assert outcomes == {True, False}


@pytest.mark.parametrize("c, n, p", [(2, 5, 2), (2, 5, 3), (2, 6, 2)])
def test_every_window_element_is_nil_on_a_table_built_on_demand(c, n, p):
    # every nonzero g in the span of the d=2 toy's window monomials (63, 728
    # and 63 g): g**n lies in the ideal, and the table that builds only the
    # degrees g**n reaches gives the residue of a table built to c' = n*c
    field = FieldDescriptor(p)
    bp = build_blueprint(None, mode="dense", d=2, toy_c=c, toy_n=n, field=field)
    words = monomial_window(2, c).words
    gs = sorted(
        (Polynomial(2, field, {w: a for w, a in zip(words, coeffs) if a})
         for coeffs in itertools.product(range(p), repeat=len(words)) if any(coeffs)),
        key=Polynomial.degree,
    )
    assert len(gs) == p ** len(words) - 1
    lazy = blueprint_table(bp)
    eager = build_table([g for g in bp.all_generators() if not g.is_zero()], n * c, d=2, field=field)
    for g in gs:
        residue = lazy.power_normal_form(g, n)
        assert residue == eager.power_normal_form(g, n) and residue.is_zero(), g
        if g.degree() == 1:  # the linear g come first, and reach degree n alone
            assert len(lazy._b) == n + 1
    assert lazy.b_sequence() == eager.b_sequence()


def test_block_one_of_d3_through_the_window_lattice():
    """Block 1 of (3, 1/2) over GF(2) through blueprint_table: the rows of its
    78 generators come from the lattice of their weak tuples, none made.
    b_11 = 177,069, and each of the 7 nonzero linear g has g**11 in the
    ideal but not g**10."""
    bp = build_blueprint(P3, 1, "dense", d=3, field=GF2)
    table = blueprint_table(bp)
    assert table.maxdeg == 11
    assert table.b_sequence() == [3**n for n in range(11)] + [177069]
    _assert_nil_exactly_at(table, 11)


_ROW_SOURCE_CELLS = [
    (d, c, n, field)
    for d, c, n in [(2, 1, 3), (2, 2, 2), (2, 2, 5), (2, 3, 3), (3, 1, 4)]
    for field in (GF2, FieldDescriptor(3), FieldDescriptor(5), QQ)
]


@pytest.mark.parametrize("d, c, n, field", _ROW_SOURCE_CELLS,
                         ids=["d%dc%dn%d-%s" % (d, c, n, f) for d, c, n, f in _ROW_SOURCE_CELLS])
def test_lattice_rows_match_the_generator_trie(d, c, n, field):
    # blueprint_table builds its rows over the multiset lattice of the window
    # words, build_table by walking the trie of the generators themselves.
    # Pivots are canonical, so the two give equal levels, standard words and
    # normal forms
    bp = build_blueprint(None, mode="dense", d=d, toy_c=c, toy_n=n, field=field)
    lattice = blueprint_table(bp)
    trie = build_table([g for g in bp.all_generators() if not g.is_zero()], n * c, d=d, field=field)
    assert lattice.b_sequence() == trie.b_sequence()
    for m in range(n * c + 1):
        assert lattice.basis(m) == trie.basis(m)
        assert lattice._level(m) == trie._level(m)
    rng = random.Random("%d %d %d %s" % (d, c, n, field))
    for _ in range(8):
        g = _random_poly(rng, d, field, n * c, constant=True)
        assert lattice.normal_form(g) == trie.normal_form(g)


def test_the_climb_stops_at_the_least_exponent():
    # the power stops at the first i with nf(g**i) = 0.  For each of the 63
    # nonzero g in the span of the c=2, n=5 window over GF(2), that i is the
    # least m with g**m, expanded, in the ideal
    bp = build_blueprint(None, mode="dense", d=2, toy_c=2, toy_n=5)
    table = blueprint_table(bp)
    words = monomial_window(2, 2).words
    least = []
    for coeffs in itertools.product(range(2), repeat=len(words)):
        if any(coeffs):
            g = Polynomial(2, GF2, {w: 1 for w, a in zip(words, coeffs) if a})
            m = next(m for m in range(1, 6) if table.power_normal_form(g, m).is_zero())
            assert m == next(m for m in range(1, 6) if table.normal_form(g**m).is_zero()), g
            least.append(m)
    # 60 g are nil exactly at n = 5; x1*x1, x2*x2 and (x1 + x2)**2 already at
    # 3, their cubes being x1**6, x2**6 and (x1 + x2)**6
    assert (len(least), least.count(5), least.count(3)) == (63, 60, 3)


def test_a_power_in_the_ideal_ends_the_climb():
    # x2**5 generates the tuple (2, 2, 2, 2, 2) of the c=3, n=5 toy, so
    # (x2*x2*x2)**2 = x2**6 lies in the ideal: the verify of x2*x2*x2 stops
    # at its square, with the table built to degree 6 of its 15
    bp = build_blueprint(None, mode="dense", d=2, toy_c=3, toy_n=5)
    table = blueprint_table(bp)
    cert = nil_certificate(parse_poly("x2*x2*x2", 2, GF2), bp, table)
    assert (cert.exponent, cert.verified) == (5, True)
    assert table.maxdeg == 15 and len(table._b) == 7


def test_nil_certificate_degree_beyond_table(toy13, toy22):
    # g**n would reach past the table: refused up front, as when g**n was
    # expanded and reduced
    def short_table(bp, maxdeg):
        gens = [g for g in bp.all_generators() if not g.is_zero()]
        return build_table(gens, maxdeg, d=bp.d, field=bp.field)

    with pytest.raises(DegreeExceedsTable):
        nil_certificate(parse_poly("x1 + x2", 2, FieldDescriptor(5)), toy13, short_table(toy13, 2))
    with pytest.raises(DegreeExceedsTable):
        nil_certificate(parse_poly("x1 + x2*x1", 2, GF2), toy22, short_table(toy22, 3))


def test_nil_certificate_symbolic_blocks(bp3):
    g1 = parse_poly("x1", 3, GF2)
    cert = nil_certificate(g1, bp3)
    assert (cert.exponent, cert.block_index, cert.verified) == (11, 1, False)
    g12 = parse_poly("x1*x2*x3*x1*x2*x3*x1*x2*x3*x1*x2*x3", 3, GF2)
    cert12 = nil_certificate(g12, bp3)
    assert (cert12.exponent, cert12.block_index) == (2713118, 2)
    g13 = parse_poly("x1", 3, GF2) ** 13
    with pytest.raises(DegreeNotCovered):
        nil_certificate(g13, bp3)


# -- serialization ---------------------------------------------------------------------------


def test_blueprint_json_round_trip(bp2, bp3, toy22, tmp_path):
    for i, bp in enumerate((bp2, bp3, toy22)):
        data = blueprint_to_dict(bp)
        assert list(data) == ["d", "eps", "mode", "toy", "field", "blocks", "r"]
        for rec in data["blocks"]:
            assert list(rec) == [
                "k",
                "c",
                "c_prime",
                "q",
                "n",
                "j_count",
                "j_count_log2",
                "margin",
                "margin_log2_lo",
                "min_degree",
                "max_degree",
                "degree_counts",
                "generators",
            ]
        again = blueprint_to_dict(blueprint_from_dict(data))
        assert json.dumps(data) == json.dumps(again)

        path = tmp_path / ("bp%d.json" % i)
        save_blueprint(bp, str(path))
        first = path.read_bytes()
        loaded = load_blueprint(str(path))
        save_blueprint(loaded, str(path))
        assert path.read_bytes() == first


def test_blueprint_json_r_section(bp3, toy22):
    assert blueprint_to_dict(bp3)["r"] == {"11": 78}  # exact entries only
    assert blueprint_to_dict(toy22)["r"] == {"2": 3, "3": 8, "4": 10}


def test_blueprint_from_dict_malformed():
    with pytest.raises(InvalidParams):
        blueprint_from_dict({})
    with pytest.raises(InvalidParams):
        blueprint_from_dict({"d": 2, "mode": "symbolic", "blocks": [{"k": 1}]})
    with pytest.raises(InvalidParams):
        blueprint_from_dict(
            {"d": 2, "eps": "bad", "mode": "symbolic", "blocks": []}
        )
