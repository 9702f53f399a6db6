"""Monomial windows, order-symmetric sums, and the power expansion."""

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsalg import symfun
from gsalg.errors import ConstantTerm, DegreeTooHigh, InvalidParams, TooLarge
from gsalg.field import GF2, QQ, FieldDescriptor
from gsalg.freealg import Polynomial, parse_poly, poly_str
from gsalg.symfun import (
    generator_degree,
    monomial_window,
    power_expansion,
    tuple_counts_by_degree,
    tuples_of_degree,
    window_generator,
    weak_tuple_count,
    weak_tuples,
    window_generators,
    window_rank,
    window_size,
    window_word,
)

from oracles import reference_window_generator


def test_window_size_formula():
    assert window_size(2, 1) == 2
    assert window_size(2, 2) == 6
    assert window_size(3, 2) == 12
    assert window_size(2, 64) == 2**65 - 2
    for d in (2, 3, 5):
        for c in range(1, 6):
            assert window_size(d, c) == sum(d**k for k in range(1, c + 1))


def test_window_enumeration_order():
    # word i is i in bijective base d (d = 1 too): the words shortest first,
    # in monomial order within a length, and window_rank inverts it
    for d, c in itertools.product([1, 2, 3], [1, 2, 3]):
        w = monomial_window(d, c)
        words = [t for k in range(1, c + 1) for t in itertools.product(range(1, d + 1), repeat=k)]
        assert [window_word(d, i) for i in range(1, w.q + 1)] == words
        assert [window_rank(d, word) for word in words] == list(range(1, w.q + 1))


def test_window_cap():
    with pytest.raises(TooLarge):
        monomial_window(2, 40)


def test_power_expansion_caps_its_entries(monkeypatch):
    # x1 + x2 has n + 1 weak tuples of n entries each in its expansion
    monkeypatch.setattr(symfun, "ENUM_CAP", 100)
    g, w = parse_poly("x1 + x2", 2, GF2), monomial_window(2, 1)
    assert len(power_expansion(g, 9, w)) == 10  # 90 entries
    with pytest.raises(TooLarge, match="expansion has more entries than the cap 100"):
        power_expansion(g, 10, w)


def test_one_cap_bounds_tuples_windows_orbits_and_expansions(monkeypatch):
    # ENUM_CAP is one binding: lowering it reaches every enumeration of the module
    monkeypatch.setattr(symfun, "ENUM_CAP", 100)
    g = parse_poly("x1 + x2", 2, GF2)
    for make in (
        lambda: weak_tuples(3, 5),  # 21 tuples, 105 entries
        lambda: monomial_window(2, 6),  # q = 126 words
        lambda: window_generator((1, 2, 3, 4, 5), monomial_window(5, 1), GF2),  # orbit of 120
        lambda: power_expansion(g, 10, monomial_window(2, 1)),  # 11 tuples, 110 entries
    ):
        with pytest.raises(TooLarge, match="cap 100"):
            make()


def test_order_symmetric_orbit_sum():
    # the width-1 window's words are the letters, so h_j is s_j itself
    s = window_generator((1, 2), monomial_window(2, 1), GF2)
    assert s == parse_poly("x1*x2 + x2*x1", 2, GF2)
    s3 = window_generator((1, 1, 2), monomial_window(3, 1), QQ)
    assert s3 == parse_poly("x1*x1*x2 + x1*x2*x1 + x2*x1*x1", 3, QQ)
    # constant tuple: a single monomial
    assert window_generator((2, 2), monomial_window(2, 1), GF2) == parse_poly("x2*x2", 2, GF2)


def test_window_generator_collision():
    # j = (1, 3) over the d=2, c=2 window picks M_1 = x1, M_3 = x1*x1, so
    # h = M_1 M_3 + M_3 M_1 = 2 * x1^3: vanishes over GF(2), survives elsewhere
    w = monomial_window(2, 2)
    over_q = window_generator((1, 3), w, QQ)
    assert over_q == parse_poly("2*x1*x1*x1", 2, QQ)
    over5 = window_generator((1, 3), w, FieldDescriptor(5))
    assert over5 == parse_poly("2*x1*x1*x1", 2, FieldDescriptor(5))
    over2 = window_generator((1, 3), w, GF2)
    assert over2.is_zero()
    # nominal degree is reported even where the sum vanishes
    assert generator_degree((1, 3), w) == 3


@pytest.mark.parametrize("field", [GF2, FieldDescriptor(5), QQ], ids=str)
@pytest.mark.parametrize("d, c", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
def test_window_generator_matches_reference(d, c, field):
    # every weak tuple of up to 3 entries, against the orbit sum of window
    # words multiplied out from the definition
    w = monomial_window(d, c)
    for n in (1, 2, 3):
        for j in weak_tuples(w.q, n):
            assert window_generator(j, w, field) == reference_window_generator(j, d, c, field)


def test_generator_degree_range():
    w = monomial_window(2, 2)
    for n in (1, 2, 3):
        for j in weak_tuples(w.q, n):
            deg = generator_degree(j, w)
            assert n <= deg <= n * 2


@pytest.mark.parametrize("d, c", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_degree_counts_match_the_listed_groups(d, c, monkeypatch):
    # the counts are those of the listed tuples, key for key and in order, at
    # every n whose list is small; past the cap both refuse with one text
    w = monomial_window(d, c)
    for n in range(6):
        if weak_tuple_count(w.q, n) <= 20_000:
            counts = tuple_counts_by_degree(w, n)
            groups = [tuples_of_degree(w, n, k) for k in counts]
            assert sum(groups, []) == sorted(weak_tuples(w.q, n), key=lambda j: generator_degree(j, w))
            assert list(counts.values()) == list(map(len, groups))
    monkeypatch.setattr(symfun, "ENUM_CAP", 10)  # q >= 2: over 10 tuples of 10 entries
    with pytest.raises(TooLarge) as listed:
        weak_tuples(w.q, 10)
    with pytest.raises(TooLarge) as counted:
        tuple_counts_by_degree(w, 10)
    assert str(counted.value) == str(listed.value)
    with pytest.raises(TooLarge) as drawn:
        tuples_of_degree(w, 10, 10)
    assert str(drawn.value) == str(listed.value)


def test_window_generators_count_and_order():
    w = monomial_window(2, 1)
    pairs = window_generators(w, 3, FieldDescriptor(5))
    assert [j for j, _ in pairs] == weak_tuples(2, 3)
    assert len(pairs) == weak_tuple_count(2, 3) == 4
    rendered = [poly_str(p) for _, p in pairs]
    assert rendered == [
        "x1*x1*x1",
        "x1*x1*x2 + x1*x2*x1 + x2*x1*x1",
        "x1*x2*x2 + x2*x1*x2 + x2*x2*x1",
        "x2*x2*x2",
    ]


def test_power_expansion_frozen_lambdas():
    f = FieldDescriptor(5)
    w = monomial_window(2, 1)
    g = parse_poly("2*x1 + 3*x2", 2, f)
    lam = power_expansion(g, 2, w)
    assert lam == {(1, 1): 4, (1, 2): 1, (2, 2): 4}


def test_power_expansion_identity_across_fields():
    for field in (GF2, FieldDescriptor(5), QQ):
        w = monomial_window(2, 2)
        g = parse_poly("x1 + x2 + x1*x2", 2, field)
        for n in (1, 2, 3):
            lam = power_expansion(g, n, w)  # re-checks the identity at this size
            assert all(len(j) == n for j in lam)


def test_power_expansion_reconstructs_power():
    f = FieldDescriptor(5)
    w = monomial_window(2, 2)
    g = parse_poly("x1 + 2*x2 + 3*x1*x1 + x2*x1", 2, f)
    lam = power_expansion(g, 3, w)
    total = Polynomial.zero(2, f)
    for j, coeff in lam.items():
        total = total + window_generator(j, w, f).scale(coeff)
    assert total == g**3


def test_power_expansion_skips_a_recheck_over_the_cap():
    # x1 has one weak tuple at every n, but re-checking it builds x1**n and
    # the orbit word by n concatenations each, quadratic in n; the check
    # counts those tuple entries against the cap and is skipped above it
    w = monomial_window(2, 1)
    start = time.perf_counter()
    lam = power_expansion(parse_poly("x1", 2, GF2), 10**6, w)
    assert time.perf_counter() - start < 1.0
    assert lam == {(1,) * 10**6: 1}


@pytest.mark.parametrize("text, n, size", [("x1", 10**6, 1), ("x1 + 2/3*x2", 2000, 2001)])
def test_power_expansion_lambdas_are_fast_over_q(text, n, size):
    # lambda_j is one power per distinct index of j, not n multiplications
    g = parse_poly(text, 2, QQ)
    start = time.perf_counter()
    lam = power_expansion(g, n, monomial_window(2, 1))
    assert time.perf_counter() - start < 1.0
    assert len(lam) == size
    a1, a2 = g.coefficient((1,)), g.coefficient((2,))
    for j in list(lam)[::97]:
        assert lam[j] == a1 ** j.count(1) * a2 ** j.count(2)


def test_power_expansion_recheck_catches_a_corrupted_identity(monkeypatch):
    real = symfun.window_generator
    monkeypatch.setattr(
        symfun, "window_generator",
        lambda j, w, f: Polynomial.zero(w.d, f) if j == (1, 1, 2) else real(j, w, f),
    )
    with pytest.raises(AssertionError, match="power expansion identity failed"):
        power_expansion(parse_poly("x1 + x2", 2, GF2), 3, monomial_window(2, 1))


def test_power_expansion_rejects_bad_inputs():
    w = monomial_window(2, 1)
    with pytest.raises(ConstantTerm):
        power_expansion(parse_poly("1 + x1", 2, GF2), 2, w)
    with pytest.raises(DegreeTooHigh):
        power_expansion(parse_poly("x1*x2", 2, GF2), 2, w)
    with pytest.raises(InvalidParams):
        power_expansion(parse_poly("x1", 2, GF2), 0, w)
    with pytest.raises(InvalidParams):
        power_expansion(parse_poly("x1", 3, GF2), 2, w)


def test_power_expansion_zero_polynomial():
    w = monomial_window(2, 1)
    lam = power_expansion(Polynomial.zero(2, GF2), 3, w)
    assert lam == {}


@st.composite
def _window_poly(draw):
    field = draw(st.sampled_from([GF2, FieldDescriptor(5), QQ]))
    w = monomial_window(2, draw(st.integers(min_value=1, max_value=2)))
    g = Polynomial.zero(2, field)
    for word in (window_word(2, i) for i in range(1, w.q + 1)):
        coeff = draw(st.integers(min_value=-3, max_value=3))
        if coeff:
            g = g + Polynomial.monomial(word, 2, field, coeff)
    return g, w


@given(_window_poly(), st.integers(min_value=1, max_value=3))
def test_power_expansion_identity_property(gw, n):
    g, w = gw
    power_expansion(g, n, w)  # re-checks the identity: at most 6**3 terms
