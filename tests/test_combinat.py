"""Weak tuples, orbits, and the partition identity."""

import itertools
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsalg import symfun
from gsalg.symfun import (
    orbit_iter,
    orbit_size,
    validate_weak_tuple,
    weak_tuple_count,
    weak_tuple_count_within,
    weak_tuples,
)
from gsalg.errors import InvalidParams, TooLarge


def test_count_examples():
    assert weak_tuple_count(2, 7) == 8
    assert weak_tuple_count(2, 3) == 4
    assert weak_tuple_count(6, 2) == 21
    for q in range(1, 7):
        for n in range(0, 7):
            assert weak_tuple_count(q, n) == comb(n + q - 1, q - 1)
            assert weak_tuple_count(q, n) == len(weak_tuples(q, n))


def test_count_within_a_limit_matches_comb():
    for q in [1, 2, 3, 5, 8, 40, 1000]:
        for n in [0, 1, 2, 3, 7, 39, 40, 41, 500]:
            count = comb(n + q - 1, q - 1)
            assert weak_tuple_count_within(q, n, count) == count
            assert weak_tuple_count_within(q, n, count - 1) is None
            assert weak_tuple_count_within(q, n, 10**7) == (count if count <= 10**7 else None)


def test_count_within_a_limit_stops_early():
    # C(2 * 10**400, 10**400) has about 6.6 * 10**399 bits; the partial
    # products pass the limit within bit_length(limit) + 1 steps
    assert weak_tuple_count_within(10**400 + 1, 10**400, 10**4300) is None
    with pytest.raises(InvalidParams):
        weak_tuple_count_within(0, 3, 10)
    with pytest.raises(InvalidParams):
        weak_tuple_count_within(3, -1, 10)


def test_tuples_are_sorted_and_weakly_increasing():
    ts = weak_tuples(3, 4)
    assert ts == sorted(ts)
    for t in ts:
        assert all(a <= b for a, b in zip(t, t[1:]))
        assert all(1 <= a <= 3 for a in t)


def test_validate_weak_tuple():
    validate_weak_tuple((1, 1, 3), 3)
    validate_weak_tuple((), 2)
    with pytest.raises(InvalidParams):
        validate_weak_tuple((2, 1), 3)
    with pytest.raises(InvalidParams):
        validate_weak_tuple((0, 1), 3)
    with pytest.raises(InvalidParams):
        validate_weak_tuple((1, 4), 3)


def test_orbit_size_example():
    # seven positions, three 1s and four 2s
    assert orbit_size((1, 1, 1, 2, 2, 2, 2)) == 35
    assert orbit_size(()) == 1
    assert orbit_size((1, 2, 3)) == 6


def test_orbit_matches_permutation_set():
    for j in [(1, 2), (1, 1, 2), (1, 2, 3), (2, 2, 2), (1, 1, 2, 3)]:
        got = list(orbit_iter(j))
        want = sorted(set(itertools.permutations(j)))
        assert got == want
        assert len(got) == orbit_size(j)


def test_partition_identity():
    # the orbits of the weak tuples partition all q^n position tuples
    for q in range(1, 7):
        for n in range(0, 7):
            assert sum(orbit_size(j) for j in weak_tuples(q, n)) == q**n


def test_enumeration_caps():
    with pytest.raises(TooLarge):
        weak_tuples(100, 50)


def test_tuple_lists_cap_their_entries(monkeypatch):
    # the cap counts entries, count times n: with q = 1 one tuple holds all n
    monkeypatch.setattr(symfun, "ENUM_CAP", 100)
    assert weak_tuples(1, 100) == [(1,) * 100]
    assert len(weak_tuples(3, 4)) == 15  # 60 entries
    for q, n in ((1, 101), (3, 5), (2, 10**30)):
        with pytest.raises(TooLarge, match="more tuple entries than the cap 100"):
            weak_tuples(q, n)
    # the empty tuple needs no pool of q entries
    assert weak_tuples(10**30, 0) == [()]


@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=6).map(
        lambda xs: tuple(sorted(xs))
    )
)
def test_orbit_properties(j):
    got = list(orbit_iter(j))
    assert got == sorted(set(itertools.permutations(j)))
    assert got[0] == j  # the weakly increasing tuple is its orbit's minimum
    assert len(got) == orbit_size(j)
