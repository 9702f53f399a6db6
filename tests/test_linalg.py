"""Echelon engines against naive eliminations and known-rank matrices."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsalg.errors import InvalidParams
from gsalg.field import GF, GF2, QQ
from gsalg.linalg import (
    BASE_BLOCK,
    GF2Echelon,
    GFpEchelon,
    _mulmod,
    echelon_for,
    gf2_bits,
    gf2_from_bits,
)


def _naive_rank_mod_p(rows, p):
    return len(_naive_rref_mod_p(rows, p)[1])


def _naive_rref_mod_p(rows, p):
    # textbook row reduction, no shortcuts; the reference for every engine.
    # Returns (reduced nonzero rows, their pivot columns), in pivot order.
    rows = [[x % p for x in r] for r in rows]
    if not rows:
        return [], []
    width = len(rows[0])
    r = 0
    pivots = []
    for col in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows[:r], pivots


def _known_rank_matrix(rng, rank, width, extra, p):
    """rank rows with unit pivots in distinct columns, plus dependent rows."""
    assert rank <= width
    base = []
    for i in range(rank):
        row = [0] * width
        row[i] = 1
        for j in range(rank, width):
            row[j] = rng.randrange(p)
        base.append(row)
    rows = list(base)
    for _ in range(extra):
        combo = [0] * width
        for b in base:
            c = rng.randrange(p)
            combo = [(x + c * y) % p for x, y in zip(combo, b)]
        rows.append(combo)
    rng.shuffle(rows)
    return rows


# -- GF(2) bit rows --------------------------------------------------------------


def test_gf2_bits_round_trip():
    rng = random.Random(7)
    for width in (1, 7, 8, 9, 63, 64, 65, 200):
        for _ in range(10):
            v = rng.getrandbits(width)
            bits = gf2_bits(v, width)
            assert bits.shape == (width,)
            assert gf2_from_bits(bits) == v
    assert gf2_bits(0, 0).shape == (0,)
    assert gf2_from_bits(np.zeros(0, dtype=np.uint8)) == 0


@given(st.integers(min_value=0, max_value=2**130 - 1))
def test_gf2_bits_round_trip_property(v):
    assert gf2_from_bits(gf2_bits(v, 130)) == v


def test_gf2_echelon_against_naive():
    rng = random.Random(11)
    for width in (5, 17, 40):
        for rows_n in (3, 10, 25):
            mat = [[rng.randrange(2) for _ in range(width)] for _ in range(rows_n)]
            ech = GF2Echelon(width)
            ech.insert_rows(gf2_from_bits(np.array(r, dtype=np.uint8)) for r in mat)
            assert ech.rank == _naive_rank_mod_p(mat, 2)


def test_gf2_echelon_normal_form():
    rng = random.Random(13)
    width = 30
    ech = GF2Echelon(width)
    rows = [rng.getrandbits(width) for _ in range(12)]
    ech.insert_rows(rows)
    mask = sum(1 << c for c in ech.pivot_columns())
    for _ in range(50):
        v = rng.getrandbits(width)
        red = ech.reduce(v)
        assert red & mask == 0
        assert ech.reduce(red) == red
    # anything already in the span reduces to zero and cannot be reinserted
    combo = 0
    for r in rows[:5]:
        combo ^= r
    assert ech.reduce(ech.reduce(combo) ^ combo) == 0
    span_elt = rows[0] ^ rows[3]
    assert ech.insert(span_elt) is None


def test_gf2_echelon_known_rank():
    rng = random.Random(17)
    mat = _known_rank_matrix(rng, rank=6, width=14, extra=9, p=2)
    ech = GF2Echelon(14)
    ech.insert_rows(gf2_from_bits(np.array(r, dtype=np.uint8)) for r in mat)
    assert ech.rank == 6
    assert len(ech.pivot_columns()) == 6
    for c in ech.pivot_columns():
        assert ech.has_pivot(c)


# -- GF(p) blocked elimination ---------------------------------------------------


def test_mulmod_matches_object_ints():
    rng = np.random.default_rng(23)
    for p in (3, 32003, 2**26 - 5, 2**26 + 1, 2**30 + 1):
        A = rng.integers(0, p, size=(7, 30), dtype=np.int64)
        B = rng.integers(0, p, size=(30, 5), dtype=np.int64)
        want = np.dot(A.astype(object), B.astype(object)) % p
        got = _mulmod(A, B, p)
        assert got.dtype == np.int64
        assert np.array_equal(got, want.astype(np.int64))


class _NoObjectArray(np.ndarray):
    """Fails as soon as an array derived from it takes the object dtype."""

    def __array_finalize__(self, obj):
        assert self.dtype != object, "object-dtype arithmetic"


@pytest.mark.parametrize("p", [2**26 + 1, 2**31 - 1])
def test_mulmod_large_p_is_exact_without_object_ints(p):
    # k spans several chunks of both split halves (32 to 1024 rows each)
    rng = np.random.default_rng(p % 1000)
    k = 3000
    cases = [
        (rng.integers(0, p, size=(5, k)), rng.integers(0, p, size=(k, 4))),
        (np.full((3, k), p - 1), np.full((k, 6), p - 1)),
    ]
    for A, B in cases:
        want = np.dot(A.astype(object), B.astype(object)) % p
        got = _mulmod(A.view(_NoObjectArray), B.view(_NoObjectArray), p)
        assert got.dtype == np.int64
        assert np.array_equal(np.asarray(got), want.astype(np.int64))


def test_mulmod_empty_shapes():
    for shape_a, shape_b in (((0, 4), (4, 3)), ((3, 0), (0, 2)), ((2, 5), (5, 0))):
        out = _mulmod(
            np.zeros(shape_a, dtype=np.int64), np.zeros(shape_b, dtype=np.int64), 7
        )
        assert out.shape == (shape_a[0], shape_b[1])


@pytest.mark.parametrize("p", [2, 5, 97, 32749, 2**31 - 1])
def test_gfp_echelon_against_naive(p):
    rng = random.Random(p)
    for width, rows_n in ((6, 4), (12, 20), (25, 10)):
        mat = [[rng.randrange(p) for _ in range(width)] for _ in range(rows_n)]
        ech = GFpEchelon(p, width)
        ech.insert_rows(np.array(mat, dtype=np.int64))
        assert ech.rank == _naive_rank_mod_p(mat, p)


@given(
    p=st.sampled_from([2, 5, 65521, 2**31 - 1]),
    seed=st.integers(0, 2**32 - 1),
    cuts=st.lists(st.integers(1, 2 * BASE_BLOCK + 40), max_size=6),
)
@settings(max_examples=25)
def test_gfp_echelon_differential(p, seed, cuts):
    rng = random.Random(seed)
    width = rng.randrange(8, 40)
    base = [
        [rng.randrange(p) if rng.random() < 0.3 else 0 for _ in range(width)]
        for _ in range(rng.randrange(1, width + 1))
    ]
    mat = list(base)
    while len(mat) < 2 * BASE_BLOCK + 10:
        a, b = rng.choice(base), rng.choice(base)
        ca, cb = rng.randrange(p), rng.randrange(p)
        mat.append([(ca * x + cb * y) % p for x, y in zip(a, b)])
    rng.shuffle(mat)
    M = np.array(mat, dtype=np.int64)
    whole = GFpEchelon(p, width)
    whole.insert_rows(M)
    split = GFpEchelon(p, width)
    for lo, hi in zip([0] + sorted(cuts), sorted(cuts) + [len(mat)]):
        split.insert_rows(M[lo:hi])
    want_rows, want_piv = _naive_rref_mod_p(mat, p)
    for ech in (whole, split):
        assert ech.rank == len(want_piv)
        assert ech.pivot_columns() == want_piv
        order = np.argsort(ech.pivots)
        assert np.array_equal(ech.rows[order], np.array(want_rows, dtype=np.int64).reshape(-1, width))
    for _ in range(5):
        v = np.array([rng.randrange(p) for _ in range(width)], dtype=np.int64)
        red = split.reduce(v)
        assert not red[want_piv].any()
        assert np.array_equal(split.reduce(red), red)


def test_gfp_echelon_incremental_batches():
    p = 97
    rng = random.Random(29)
    width = 20
    mat = _known_rank_matrix(rng, rank=8, width=width, extra=14, p=p)
    ech = GFpEchelon(p, width)
    # feeding in uneven batches must land on the same rank and keep rows reduced
    for lo in range(0, len(mat), 5):
        ech.insert_rows(np.array(mat[lo : lo + 5], dtype=np.int64))
    assert ech.rank == 8
    piv = ech.pivot_columns()
    for _ in range(40):
        v = np.array([rng.randrange(p) for _ in range(width)], dtype=np.int64)
        red = ech.reduce(v)
        assert not red[piv].any()
        assert np.array_equal(ech.reduce(red), red)


def test_gfp_reduce_rows_matches_single_reduce():
    p = 5
    rng = random.Random(31)
    width = 15
    ech = GFpEchelon(p, width)
    ech.insert_rows(
        np.array([[rng.randrange(p) for _ in range(width)] for _ in range(7)])
    )
    block = np.array(
        [[rng.randrange(p) for _ in range(width)] for _ in range(9)], dtype=np.int64
    )
    bulk = ech.reduce_rows(block)
    for i in range(block.shape[0]):
        assert np.array_equal(bulk[i], ech.reduce(block[i]))


def test_gfp_insert_dependent_row():
    p = 5
    ech = GFpEchelon(p, 4)
    assert ech.insert(np.array([1, 2, 3, 4])) == 0
    assert ech.insert(np.array([2, 4, 6, 8])) is None
    assert ech.insert(np.array([0, 1, 1, 1])) == 1
    assert ech.rank == 2


# -- rationals --------------------------------------------------------------------


def test_fraction_echelon_known_rank():
    rng = random.Random(37)
    mat = _known_rank_matrix(rng, rank=5, width=11, extra=8, p=1009)
    # entries were built mod a large prime; reuse them as plain integers, the
    # integer combinations stay dependent over the rationals only if built there
    base = [[Fraction(x) for x in row] for row in mat[:5]]
    ech = GFpEchelon(None, 11)
    for row in base:
        assert ech.insert(row) is not None
    combo = [sum((3 * b[j] for b in base), start=Fraction(0)) for j in range(11)]
    assert ech.insert(combo) is None
    assert ech.rank == 5


def test_fraction_echelon_normal_form():
    ech = GFpEchelon(None, 3)
    ech.insert([Fraction(1, 2), Fraction(1, 3), Fraction(0)])
    ech.insert([Fraction(0), Fraction(2), Fraction(5)])
    piv = ech.pivot_columns()
    assert piv == [0, 1]
    v = [Fraction(7), Fraction(-2), Fraction(1, 6)]
    red = ech.reduce(v)
    for c in piv:
        assert red[c] == 0
    assert np.array_equal(ech.reduce(red), red)


def test_fraction_echelon_against_modular_rank():
    # over Q the rank of an integer matrix is at least its rank mod any prime;
    # generic random matrices agree with the mod-p rank for large p
    rng = random.Random(41)
    p = 2**31 - 1
    for _ in range(5):
        mat = [[rng.randrange(-9, 10) for _ in range(8)] for _ in range(6)]
        ech = GFpEchelon(None, 8)
        ech.insert_rows([[Fraction(x) for x in row] for row in mat])
        assert ech.rank == _naive_rank_mod_p(mat, p)


# -- dispatch ---------------------------------------------------------------------


def test_echelon_for_dispatch():
    assert isinstance(echelon_for(GF2, 10), GF2Echelon)
    eng = echelon_for(GF(7), 10)
    assert isinstance(eng, GFpEchelon)
    assert eng.p == 7
    eng = echelon_for(QQ, 10)
    assert isinstance(eng, GFpEchelon)
    assert eng.p is None


def test_engines_agree_on_binary_matrices():
    rng = random.Random(43)
    for _ in range(5):
        mat = [[rng.randrange(2) for _ in range(12)] for _ in range(9)]
        g2 = GF2Echelon(12)
        g2.insert_rows(gf2_from_bits(np.array(r, dtype=np.uint8)) for r in mat)
        gp = GFpEchelon(2, 12)
        gp.insert_rows(np.array(mat, dtype=np.int64))
        assert g2.rank == gp.rank
        assert g2.pivot_columns() == gp.pivot_columns()
