"""The sparse echelon against naive eliminations and known-rank matrices."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsalg.linalg import SparseEchelon


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


def _naive_rref_q(rows):
    # the same textbook reduction over the rationals
    rows = [[Fraction(x) for x in r] for r in rows]
    width = len(rows[0]) if rows else 0
    r = 0
    pivots = []
    for col in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows[:r], pivots


def _sparse(row, p=None):
    return {c: (x if p is None else x % p) for c, x in enumerate(row) if (x if p is None else x % p)}


def _dense(row, width):
    return [row.get(c, 0) for c in range(width)]


def _insert_all(ech, mat, p=None):
    for r in mat:
        ech.insert(_sparse(r, p))


def _reduce(ech, row):
    # normal form by the fully reduced rows: subtract at each pivot once
    out = dict(row)
    for c, prow in ech.rows.items():
        a = out.get(c)
        if a:
            for k, v in prow.items():
                x = out.get(k, 0) - a * v
                x = x if ech.p is None else x % ech.p
                if x:
                    out[k] = x
                else:
                    out.pop(k, None)
    return out


# -- GF(2) as p = 2 ----------------------------------------------------------------


def test_gf2_echelon_against_naive():
    rng = random.Random(11)
    for width in (5, 17, 40):
        for rows_n in (3, 10, 25):
            mat = [[rng.randrange(2) for _ in range(width)] for _ in range(rows_n)]
            ech = SparseEchelon(2)
            _insert_all(ech, mat)
            assert len(ech.rows) == _naive_rank_mod_p(mat, 2)


def test_gf2_echelon_normal_form():
    rng = random.Random(13)
    width = 30
    ech = SparseEchelon(2)
    rows = [[rng.randrange(2) for _ in range(width)] for _ in range(12)]
    _insert_all(ech, rows)
    ech.back_substitute()
    piv = set(ech.rows)
    for c, row in ech.rows.items():
        assert min(row) == c and row[c] == 1
        assert not (set(row) & piv) - {c}
    for _ in range(50):
        v = _sparse([rng.randrange(2) for _ in range(width)])
        red = _reduce(ech, v)
        assert not set(red) & piv
        assert _reduce(ech, red) == red
    # anything already in the span is dependent
    span_elt = [(a + b) % 2 for a, b in zip(rows[0], rows[3])]
    assert ech.insert(_sparse(span_elt)) is None
    assert _reduce(ech, _sparse(span_elt)) == {}


def test_gf2_echelon_known_rank():
    rng = random.Random(17)
    mat = _known_rank_matrix(rng, rank=6, width=14, extra=9, p=2)
    ech = SparseEchelon(2)
    _insert_all(ech, mat)
    assert len(ech.rows) == 6
    assert all(min(r) == c and r[c] == 1 for c, r in ech.rows.items())


# -- GF(p) and QQ --------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 5, 97, 32749, 2**31 - 1])
def test_gfp_echelon_against_naive(p):
    rng = random.Random(p)
    for width, rows_n in ((6, 4), (12, 20), (25, 10)):
        mat = [[rng.randrange(p) for _ in range(width)] for _ in range(rows_n)]
        ech = SparseEchelon(p)
        _insert_all(ech, mat, p)
        assert len(ech.rows) == _naive_rank_mod_p(mat, p)


@given(
    p=st.sampled_from([2, 5, 65521, 2**31 - 1, None]),
    seed=st.integers(0, 2**32 - 1),
    cuts=st.lists(st.integers(1, 140), max_size=6),
)
@settings(max_examples=25)
def test_gfp_echelon_differential(p, seed, cuts):
    # rank, pivots and fully reduced rows equal the naive RREF, whether the
    # rows go in at once or in batches with a back-substitution after each;
    # insert reduces what it is fed (about half the rows come unreduced, and
    # one row is zero mod p) and never changes the caller's dict
    rng = random.Random(seed)
    width = rng.randrange(8, 40)

    def draw():
        if p is None:
            return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        return rng.randrange(p)

    base = [
        [draw() if rng.random() < 0.3 else 0 for _ in range(width)]
        for _ in range(rng.randrange(1, width + 1))
    ]
    mat = list(base)
    while len(mat) < 138:
        a, b = rng.choice(base), rng.choice(base)
        ca, cb = draw(), draw()
        mat.append([ca * x + cb * y if p is None else (ca * x + cb * y) % p for x, y in zip(a, b)])
    rng.shuffle(mat)

    def unreduced(row):
        # entries shifted by multiples of p, some negative, and explicit zeros
        return {
            c: x if p is None else x + p * rng.randrange(-3, 4)
            for c, x in enumerate(row)
            if x or rng.random() < 0.2
        }

    fed = [unreduced(r) if rng.random() < 0.5 else _sparse(r, p) for r in mat]
    zero = {c: 0 if p is None else p * rng.randrange(-3, 4) for c in range(0, width, 3)}
    fed.insert(rng.randrange(len(fed) + 1), zero)
    kept = [dict(r) for r in fed]
    assert SparseEchelon(p).insert(zero) is None
    whole = SparseEchelon(p)
    for r in fed:
        whole.insert(r)
    whole.back_substitute()
    split = SparseEchelon(p)
    for lo, hi in zip([0] + sorted(cuts), sorted(cuts) + [len(fed)]):
        for r in fed[lo:hi]:
            split.insert(r)
        split.back_substitute()
    assert fed == kept
    want_rows, want_piv = _naive_rref_q(mat) if p is None else _naive_rref_mod_p(mat, p)
    for ech in (whole, split):
        assert len(ech.rows) == len(want_piv)
        assert sorted(ech.rows) == want_piv
        assert [_dense(ech.rows[c], width) for c in want_piv] == want_rows
    for _ in range(5):
        v = _sparse([draw() for _ in range(width)], p)
        red = _reduce(split, v)
        assert not set(red) & set(want_piv)
        assert _reduce(split, red) == red


def test_gfp_echelon_incremental_batches():
    p = 97
    rng = random.Random(29)
    width = 20
    mat = _known_rank_matrix(rng, rank=8, width=width, extra=14, p=p)
    ech = SparseEchelon(p)
    # feeding in uneven batches must land on the same rank and keep rows reduced
    for lo in range(0, len(mat), 5):
        _insert_all(ech, mat[lo : lo + 5], p)
        ech.back_substitute()
    assert len(ech.rows) == 8
    piv = set(ech.rows)
    for _ in range(40):
        v = _sparse([rng.randrange(p) for _ in range(width)], p)
        red = _reduce(ech, v)
        assert not set(red) & piv
        assert _reduce(ech, red) == red


def test_gfp_insert_dependent_row():
    p = 5
    ech = SparseEchelon(p)
    assert ech.insert({0: 1, 1: 2, 2: 3, 3: 4}) == 0
    assert ech.insert({0: 2, 1: 4, 2: 1, 3: 3}) is None
    assert ech.insert({1: 1, 2: 1, 3: 1}) == 1
    assert len(ech.rows) == 2


# -- rationals --------------------------------------------------------------------


def test_fraction_echelon_known_rank():
    rng = random.Random(37)
    mat = _known_rank_matrix(rng, rank=5, width=11, extra=8, p=1009)
    # entries were built mod a large prime; reuse them as plain integers, the
    # integer combinations stay dependent over the rationals only if built there
    base = [[Fraction(x) for x in row] for row in mat[:5]]
    ech = SparseEchelon(None)
    for row in base:
        assert ech.insert(_sparse(row)) is not None
    combo = [sum((3 * b[j] for b in base), start=Fraction(0)) for j in range(11)]
    assert ech.insert(_sparse(combo)) is None
    assert len(ech.rows) == 5


def test_fraction_echelon_normal_form():
    ech = SparseEchelon(None)
    ech.insert({0: Fraction(1, 2), 1: Fraction(1, 3)})
    ech.insert({1: Fraction(2), 2: Fraction(5)})
    ech.back_substitute()
    piv = sorted(ech.rows)
    assert piv == [0, 1]
    assert ech.rows[0] == {0: 1, 2: Fraction(-5, 3)}
    assert ech.rows[1] == {1: 1, 2: Fraction(5, 2)}
    v = {0: Fraction(7), 1: Fraction(-2), 2: Fraction(1, 6)}
    red = _reduce(ech, v)
    assert not set(red) & set(piv)
    assert _reduce(ech, red) == red


def test_fraction_echelon_against_modular_rank():
    # over Q the rank of an integer matrix is at least its rank mod any prime;
    # generic random matrices agree with the mod-p rank for large p
    rng = random.Random(41)
    p = 2**31 - 1
    for _ in range(5):
        mat = [[rng.randrange(-9, 10) for _ in range(8)] for _ in range(6)]
        ech = SparseEchelon(None)
        _insert_all(ech, [[Fraction(x) for x in row] for row in mat])
        assert len(ech.rows) == _naive_rank_mod_p(mat, p)
