"""The semi-echelon of graded._insert and the image table graded._finish reads
off it, against naive eliminations and known-rank matrices."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsalg.graded import _finish, _insert


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


def _insert_all(rows, mat, p=None):
    for r in mat:
        _insert(rows, _sparse(r, p), p)


def _naive_image(rows, width, p=None):
    # the image table graded._finish reads off the span of the dense rows:
    # a standard column's index among the standard columns, and at a pivot
    # minus the rest of its fully reduced row, in those indices
    red, pivots = _naive_rref_q(rows) if p is None else _naive_rref_mod_p(rows, p)
    index = {c: i for i, c in enumerate(c for c in range(width) if c not in pivots)}
    image = [index.get(c) for c in range(width)]
    for row, c in zip(red, pivots):
        image[c] = {index[k]: -x if p is None else -x % p for k, x in enumerate(row) if k in index and x}
    return image


def _through(image, row, p=None):
    # a row mapped into standard coordinates by an image table: its normal form
    out = {}
    for k, a in row.items():
        img = image[k]
        for j, v in ({img: 1} if img.__class__ is int else img).items():
            out[j] = out.get(j, 0) + a * v
    return {j: v if p is None else v % p for j, v in out.items() if (v if p is None else v % p)}


# -- GF(2) as p = 2 ----------------------------------------------------------------


def test_gf2_echelon_against_naive():
    rng = random.Random(11)
    for width in (5, 17, 40):
        for rows_n in (3, 10, 25):
            mat = [[rng.randrange(2) for _ in range(width)] for _ in range(rows_n)]
            ech = {}
            _insert_all(ech, mat, 2)
            assert len(ech) == _naive_rank_mod_p(mat, 2)


def test_gf2_echelon_normal_form():
    rng = random.Random(13)
    width = 30
    ech = {}
    rows = [[rng.randrange(2) for _ in range(width)] for _ in range(12)]
    _insert_all(ech, rows, 2)
    for c, row in ech.items():
        assert min(row) == c and row[c] == 1
    image = _finish(ech, width, 2)
    assert image == _naive_image(rows, width, 2)
    # anything already in the span is dependent
    span_elt = [(a + b) % 2 for a, b in zip(rows[0], rows[3])]
    assert _insert(ech, _sparse(span_elt), 2) is None
    assert _through(image, _sparse(span_elt), 2) == {}


def test_gf2_echelon_known_rank():
    rng = random.Random(17)
    mat = _known_rank_matrix(rng, rank=6, width=14, extra=9, p=2)
    ech = {}
    _insert_all(ech, mat, 2)
    assert len(ech) == 6
    assert all(min(r) == c and r[c] == 1 for c, r in ech.items())


# -- GF(p) and QQ --------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 5, 97, 32749, 2**31 - 1])
def test_gfp_echelon_against_naive(p):
    rng = random.Random(p)
    for width, rows_n in ((6, 4), (12, 20), (25, 10)):
        mat = [[rng.randrange(p) for _ in range(width)] for _ in range(rows_n)]
        ech = {}
        _insert_all(ech, mat, p)
        assert len(ech) == _naive_rank_mod_p(mat, p)


@given(
    p=st.sampled_from([2, 5, 65521, 2**31 - 1, None]),
    seed=st.integers(0, 2**32 - 1),
    cuts=st.lists(st.integers(1, 140), max_size=6),
)
@settings(max_examples=25)
def test_gfp_echelon_differential(p, seed, cuts):
    # rank, pivots and the image table graded._finish reads off equal the
    # naive RREF's, whether the rows go in at once or in batches with a
    # finish after each; insert reduces what it is fed (about half the rows
    # come unreduced, and one row is zero mod p) and never changes the
    # caller's dict
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
    assert _insert({}, zero, p) is None
    whole = {}
    for r in fed:
        _insert(whole, r, p)
    split = {}
    for lo, hi in zip([0] + sorted(cuts), sorted(cuts) + [len(fed)]):
        for r in fed[lo:hi]:
            _insert(split, r, p)
        split_image = _finish(split, width, p)
    assert fed == kept
    want_rows, want_piv = _naive_rref_q(mat) if p is None else _naive_rref_mod_p(mat, p)
    want_image = _naive_image(mat, width, p)
    for ech, image in ((whole, _finish(whole, width, p)), (split, split_image)):
        assert len(ech) == len(want_piv)
        assert sorted(ech) == want_piv
        assert image == want_image
    for row in want_rows:
        assert _through(split_image, _sparse(row, p), p) == {}


def test_gfp_echelon_incremental_batches():
    p = 97
    rng = random.Random(29)
    width = 20
    mat = _known_rank_matrix(rng, rank=8, width=width, extra=14, p=p)
    ech = {}
    # feeding in uneven batches must land on the same rank, and each finish
    # on the image table of the rows in so far
    for lo in range(0, len(mat), 5):
        _insert_all(ech, mat[lo : lo + 5], p)
        assert _finish(ech, width, p) == _naive_image(mat[: lo + 5], width, p)
    assert len(ech) == 8


def test_gfp_insert_dependent_row():
    p = 5
    ech = {}
    assert _insert(ech, {0: 1, 1: 2, 2: 3, 3: 4}, p) == 0
    assert _insert(ech, {0: 2, 1: 4, 2: 1, 3: 3}, p) is None
    assert _insert(ech, {1: 1, 2: 1, 3: 1}, p) == 1
    assert len(ech) == 2


# -- rationals --------------------------------------------------------------------


def test_fraction_echelon_known_rank():
    rng = random.Random(37)
    mat = _known_rank_matrix(rng, rank=5, width=11, extra=8, p=1009)
    # entries were built mod a large prime; reuse them as plain integers, the
    # integer combinations stay dependent over the rationals only if built there
    base = [[Fraction(x) for x in row] for row in mat[:5]]
    ech = {}
    for row in base:
        assert _insert(ech, _sparse(row), None) is not None
    combo = [sum((3 * b[j] for b in base), start=Fraction(0)) for j in range(11)]
    assert _insert(ech, _sparse(combo), None) is None
    assert len(ech) == 5


def test_fraction_echelon_normal_form():
    ech = {}
    rows = [[Fraction(1, 2), Fraction(1, 3), 0], [0, Fraction(2), Fraction(5)]]
    _insert_all(ech, rows)
    piv = sorted(ech)
    assert piv == [0, 1]
    # the reduced rows are {0: 1, 2: -5/3} and {1: 1, 2: 5/2}
    reduced = [[1, 0, Fraction(-5, 3)], [0, 1, Fraction(5, 2)]]
    image = _finish(ech, 3, None)
    assert image == _naive_image(reduced, 3) == _naive_image(rows, 3)
    assert image == [{0: Fraction(5, 3)}, {0: Fraction(-5, 2)}, 0]
    v = {0: Fraction(7), 1: Fraction(-2), 2: Fraction(1, 6)}
    assert _through(image, v) == {0: Fraction(7 * 5, 3) + 5 + Fraction(1, 6)}


def test_fraction_echelon_against_modular_rank():
    # over Q the rank of an integer matrix is at least its rank mod any prime;
    # generic random matrices agree with the mod-p rank for large p
    rng = random.Random(41)
    p = 2**31 - 1
    for _ in range(5):
        mat = [[rng.randrange(-9, 10) for _ in range(8)] for _ in range(6)]
        ech = {}
        _insert_all(ech, [[Fraction(x) for x in row] for row in mat])
        assert len(ech) == _naive_rank_mod_p(mat, p)
