"""Free-algebra polynomials: arithmetic, grading, text format."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsalg.errors import (
    AmbientMismatch,
    ParseError,
    VariableOutOfRange,
)
from gsalg.field import GF2, QQ, FieldDescriptor
from gsalg.freealg import (
    Polynomial,
    order_key,
    parse_poly,
    poly_str,
    word_index,
    words_of_degree,
)
from gsalg.symfun import monomial_window, window_generator

from oracles import reference_fold, reference_poly_str


def x(i, d=2, field=GF2):
    return Polynomial.variable(i, d, field)


# -- examples ----------------------------------------------------------------


def test_add_characteristic_two():
    p = parse_poly("x1*x2 + x2*x1", 2, GF2)
    q = parse_poly("x1*x2", 2, GF2)
    assert p + q == parse_poly("x2*x1", 2, GF2)


def test_add_identity():
    p = parse_poly("x1*x2 + x2*x2", 2, GF2)
    assert p + Polynomial.zero(2, GF2) == p


def test_add_cancellation_gf5():
    f = FieldDescriptor(5)
    p = parse_poly("2*x1", 2, f) + parse_poly("3*x1", 2, f)
    assert p.is_zero()


def test_mul_noncommutative():
    assert x(1) * x(2) != x(2) * x(1)
    assert x(1) * x(2) == Polynomial.monomial((1, 2), 2, GF2)


def test_mul_expansion():
    p = x(1) + x(2)
    sq = p * p
    assert sq == parse_poly("x1*x1 + x1*x2 + x2*x1 + x2*x2", 2, GF2)


def test_mul_unit():
    p = parse_poly("x1*x2 + x2*x2", 2, GF2)
    assert Polynomial.one(2, GF2) * p == p
    assert p * Polynomial.one(2, GF2) == p


def test_homogeneous_components():
    p = parse_poly("x1 + x1*x2", 2, GF2)
    comps = p.homogeneous_components()
    assert list(comps) == [1, 2]
    assert comps[1] == x(1)
    assert comps[2] == x(1) * x(2)
    cubic = parse_poly("x1*x2*x1", 2, GF2)
    assert cubic.homogeneous_components() == {3: cubic}
    assert Polynomial.zero(2, GF2).homogeneous_components() == {}


def test_components_sum_to_polynomial():
    f = FieldDescriptor(5)
    p = parse_poly("x1 + 2*x1*x2 + 3*x2*x2*x1 + 4", 2, f)
    total = Polynomial.zero(2, f)
    for comp in p.homogeneous_components().values():
        total = total + comp
    assert total == p


def test_power():
    assert x(1) ** 3 == Polynomial.monomial((1, 1, 1), 2, GF2)
    sq = (x(1) + x(2)) ** 2
    assert len(sq.terms) == 4
    p = parse_poly("x1*x2 + x1", 2, GF2)
    assert p**1 == p
    assert p**0 == Polynomial.one(2, GF2)


def test_degree_and_homogeneity():
    p = parse_poly("x1*x2 + x2*x1", 2, GF2)
    assert p.degree() == 2 and p.is_homogeneous()
    q = parse_poly("x1 + x1*x2", 2, GF2)
    assert q.degree() == 2 and q.min_degree() == 1 and not q.is_homogeneous()
    z = Polynomial.zero(2, GF2)
    assert z.degree() == -1 and not z.is_homogeneous()
    assert Polynomial.one(2, GF2).degree() == 0


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        x(1, d=2) + x(1, d=3)
    with pytest.raises(AmbientMismatch):
        x(1, field=GF2) * x(1, field=FieldDescriptor(5))


# -- monomial order and enumeration -------------------------------------------


def test_words_of_degree_count_and_order():
    for d in (2, 3):
        for n in range(5):
            words = list(words_of_degree(d, n))
            assert len(words) == d**n
            assert words == sorted(words, key=order_key)


def test_order_is_degree_compatible():
    assert order_key((2, 2)) < order_key((1, 1, 1))
    assert order_key((1, 2)) < order_key((2, 1))
    assert order_key(()) < order_key((1,))


def test_word_index_matches_enumeration():
    for d in (2, 3):
        for n in range(4):
            for i, w in enumerate(words_of_degree(d, n)):
                assert word_index(w, d) == i


# -- text format ---------------------------------------------------------------


def test_parse_examples():
    p = parse_poly("x1*x2 + x2*x1", 2, GF2)
    assert p.coefficient((1, 2)) == 1 and p.coefficient((2, 1)) == 1
    q = parse_poly("3*x1*x1 - x2", 2, GF2)
    assert q == parse_poly("x1*x1 + x2", 2, GF2)
    with pytest.raises(VariableOutOfRange):
        parse_poly("x3", 2, GF2)


def test_parse_constants_and_signs():
    f = FieldDescriptor(5)
    assert parse_poly("0", 2, f).is_zero()
    assert parse_poly("7", 2, f) == Polynomial.one(2, f).scale(2)
    assert parse_poly("-x1 + x1", 2, f).is_zero()
    assert parse_poly("- x1", 2, f) == Polynomial.variable(1, 2, f).scale(4)


def test_parse_rational_coefficients():
    p = parse_poly("1/3*x1 + 1/6*x1", 2, QQ)
    assert p.coefficient((1,)) == Fraction(1, 2)


def test_parse_vanishing_denominator():
    # the test is on the written denominator: 5/10 must not cancel to 1/2
    gf5 = FieldDescriptor(5)
    for text, field, column in (("5/10*x1", gf5, 3), ("1/5*x1", gf5, 3), ("x1 - 3/0", QQ, 8)):
        with pytest.raises(ParseError) as info:
            parse_poly(text, 2, field)
        assert info.value.position == column
        assert "denominator vanishes" in str(info.value)
    assert parse_poly("2/3*x1", 2, gf5) == parse_poly("4*x1", 2, gf5)
    assert parse_poly("10/4*x1", 2, QQ) == parse_poly("5/2*x1", 2, QQ)


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_poly("x1 + + x2", 2, GF2)
    assert info.value.position == 6
    assert "column 6" in str(info.value)
    with pytest.raises(ParseError):
        parse_poly("", 2, GF2)
    with pytest.raises(ParseError):
        parse_poly("x1 *", 2, GF2)
    with pytest.raises(ParseError):
        parse_poly("y1", 2, GF2)


def test_print_is_sorted_and_stable():
    p = parse_poly("x2*x1 + x1*x2 + x1", 2, GF2)
    assert poly_str(p) == "x1 + x1*x2 + x2*x1"
    assert poly_str(Polynomial.zero(2, GF2)) == "0"


@st.composite
def _random_poly(draw):
    field = draw(st.sampled_from([GF2, FieldDescriptor(5), QQ]))
    d = draw(st.integers(min_value=2, max_value=3))
    terms = draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.integers(min_value=1, max_value=d), min_size=0, max_size=4
                ),
                st.integers(min_value=-9, max_value=9),
            ),
            max_size=6,
        )
    )
    p = Polynomial.zero(d, field)
    for letters, coeff in terms:
        num = field.coerce(coeff)
        if field is QQ:
            num = Fraction(coeff, draw(st.integers(min_value=1, max_value=9)))
        p = p + Polynomial.monomial(tuple(letters), d, field).scale(num)
    return p


@given(_random_poly())
def test_print_parse_round_trip(p):
    assert parse_poly(poly_str(p), p.d, p.field) == p


@st.composite
def _printable_poly(draw):
    """Polynomials over GF(2), GF(5), GF(2^31-1) or QQ in up to 12 letters,
    with the empty word, negative and fractional coefficients, or none."""
    field = draw(st.sampled_from([GF2, FieldDescriptor(5), FieldDescriptor(2**31 - 1), QQ]))
    d = draw(st.integers(min_value=1, max_value=12))
    words = st.lists(st.integers(min_value=1, max_value=d), max_size=5).map(tuple)
    nums = st.integers(min_value=-(2**40), max_value=2**40)
    coeffs = st.builds(Fraction, nums, st.integers(min_value=1, max_value=30)) if field is QQ else nums
    return Polynomial(d, field, draw(st.dictionaries(words, coeffs, max_size=8)))


@settings(max_examples=300)
@given(_printable_poly())
@example(Polynomial.zero(3, QQ))
@example(Polynomial(12, QQ, {(): Fraction(-1, 2), (10, 1): 3, (12,): -1}))
@example(Polynomial(2, FieldDescriptor(2**31 - 1), {(): -1, (2, 1): 1}))
def test_print_matches_reference_printer(p):
    assert poly_str(p) == reference_poly_str(p)


@given(_random_poly(), _random_poly())
def test_mul_degree_additivity(p, q):
    if p.field != q.field or p.d != q.d:
        return
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
        return
    prod = p * q
    if p.is_homogeneous() and q.is_homogeneous() and not prod.is_zero():
        assert prod.is_homogeneous()
        assert prod.degree() == p.degree() + q.degree()


@given(_random_poly(), _random_poly(), _random_poly())
def test_ring_axioms(p, q, r):
    if len({(t.field, t.d) for t in (p, q, r)}) != 1:
        return
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p - p).is_zero()


# -- the canonical form: raw sums reduced once, against the eager fold ----------

CANONICAL_FIELDS = [GF2, FieldDescriptor(5), FieldDescriptor(2**31 - 1), QQ]


def _assert_canonical(p):
    """Every stored coefficient is nonzero: an int in [0, p), or a Fraction over QQ."""
    for c in p.terms.values():
        if p.field.p is None:
            assert type(c) is Fraction and c != 0
        else:
            assert type(c) is int and 0 < c < p.field.p


@st.composite
def _term_lists(draw):
    """(field, d, terms, terms) over a few words, so that words repeat, with
    a term now and then followed by its negative, so that sums cancel."""
    field = draw(st.sampled_from(CANONICAL_FIELDS))
    d = draw(st.integers(min_value=1, max_value=3))
    words = draw(st.lists(st.lists(st.integers(min_value=1, max_value=d), max_size=3).map(tuple),
                          min_size=1, max_size=4))
    nums = st.integers(min_value=-(2**40), max_value=2**40)
    coeffs = st.builds(Fraction, nums, st.integers(min_value=1, max_value=30)) if field is QQ else nums

    def terms():
        out = []
        for w, c, cancel in draw(st.lists(st.tuples(st.sampled_from(words), coeffs, st.booleans()),
                                          max_size=8)):
            out += [(w, c), (w, -c)] if cancel else [(w, c)]
        return out

    return field, d, terms(), terms()


def _text(terms):
    """The text form of a term list, words repeated as they come."""
    parts = ["%s %s%s" % ("-" if c < 0 else "+", abs(c), "".join("*x%d" % t for t in w))
             for w, c in terms]
    return " ".join(parts) or "0"


@settings(max_examples=200)
@given(_term_lists())
@example((GF2, 2, [((1,), 1), ((1,), 1)], []))
@example((QQ, 2, [((1,), Fraction(1)), ((1,), Fraction(-1))], []))
def test_canonical_form_matches_the_eager_fold(case):
    field, d, s, t = case

    def summed(terms):
        out = Polynomial.zero(d, field)
        for w, c in terms:
            out = out + Polynomial(d, field, {w: c})
        return out

    p, q = summed(s), summed(t)
    cases = [
        (p, reference_fold(s, field)),
        (Polynomial(d, field, dict(s)), reference_fold(dict(s).items(), field)),
        (p + q, reference_fold(s + t, field)),
        (p * q, reference_fold([(u + v, a * b) for u, a in s for v, b in t], field)),
        (parse_poly(_text(s), d, field), reference_fold(s, field)),
        (parse_poly(poly_str(p), d, field), p.terms),
    ]
    for got, want in cases:
        assert got.terms == want
        _assert_canonical(got)


def test_canonical_form_fixed_cases():
    assert (x(1) + x(1)).is_zero()  # over GF(2)
    x1 = Polynomial.variable(1, 2, QQ)
    assert (x1 - x1).is_zero()
    assert (x1 + x1).terms == {(1,): Fraction(2)}
    # two keys that name one word meet in the constructor and cancel there
    assert Polynomial(2, QQ, {(1, 2): 3, range(1, 3): -3}).is_zero()
    assert Polynomial(2, GF2, {(1, 2): 1, range(1, 3): 1, (2,): 3}).terms == {(2,): 1}


@given(st.sampled_from(CANONICAL_FIELDS), st.integers(min_value=1, max_value=2),
       st.integers(min_value=1, max_value=2), st.data())
def test_window_generator_matches_the_eager_fold(field, d, c, data):
    window = monomial_window(d, c)
    j = tuple(sorted(data.draw(st.lists(st.integers(min_value=1, max_value=window.q),
                                        min_size=1, max_size=4))))
    words = [sum((window.words[i - 1] for i in t), ()) for t in set(itertools.permutations(j))]
    h = window_generator(j, window, field)
    assert h.terms == reference_fold([(w, 1) for w in words], field)
    _assert_canonical(h)
