"""Field arithmetic: exactness, field axioms, parsing."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsalg.errors import DivisionByZero, InvalidParams, MixedFields
from gsalg.field import (
    GF2,
    QQ,
    FieldDescriptor,
    mod_p,
    parse_field,
)
from gsalg.freealg import parse_poly
from gsalg.graded import build_table
from oracles import field_add, field_inv, field_mul, field_sub


def test_characteristic_two():
    one = GF2.coerce(1)
    assert mod_p({0: one + one}, GF2.p) == {}


def test_gf5_product():
    f = FieldDescriptor(5)
    assert field_mul(f, f.coerce(2), f.coerce(3)) == 1


def test_rational_sum_exact():
    assert mod_p({0: Fraction(1, 3) + Fraction(1, 6)}, QQ.p) == {0: Fraction(1, 2)}


def test_from_integer_examples():
    assert FieldDescriptor(5).coerce(7) == 2
    assert QQ.coerce(0) == Fraction(0)
    assert GF2.coerce(-1) == 1


def test_from_integer_is_homomorphism():
    for f in (GF2, FieldDescriptor(5), FieldDescriptor(101), QQ):
        for a in range(-6, 7):
            for b in range(-6, 7):
                assert f.coerce(a + b) == field_add(f, f.coerce(a), f.coerce(b))
                assert f.coerce(a * b) == field_mul(f, f.coerce(a), f.coerce(b))


def test_mixed_fields_rejected():
    # raw values carry no field tag; the check sits where coefficients of two
    # descriptors meet: the generators of one table, a table and its query
    with pytest.raises(MixedFields):
        build_table([parse_poly("x1*x2", 2, GF2), parse_poly("x2*x1", 2, FieldDescriptor(5))], 3)
    table = build_table([parse_poly("x1*x1", 2, QQ)], 3)
    with pytest.raises(MixedFields):
        table.normal_form(parse_poly("x1*x2", 2, GF2))


def test_division_by_zero():
    # 1/0 in GF(5): the denominator 5 vanishes mod 5 (over QQ, Fraction itself
    # refuses a zero denominator)
    with pytest.raises(DivisionByZero):
        FieldDescriptor(5).coerce(Fraction(1, 5))


def test_descriptor_validation():
    # a descriptor is its modulus: a prime below 2**31, or None for QQ
    for bad in (1, 4, 2**31 + 11, True):
        with pytest.raises(InvalidParams):
            FieldDescriptor(bad)
    assert FieldDescriptor(2) == GF2
    assert FieldDescriptor(None) == QQ


def test_descriptor_is_an_immutable_value():
    # equal moduli make equal descriptors, however they were written
    assert FieldDescriptor(5) == FieldDescriptor(p=5)
    assert hash(FieldDescriptor(5)) == hash(FieldDescriptor(p=5))
    assert {FieldDescriptor(5): "gf5"}[FieldDescriptor(p=5)] == "gf5"
    assert FieldDescriptor(5) != FieldDescriptor(7) and GF2 != QQ
    with pytest.raises(AttributeError):
        FieldDescriptor(5).p = 7
    with pytest.raises(AttributeError):
        GF2.q = 2
    for bad in (4, 1):
        with pytest.raises(InvalidParams):
            FieldDescriptor(p=bad)
        with pytest.raises(InvalidParams):
            FieldDescriptor(5)._replace(p=bad)
    assert (str(GF2), str(QQ), str(FieldDescriptor(65521))) == ("gf2", "q", "gf65521")
    assert repr(FieldDescriptor(5)) == "FieldDescriptor(p=5)"


def test_parse_field():
    assert parse_field("gf2") == GF2
    assert parse_field("GF5") == FieldDescriptor(5)
    assert parse_field("gf7919") == FieldDescriptor(7919)
    assert parse_field("q") == QQ
    assert parse_field("QQ") == QQ
    assert parse_field("rational") == QQ
    for bad in ("gf4", "gfx", "f5", "real", ""):
        with pytest.raises(InvalidParams):
            parse_field(bad)


def test_str_round_trips():
    for f in (GF2, FieldDescriptor(5), FieldDescriptor(7919), QQ):
        assert parse_field(str(f)) == f


def test_prime_detection_matches_sieve():
    limit = 2000
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            for k in range(i * i, limit + 1, i):
                sieve[k] = False
    for p in range(3, limit + 1):
        if sieve[p]:
            assert FieldDescriptor(p).p == p
        else:
            with pytest.raises(InvalidParams):
                FieldDescriptor(p)
    # strong pseudoprimes to the bases 2; 2, 3; and 2, 3, 5; then 46337**2, the
    # largest prime square below 2**31 (an off-by-one at isqrt lets it through)
    for n in (2047, 1373653, 25326001, 46337**2):
        with pytest.raises(InvalidParams, match="is not prime"):
            FieldDescriptor(n)
    assert FieldDescriptor(2**31 - 1).p == 2**31 - 1


def test_coerce_fraction_over_prime_field():
    f = FieldDescriptor(5)
    assert f.coerce(Fraction(2, 3)) == 4  # 2 * 3^-1 = 2 * 2
    assert f.coerce(7) == 2
    with pytest.raises(InvalidParams):
        f.coerce(0.5)
    with pytest.raises(InvalidParams):
        f.coerce(True)


_fields = st.sampled_from([GF2, FieldDescriptor(5), FieldDescriptor(97), QQ])


@st.composite
def _field_and_elements(draw, count):
    f = draw(_fields)
    elems = []
    for _ in range(count):
        k = draw(st.integers(min_value=-50, max_value=50))
        if f is QQ:
            den = draw(st.integers(min_value=1, max_value=20))
            elems.append(Fraction(k, den))
        else:
            elems.append(f.coerce(k))
    return f, elems


@given(_field_and_elements(3))
def test_field_axioms(data):
    f, (a, b, c) = data
    assert field_add(f, field_add(f, a, b), c) == field_add(f, a, field_add(f, b, c))
    assert field_mul(f, field_mul(f, a, b), c) == field_mul(f, a, field_mul(f, b, c))
    assert field_mul(f, a, field_add(f, b, c)) == field_add(f, field_mul(f, a, b), field_mul(f, a, c))
    assert field_add(f, a, field_sub(f, f.zero, a)) == f.zero
    if a != 0:
        assert field_mul(f, a, field_inv(f, a)) == f.one
    assert field_sub(f, a, b) == field_add(f, a, field_sub(f, f.zero, b))
