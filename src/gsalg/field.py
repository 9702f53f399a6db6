"""Exact scalar arithmetic over GF(2), GF(p), and the rationals.

A FieldDescriptor is its modulus: a prime p < 2**31 for GF(p), GF(2) being
simply p = 2, or None for the rationals.  Raw values are python ints in
[0, p) for the finite fields and fractions.Fraction for the rationals;
polynomials and the linear-algebra engines work on them with plain python
operators, tagged by a shared descriptor.  An outside int or Fraction enters
a field through coerce, and pow raises a residue to a large exponent without
forming the raw power.

Every sparse coefficient map ({word: coefficient} in a polynomial,
{column: coefficient} in a row) is kept canonical by one rule: add raw
values (over QQ each summand is a Fraction, so each sum is one), then reduce
once with mod_p, which takes each value mod p and drops the zeros.  Graded
tables over GF(2) keep index sets instead, which leave nothing to reduce.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .errors import DivisionByZero, InvalidParams, require_int

Coeff = Union[int, Fraction]

MAX_PRIME = 2**31


def mod_p(row: dict, p: Optional[int]) -> dict:
    """row reduced mod p (no modulus over QQ, p None), zeros dropped."""
    if p is None:
        return {k: v for k, v in row.items() if v}
    return {k: r for k, v in row.items() if (r := v % p)}


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin: no strong pseudoprime to the bases 2, 3, 5, 7
    # lies below 3,215,031,751 > MAX_PRIME
    if n < 11:
        return n in (2, 3, 5, 7)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = m * 2**s with m odd
    m = (n - 1) >> s
    return not any(pow(a, m, n) != 1 and all(pow(a, m << k, n) != n - 1 for k in range(s))
                   for a in (2, 3, 5, 7))


class _Modulus(NamedTuple):
    p: Optional[int]


class FieldDescriptor(_Modulus):
    """Coefficient field GF(p) for a prime p < 2**31, or QQ when p is None.

    An immutable value: equal moduli give equal, equally hashed descriptors.
    """

    __slots__ = ()

    def __new__(cls, p: Optional[int]):
        if p is not None:
            require_int(p, "prime field modulus p", 2, MAX_PRIME - 1)
            if not _is_prime(p):
                raise InvalidParams("%d is not prime" % p)
        return super().__new__(cls, p)

    @classmethod
    def _make(cls, iterable):
        # the named-tuple copy constructor (also behind _replace), validated too
        return cls(*iterable)

    # -- raw-value arithmetic ------------------------------------------------

    @property
    def zero(self) -> Coeff:
        return 0 if self.p is not None else Fraction(0)

    @property
    def one(self) -> Coeff:
        return 1 if self.p is not None else Fraction(1)

    def coerce(self, x) -> Coeff:
        """Canonical image of an int or Fraction (Fractions over GF(p) via inverse,
        DivisionByZero when the denominator is 0 mod p)."""
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise InvalidParams("coefficient must be int or Fraction, got %r" % (x,))
        p = self.p
        if p is None:
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise DivisionByZero("denominator of %s vanishes in %s" % (x, self))
            return x.numerator * pow(x.denominator, -1, p) % p
        return x % p

    def pow(self, a: Coeff, m: int) -> Coeff:
        return pow(a, m, self.p) if self.p is not None else a**m

    def __str__(self) -> str:
        return "q" if self.p is None else "gf%d" % self.p


GF2 = FieldDescriptor(2)
QQ = FieldDescriptor(None)


def parse_field(text: str) -> FieldDescriptor:
    """Parse a field spec string: 'gf2', 'gf<p>', or 'q'."""
    t = text.strip().lower()
    if t in ("q", "qq", "rational"):
        return QQ
    if t.startswith("gf"):
        try:
            p = int(t[2:])
        except ValueError:
            raise InvalidParams("bad field spec %r" % text) from None
        return FieldDescriptor(p)
    raise InvalidParams("bad field spec %r (expected gf2, gf<p>, or q)" % text)

