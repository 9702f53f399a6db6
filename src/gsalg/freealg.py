"""Noncommutative polynomials over the free associative algebra F{x1..xd}.

Words (monomials) are tuples of 1-based variable indices; the empty tuple is
the unit.  Polynomials store a dict mapping words to nonzero raw coefficients
plus the shared ambient (d, field); construction, sums, products and parsing
add raw values and reduce once with field.mod_p.  The monomial order
everywhere is degree first, then left-to-right lexicographic with
x1 < x2 < ... < xd, which on index tuples is exactly ``(len(w), w)``.

Text form (used by generator files, blueprints, and the CLI):

    poly   := [sign] term ((\"+\" | \"-\") term)*
    term   := coeff [\"*\" factor (\"*\" factor)*] | factor (\"*\" factor)*
    coeff  := integer [\"/\" integer]
    factor := \"x\" integer

Whitespace is ignored.  The \"/den\" coefficient suffix and the leading sign
exist so rational-coefficient polynomials round-trip; printing emits plain
integers whenever the coefficient is integral.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Tuple

from .errors import (
    AmbientMismatch,
    InvalidParams,
    ParseError,
    VariableOutOfRange,
    require_int,
)
from .field import Coeff, FieldDescriptor, mod_p

Word = Tuple[int, ...]


def order_key(word: Word):
    """Sort key realizing the degree-then-lexicographic monomial order."""
    return (len(word), word)


def words_of_degree(d: int, n: int) -> Iterator[Word]:
    """All d**n degree-n words in monomial order."""
    return itertools.product(range(1, d + 1), repeat=n)


def word_index(word: Word, d: int) -> int:
    """Position of a degree-n word within words_of_degree(d, n)."""
    idx = 0
    for t in word:
        idx = idx * d + (t - 1)
    return idx


class Polynomial:
    """An element of F{x1..xd} with exact coefficients."""

    __slots__ = ("d", "field", "_terms")

    def __init__(self, d: int, field: FieldDescriptor, terms: Mapping[Word, object] | None = None):
        require_int(d, "the variable count d", 1)
        self.d = d
        self.field = field
        acc: dict[Word, Coeff] = {}
        for word, raw in (terms or {}).items():
            word = tuple(word)
            for t in word:
                require_int(t, "a variable index", 1, d)
            acc[word] = acc.get(word, 0) + field.coerce(raw)
        self._terms = mod_p(acc, field.p)

    @classmethod
    def _raw(cls, d: int, field: FieldDescriptor, terms: dict) -> "Polynomial":
        # internal fast path: terms must already be canonical and zero-free
        p = cls.__new__(cls)
        p.d = d
        p.field = field
        p._terms = terms
        return p

    @classmethod
    def zero(cls, d: int, field: FieldDescriptor) -> "Polynomial":
        return cls._raw(d, field, {})

    @classmethod
    def one(cls, d: int, field: FieldDescriptor) -> "Polynomial":
        return cls._raw(d, field, {(): field.one})

    @classmethod
    def variable(cls, i: int, d: int, field: FieldDescriptor) -> "Polynomial":
        if not 1 <= i <= d:
            raise InvalidParams("variable index %d outside x1..x%d" % (i, d))
        return cls._raw(d, field, {(i,): field.one})

    @classmethod
    def monomial(cls, word: Iterable[int], d: int, field: FieldDescriptor, coeff=1) -> "Polynomial":
        return cls(d, field, {tuple(word): coeff})

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self) -> Mapping[Word, Coeff]:
        """Word -> coefficient view; treat as read-only."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, word: Iterable[int]) -> Coeff:
        return self._terms.get(tuple(word), self.field.zero)

    def constant_coefficient(self) -> Coeff:
        return self._terms.get((), self.field.zero)

    def degree(self) -> int:
        """Largest word length; -1 for the zero polynomial."""
        return max((len(w) for w in self._terms), default=-1)

    def min_degree(self) -> int:
        return min((len(w) for w in self._terms), default=-1)

    def is_homogeneous(self) -> bool:
        """True when all words share one length.  The zero polynomial is not."""
        return bool(self._terms) and self.degree() == self.min_degree()

    def homogeneous_components(self) -> dict[int, "Polynomial"]:
        buckets: dict[int, dict] = {}
        for w, c in self._terms.items():
            buckets.setdefault(len(w), {})[w] = c
        return {n: Polynomial._raw(self.d, self.field, t) for n, t in sorted(buckets.items())}

    # -- arithmetic ----------------------------------------------------------

    def _check_ambient(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial):
            raise AmbientMismatch("expected a Polynomial, got %r" % (other,))
        if other.d != self.d or other.field != self.field:
            raise AmbientMismatch(
                "ambients differ: %d vars over %s vs %d vars over %s"
                % (self.d, self.field, other.d, other.field)
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ambient(other)
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, 0) + c
        return Polynomial._raw(self.d, self.field, mod_p(out, self.field.p))

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ambient(other)
        out: dict[Word, Coeff] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return Polynomial._raw(self.d, self.field, mod_p(out, self.field.p))

    def scale(self, raw) -> "Polynomial":
        """Multiply by a raw scalar of the ambient field."""
        f = self.field
        c0 = f.coerce(raw)
        return Polynomial._raw(self.d, f, mod_p({w: c * c0 for w, c in self._terms.items()}, f.p))

    def __pow__(self, n: int) -> "Polynomial":
        require_int(n, "the exponent", 0)
        out = Polynomial.one(self.d, self.field)
        for _ in range(n):
            out = out * self
        return out

    # -- comparison / rendering ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.d == other.d and self.field == other.field and self._terms == other._terms

    __hash__ = None

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return "Polynomial(%d, %s, %s)" % (self.d, self.field, poly_str(self))


def poly_str(p: Polynomial) -> str:
    """Deterministic text form; terms ascend in the monomial order."""
    terms = p._terms
    if not terms:
        return "0"
    x = ["x%d" % t for t in range(p.d + 1)]
    parts = []
    for w in sorted(terms, key=order_key):
        c = terms[w]
        txt = str(abs(c))  # a Fraction prints an integral value as an integer
        if w:
            word = "*".join(map(x.__getitem__, w))
            txt = word if txt == "1" else txt + "*" + word
        parts.append((" - " if c < 0 else " + ") + txt)
    out = "".join(parts)
    return out[3:] if out[1] == "+" else "-" + out[3:]


def parse_poly(text: str, d: int, field: FieldDescriptor) -> Polynomial:
    """Parse the text grammar above; ParseError carries the 1-based column."""
    i, n = 0, len(text)

    def skip():
        nonlocal i
        while i < n and text[i].isspace():
            i += 1

    def read_int() -> tuple[int, int]:
        nonlocal i
        start = i
        while i < n and text[i].isdigit():
            i += 1
        if i == start:
            raise ParseError("expected digits", start + 1)
        return int(text[start:i]), start

    terms: dict[Word, Coeff] = {}
    skip()
    if i == n:
        raise ParseError("empty polynomial", i + 1)
    sign = 1
    if text[i] in "+-":
        sign = -1 if text[i] == "-" else 1
        i += 1
    while True:
        skip()
        coeff = field.one
        word: Word = ()
        want_factors = True
        if i < n and text[i].isdigit():
            coeff, _ = read_int()
            if i < n and text[i] == "/":
                i += 1
                den, dpos = read_int()
                # tested on the raw den: Fraction would cancel it against coeff
                vanishes = den == 0 if field.p is None else den % field.p == 0
                if vanishes:
                    raise ParseError("coefficient denominator vanishes", dpos + 1)
                coeff = Fraction(coeff, den)
            coeff = field.coerce(coeff)
            want_factors = False
            skip()
            if i < n and text[i] == "*":
                i += 1
                want_factors = True
        if want_factors:
            while True:
                skip()
                xpos = i
                if i >= n or text[i] != "x":
                    raise ParseError("expected a variable like x1", i + 1)
                i += 1
                idx, _ = read_int()
                if not 1 <= idx <= d:
                    raise VariableOutOfRange("x%d outside x1..x%d" % (idx, d), xpos + 1)
                word = word + (idx,)
                skip()
                if i < n and text[i] == "*":
                    i += 1
                else:
                    break
        terms[word] = terms.get(word, 0) + sign * coeff
        skip()
        if i == n:
            break
        if text[i] == "+":
            sign = 1
        elif text[i] == "-":
            sign = -1
        else:
            raise ParseError("unexpected %r" % text[i], i + 1)
        i += 1
    return Polynomial._raw(d, field, mod_p(terms, field.p))
