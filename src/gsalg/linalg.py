"""Exact row-echelon engines backing the graded dimension tables.

The engines share one interface: rows go in (singly or as a block), the
engine keeps a basis of the row space with pivots at the least nonzero column
of each basis row, and reduce() maps any vector to its unique normal form,
zero at every pivot column.  The pivot set of a row space does not depend on
insertion order, so the resulting standard/pivot split is canonical.

Row formats: GF(2) rows are python ints (bit i = column i, XOR in C).  GF(p)
rows are numpy arrays stored in the smallest signed type holding p - 1,
inserted in base blocks of BASE_BLOCK rows that are eliminated directly, with
products as float64 matmuls on only the nonzero coefficients, exact because
sums are chunked below 2**53 and, above p = 2**26, B is split as
B_hi * 2**16 + B_lo.  Rational rows (desk scale) run through the same engine
with p None: they are object arrays of Fractions, exposed
as rows and pivots like the GF(p) rows, so the graded walk reads both the
same way, and sub_mulmod subtracts without a modulus.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .field import BINARY, FieldDescriptor


# -- GF(2): int bitsets -------------------------------------------------------

def gf2_bits(v: int, width: int) -> np.ndarray:
    """Unpack an int row into a uint8 0/1 array of the given width."""
    if width == 0:
        return np.zeros(0, dtype=np.uint8)
    nbytes = (width + 7) // 8
    buf = np.frombuffer(v.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(buf, bitorder="little", count=width)


def gf2_from_bits(bits: np.ndarray) -> int:
    """Pack a 0/1 array back into an int row."""
    if bits.size == 0:
        return 0
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


class GF2Echelon:
    """Echelon basis over GF(2); rows are ints, pivot = lowest set bit."""

    def __init__(self, width: int):
        self.width = width
        self._rows: dict[int, int] = {}  # pivot bit (as 1 << col) -> row
        self._mask = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivot_columns(self) -> list[int]:
        return sorted(b.bit_length() - 1 for b in self._rows)

    def has_pivot(self, col: int) -> bool:
        return bool((self._mask >> col) & 1)

    def reduce(self, v: int) -> int:
        # rows may carry bits at later pivots; the lowest masked bit of v
        # strictly increases each step, so this terminates and clears them all
        rows = self._rows
        x = v & self._mask
        while x:
            v ^= rows[x & -x]
            x = v & self._mask
        return v

    def insert(self, v: int) -> int | None:
        """Add one row; returns its pivot column, or None if dependent."""
        v = self.reduce(v)
        if not v:
            return None
        b = v & -v
        self._rows[b] = v
        self._mask |= b
        return b.bit_length() - 1

    def insert_rows(self, rows) -> list[int]:
        """Add rows one at a time; returns the new pivot columns."""
        out = []
        for v in rows:
            piv = self.insert(v)
            if piv is not None:
                out.append(piv)
        return out


# -- GF(p): base-block elimination with split-operand float64 products ----------

BASE_BLOCK = 64  # rows of one directly eliminated block in insert_rows


def _dotmod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """(A @ B) % p in float64, in chunks whose sums of products stay below 2**53."""
    chunk = max(1, 2**52 // ((p - 1) * max(int(B.max()), 1)))
    acc = A[:, :chunk].astype(np.float64) @ B[:chunk].astype(np.float64) % p
    for s in range(chunk, A.shape[1], chunk):
        acc += A[:, s : s + chunk].astype(np.float64) @ B[s : s + chunk].astype(np.float64)
        acc %= p
    return acc.astype(np.int64)


def _mulmod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Exact (A @ B) % p for integer matrices with entries in [0, p), p < 2**31.

    Above p = 2**26 a single product (p-1)**2 no longer fits a float64
    exactly, so B is split as B_hi * 2**16 + B_lo and the halves are
    multiplied separately.
    """
    m, k = A.shape
    w = B.shape[1]
    if m == 0 or w == 0 or k == 0:
        return np.zeros((m, w), dtype=np.int64)
    if p <= 2**26:
        return _dotmod(A, B, p)
    hi, lo = np.divmod(B, 1 << 16)
    return ((_dotmod(A, hi, p) << 16) + _dotmod(A, lo, p)) % p


def mod_p(x, p: int | None):
    """x % p, or x itself over the rationals (p None)."""
    return x if p is None else x % p


def sub_mulmod(X: np.ndarray, coef: np.ndarray, R: np.ndarray, p: int | None) -> None:
    """X -= coef @ R (mod p; no modulus when p is None) in place.

    Only coef's nonzero entries are touched.  A row of coef with one nonzero
    takes a scaled row of R (exact in int64, as both factors are below
    p < 2**31); the rest take a product on their nonzero rows and columns,
    _mulmod mod p or a plain object-array matmul over the rationals.  The
    reduction mod p stays in the expression that subtracts, so X may be
    narrow row storage: the int64 intermediate never wraps in it.
    """
    r, c = np.nonzero(coef)
    if not r.size:
        return
    one = np.bincount(r, minlength=len(coef))[r] == 1
    if one.any():
        rs, cs = r[one], c[one]
        X[rs] = mod_p(X[rs] - coef[rs, cs][:, None] * R[cs], p)
    if not one.all():
        rows, cols = np.unique(r[~one]), np.unique(c[~one])
        A, B = coef[np.ix_(rows, cols)], R[cols]
        X[rows] = mod_p(X[rows] - (A @ B if p is None else _mulmod(A, B, p)), p)


def _rref_block(B: np.ndarray, p: int | None) -> tuple[list[int], list[int]]:
    """Gauss-Jordan on a few rows in place; returns (nonzero rows, pivots)."""
    keep, piv = [], []
    for i in range(B.shape[0]):
        nz = np.flatnonzero(B[i])
        if not nz.size:
            continue
        c = int(nz[0])
        inv = 1 / Fraction(B[i, c]) if p is None else pow(int(B[i, c]), -1, p)
        B[i, nz] = mod_p(B[i, nz] * inv, p)
        hit = np.flatnonzero(B[:, c])
        hit = hit[hit != i]
        if hit.size:
            # GF(p) entries are below p < 2**31, so each product fits int64 exactly
            B[np.ix_(hit, nz)] = mod_p(B[np.ix_(hit, nz)] - np.outer(B[hit, c], B[i, nz]), p)
        keep.append(i)
        piv.append(c)
    return keep, piv


class GFpEchelon:
    """Fully reduced echelon basis over GF(p), or over QQ when p is None.

    Rows live in storage that doubles as it fills, in the smallest signed
    type holding p - 1 (an object array of Fractions over QQ), in insertion
    order and aligned with pivots.  insert_rows() takes BASE_BLOCK rows at a
    time: it reduces them by the stored rows, eliminates them directly,
    back-substitutes the new pivots into the stored rows with a nonzero
    there, and appends them.
    """

    def __init__(self, p: int | None, width: int):
        self.p = p
        self.width = width
        if p is None:
            dtype = object
        else:
            dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if p - 1 <= np.iinfo(t).max)
        self._buf = np.zeros((0, width), dtype=dtype)
        self._pbuf = np.zeros(0, dtype=np.intp)
        self._n = 0

    @property
    def rank(self) -> int:
        return self._n

    @property
    def rows(self) -> np.ndarray:
        """The stored rows (a view in the storage type), aligned with pivots."""
        return self._buf[: self._n]

    @property
    def pivots(self) -> np.ndarray:
        return self._pbuf[: self._n]

    def pivot_columns(self) -> list[int]:
        return sorted(int(c) for c in self.pivots)

    def reduce_rows(self, M: np.ndarray) -> np.ndarray:
        """Normal forms of a whole block of rows (int64 mod p, else object)."""
        if self.p is None:
            M = np.array(M, dtype=object)
        else:
            M = np.remainder(np.asarray(M), self.p).astype(np.int64, copy=False)
        sub_mulmod(M, M[:, self.pivots], self.rows, self.p)
        return M

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Normal form of one vector."""
        return self.reduce_rows(np.asarray(v).reshape(1, -1))[0]

    def insert_rows(self, M) -> list[int]:
        """Add a block of rows; returns the new pivot columns."""
        M = np.asarray(M)
        if M.ndim == 1:
            M = M.reshape(1, -1)
        new: list[int] = []
        for s in range(0, M.shape[0], BASE_BLOCK):
            B = self.reduce_rows(M[s : s + BASE_BLOCK])
            keep, piv = _rref_block(B, self.p)
            if not piv:
                continue
            n, k, B = self._n, len(piv), B[keep]
            sub_mulmod(self.rows, self.rows[:, piv], B, self.p)
            if n + k > self._buf.shape[0]:
                cap = min(self.width, max(2 * self._buf.shape[0], n + k, BASE_BLOCK))
                buf = np.empty((cap, self.width), dtype=self._buf.dtype)
                buf[:n] = self.rows
                pbuf = np.empty(cap, dtype=np.intp)
                pbuf[:n] = self.pivots
                self._buf, self._pbuf = buf, pbuf
            self._buf[n : n + k] = B
            self._pbuf[n : n + k] = piv
            self._n += k
            new.extend(piv)
        return new

    def insert(self, v) -> int | None:
        new = self.insert_rows(np.asarray(v).reshape(1, -1))
        return new[0] if new else None


def echelon_for(field: FieldDescriptor, width: int):
    """The echelon engine matching a coefficient field."""
    if field.kind == BINARY:
        return GF2Echelon(width)
    # p is None over QQ: the same engine on Fractions
    return GFpEchelon(field.p, width)
