"""Exact row-echelon engines backing the graded dimension tables.

The three engines share one interface: rows go in (singly or as a block), the
engine keeps a basis of the row space with pivots at the least nonzero column
of each basis row, and reduce() maps any vector to its unique normal form,
zero at every pivot column.  The pivot set of a row space does not depend on
insertion order, so the resulting standard/pivot split is canonical.

Row formats: GF(2) rows are python ints (bit i = column i, XOR in C); GF(p)
rows are numpy integer matrices eliminated with blocked float64 matmuls,
exact because every dot product is chunked below 2**53; rational rows are
dense lists of Fractions (desk scale only).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import InvalidParams
from .field import BINARY, FieldDescriptor


class _RowByRow:
    """insert_rows for engines whose block insert is a loop over insert()."""

    def insert_rows(self, rows) -> list[int]:
        """Add rows one at a time; returns the new pivot columns."""
        out = []
        for v in rows:
            piv = self.insert(v)
            if piv is not None:
                out.append(piv)
        return out


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


class GF2Echelon(_RowByRow):
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


# -- GF(p): blocked numpy elimination -----------------------------------------

def _mulmod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Exact (A @ B) % p for integer matrices with entries in [0, p)."""
    m, k = A.shape
    w = B.shape[1]
    if m == 0 or w == 0 or k == 0:
        return np.zeros((m, w), dtype=np.int64)
    if p > 2**26:
        # a single product no longer fits float64 exactly; use object ints
        out = np.dot(A.astype(object), B.astype(object)) % p
        return out.astype(np.int64)
    chunk = max(1, int(2**52 // ((p - 1) * (p - 1))))
    acc = np.zeros((m, w), dtype=np.float64)
    for s in range(0, k, chunk):
        acc += A[:, s : s + chunk].astype(np.float64) @ B[s : s + chunk].astype(np.float64)
        acc %= p
    return acc.astype(np.int64)


def _block_rref(M: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced echelon of M's row space via recursive halving; drops zero rows.

    Returns (rows int64, pivot columns aligned with rows).
    """
    m = M.shape[0]
    if m == 0:
        return M.astype(np.int64), np.zeros(0, dtype=np.intp)
    if m == 1:
        row = np.remainder(M[0], p).astype(np.int64)
        nz = np.flatnonzero(row)
        if nz.size == 0:
            return row[:0].reshape(0, M.shape[1]), np.zeros(0, dtype=np.intp)
        piv = int(nz[0])
        inv = pow(int(row[piv]), -1, p)
        row = (row * inv) % p
        return row[None, :], np.array([piv], dtype=np.intp)
    half = m // 2
    top, ptop = _block_rref(M[:half], p)
    rest = np.remainder(M[half:], p).astype(np.int64)
    if top.shape[0]:
        coef = rest[:, ptop]
        if coef.any():
            rest = (rest - _mulmod(coef, top, p)) % p
    bot, pbot = _block_rref(rest, p)
    if bot.shape[0] and top.shape[0]:
        coef = top[:, pbot]
        if coef.any():
            top = (top - _mulmod(coef, bot, p)) % p
    return np.vstack([top, bot]), np.concatenate([ptop, pbot])


class GFpEchelon:
    """Fully reduced echelon basis over GF(p), blocked for BLAS throughput.

    reduce_rows() is the bulk path (one matmul pass; stored rows are kept
    fully reduced, so one pass is complete); reduce() serves single vectors
    by gathering just the basis rows it actually hits.
    """

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self._store_dtype = np.int16 if p < 2**15 else np.int64
        self._rows = np.zeros((0, width), dtype=self._store_dtype)
        self._piv = np.zeros(0, dtype=np.intp)

    @property
    def rank(self) -> int:
        return self._rows.shape[0]

    def pivot_columns(self) -> list[int]:
        return sorted(int(c) for c in self._piv)

    def reduce_rows(self, M: np.ndarray) -> np.ndarray:
        """Normal forms of a whole block of rows (int64 in, int64 out)."""
        M = np.remainder(np.asarray(M), self.p).astype(np.int64)
        if self._piv.size and M.shape[0]:
            coef = M[:, self._piv]
            if coef.any():
                M = (M - _mulmod(coef, self._rows, self.p)) % self.p
        return M

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Normal form of one vector; touches only the basis rows it needs."""
        v = np.remainder(np.asarray(v), self.p).astype(np.int64)
        if self._piv.size:
            coef = v[self._piv]
            nz = np.flatnonzero(coef)
            if nz.size:
                prod = _mulmod(coef[nz][None, :], self._rows[nz], self.p)[0]
                v = (v - prod) % self.p
        return v

    def insert_rows(self, M) -> list[int]:
        """Add a block of rows; returns the new pivot columns."""
        M = np.asarray(M)
        if M.ndim == 1:
            M = M.reshape(1, -1)
        if M.shape[0] == 0:
            return []
        M = self.reduce_rows(M)
        rows, piv = _block_rref(M, self.p)
        if rows.shape[0] == 0:
            return []
        if self._rows.shape[0]:
            coef = self._rows[:, piv].astype(np.int64)
            if coef.any():
                reduced = (self._rows.astype(np.int64) - _mulmod(coef, rows, self.p)) % self.p
                self._rows = reduced.astype(self._store_dtype)
        self._rows = np.vstack([self._rows, rows.astype(self._store_dtype)])
        self._piv = np.concatenate([self._piv, piv])
        return [int(c) for c in piv]

    def insert(self, v) -> int | None:
        new = self.insert_rows(np.asarray(v).reshape(1, -1))
        return new[0] if new else None


# -- rationals: dense Fraction rows -------------------------------------------

class FractionEchelon(_RowByRow):
    """Fully reduced echelon basis over the rationals (desk scale)."""

    def __init__(self, width: int):
        self.width = width
        self._rows: list[list[Fraction]] = []
        self._piv: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivot_columns(self) -> list[int]:
        return sorted(self._piv)

    def reduce(self, v) -> list[Fraction]:
        v = list(v)
        for i, pc in enumerate(self._piv):
            c = v[pc]
            if c:
                row = self._rows[i]
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def insert(self, v) -> int | None:
        v = self.reduce(v)
        piv = next((i for i, a in enumerate(v) if a), None)
        if piv is None:
            return None
        inv = 1 / v[piv]
        v = [a * inv for a in v]
        for i, row in enumerate(self._rows):
            c = row[piv]
            if c:
                self._rows[i] = [a - c * b for a, b in zip(row, v)]
        self._rows.append(v)
        self._piv.append(piv)
        return piv


def echelon_for(field: FieldDescriptor, width: int):
    """The echelon engine matching a coefficient field."""
    if field.kind == BINARY:
        return GF2Echelon(width)
    if field.p is not None:
        return GFpEchelon(field.p, width)
    if field.kind == "rational":
        return FractionEchelon(width)
    raise InvalidParams("no echelon engine for field %s" % field)
