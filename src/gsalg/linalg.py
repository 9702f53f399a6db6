"""Exact sparse row echelon backing the graded dimension tables.

Rows are dicts {column: coefficient} made canonical by field.mod_p: python
ints in [0, p) over GF(p), where GF(2) is simply p = 2, or Fractions over
the rationals (p None), zeros dropped.  _axpy alone drops zeros eagerly, as
elimination reads min(row) after every step.  The graded rows hold a few
nonzeros in tens of thousands of columns (about 3.6 per row for the d=3
quadric over GF(2) and GF(5)), so a row costs what its nonzeros cost.

SparseEchelon keeps the least-column pivot of every row with a leading 1.
The pivot set of a row space does not depend on insertion order, so the
standard/pivot split it gives is canonical.  insert() only clears the
leading column against the stored rows (a semi-echelon); graded._finish
reduces the rows in one sweep, in the standard coordinates alone.  Keeping
them fully reduced on every insert instead, with a column -> rows index to
find the rows a new pivot must clear, took 3.4x and 6.6x as long as one
sweep at the end on two pairs of random d=3 GF(2) quadrics to degree 11,
whose rows fill in.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional

from .field import mod_p


def _axpy(row: dict, a, other: dict, p: Optional[int]) -> None:
    """row += a * other in place (mod p), dropping the entries that cancel.

    a and every entry of other are nonzero, so an entry that becomes zero
    was already in row.
    """
    get = row.get
    if p is None:
        for k, v in other.items():
            x = get(k, 0) + a * v
            if x:
                row[k] = x
            else:
                del row[k]
    else:
        for k, v in other.items():
            x = (get(k, 0) + a * v) % p
            if x:
                row[k] = x
            else:
                del row[k]


class SparseEchelon:
    """Echelon basis of sparse rows over GF(p), or over QQ when p is None.

    rows maps each pivot column to its row, which is zero before the pivot
    and 1 at it (a semi-echelon basis of the span).
    """

    def __init__(self, p: Optional[int]):
        self.p = p
        self.rows: Dict[int, dict] = {}

    def insert(self, row: dict) -> Optional[int]:
        """Add a row, reduced mod p here (the caller's dict is not changed);
        returns its pivot column, or None if it is zero or in the span."""
        p, rows = self.p, self.rows
        row = mod_p(row, p)
        while row:
            c = min(row)
            prow = rows.get(c)
            if prow is None:
                a = row[c]
                if a != 1:
                    inv = 1 / Fraction(a) if p is None else pow(a, -1, p)
                    row = mod_p({k: v * inv for k, v in row.items()}, p)
                rows[c] = row
                return c
            _axpy(row, -row[c], prow, p)
        return None
