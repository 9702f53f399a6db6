"""Graded dimension tables of homogeneous two-sided ideals.

For a homogeneous ideal I of the free algebra on d letters, the table holds,
degree by degree up to a chosen maximum, the quotient dimensions
b_n = d**n - dim I_n together with the standard (non-pivot) monomial basis of
each quotient component, and answers membership queries by reduction.

The build is incremental: I_n = I_{n-1}*T_1 + sum_k B_{n-k}*R_k, so at degree
n it suffices to row-reduce the products b*f (b a standard word, f a
generator) inside the quotient space T_n / (I_{n-1}*T_1).  That space has the
candidate words {b*x_t : b standard at n-1} as a basis, which keeps the
working width at d*b_{n-1} columns instead of d**n.  Pivot sets of a row
space are canonical (least-column convention), so the resulting standard
words are exactly the non-pivot monomials of the textbook full-width
reduction; the naive oracle in tests/oracles.py recomputes everything at
full width to cross-check them.

The rows b*f are built by walking f's terms letter by letter.  The row of
state*x_t sits in the candidate columns of class t (column i*d + t-1), so a
step reduces it by that letter's pivot rows only.  Pivots sit at the least
column of each row, the column rank profile, the same for every field, so
only the row format differs, and _walk picks the walk from the engine that
linalg.echelon_for returned:

- GFpEchelon (GF(p), and QQ with p None): the batched walk moves whole
  blocks of standard words b at once as int64 (mod p) or Fraction object
  arrays, with each level's pivot rows cached per letter on its standard
  columns.
- GF2Echelon: rows stay packed ints, walked one word b at a time, because
  dense integer rows cost far more time and memory on the GF(2) dims
  workload.  On a 2-core Xeon VM the batched walk over GF(5) took 13.8 s /
  631 MB for the d=2 binary cubic to degree 20 (packed GF(2): 1.4 s /
  103 MB), 6.9 s / 364 MB for the d=3 cubic pair to 11 (0.9 s / 72 MB)
  and 13.1 s / 595 MB for the d=3 quadric to 11 (5.8 s / 463 MB to 12).

Normal forms are the same walk from the empty word over each homogeneous
component, one reduction at the top level, then the standard columns.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import (
    AmbientMismatch,
    DegreeBelowTwo,
    DegreeExceedsTable,
    InvalidParams,
    MixedFields,
    NonHomogeneousGenerator,
    TooLarge,
)
from .field import FieldDescriptor
from .freealg import Polynomial, Word, words_of_degree
from .linalg import GF2Echelon, echelon_for, gf2_bits, gf2_from_bits, mod_p, sub_mulmod

DEFAULT_COLUMN_CAP = 2**20


# -- generator validation ------------------------------------------------------

def _check_generators(generators, d, field):
    """Validate a generator list; returns (d, field) inferred when omitted."""
    gens = list(generators)
    if gens:
        if d is None:
            d = gens[0].d
        if field is None:
            field = gens[0].field
    if d is None or field is None:
        raise InvalidParams("d and field are required when no generators are given")
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise InvalidParams("d must be an integer >= 2, got %r" % (d,))
    for i, g in enumerate(gens):
        if not isinstance(g, Polynomial):
            raise InvalidParams("generator %d is not a Polynomial" % i)
        if g.d != d:
            raise AmbientMismatch(
                "generator %d lives in %d letters, expected %d" % (i, g.d, d)
            )
        if g.field != field:
            raise MixedFields(
                "generator %d is over %s, expected %s" % (i, g.field, field)
            )
        if not g.is_homogeneous():
            raise NonHomogeneousGenerator(
                "generator %d is %s" % (i, "zero" if g.is_zero() else "not homogeneous")
            )
        if g.degree() < 2:
            raise DegreeBelowTwo(
                "generator %d has degree %d < 2" % (i, g.degree())
            )
    return gens, d, field


def validate_r(r: Dict[int, int], what: str = "r") -> None:
    """Check a degree -> generator-count table: r_0 = r_1 = 0, counts >= 0."""
    for deg, count in r.items():
        if not isinstance(deg, int) or isinstance(deg, bool) or deg < 0:
            raise InvalidParams("%s has invalid degree key %r" % (what, deg))
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise InvalidParams("%s[%d] = %r is not a count" % (what, deg, count))
        if deg < 2 and count != 0:
            raise InvalidParams("%s[%d] must be 0 (no generators below degree 2)" % (what, deg))


# -- per-degree level data -----------------------------------------------------

class _Level:
    __slots__ = ("words", "ech", "std_cols", "_split")

    def __init__(self, words, ech, std_cols):
        self.words = words          # standard words, monomial order
        self.ech = ech              # echelon over candidate columns (None at degree 0)
        self.std_cols = std_cols    # candidate columns of the standard words
        self._split = None

    def step(self, M: np.ndarray, t: int, d: int, p: Optional[int]) -> np.ndarray:
        """State rows M one degree below, times x_t, in standard coordinates.

        Per letter the level caches its pivot rows of class t on the standard
        columns and the states they reduce; the result is M on the standard
        columns of class t minus coef @ rows (mod p; p is None over QQ).
        """
        if self._split is None:
            piv, std = self.ech.pivots, self.std_cols
            self._split = []
            for c in range(d):
                sel = np.flatnonzero(piv % d == c)
                pos = np.flatnonzero(std % d == c)
                rows = self.ech.rows[np.ix_(sel, std)]
                self._split.append((piv[sel] // d, rows, pos, std[pos] // d))
        piv_idx, rows, pos, src = self._split[t - 1]
        S = np.zeros((M.shape[0], len(self.words)), dtype=M.dtype)
        S[:, pos] = M[:, src]
        sub_mulmod(S, M[:, piv_idx], rows, p)
        return S


def _term_trie(f: Polynomial):
    """Prefix tree of f's words; leaves hold raw coefficients."""
    root: dict = {}
    for word, c in f.sorted_terms():
        node = root
        for letter in word[:-1]:
            node = node.setdefault(letter, {})
        node[word[-1]] = c
    return root


def _gf2_scatter(vec: int, b_prev: int, d: int, t: int) -> int:
    bits = gf2_bits(vec, b_prev)
    out = np.zeros(b_prev * d, dtype=np.uint8)
    out[t - 1 :: d] = bits
    return gf2_from_bits(out)


def _gf2_gather(vec: int, width: int, std_cols: np.ndarray) -> int:
    return gf2_from_bits(gf2_bits(vec, width)[std_cols])


def _walk_gf2(levels, trie, start_idx, start_level, n, d) -> int:
    """Candidate-coordinate row of (standard word #start_idx) * f over GF(2)."""
    acc = 0

    def step(level, tag, state, node):
        nonlocal acc
        b_here = len(levels[level].words)
        for t in sorted(node):
            sub = node[t]
            if tag == "w":
                col = state * d + (t - 1)
                cw = 1 << col
            else:
                cw = _gf2_scatter(state, b_here, d, t)
                if not cw:
                    continue
            if level + 1 == n:
                acc ^= cw
                continue
            nxt = levels[level + 1]
            if nxt.ech.rank == 0:
                if tag == "w":
                    step(level + 1, "w", col, sub)
                else:
                    step(level + 1, "v", cw, sub)
                continue
            if tag == "w" and not nxt.ech.has_pivot(col):
                # a standard candidate word stays a single basis word
                pos = int(np.searchsorted(nxt.std_cols, col))
                step(level + 1, "w", pos, sub)
                continue
            red = nxt.ech.reduce(cw)
            if not red:
                continue
            g = _gf2_gather(red, b_here * d, nxt.std_cols)
            if g:
                step(level + 1, "v", g, sub)

    step(start_level, "w", start_idx, trie)
    return acc


def _walk_batched(levels, trie, M, level, n, d, p, acc):
    """Add (state rows M at `level`) * f to acc, candidate rows at degree n."""
    for t in sorted(trie):
        sub = trie[t]
        if level + 1 == n:
            # coeff < p and M < p, so the product fits int64 exactly
            r, i = np.nonzero(M)
            col = i * d + (t - 1)
            acc[r, col] = mod_p(acc[r, col] + sub * M[r, i], p)
            continue
        S = levels[level + 1].step(M, t, d, p)
        if S.any():
            _walk_batched(levels, sub, S, level + 1, n, d, p, acc)


def _walk(levels, trie, level, idx: range, n, d, ech):
    """Candidate rows at degree n of (standard words #idx at `level`) * f.

    This is the one place the walk is chosen, by the engine ech at degree n:
    a list of packed-int rows for GF2Echelon, else one array built by the
    batched walk (int64 mod p, or Fractions when ech.p is None).
    """
    if isinstance(ech, GF2Echelon):
        return [_walk_gf2(levels, trie, i, level, n, d) for i in idx]
    dtype = np.int64 if ech.p else object
    state = np.eye(len(idx), len(levels[level].words), idx.start, dtype=dtype)
    acc = np.zeros((len(idx), ech.width), dtype=dtype)
    _walk_batched(levels, trie, state, level, n, d, ech.p, acc)
    return acc


# -- the table -----------------------------------------------------------------

class GradedIdealTable:
    """Per-degree quotient bases of a homogeneous ideal, up to maxdeg."""

    def __init__(self, d, field, generators, maxdeg, levels, r_counts):
        self.d = d
        self.field = field
        self.generators = tuple(generators)
        self.maxdeg = maxdeg
        self._levels = levels
        self._r = dict(r_counts)

    def _level(self, n: int) -> _Level:
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise InvalidParams("degree must be a nonnegative integer, got %r" % (n,))
        if n > self.maxdeg:
            raise DegreeExceedsTable(
                "degree %d exceeds table maximum %d" % (n, self.maxdeg)
            )
        return self._levels[n]

    def b(self, n: int) -> int:
        """Quotient dimension b_n = d**n - dim I_n."""
        return len(self._level(n).words)

    def b_sequence(self) -> List[int]:
        return [len(lv.words) for lv in self._levels]

    def ideal_dim(self, n: int) -> int:
        return self.d**n - self.b(n)

    def basis(self, n: int) -> List[Word]:
        """Standard words spanning the degree-n quotient component."""
        return list(self._level(n).words)

    def pivot_words(self, n: int) -> List[Word]:
        """Degree-n words that are pivots, i.e. the complement of basis(n)."""
        std = set(self._level(n).words)
        return [w for w in words_of_degree(self.d, n) if w not in std]

    def r(self, degree: int) -> int:
        """Number of generators of the given degree, with multiplicity."""
        return self._r.get(degree, 0)

    def r_table(self) -> Dict[int, int]:
        return {deg: self._r[deg] for deg in sorted(self._r) if self._r[deg]}

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Residue of p modulo the ideal; zero iff p is a member."""
        if not isinstance(p, Polynomial):
            raise InvalidParams("normal_form expects a Polynomial")
        if p.d != self.d:
            raise AmbientMismatch(
                "polynomial lives in %d letters, table has %d" % (p.d, self.d)
            )
        if p.field != self.field:
            raise MixedFields(
                "polynomial is over %s, table over %s" % (p.field, self.field)
            )
        levels, out = self._levels, {}
        for m, comp in p.homogeneous_components().items():
            if m > self.maxdeg:
                raise DegreeExceedsTable(
                    "component of degree %d exceeds table maximum %d" % (m, self.maxdeg)
                )
            if m == 0:
                out[()] = comp.constant_coefficient()
                continue
            lvl = levels[m]
            if not lvl.words:
                continue
            # the row-building walk from the empty word, then one reduction
            row = _walk(levels, _term_trie(comp), 0, range(1), m, self.d, lvl.ech)[0]
            red = lvl.ech.reduce(row)
            vec = gf2_bits(red, lvl.ech.width) if isinstance(red, int) else np.asarray(red)
            for word, a in zip(lvl.words, vec[lvl.std_cols].tolist()):
                if a:
                    out[word] = a
        return Polynomial._raw(self.d, self.field, out)

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero()

    def __repr__(self):
        return "GradedIdealTable(d=%d, field=%s, maxdeg=%d, %d generators)" % (
            self.d,
            self.field,
            self.maxdeg,
            len(self.generators),
        )


def build_table(
    generators: Sequence[Polynomial],
    maxdeg: int,
    *,
    d: Optional[int] = None,
    field: Optional[FieldDescriptor] = None,
    column_cap: int = DEFAULT_COLUMN_CAP,
    r_override: Optional[Dict[int, int]] = None,
) -> GradedIdealTable:
    """Build the graded table of the ideal generated by the given polynomials.

    Generators must be homogeneous of degree >= 2 over one common field; the
    empty list (zero ideal) needs explicit d and field.  r_override replaces
    the derived degree -> count table used for bound reporting, which matters
    when a nominal generator vanishes over the field yet must still be
    counted.  column_cap bounds each degree's working width d*b_{n-1}.
    """
    gens, d, field = _check_generators(generators, d, field)
    if not isinstance(maxdeg, int) or isinstance(maxdeg, bool) or maxdeg < 0:
        raise InvalidParams("maxdeg must be a nonnegative integer, got %r" % (maxdeg,))
    if r_override is not None:
        validate_r(r_override, "r_override")
        r_counts = dict(r_override)
    else:
        r_counts = {}
        for g in gens:
            r_counts[g.degree()] = r_counts.get(g.degree(), 0) + 1

    tries = [(_term_trie(g), g.degree()) for g in gens]
    levels = [_Level([()], None, None)]
    for n in range(1, maxdeg + 1):
        prev = levels[n - 1]
        width = len(prev.words) * d
        if width > column_cap:
            raise TooLarge(
                "degree %d needs d*b_%d = %d columns, over the %d-column cap"
                % (n, n - 1, width, column_cap)
            )
        ech = echelon_for(field, width)
        for trie, k in tries:
            if not width or k > n or not levels[n - k].words:
                continue
            nb = len(levels[n - k].words)
            # 2 MB int64 walk blocks stay in cache
            chunk = max(1, (1 << 18) // max(len(levels[m].words) * d for m in range(n - k, n)))
            for s in range(0, nb, chunk):
                ech.insert_rows(_walk(levels, trie, n - k, range(s, min(s + chunk, nb)), n, d, ech))
        piv = np.array(ech.pivot_columns(), dtype=np.intp)
        std_cols = np.setdiff1d(np.arange(width, dtype=np.intp), piv)
        words = [prev.words[int(c) // d] + (int(c) % d + 1,) for c in std_cols]
        levels.append(_Level(words, ech, std_cols))
    return GradedIdealTable(d, field, gens, maxdeg, levels, r_counts)


# -- dimension rows and the degree-wise lower bound ----------------------------

@dataclass(frozen=True)
class DimensionRow:
    """One degree of the dimension report; bound and slack are None below 2."""

    n: int
    dim_total: int
    dim_ideal: int
    b: int
    bound: Optional[int]
    slack: Optional[int]


def dimension_rows(
    table: GradedIdealTable, r: Optional[Dict[int, int]] = None
) -> List[DimensionRow]:
    """Per-degree dimensions with the d*b_{n-1} - sum r_{n-j}*b_j lower bound."""
    if r is None:
        counts = dict(table._r)
    else:
        validate_r(r)
        counts = dict(r)
    b = table.b_sequence()
    d = table.d
    rows = []
    for n in range(table.maxdeg + 1):
        if n < 2:
            bound = slack = None
        else:
            bound = d * b[n - 1] - sum(
                counts.get(n - j, 0) * b[j] for j in range(n - 1)
            )
            slack = b[n] - bound
        rows.append(DimensionRow(n, d**n, d**n - b[n], b[n], bound, slack))
    return rows


def check_dimension_bounds(rows: Sequence[DimensionRow]) -> List[int]:
    """Degrees whose slack is negative; empty means the bound held throughout."""
    return [row.n for row in rows if row.slack is not None and row.slack < 0]


CSV_COLUMNS = ("n", "dim_Tn", "dim_In", "b_n", "eq1_bound", "slack")


def write_dimension_csv(rows: Sequence[DimensionRow], fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row.n,
                row.dim_total,
                row.dim_ideal,
                row.b,
                "" if row.bound is None else row.bound,
                "" if row.slack is None else row.slack,
            ]
        )


def dimension_report(table: GradedIdealTable, rows: Optional[Sequence[DimensionRow]] = None) -> dict:
    """JSON-ready dict mirroring the CSV table, keys in fixed order."""
    if rows is None:
        rows = dimension_rows(table)
    return {
        "d": table.d,
        "field": str(table.field),
        "maxdeg": table.maxdeg,
        "r": {str(deg): count for deg, count in sorted(table.r_table().items())},
        "rows": [
            {
                "n": row.n,
                "dim_Tn": row.dim_total,
                "dim_In": row.dim_ideal,
                "b_n": row.b,
                "eq1_bound": row.bound,
                "slack": row.slack,
            }
            for row in rows
        ],
        "all_nonnegative": not check_dimension_bounds(rows),
    }
