"""Graded dimension tables of homogeneous two-sided ideals.

For a homogeneous ideal I of the free algebra on d letters, the table holds,
degree by degree up to a chosen maximum, the quotient dimensions
b_n = d**n - dim I_n together with the standard (non-pivot) monomial basis of
each quotient component, and answers membership queries by reduction.

The build is incremental: I_n = I_{n-1}*T_1 + sum_k B_{n-k}*R_k, so at degree
n it suffices to row-reduce the products b*f (b a standard word, f a
generator) inside the quotient space T_n / (I_{n-1}*T_1).  That space has the
candidate words {b*x_t : b standard at n-1} as a basis, which keeps the
working width at d*b_{n-1} columns instead of d**n; a degree wider than
COLUMN_CAP = 2**20 columns is refused (a constant, not a setting).  Pivot
sets of a row space are canonical (least-column convention), so the
resulting standard words are exactly the non-pivot monomials of the
textbook full-width reduction; the naive oracle in tests/oracles.py
recomputes everything at full width to cross-check them.

The sparse engine keeps vectors in one of two forms: dicts {index:
coefficient} mod p, or of Fractions over QQ (p None); and, over GF(2)
(p == 2), the set of the indices, whose sums are symmetric differences in
C with nothing to reduce.  Each finished degree n stores, for every
candidate column c = i*d + t-1, the image of the word b_i*x_t in the
standard coordinates of degree n: the standard index itself when c is not
a pivot, and its reduction to standard words when it is.  The standard
words are prefix-closed (the tree of normal words), so the image table is
all a degree keeps: its standard words are the candidate columns of
its int entries, built into word tuples on first use (a dims run builds
none).  The image tables are the right multiplications by x_t in the
quotient, so the rows b*f are built by walking words letter by letter
through them, as in F4 (rows built as products, then eliminated as one
sparse system).  One walk, _walk_pairs, serves rows and normal forms: it
steps a block of up to WALK_BLOCK (slot, state) pairs, from standard start
words, through a prefix tree of words (_trie), each tree node stepping the
list in one loop, and words that fall in the ideal drop out.  A walk state
that is a single standard word stays an index, since its step is the image
entry itself, already reduced.  The rows of one degree come from a row
source, which plans a degree's generators as a lattice for _walk_lattice
when the build first reaches it:

- a generator list (dims, build_table) is the trie source: the generators
  of one degree share one prefix tree of their words, so a node steps once
  for every generator below it, and the lattice is that one trie;
- a dense blueprint (WindowRows) is the lattice source, which makes no
  window generator and draws the weak tuples of a degree only when the
  build reaches it.  The generator h_j of a weak tuple j is the sum of the
  words of the distinct orderings of j over the window words w_i, and
  grouping them by their last entry gives h_j = sum over the distinct
  entries i of j of h_{j-i}*w_i, with h_() = 1.  So for a start word s the
  states nf(s*h_m) of the sub-multisets m of a degree's tuples are built
  layer by layer, each stepping the layer below through the words w_i
  (_lattice, _walk_lattice), and every tuple holding m shares its state.
  The row of j is the sum of nf(s*h_{j-i})*w_i.  Block 1 of (3, 1/2) puts
  in the rows of its 78 generators of degree 11 (3**11 words in all) in
  0.14-0.17 s this way, and 37 MB, where walking the trie of their words
  takes 0.7-0.9 s and 111 MB on a 2-core Xeon VM.

The degree being built has no image table yet, so there the top step writes
candidate columns into each row's own accumulator, a unit state its column
directly.  The block's raw accumulators go into a semi-echelon, a dict
{pivot column: row} that _insert fills: each row is reduced mod p, cleared
at its leading column against the stored rows alone and scaled to a leading
1 (least-column pivots, the column rank profile, so the standard words are
canonical, whatever the order the rows come in).  Keeping the rows fully
reduced on every insert instead, with a column -> rows index to find the
rows a new pivot must clear, took 3.4x and 6.6x as long as one sweep at the
end on two pairs of random d=3 GF(2) quadrics to degree 11, whose rows fill
in.  b_n is the width less the rank, the dict's length.  Finishing a degree
(_finish, the one reader of the rows) reads the table straight off the
semi-echelon: a bytearray mask over the width clears the pivots, and its
running sum (itertools.accumulate) numbers the standard columns; then, the
highest pivot first, each pivot entry becomes minus the rest of its row, a
later pivot in it giving its image, already built (XORed over GF(2)).  This is
back-substitution in the standard (non-pivot) coordinates alone, the split
of Faugere and Lachartre (PASCO 2010).  A table builds each degree when
something first needs it: b(n), b_sequence (every degree), basis, or a walk
that steps through it.  Building degree n puts its rows in and keeps the
semi-echelon, whose rank gives b_n.  The level is finished on its first
read, and the walk of degree n+1 is one, which drops the semi-echelon before
a row of degree n+1 goes in.  So a dims run, which needs only b_n, never
finishes the top degree (most of the table, b_n growing geometrically), and
the normal form of g**i builds only the degrees up to i*deg g.  A normal
form walks one state, from the empty word, to degrees whose level is built,
so its top step goes through that level's image table and it ends in
standard coordinates, with no reduction left to do.  The normal form of g**n
is n such multiplications by g, nf(a*g) = nf(nf(a)*g) since the ideal is
two-sided, so g**n is never expanded; the i-th builds the levels up to i*deg
g, and the first zero power ends it.

The rows of the paper's generators stay sparse: the d=3 quadric over GF(2)
keeps about 3.6 nonzeros per row, and the toy d=2, c=2, n=5 blueprint
(244 nonzero generators of degree 5-10) over GF(5) puts 832 rows in to
degree 10 for a total rank of 231 from its generator list, and 840 over the
lattice, where each of the 8 generators that vanish adds its zero own row
once.  Generators whose images fill in cost an entry per nonzero, most of
it in _finish.  The d=3 GF(2) quadrics x2*x1 + x2*x3 + x3*x1 and x1*x2 +
x1*x3 + x2*x1 + x2*x2 + x2*x3 + x3*x3 to degree 12 (1.59 million nonzeros
in its image tables and top semi-echelon) take 1.0-1.1 s / 106 MB on a
2-core Xeon VM, 0.6 s of it in _finish (1.4-1.6 s / 126 MB as dicts);
reading that level later takes 2.5-2.6 s more, to a 124 MB peak (3.9-4.5 s,
150 MB as dicts).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence

from .errors import (
    AmbientMismatch,
    DegreeBelowTwo,
    DegreeExceedsTable,
    InvalidParams,
    MixedFields,
    NonHomogeneousGenerator,
    TooLarge,
    require_int,
)
from .field import FieldDescriptor, mod_p
from .freealg import Polynomial, Word

COLUMN_CAP = 2**20
# start words walked together per trie node.  Peak RSS of the d=3 quadric
# over GF(2) to degree 12: 27.9 MB in blocks of 1,024 (27.5 MB in blocks of
# 1, at twice the time), 34.2 MB for a whole degree at once, whose rows all
# wait for elimination together
WALK_BLOCK = 1024


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
    require_int(d, "d", 2)
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


# -- per-degree image tables -----------------------------------------------------

def _axpy(row: dict, a, other: dict, p: Optional[int]) -> None:
    """row += a * other in place (mod p), dropping the entries that cancel
    at once, as _insert reads min(row) after every step.

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


def _insert(rows: dict, row, p: Optional[int]) -> Optional[int]:
    """Add a row, reduced mod p here (the caller's dict is not changed), to
    the semi-echelon rows {pivot column: row}, each row 0 before its pivot
    and 1 at it; returns its pivot column, or None if it is zero or in the
    span.  Only the leading column is cleared, against the stored rows.
    Over GF(2) a row is a column set, stored as a tuple; each XOR is a new set."""
    if p == 2:
        while row:
            c = min(row)
            if (prow := rows.get(c)) is None:
                rows[c] = tuple(row)
                return c
            row = row.symmetric_difference(prow)
        return None
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


def _finish(rows: dict, width: int, p: Optional[int]) -> list:
    """Read a degree's image table off its semi-echelon: image[c] is its
    standard index for a standard column c, and for a pivot column a dict
    {index: coef} or over GF(2) a frozenset (empty when the word lies in the
    ideal).  Row c is 0 before c and 1 at it, so word c is minus the rest of
    its row in the quotient, where each later pivot already has its image."""
    # standard columns are the unmasked ones, numbered by a running sum
    mask = bytearray(b"\x01") * width
    for c in rows:
        mask[c] = 0
    image = list(accumulate(mask, initial=-1))
    del image[0]
    if p == 2:  # distinct standard indices, then the later pivots' images XORed in
        for c in sorted(rows, reverse=True):
            row = rows[c]
            vec = {j for k in row if k != c and (j := image[k]).__class__ is int}
            if len(vec) + 1 < len(row):
                for k in row:
                    if (img := image[k]).__class__ is not int:
                        vec ^= img
            image[c] = frozenset(vec)  # sized to fit: an XOR walks the whole table
        return image
    neg = p or 0  # neg - v is -v in [1, p) over GF(p), or over QQ
    for c in sorted(rows, reverse=True):
        row = rows[c]
        # standard entries first, in one pass: distinct indices, reduced
        vec = {j: neg - v for k, v in row.items() if k != c and (j := image[k]).__class__ is int}
        if len(vec) + 1 < len(row):  # entries at later pivots
            for k, v in row.items():
                if (img := image[k]).__class__ is not int:
                    for j, w in img.items():
                        vec[j] = vec.get(j, 0) - v * w
            vec = mod_p(vec, p)
        image[c] = vec
    return image


def _trie(leaves) -> dict:
    """Prefix tree of words of one length >= 1, from (word, position,
    coefficient) triples.  A leaf (a word's last letter) lists (position,
    coefficient)."""
    root: dict = {}
    for word, i, c in leaves:
        node = root
        for letter in word[:-1]:
            node = node.setdefault(letter, {})
        node.setdefault(word[-1], []).append((i, c))
    return root


def _step(state, image, d: int, t: int, coef, out) -> None:
    """out += coef * state * x_t, through image (candidate columns if None);
    over GF(2), on index sets, a unit image toggles and a pivot image XORs."""
    off = t - 1
    if out.__class__ is set:
        for i in state:
            if (j := i * d + off if image is None else image[i * d + off]).__class__ is not int:
                out ^= j
            elif j in out:
                out.remove(j)
            else:
                out.add(j)
        return
    get = out.get
    if image is None:
        for i, a in state.items():
            c = i * d + off
            out[c] = get(c, 0) + coef * a
        return
    for i, a in state.items():
        img = image[i * d + off]
        if img.__class__ is int:
            out[img] = get(img, 0) + coef * a
        else:
            a *= coef
            for j, v in img.items():
                out[j] = get(j, 0) + a * v


def _walk_pairs(levels, d, p, trie, pairs, level: int, top: int, accs, count: int) -> None:
    """accs[slot*count + i] += state * f_i at degree top, for each (slot,
    state) pair at `level` and the count polynomials f_i in trie; a state is
    a vector in standard coordinates (a set over GF(2)), or an index s for
    {s: 1}, whose step is its image entry.  Each node steps the whole list
    in one loop.  A built top level (a normal form) takes the top step
    through its image table; otherwise the step writes candidate columns,
    s*d + t-1 for a unit state s."""
    if level + 1 == top:
        image = levels[top] if top < len(levels) else None
        if p == 2:  # a unit's image toggles its index, a pivot image is XORed in
            for t, leaf in trie.items():
                off = t - 1
                for i, _ in leaf:
                    for slot, state in pairs:
                        acc = accs[slot * count + i]
                        if state.__class__ is not int:
                            _step(state, image, d, t, 1, acc)
                        elif (j := state * d + off if image is None else image[state * d + off]).__class__ is not int:
                            acc ^= j
                        elif j in acc:
                            acc.remove(j)
                        else:
                            acc.add(j)
            return
        for t, leaf in trie.items():
            off = t - 1
            for i, c in leaf:
                for slot, state in pairs:
                    acc = accs[slot * count + i]
                    if state.__class__ is not int:
                        _step(state, image, d, t, c, acc)
                    elif image is None:
                        col = state * d + off
                        acc[col] = acc.get(col, 0) + c
                    elif (img := image[state * d + off]).__class__ is int:
                        acc[img] = acc.get(img, 0) + c
                    else:
                        for j, v in img.items():
                            acc[j] = acc.get(j, 0) + c * v
        return
    image = levels[level + 1]
    for t, sub in trie.items():
        off = t - 1
        nxt = []
        keep = nxt.append
        for slot, state in pairs:
            if state.__class__ is int:
                out = image[state * d + off]
            else:
                out = set() if p == 2 else {}
                _step(state, image, d, t, 1, out)
                out = out if p == 2 else mod_p(out, p)
            if out.__class__ is int or out:
                keep((slot, out))
        if nxt:
            _walk_pairs(levels, d, p, sub, nxt, level + 1, top, accs, count)


def _lattice(words, tuples, one) -> list:
    """The multiset lattice below weak tuples of one size n >= 1 over the
    window words (words[i] the word of rank i): layers 1..n, bottom up, each a pair
    (width, subs).  Width counts the multisets of that many entries (the
    tuples themselves, in their order, at the top), and subs holds, for each
    multiset m of the layer below (the empty one under layer 1), its degree
    and one trie per word length of the words w_i with m+i in the layer, a
    leaf giving the position of m+i."""
    layers = []
    upper = {j: pos for pos, j in enumerate(tuples)}
    while True:
        below: dict = {}
        edges: dict = {}
        for m, pos in upper.items():
            for x, i in enumerate(m):
                if x and m[x - 1] == i:  # one edge per distinct entry
                    continue
                a = below.setdefault(m[:x] + m[x + 1 :], len(below))
                w = words[i]
                edges.setdefault(a, {}).setdefault(len(w), []).append((w, pos, one))
        subs = [(sum(len(words[i]) for i in m), [(k, _trie(leaves)) for k, leaves in sorted(edges[a].items())])
                for m, a in below.items()]
        layers.append((len(upper), subs))
        if () in below:
            return layers[::-1]
        upper = below


def _walk_lattice(levels, d, p, lattice, pairs, level: int, accs, count: int) -> None:
    """accs[slot*count + i] += state * h_i for each (slot, state) pair at
    `level` and the count items i atop the lattice (for a trie source, one
    layer: the generators' trie).  Grouping the orderings of a multiset j by
    their last entry gives h_j = sum over the distinct entries i of j of
    h_{j-i} * w_i, so each layer steps the states of the layer below through
    the words w_i by _walk_pairs.  A state below the top is reduced at its
    own degree; the top layer writes candidate columns."""
    slots, last = len(accs) // count, len(lattice) - 1
    states = [pairs]  # (slot, state) pairs of each multiset of the layer below
    for r, (width, subs) in enumerate(lattice):
        out = accs if r == last else [set() if p == 2 else {} for _ in range(slots * width)]
        for below, (deg, tries) in zip(states, subs):
            if below:
                for k, trie in tries:
                    _walk_pairs(levels, d, p, trie, below, level + deg, level + deg + k, out, width)
        if r < last:
            vecs = out if p == 2 else [mod_p(acc, p) for acc in out]  # a GF(2) set is canonical
            states = [[(s, _unit(vec)) for s in range(slots) if (vec := vecs[s * width + pos])]
                      for pos in range(width)]


def _unit(vec):
    """A state {s: 1}, or {s} over GF(2), as the index s: its step is its image entry."""
    if len(vec) == 1:
        ((s, a),) = (vec if vec.__class__ is dict else dict.fromkeys(vec, 1)).items()
        if a == 1:
            return s
    return vec


# -- row sources -----------------------------------------------------------------

def _poly_trie(polys) -> dict:
    """The trie of polynomials of one degree, a leaf giving the polynomial's position."""
    return _trie((w, i, c) for i, f in enumerate(polys) for w, c in sorted(f.terms.items()))


class _GeneratorRows:
    """The trie source: rows s*f of a generator list, those of one degree
    sharing the prefix tree of their words, walked as a lattice of one layer."""

    def __init__(self, generators):
        self.generators = tuple(generators)
        self._by_degree: Dict[int, list] = {}
        for g in self.generators:
            self._by_degree.setdefault(g.degree(), []).append(g)

    def items(self, m: int) -> list:
        return self._by_degree.get(m, [])

    def plan(self, m: int, polys: list) -> list:
        return [(len(polys), [(0, [(m, _poly_trie(polys))])])]


class WindowRows:
    """The lattice source: rows s*h_j of the window generators of dense
    blocks, over the multiset lattice below each degree's weak tuples, with
    no window polynomial made.  blocks lists (window, n) pairs over one d, and
    `generators` keeps the nonzero ones of all_generators(), called on first use."""

    def __init__(self, field: FieldDescriptor, blocks, all_generators):
        from .symfun import tuple_counts_by_degree  # here, so that dims never loads symfun

        self.d = blocks[0][0].d
        self.field = field
        self._all_generators = all_generators
        self._blocks = {deg: block for block in blocks for deg in tuple_counts_by_degree(*block)}

    def items(self, m: int) -> list:
        from .symfun import tuples_of_degree

        if m in self._blocks and m < 2:  # n = 1: the generators are the window words, x1 first
            raise DegreeBelowTwo("generator 0 has degree %d < 2" % m)
        return tuples_of_degree(*self._blocks[m], m) if m in self._blocks else []

    def plan(self, m: int, tuples: list) -> list:
        from .symfun import window_word

        words = {i: window_word(self.d, i) for i in {i for j in tuples for i in j}}  # each distinct entry once
        return _lattice(words, tuples, self.field.one)

    @cached_property
    def generators(self) -> tuple:
        """Every nonzero window generator, block by block in weak-tuple order."""
        return tuple(g for g in self._all_generators() if g.terms)


# -- the table -----------------------------------------------------------------

class GradedIdealTable:
    """Per-degree quotient bases of a homogeneous ideal, up to maxdeg, each
    degree built when it is first needed.

    Generators are a list of homogeneous polynomials of degree >= 2 over one
    field (the empty list needs d and field), or the WindowRows of a dense
    blueprint, which carry their d and field.  A degree over COLUMN_CAP
    columns (d*b_{n-1}) is refused with TooLarge.
    """

    def __init__(self, generators, maxdeg, *, d=None, field=None):
        if isinstance(generators, WindowRows):
            source, d, field = generators, generators.d, generators.field
        else:
            gens, d, field = _check_generators(generators, d, field)
            source = _GeneratorRows(gens)
        require_int(maxdeg, "maxdeg", 0)
        self.d = d
        self.field = field
        self.maxdeg = maxdeg
        self._source = source
        self._walked: dict = {}  # degree -> (plan, generators) still in the walk
        self._b = [1]  # b_0.. of the degrees whose rows are in
        self._finished = [None]  # image tables 0.., the last degree's on first read
        self._rows = None  # semi-echelon of the last degree until it is finished
        self._words: List[List[Word]] = [[()]]  # words of degrees 0.., on demand

    def _check_degree(self, n: int) -> None:
        require_int(n, "degree", 0)
        if n > self.maxdeg:
            raise DegreeExceedsTable(
                "degree %d exceeds table maximum %d" % (n, self.maxdeg)
            )

    def _build(self, n: int) -> None:
        """Put in the rows of every degree up to n not yet built.  The walk
        of degree m steps through degree m-1, so it finishes that level
        first, dropping its semi-echelon before a row of degree m goes in.
        The row source plans the walk of the degree-m generators (a trie or
        a lattice) when m is reached."""
        self._check_degree(n)
        d, p, b, source, walked = self.d, self.field.p, self._b, self._source, self._walked
        new = set if p == 2 else dict
        while len(b) <= n:
            m = len(b)
            width = b[m - 1] * d
            if width > COLUMN_CAP:
                raise TooLarge(
                    "degree %d needs d*b_%d = %d columns, over the %d-column cap"
                    % (m, m - 1, width, COLUMN_CAP)
                )
            self._level(m - 1)
            items = source.items(m)
            if items:
                walked[m] = (source.plan(m, items), items)
            rows: Dict[int, dict] = {}
            for k, (plan, items) in walked.items():
                count, starts = len(items), b[m - k]
                for lo in range(0, starts, WALK_BLOCK):
                    block = list(enumerate(range(lo, min(lo + WALK_BLOCK, starts))))
                    accs = [new() for _ in range(len(block) * count)]
                    _walk_lattice(self._finished, d, p, plan, block, m - k, accs, count)
                    pivots = [_insert(rows, acc, p) for acc in accs]
            # a degree-m generator whose own row (the last block) adds no pivot
            # lies in the ideal of the others and leaves every later degree's walk
            if m in walked and None in pivots:
                kept = [x for x, c in zip(walked[m][1], pivots) if c is not None]
                if kept:
                    walked[m] = (source.plan(m, kept), kept)
                else:
                    del walked[m]
            b.append(width - len(rows))
            self._rows = rows
        if len(b) > self.maxdeg:  # no degree is left to walk
            self._walked = None

    @property
    def generators(self) -> tuple:
        """Every generator, in the list's order or the blueprint's, zeros left out."""
        return self._source.generators

    def _level(self, n: int) -> list:
        """Image table n, finished on its first read."""
        self._build(n)
        if n == len(self._finished):
            self._finished.append(_finish(self._rows, self.d * self._b[n - 1], self.field.p))
            self._rows = None
        return self._finished[n]

    def _words_at(self, n: int) -> List[Word]:
        """Standard words of degree n, built from degree n-1 on first use."""
        self._check_degree(n)
        words, d = self._words, self.d
        while len(words) <= n:
            prev = words[-1]
            image = self._level(len(words))  # standard columns hold ints
            words.append([prev[c // d] + (c % d + 1,)
                          for c, j in enumerate(image) if j.__class__ is int])
        return words[n]

    def b(self, n: int) -> int:
        """Quotient dimension b_n = d**n - dim I_n."""
        self._build(n)
        return self._b[n]

    def b_sequence(self) -> List[int]:
        self._build(self.maxdeg)
        return list(self._b)

    def basis(self, n: int) -> List[Word]:
        """Standard words spanning the degree-n quotient component."""
        return list(self._words_at(n))

    def r_table(self) -> Dict[int, int]:
        """Degree -> number of generators of that degree, with multiplicity."""
        r: Dict[int, int] = {}
        for g in self.generators:
            r[g.degree()] = r.get(g.degree(), 0) + 1
        return dict(sorted(r.items()))

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Residue of p modulo the ideal; zero iff p is a member."""
        return self.power_normal_form(p, 1)

    def power_normal_form(self, g: Polynomial, n: int) -> Polynomial:
        """Residue of g**n modulo the ideal, by n multiplications by g in the
        quotient: nf(a*g) = nf(nf(a)*g), the ideal being two-sided, so g**n
        itself is never formed.  Step i builds the levels up to i*deg g
        alone, and the first zero power ends the climb, every higher power
        lying in the ideal too."""
        if not isinstance(g, Polynomial):
            raise InvalidParams("expected a Polynomial, got %r" % (g,))
        if g.d != self.d:
            raise AmbientMismatch(
                "polynomial lives in %d letters, table has %d" % (g.d, self.d)
            )
        if g.field != self.field:
            raise MixedFields(
                "polynomial is over %s, table over %s" % (g.field, self.field)
            )
        require_int(n, "exponent", 0)
        top = max(g.degree(), 0)
        self._check_degree(n * top)  # the highest level the walk would step through
        levels, d, p = self._finished, self.d, self.field.p
        tries = [(k, _poly_trie([comp])) for k, comp in g.homogeneous_components().items() if k]
        c0 = g.constant_coefficient()
        v: dict = {0: 0}  # degree -> walk state of nf(g**i), here nf(1)
        for i in range(1, n + 1):
            if not v:
                break
            self._level(i * top)
            out: dict = {}
            for m, state in v.items():
                if c0:  # a constant term keeps the degree
                    acc = out.setdefault(m, set() if p == 2 else {})
                    if p == 2:  # c0 is 1
                        acc ^= {state} if state.__class__ is int else state
                    else:
                        for j, a in ({state: 1} if state.__class__ is int else state).items():
                            acc[j] = acc.get(j, 0) + c0 * a
                for k, trie in tries:
                    acc = out.setdefault(m + k, set() if p == 2 else {})
                    _walk_pairs(levels, d, p, trie, [(0, state)], m, m + k, [acc], 1)
            v = {m: vec for m, acc in sorted(out.items()) if (vec := acc if p == 2 else mod_p(acc, p))}
        terms = {}
        for m, vec in v.items():
            words = self._words_at(m)
            if vec.__class__ is not dict:  # a unit, or a GF(2) set
                vec = dict.fromkeys({vec} if vec.__class__ is int else vec, self.field.one)
            terms.update((words[j], a) for j, a in sorted(vec.items()))
        return Polynomial._raw(self.d, self.field, terms)

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero()

    def __repr__(self):  # counts no generators, which would make them all
        return "GradedIdealTable(d=%d, field=%s, maxdeg=%d)" % (self.d, self.field, self.maxdeg)


def build_table(
    generators: Sequence[Polynomial],
    maxdeg: int,
    *,
    d: Optional[int] = None,
    field: Optional[FieldDescriptor] = None,
) -> GradedIdealTable:
    """The graded table of the ideal generated by the given polynomials, with
    every degree up to maxdeg built, so that a degree over COLUMN_CAP is
    refused here.  Its top level is finished only on its first read."""
    table = GradedIdealTable(generators, maxdeg, d=d, field=field)
    table.b(maxdeg)
    return table


# -- dimension rows and the degree-wise lower bound ----------------------------

class DimensionRow(NamedTuple):
    """One degree of the dimension report; bound and slack are None below 2."""

    n: int
    dim_total: int
    dim_ideal: int
    b: int
    bound: Optional[int]
    slack: Optional[int]


def degree_bound(d: int, b: Sequence[int], r: Dict[int, int], n: int) -> int:
    """The degree-wise lower bound d*b_{n-1} - sum_j r_{n-j}*b_j on b_n, n >= 2."""
    return d * b[n - 1] - sum(cnt * b[n - k] for k, cnt in r.items() if 2 <= k <= n)


def dimension_rows(table: GradedIdealTable) -> List[DimensionRow]:
    """Per-degree dimensions with the degree_bound lower bound."""
    r = table.r_table()
    b = table.b_sequence()
    d = table.d
    rows = []
    for n in range(table.maxdeg + 1):
        if n < 2:
            bound = slack = None
        else:
            bound = degree_bound(d, b, r, n)
            slack = b[n] - bound
        rows.append(DimensionRow(n, d**n, d**n - b[n], b[n], bound, slack))
    return rows


def check_dimension_bounds(rows: Sequence[DimensionRow]) -> List[int]:
    """Degrees whose slack is negative; empty means the bound held throughout."""
    return [row.n for row in rows if row.slack is not None and row.slack < 0]


CSV_COLUMNS = ("n", "dim_Tn", "dim_In", "b_n", "eq1_bound", "slack")


def write_dimension_csv(rows: Sequence[DimensionRow], fh) -> None:
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        fh.write(",".join("" if v is None else str(v) for v in row) + "\n")


def dimension_report(table: GradedIdealTable, rows: Optional[Sequence[DimensionRow]] = None) -> dict:
    """JSON-ready dict mirroring the CSV table, keys in fixed order."""
    if rows is None:
        rows = dimension_rows(table)
    return {
        "d": table.d,
        "field": str(table.field),
        "maxdeg": table.maxdeg,
        "r": {str(deg): count for deg, count in sorted(table.r_table().items())},
        "rows": [dict(zip(CSV_COLUMNS, row)) for row in rows],
        "all_nonnegative": not check_dimension_bounds(rows),
    }
