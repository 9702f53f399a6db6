"""Graded ideal tables: dimensions, normal forms, bounds, and reports."""

import io
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gsalg import graded
from gsalg.errors import (
    AmbientMismatch,
    DegreeBelowTwo,
    DegreeExceedsTable,
    InvalidParams,
    MixedFields,
    NonHomogeneousGenerator,
    TooLarge,
)
from gsalg.field import GF2, QQ, FieldDescriptor
from gsalg.freealg import Polynomial, parse_poly, words_of_degree
from gsalg.gscore import blueprint_table, build_blueprint
from gsalg.graded import (
    CSV_COLUMNS,
    DimensionRow,
    build_table,
    check_dimension_bounds,
    degree_bound,
    dimension_report,
    dimension_rows,
    write_dimension_csv,
)

from oracles import count_avoiding_factor, fibonacci, naive_dimension_table


# -- frozen dimension sequences --------------------------------------------------


def test_zero_ideal_full_dimensions():
    table = build_table([], 8, d=2, field=GF2)
    assert table.b_sequence() == [2**n for n in range(9)]
    assert dimension_rows(table)[5].dim_ideal == 0
    assert table.r_table() == {}


def test_single_mixed_quadratic_counts_paths():
    # standard words avoid the factor x1*x2: b_n counts lattice paths, n + 1
    for field in (GF2, FieldDescriptor(5), QQ):
        g = parse_poly("x1*x2", 2, field)
        table = build_table([g], 9, field=field)
        assert table.b_sequence() == [
            count_avoiding_factor(2, (1, 2), n) for n in range(10)
        ]
        assert table.b_sequence() == [1] + [n + 1 for n in range(1, 10)]


def test_single_square_counts_fibonacci():
    for field in (GF2, FieldDescriptor(5), QQ):
        g = parse_poly("x1*x1", 2, field)
        table = build_table([g], 10, field=field)
        assert table.b_sequence() == [
            count_avoiding_factor(2, (1, 1), n) for n in range(11)
        ]
        assert table.b_sequence() == [fibonacci(n + 2) for n in range(11)]


def test_basis_words_avoid_the_forbidden_factor():
    table = build_table([parse_poly("x1*x2", 2, GF2)], 6)
    for n in range(7):
        avoiding = [w for w in words_of_degree(2, n)
                    if all(w[i : i + 2] != (1, 2) for i in range(len(w) - 1))]
        assert table.basis(n) == avoiding


# -- naive cross-check -----------------------------------------------------------


def _random_homogeneous(rng, d, deg, field):
    words = list(words_of_degree(d, deg))
    p = Polynomial.zero(d, field)
    for w in words:
        c = rng.randrange(-2, 3)
        if c:
            p = p + Polynomial.monomial(w, d, field, c)
    return p


@pytest.mark.parametrize(
    "field",
    [GF2, FieldDescriptor(5), FieldDescriptor(65521), FieldDescriptor(2**31 - 1), QQ],
    ids=["gf2", "gf5", "gf65521", "gf2147483647", "q"],
)
def test_table_matches_naive_reference(field):
    rng = random.Random(101)
    for trial in range(4):
        d = rng.choice([2, 3])
        gens = []
        # a degree-3 generator walks through a reduced middle level, where
        # the state rows stop being single words
        for deg in [3] + [rng.randrange(2, 4) for _ in range(rng.randrange(0, 2))]:
            g = _random_homogeneous(rng, d, deg, field)
            if not g.is_zero():
                gens.append(g)
        if not gens:
            continue
        maxdeg = 6 if d == 2 else 5
        fast = build_table(gens, maxdeg)
        slow = naive_dimension_table(gens, maxdeg)
        assert fast.b_sequence() == slow.b
        for n in range(maxdeg + 1):
            assert fast.basis(n) == slow.standard_words[n]
        # membership must agree on ideal elements and random probes alike
        for _ in range(6):
            g = gens[rng.randrange(len(gens))]
            a = rng.randrange(maxdeg - g.degree() + 1)
            u = tuple(rng.randrange(1, d + 1) for _ in range(a))
            member = Polynomial.monomial(u, d, field) * g
            assert fast.contains(member)
            assert slow.contains(member)
            probe = _random_homogeneous(rng, d, rng.randrange(2, maxdeg + 1), field)
            assert fast.contains(probe) == slow.contains(probe)


# -- normal forms ----------------------------------------------------------------


@pytest.mark.parametrize(
    "field", [GF2, FieldDescriptor(5), FieldDescriptor(2**31 - 1), QQ], ids=["gf2", "gf5", "gf2147483647", "q"]
)
def test_normal_form_properties(field):
    gens = [parse_poly("x1*x2 + 2*x2*x1", 2, field)]
    table = build_table(gens, 6)
    oracle = naive_dimension_table(gens, 6)
    rng = random.Random(7)
    for g in gens:
        assert table.contains(g)
        assert table.normal_form(g).is_zero()
    for _ in range(10):
        p = _random_homogeneous(rng, 2, rng.randrange(1, 6), field)
        nf = table.normal_form(p)
        assert table.normal_form(nf) == nf
        assert table.contains(p - nf)
        assert oracle.contains(p - nf)
        if not nf.is_zero():
            assert set(nf.terms) <= set(table.basis(nf.degree()))


def test_sparse_gf2_engine_matches_naive_table():
    # GF(2) runs on the generic sparse engine with p = 2; the naive
    # full-width oracle is independent of it
    rng = random.Random(2013)
    for _ in range(30):
        d = rng.choice([2, 3])
        gens = []
        for deg in [3] + [rng.randrange(2, 4) for _ in range(rng.randrange(0, 3))]:
            g = _random_homogeneous(rng, d, deg, GF2)
            if not g.is_zero():
                gens.append(g)
        if not gens:
            continue
        maxdeg = 7 if d == 2 else 5
        table = build_table(gens, maxdeg)
        oracle = naive_dimension_table(gens, maxdeg)
        for n in range(maxdeg + 1):
            assert table.basis(n) == oracle.standard_words[n]
        for _ in range(5):
            probe = Polynomial.zero(d, GF2)
            for n in range(maxdeg + 1):
                probe = probe + _random_homogeneous(rng, d, n, GF2)
            nf = table.normal_form(probe)
            assert oracle.contains(probe - nf)
            assert all(w in set(table.basis(len(w))) for w in nf.terms)


@st.composite
def _shared_generators(draw):
    """A field, d, maxdeg and generators that share first letters, repeat,
    and come back as scalar multiples, over mixed degrees."""
    field = draw(st.sampled_from([GF2, FieldDescriptor(5), QQ]))
    d = draw(st.sampled_from([2, 3]))
    first = draw(st.integers(1, d))
    letters = st.integers(1, d)
    coeffs = st.integers(-3, 3).filter(bool)
    base = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(2, 3))
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            rest = tuple(draw(st.lists(letters, min_size=k - 1, max_size=k - 1)))
            head = first if draw(st.booleans()) else draw(letters)
            terms[(head,) + rest] = draw(coeffs)
        g = Polynomial(d, field, terms)
        if not g.is_zero():
            base.append(g)
    gens = list(base)
    for g in base:
        for c in draw(st.lists(st.sampled_from([1, 2, -3]), max_size=2)):
            if not g.scale(c).is_zero():
                gens.append(g.scale(c))  # c == 1 repeats g
    gens = draw(st.permutations(gens))
    return field, d, (6 if d == 2 else 4), gens


@settings(max_examples=40)
@given(case=_shared_generators(), data=st.data())
def test_merged_walk_matches_naive_table(case, data):
    field, d, maxdeg, gens = case
    if not gens:
        return
    table = build_table(gens, maxdeg)
    oracle = naive_dimension_table(gens, maxdeg)
    for n in range(maxdeg + 1):
        assert table.basis(n) == oracle.standard_words[n]
    for _ in range(3):
        words = data.draw(
            st.lists(
                st.integers(0, maxdeg).flatmap(
                    lambda m: st.lists(st.integers(1, d), min_size=m, max_size=m)
                ),
                min_size=1,
                max_size=6,
            )
        )
        probe = Polynomial(d, field, {tuple(w): data.draw(st.integers(1, 4)) for w in words})
        assert table.normal_form(probe) == oracle.normal_form(probe)


def test_stored_nonzeros_stay_sparse():
    # fill-in guard: the image tables of the d=3 quadric over GF(2) hold
    # exactly these many nonzeros per degree (one per standard column plus
    # each pivot's reduced row); a densifying change moves these counts
    table = build_table([parse_poly("x1*x2 + x2*x3 + x3*x1", 3, GF2)], 10)
    nnz = [
        sum(1 if img.__class__ is int else len(img) for img in table._level(n))
        for n in range(1, 11)
    ]
    assert nnz == [3, 10, 28, 75, 198, 520, 1363, 3570, 9348, 24475]


def _count_rows(mp):
    """Count the rows that go into graded._insert, through mp."""
    rows = []
    insert = graded._insert
    mp.setattr(graded, "_insert", lambda ech, row, p: rows.append(1) or insert(ech, row, p))
    return rows


def _toy25_generators():
    bp = build_blueprint(None, mode="dense", d=2, toy_c=2, toy_n=5, field=FieldDescriptor(5))
    return bp, [g for g in bp.all_generators() if not g.is_zero()]


def test_merged_walk_step_count_of_either_row_source(monkeypatch):
    # one walk per start word serves every generator of a degree: the toy
    # d=2, c=2, n=5 blueprint's 244 nonzero generators over GF(5) (degree
    # 5-10), as a list, take exactly this many steps through _step; a walk
    # per generator takes 41,642.  A unit state writes the candidate column of
    # its last step itself, without _step, which took this count down from
    # 33,694 (and a walk per generator from 55,400).  Generators that lie in
    # the ideal of the others leave the walk, which took it from 19,936.  The
    # blueprint's own table walks the multiset lattice of the window words,
    # sharing the states of common sub-multisets, in fewer steps
    bp, gens = _toy25_generators()
    calls = []
    step = graded._step
    monkeypatch.setattr(graded, "_step", lambda *args: calls.append(1) or step(*args))
    table = build_table(gens, 10)
    assert table.b_sequence() == [1, 2, 4, 8, 16, 26, 44, 70, 104, 140, 185]
    assert len(calls) == 8562
    calls.clear()
    assert blueprint_table(bp).b_sequence() == table.b_sequence()
    assert len(calls) == 7138


def test_redundant_generators_leave_the_walk_of_either_row_source(monkeypatch):
    # the same toy: of 2,136 rows, 89% reduced to zero for a total rank of
    # 231 while every generator stayed in the walk.  A generator whose own
    # row adds no pivot lies in the ideal of the others and is dropped.  The
    # lattice makes no generator, so each of the 8 that vanish over GF(5)
    # puts its own (zero) row in once before it leaves
    bp, gens = _toy25_generators()
    rows = _count_rows(monkeypatch)
    b = build_table(gens, 10).b_sequence()
    assert len(rows) == 832
    assert sum(2 * b[n - 1] - b[n] for n in range(1, len(b))) == 231  # pivots
    rows.clear()
    table = blueprint_table(bp)
    assert table.b_sequence() == b and len(rows) == 840
    assert len(table.generators) == 244 and sum(table.r_table().values()) == 244


def _level_tables(table):
    return [table._level(n) for n in range(table.maxdeg + 1)]


@pytest.mark.parametrize("block", [1, 3])
def test_block_size_does_not_change_the_levels(monkeypatch, block):
    # the walk steps blocks of start words per trie node; any block size,
    # down to one start word, gives the same level tables
    rng = random.Random(77)
    gf7 = [
        Polynomial(3, FieldDescriptor(7), {tuple(rng.randint(1, 3) for _ in range(k)): rng.randint(1, 6) for _ in range(3)})
        for k in (2, 3)
    ]
    cases = [
        ([parse_poly("x1*x2 + x2*x3 + x3*x1", 3, GF2)], 9),
        (gf7, 8),
        ([parse_poly("x1*x2 - 2*x2*x1", 2, QQ), parse_poly("3*x1*x1*x2 + x2*x2*x1", 2, QQ)], 8),
    ]
    want = [_level_tables(build_table(gens, maxdeg)) for gens, maxdeg in cases]
    monkeypatch.setattr(graded, "WALK_BLOCK", block)
    assert [_level_tables(build_table(gens, maxdeg)) for gens, maxdeg in cases] == want


@st.composite
def _with_redundant(draw):
    """Generators over GF(2), GF(7) or QQ, two of them of one degree, and the
    same list with redundant ones mixed in: a scaled copy, the sum of the two,
    x_t*f and f*x_t, and h*x_u for a generator h of the top degree, so that
    the degree above it has only redundant generators."""
    field = draw(st.sampled_from([GF2, FieldDescriptor(7), QQ]))
    d = draw(st.sampled_from([2, 3]))
    coeffs = st.integers(-3, 3).filter(bool)

    def poly(k):
        words = st.lists(st.integers(1, d), min_size=k, max_size=k).map(tuple)
        return Polynomial(d, field, draw(st.dictionaries(words, coeffs, min_size=1, max_size=4)))

    k = draw(st.integers(2, 3))
    base = [poly(k), poly(k)] + [poly(draw(st.integers(2, 3))) for _ in range(draw(st.integers(0, 1)))]
    base = [g for g in base if not g.is_zero()]
    assume(base)
    f = draw(st.sampled_from(base))
    h = max(base, key=Polynomial.degree)
    x, y = (Polynomial.variable(draw(st.integers(1, d)), d, field) for _ in range(2))
    extra = [f.scale(draw(st.sampled_from([1, 3, -1]))), x * f, f * x, h * y]
    if len(base) > 1 and base[0].degree() == base[1].degree():
        extra.append(base[0] + base[1])
    extra = [g for g in extra if not g.is_zero()]
    gens = draw(st.permutations(base + extra))
    return d, (6 if d == 2 else 4), base, gens


@settings(max_examples=40, deadline=None)
@given(case=_with_redundant())
def test_redundant_generators_keep_the_tables(case):
    # the level tables are those of the list without the redundant
    # generators, and each of those adds just its own row: the generators
    # kept per degree are as many as the ideal needs, in any order
    d, maxdeg, base, gens = case
    with pytest.MonkeyPatch.context() as mp:
        rows = _count_rows(mp)
        want = build_table(base, maxdeg)
        base_rows = len(rows)
        table = build_table(gens, maxdeg)
    assert _level_tables(table) == _level_tables(want)
    assert len(rows) == 2 * base_rows + len(gens) - len(base)
    assert table.generators == tuple(gens)
    assert table.b_sequence() == naive_dimension_table(gens, maxdeg).b


@st.composite
def _mixed_generators(draw):
    """A field, d and up to three random generators of degree 2 to 4."""
    field = draw(st.sampled_from([GF2, FieldDescriptor(5), QQ]))
    d = draw(st.sampled_from([2, 3]))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(2, 4 if d == 2 else 3))
        words = st.lists(st.integers(1, d), min_size=k, max_size=k).map(tuple)
        terms = draw(st.dictionaries(words, st.integers(-3, 3).filter(bool), min_size=1, max_size=5))
        g = Polynomial(d, field, terms)
        if not g.is_zero():
            gens.append(g)
    return field, d, (6 if d == 2 else 4), gens


@settings(max_examples=30, deadline=None)
@given(case=_mixed_generators())
def test_blocks_of_two_match_naive_table(case):
    # blocks of two start words split every level over several blocks
    field, d, maxdeg, gens = case
    if not gens:
        return
    old = graded.WALK_BLOCK
    graded.WALK_BLOCK = 2
    try:
        table = build_table(gens, maxdeg)
    finally:
        graded.WALK_BLOCK = old
    oracle = naive_dimension_table(gens, maxdeg)
    assert table.b_sequence() == oracle.b
    for n in range(maxdeg + 1):
        assert table.basis(n) == oracle.standard_words[n]


def test_words_built_on_demand():
    # a level keeps its standard columns, not its words: a dims run builds
    # no word tuple, and basis and normal_form build the words
    # of a degree (and those below it) on first use, equal to the naive ones
    g = parse_poly("x1*x2 + x2*x3 + x3*x1", 3, GF2)
    table = build_table([g], 10)
    assert [row.b for row in dimension_rows(table)] == [fibonacci(2 * n + 2) for n in range(11)]
    assert len(table._words) == 1
    for n in range(1, 11):
        assert not any(x.__class__ is tuple for x in table._level(n))
    assert len(table.basis(4)) == 55 and len(table._words) == 5
    # the naive oracle takes about 5 s at degree 10 on a 2-core Xeon VM, so it
    # stops at 9; degree 10 is checked against degree 9 by prefix closure
    oracle = naive_dimension_table([g], 9, column_cap=3**9)
    for n in range(10):
        assert table.basis(n) == oracle.standard_words[n]
    prev = set(table.basis(9))
    assert all(w[:-1] in prev for w in table.basis(10))
    assert len(table.basis(10)) == 17711
    rng = random.Random(10)
    for _ in range(5):
        terms = {}
        for m in rng.sample(range(10), 4):
            for _ in range(3):
                terms[tuple(rng.randint(1, 3) for _ in range(m))] = 1
        probe = Polynomial(3, GF2, terms)
        assert table.normal_form(probe) == oracle.normal_form(probe)


# -- the top degree, finished on first read ------------------------------------


def _top_degree_cases():
    """(generators, maxdeg) over GF(2), GF(7) and QQ."""
    rng = random.Random(18)
    gf7 = [
        Polynomial(3, FieldDescriptor(7), {tuple(rng.randint(1, 3) for _ in range(k)): rng.randint(1, 6) for _ in range(3)})
        for k in (2, 3)
    ]
    return {
        "gf2": ([parse_poly("x1*x2 + x2*x3 + x3*x1", 3, GF2), parse_poly("x1*x1*x3 + x3*x2*x2", 3, GF2)], 6),
        "gf7": (gf7, 5),
        "q": ([parse_poly("x1*x2 - 2*x2*x1 + x3*x3", 3, QQ), parse_poly("3*x1*x1*x2 + x2*x3*x1", 3, QQ)], 5),
    }


def _count_finishes(mp):
    """Count the calls of graded._finish, through mp."""
    calls = []
    finish = graded._finish
    mp.setattr(graded, "_finish", lambda *args: calls.append(1) or finish(*args))
    return calls


@pytest.mark.parametrize("case", ["gf2", "gf7", "q"])
def test_top_level_read_late_equals_the_level_built_below_a_higher_top(monkeypatch, case):
    # the top degree keeps its semi-echelon: b, b_sequence and the dimension
    # rows need only its rank, and finish nothing.  Read later, its level
    # equals the one a table a degree higher builds on the way
    gens, n = _top_degree_cases()[case]
    higher = build_table(gens, n + 1)
    levels = _level_tables(higher)[: n + 1]
    calls = _count_finishes(monkeypatch)
    table = build_table(gens, n)
    assert len(calls) == n - 1
    assert table.b_sequence() == higher.b_sequence()[: n + 1]
    assert [table.b(m) for m in range(n + 1)] == table.b_sequence()
    assert dimension_rows(table) == dimension_rows(higher)[: n + 1]
    assert len(calls) == n - 1
    assert _level_tables(table) == levels
    assert len(calls) == n
    assert [table.basis(m) for m in range(n + 1)] == [higher.basis(m) for m in range(n + 1)]


@pytest.mark.parametrize("case", ["gf2", "gf7", "q"])
def test_top_level_read_first_by_a_query_matches_naive_table(monkeypatch, case):
    # basis(maxdeg) and a normal form reaching maxdeg, each the first read
    # of a fresh table's top level, agree with the full-width reference
    gens, n = _top_degree_cases()[case]
    oracle = naive_dimension_table(gens, n)
    calls = _count_finishes(monkeypatch)
    assert build_table(gens, n).basis(n) == oracle.standard_words[n]
    assert len(calls) == n
    rng = random.Random(n)
    d, field = gens[0].d, gens[0].field
    for _ in range(3):
        probe = Polynomial(d, field, {tuple(rng.randint(1, d) for _ in range(m)): rng.randint(1, 4) for m in (n - 2, n, n)})
        table = build_table(gens, n)
        assert table.normal_form(probe) == oracle.normal_form(probe)
    assert len(calls) == 4 * n


def test_normal_form_mixed_degrees():
    table = build_table([parse_poly("x1*x1", 2, QQ)], 5)
    p = parse_poly("3 + x1 + x1*x1 + x1*x2", 2, QQ)
    nf = table.normal_form(p)
    assert nf == parse_poly("3 + x1 + x1*x2", 2, QQ)


def test_contains_spec_examples():
    table = build_table([parse_poly("x1*x2", 2, GF2)], 4)
    assert table.contains(parse_poly("x1*x2", 2, GF2))
    assert not table.contains(parse_poly("x2*x1", 2, GF2))
    assert table.contains(parse_poly("x1*x1*x2 + x1*x2*x2", 2, GF2))


# -- validation and errors -------------------------------------------------------


def test_generator_validation():
    with pytest.raises(NonHomogeneousGenerator):
        build_table([parse_poly("x1 + x1*x2", 2, GF2)], 3)
    with pytest.raises(NonHomogeneousGenerator):
        build_table([Polynomial.zero(2, GF2)], 3)
    with pytest.raises(DegreeBelowTwo):
        build_table([parse_poly("x1", 2, GF2)], 3)
    with pytest.raises(AmbientMismatch):
        build_table([parse_poly("x1*x2", 3, GF2)], 3, d=2)
    with pytest.raises(MixedFields):
        build_table(
            [parse_poly("x1*x2", 2, GF2), parse_poly("x2*x1", 2, FieldDescriptor(5))], 3
        )
    with pytest.raises(InvalidParams):
        build_table([], 3)  # no generators, no explicit ambient
    with pytest.raises(InvalidParams):
        build_table([parse_poly("x1*x2", 2, GF2)], -1)


def test_column_cap(monkeypatch):
    # a generator above maxdeg leaves b_n = 2**n, so degree 11 needs 2048 columns;
    # build_table reads the module's one cap when it is called
    monkeypatch.setattr(graded, "COLUMN_CAP", 2**10)
    x1_13 = parse_poly("*".join(["x1"] * 13), 2, GF2)
    with pytest.raises(TooLarge, match="2048 columns"):
        build_table([x1_13], 12)
    assert build_table([x1_13], 10).b(10) == 2**10


def test_column_cap_counts_working_width():
    # d**21 is over the default cap, but b_n = n + 1 keeps d*b_{n-1} tiny
    table = build_table([parse_poly("x1*x2", 2, GF2)], 21)
    assert table.b_sequence() == list(range(1, 23))


def test_degree_exceeds_table():
    table = build_table([parse_poly("x1*x2", 2, GF2)], 3)
    with pytest.raises(DegreeExceedsTable):
        table.b(4)
    with pytest.raises(DegreeExceedsTable):
        table.normal_form(parse_poly("x1*x1*x1*x1", 2, GF2))
    with pytest.raises(InvalidParams):
        table.b(-1)


def test_normal_form_ambient_and_field_checks():
    table = build_table([parse_poly("x1*x2", 2, GF2)], 3)
    with pytest.raises(AmbientMismatch):
        table.normal_form(parse_poly("x3", 3, GF2))
    with pytest.raises(MixedFields):
        table.normal_form(parse_poly("x1", 2, FieldDescriptor(5)))


# -- generator counting ------------------------------------------------------------


def test_r_table_counts_multiplicity():
    gens = [
        parse_poly("x1*x2", 2, QQ),
        parse_poly("x2*x1", 2, QQ),
        parse_poly("x1*x1*x1", 2, QQ),
    ]
    table = build_table(gens, 4)
    assert table.r_table() == {2: 2, 3: 1}


# -- dimension rows, bound, and reports -------------------------------------------


def test_dimension_rows_mixed_quadratic():
    table = build_table([parse_poly("x1*x2", 2, QQ)], 4)
    rows = dimension_rows(table)
    assert [r.b for r in rows] == [1, 2, 3, 4, 5]
    assert [r.dim_total for r in rows] == [1, 2, 4, 8, 16]
    assert [r.dim_ideal for r in rows] == [0, 0, 1, 4, 11]
    assert rows[0].bound is None and rows[1].slack is None
    # degree 2: d*b_1 - r_2*b_0 = 2*2 - 1 = 3, met exactly
    assert rows[2].bound == 3 and rows[2].slack == 0
    assert rows[3].bound == 2 * 3 - 1 * 2 and rows[3].slack == 0
    assert check_dimension_bounds(rows) == []


def test_dimension_rows_square_generator():
    table = build_table([parse_poly("x1*x1", 2, QQ)], 4)
    rows = dimension_rows(table)
    assert [r.b for r in rows] == [1, 2, 3, 5, 8]
    # degree 3: 2*3 - 1*2 = 4 against b_3 = 5
    assert rows[3].bound == 4 and rows[3].slack == 1
    assert rows[4].bound == 2 * 5 - 1 * 3 and rows[4].slack == 1


# one degree-2 or degree-3 generator, and several degrees with the zero-count
# keys 0 and 1 and a degree past the top n = 4
@pytest.mark.parametrize("r, want", [
    ({2: 1}, [2 * 2 - 1 * 1, 2 * 4 - 1 * 2, 2 * 8 - 1 * 4]),
    ({3: 1}, [2 * 2, 2 * 4 - 1 * 1, 2 * 8 - 1 * 2]),
    ({0: 0, 1: 0, 2: 1, 4: 3, 9: 1}, [2 * 2 - 1 * 1, 2 * 4 - 1 * 2, 2 * 8 - 1 * 4 - 3 * 1]),
], ids=["r2", "r3", "several-degrees"])
def test_degree_bound_explicit_r(r, want):
    # counts given apart from any table, as bound --r passes them, against
    # the zero ideal's b_n = 2**n and the bound's literal sum over every j
    b = [1, 2, 4, 8, 16]
    assert [degree_bound(2, b, r, n) for n in (2, 3, 4)] == want
    assert want == [2 * b[n - 1] - sum(r.get(n - j, 0) * b[j] for j in range(n - 1)) for n in (2, 3, 4)]


def test_dimension_rows_explicit_r():
    # dimension_rows takes its bound from degree_bound, on the table's counts
    table = build_table([parse_poly("x1*x1", 2, QQ)], 4)
    b, r = table.b_sequence(), table.r_table()
    expected = [degree_bound(2, b, r, n) for n in (2, 3, 4)]
    assert [row.bound for row in dimension_rows(table)[2:]] == expected


def test_check_dimension_bounds_flags_negatives():
    rows = [
        DimensionRow(0, 1, 0, 1, None, None),
        DimensionRow(2, 4, 2, 2, 3, -1),
        DimensionRow(3, 8, 4, 4, 4, 0),
    ]
    assert check_dimension_bounds(rows) == [2]


def test_dimension_row_reads_by_name():
    row = dimension_rows(build_table([parse_poly("x1*x2", 2, GF2)], 3))[2]
    assert (row.n, row.dim_total, row.dim_ideal, row.b, row.bound, row.slack) == (2, 4, 1, 3, 3, 0)
    assert row == DimensionRow(n=2, dim_total=4, dim_ideal=1, b=3, bound=3, slack=0)
    with pytest.raises(AttributeError):
        row.b = 4


def test_csv_format_verbatim():
    table = build_table([parse_poly("x1*x2", 2, GF2)], 3)
    out = io.StringIO()
    write_dimension_csv(dimension_rows(table), out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "n,dim_Tn,dim_In,b_n,eq1_bound,slack"
    assert lines[1] == "0,1,0,1,,"
    assert lines[2] == "1,2,0,2,,"
    assert lines[3] == "2,4,1,3,3,0"
    assert lines[4] == "3,8,4,4,4,0"
    assert CSV_COLUMNS == ("n", "dim_Tn", "dim_In", "b_n", "eq1_bound", "slack")


def test_dimension_report_shape():
    table = build_table([parse_poly("x1*x2", 2, GF2)], 3)
    report = dimension_report(table)
    assert list(report) == ["d", "field", "maxdeg", "r", "rows", "all_nonnegative"]
    assert report["d"] == 2
    assert report["field"] == "gf2"
    assert report["maxdeg"] == 3
    assert report["r"] == {"2": 1}
    assert report["all_nonnegative"] is True
    assert report["rows"][2] == {
        "n": 2,
        "dim_Tn": 4,
        "dim_In": 1,
        "b_n": 3,
        "eq1_bound": 3,
        "slack": 0,
    }
    json.dumps(report)  # must be serializable as-is
