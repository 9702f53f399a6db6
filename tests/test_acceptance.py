"""Acceptance suite: one test per criterion, one artifact tree per run.

Every criterion that produces output writes it under a single directory via
produce_all(); the tests assert on the returned records and the ninth
criterion reruns the whole pipeline into a second directory and compares the
two trees byte for byte.  Timings are kept in the in-memory records only so
the artifact files stay reproducible.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from gsalg.symfun import orbit_size, weak_tuple_count, weak_tuples
from gsalg.field import GF2, FieldDescriptor
from gsalg.freealg import Polynomial, parse_poly, poly_str, words_of_degree
from gsalg.graded import (
    build_table,
    check_dimension_bounds,
    dimension_report,
    dimension_rows,
    write_dimension_csv,
)
from gsalg.gscore import (
    GSParams,
    build_blueprint,
    blueprint_table,
    certificate_from_epsilon,
    check_blueprint,
    check_bound_conditions,
    nil_certificate,
    save_blueprint,
    verify_growth,
)
from oracles import (
    brute_minimal_n,
    certified_predicate,
    count_avoiding_factor,
    fibonacci,
    naive_dimension_table,
    scan_all_false,
)

GF5 = FieldDescriptor(5)
SEED = 20260815


def _rng(tag: str) -> random.Random:
    return random.Random("%d-%s" % (SEED, tag))


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


# -- producers ------------------------------------------------------------------

def _produce_c1(out: Path) -> dict:
    t0 = time.perf_counter()
    table = build_table([], 12, d=2, field=GF2)
    rows = dimension_rows(table)
    with open(out / "c1_dims.csv", "w") as fh:
        write_dimension_csv(rows, fh)
    _write_json(out / "c1_report.json", dimension_report(table, rows))
    return {
        "elapsed": time.perf_counter() - t0,
        "b": table.b_sequence(),
        "slacks": [row.slack for row in rows],
        "violations": check_dimension_bounds(rows),
    }


def _produce_c2(out: Path) -> dict:
    t0 = time.perf_counter()
    rec: dict = {}
    for tag, text in (("mixed", "x1*x2"), ("square", "x1*x1")):
        g = parse_poly(text, 2, GF2)
        table = build_table([g], 12)
        naive = naive_dimension_table([g], 12)
        rows = dimension_rows(table)
        with open(out / ("c2_%s.csv" % tag), "w") as fh:
            write_dimension_csv(rows, fh)
        rec[tag] = {"b": table.b_sequence(), "naive_b": list(naive.b)}
    rec["elapsed"] = time.perf_counter() - t0
    return rec


def _produce_c3(out: Path) -> dict:
    # 50 seeded sets covering both ranks and both fields; generators are
    # sparse (2..5 terms) and the d=3/GF(5) cell draws degrees from [5, 8],
    # where a single build stays a few seconds on one core (low degrees
    # there cost 19..39 s each, which no 50-set schedule can afford; the
    # low-degree cells are still exercised at d=2 and over GF(2))
    t0 = time.perf_counter()
    rng = _rng("c3")
    sets = []
    for i in range(50):
        d = 2 if i % 2 == 0 else 3
        field = GF2 if (i // 2) % 2 == 0 else GF5
        lo = 5 if (d == 3 and field is GF5) else 2
        gens = []
        for _ in range(rng.randrange(1, 4)):
            deg = rng.randrange(lo, 9)
            words = list(words_of_degree(d, deg))
            picked = rng.sample(words, min(rng.randrange(2, 6), len(words)))
            top = 2 if field is GF2 else 5
            gens.append(Polynomial(d, field, {w: rng.randrange(1, top) for w in picked}))
        table = build_table(gens, 10)
        rows = dimension_rows(table)
        sets.append(
            {
                "d": d,
                "field": str(field),
                "degrees": sorted(g.degree() for g in gens),
                "generators": [poly_str(g) for g in gens],
                "b": table.b_sequence(),
                "violations": check_dimension_bounds(rows),
            }
        )
    _write_json(out / "c3_sets.json", sets)
    return {"elapsed": time.perf_counter() - t0, "sets": sets}


def _produce_c4(out: Path) -> dict:
    t0 = time.perf_counter()
    tuples = weak_tuples(2, 7)
    orbit = orbit_size((1, 1, 1, 2, 2, 2, 2))
    partition = {
        "%d,%d" % (q, n): sum(orbit_size(j) for j in weak_tuples(q, n))
        for q in range(1, 7)
        for n in range(1, 7)
    }
    payload = {
        "count_2_7": weak_tuple_count(2, 7),
        "tuples_2_7": [list(j) for j in tuples],
        "orbit_1112222": orbit,
        "orbit_sums": partition,
    }
    _write_json(out / "c4.json", payload)
    return {"elapsed": time.perf_counter() - t0, **payload, "tuples": tuples}


def _produce_c5(out: Path) -> dict:
    t0 = time.perf_counter()
    toy13 = build_blueprint(None, mode="dense", d=2, toy_c=1, toy_n=3, field=GF5)
    table13 = blueprint_table(toy13)
    pairs = []
    for alpha in range(5):
        for beta in range(5):
            if alpha == 0 and beta == 0:
                continue
            g = Polynomial(2, GF5, {(1,): alpha, (2,): beta})
            cert = nil_certificate(g, toy13, table13)
            pairs.append(
                {"alpha": alpha, "beta": beta, "exponent": cert.exponent, "verified": cert.verified}
            )
    toy22 = build_blueprint(None, mode="dense", d=2, toy_c=2, toy_n=2)
    table22 = blueprint_table(toy22)
    rng = _rng("c5")
    window = [w for deg in (1, 2) for w in words_of_degree(2, deg)]
    randoms = []
    for _ in range(100):
        terms = {w: rng.randrange(2) for w in window}
        if not any(terms.values()):
            terms[window[rng.randrange(len(window))]] = 1
        g = Polynomial(2, GF2, terms)
        cert = nil_certificate(g, toy22, table22)
        randoms.append({"g": poly_str(g), "exponent": cert.exponent, "verified": cert.verified})
    _write_json(out / "c5.json", {"pairs": pairs, "random": randoms})
    return {"elapsed": time.perf_counter() - t0, "pairs": pairs, "random": randoms}


def _produce_c6(out: Path) -> dict:
    t0 = time.perf_counter()
    rng = _rng("c6")
    cases = []
    for _ in range(20):
        d = rng.randrange(2, 10)
        den = rng.randrange(3, 61)
        # 2*num <= den*(d-1) - 1 keeps eps < d/2 with d - 2*eps > 1
        num = rng.randrange(1, (den * (d - 1) - 1) // 2 + 1)
        eps = Fraction(num, den)
        cert = certificate_from_epsilon(GSParams(d, eps))
        cases.append(
            {
                "d": d,
                "eps": str(eps),
                "v": str(cert.v),
                "c": str(cert.c),
                "u": str(cert.u),
                "b_value": str(cert.condition_b_value),
                "exact_equality": cert.condition_b_value == eps,
            }
        )
    _write_json(out / "c6.json", cases)
    return {"elapsed": time.perf_counter() - t0, "cases": cases}


def _produce_c7(out: Path) -> dict:
    t0 = time.perf_counter()
    rng = _rng("c7")
    terms = {w: 1 for w in words_of_degree(2, 13) if rng.random() < 0.5}
    assert terms
    g = Polynomial(2, GF2, terms)
    table = build_table([g], 16)
    # the build stays within the 2**16-column width it was written for
    assert all(2 * bn <= 2**16 for bn in table.b_sequence()[:16])
    rows = dimension_rows(table)
    (out / "c7_generator.txt").write_text(poly_str(g) + "\n")
    with open(out / "c7_dims.csv", "w") as fh:
        write_dimension_csv(rows, fh)
    cert = certificate_from_epsilon(GSParams(2, Fraction(2, 5)))
    r = table.r_table()
    conditions = check_bound_conditions(r, cert, 16)
    growth = verify_growth(table.b_sequence(), r, cert)
    b = table.b_sequence()
    power_ok = all(Fraction(bn) >= Fraction(8, 5) ** n for n, bn in enumerate(b))
    _write_json(
        out / "c7_growth.json",
        {
            "eps": "2/5",
            "r": {str(k): v for k, v in sorted(r.items())},
            "conditions_ok": conditions.ok,
            "growth_ok": growth.ok,
            "ledger_lines": len(growth.lines),
            "power_floor_ok": power_ok,
            "b": b,
        },
    )
    return {
        "elapsed": time.perf_counter() - t0,
        "terms": len(terms),
        "r": r,
        "violations": check_dimension_bounds(rows),
        "conditions": conditions,
        "growth": growth,
        "b": b,
        "power_ok": power_ok,
    }


def _produce_c8(out: Path) -> dict:
    t0 = time.perf_counter()
    p2 = GSParams(2, Fraction(9, 20))
    p3 = GSParams(3, Fraction(1, 2))
    bp2 = build_blueprint(p2, num_blocks=2)
    bp3 = build_blueprint(p3, num_blocks=2)
    save_blueprint(bp2, str(out / "c8_d2.json"))
    save_blueprint(bp3, str(out / "c8_d3.json"))
    rep2 = check_blueprint(bp2)
    rep3 = check_blueprint(bp3)
    brute2 = brute_minimal_n(2, 0, p2.eps, p2.u)
    brute3 = brute_minimal_n(3, 0, p3.eps, p3.u)
    # block 2 of the d=3 build is still small enough for a full sweep of the
    # candidate range; the d=2 one sits near 1.9e21, so only the boundary
    # itself is decidable (certified on both sides)
    b2, c2 = bp2.blocks[1], bp3.blocks[1]
    sweep3 = scan_all_false(c2.q, bp3.blocks[0].c_prime + 1, c2.n - 1, p3.eps, p3.u)
    boundary = {
        "d3_at_n": certified_predicate(c2.q, c2.n, p3.eps, p3.u),
        "d3_before": certified_predicate(c2.q, c2.n - 1, p3.eps, p3.u),
        "d2_at_n": certified_predicate(b2.q, b2.n, p2.eps, p2.u),
        "d2_before": certified_predicate(b2.q, b2.n - 1, p2.eps, p2.u),
    }
    _write_json(
        out / "c8_checks.json",
        {
            "d2": {"ok": rep2.ok, "block1_n": bp2.blocks[0].n, "brute_n": brute2},
            "d3": {"ok": rep3.ok, "block1_n": bp3.blocks[0].n, "brute_n": brute3},
            "d3_sweep_ambiguous": sweep3,
            "boundary": boundary,
        },
    )
    return {
        "elapsed": time.perf_counter() - t0,
        "bp2": bp2,
        "bp3": bp3,
        "rep2": rep2,
        "rep3": rep3,
        "brute2": brute2,
        "brute3": brute3,
        "sweep3": sweep3,
        "boundary": boundary,
    }


def produce_all(outdir: Path) -> dict:
    return {
        "outdir": outdir,
        "c1": _produce_c1(outdir),
        "c2": _produce_c2(outdir),
        "c3": _produce_c3(outdir),
        "c4": _produce_c4(outdir),
        "c5": _produce_c5(outdir),
        "c6": _produce_c6(outdir),
        "c7": _produce_c7(outdir),
        "c8": _produce_c8(outdir),
    }


@pytest.fixture(scope="module")
def run_a(tmp_path_factory):
    return produce_all(tmp_path_factory.mktemp("acceptance_a"))


# -- criteria -------------------------------------------------------------------

def test_criterion_1_zero_ideal_baseline(run_a):
    rec = run_a["c1"]
    assert rec["b"] == [2**n for n in range(13)]
    assert rec["slacks"] == [None, None] + [0] * 11
    assert rec["violations"] == []
    assert rec["elapsed"] < 1.0
    print("criterion 1: PASS")


def test_criterion_2_single_relation_oracles(run_a):
    rec = run_a["c2"]
    mixed, square = rec["mixed"], rec["square"]
    assert mixed["b"] == [n + 1 for n in range(13)]
    assert mixed["b"] == [count_avoiding_factor(2, (1, 2), n) for n in range(13)]
    assert square["b"][:5] == [1, 2, 3, 5, 8]
    assert square["b"] == [count_avoiding_factor(2, (1, 1), n) for n in range(13)]
    assert square["b"] == [fibonacci(n + 2) for n in range(13)]
    assert mixed["b"] == mixed["naive_b"]
    assert square["b"] == square["naive_b"]
    assert rec["elapsed"] < 10.0
    print("criterion 2: PASS")


def test_criterion_3_bound_universality(run_a):
    rec = run_a["c3"]
    sets = rec["sets"]
    assert len(sets) == 50
    for s in sets:
        assert s["violations"] == [], s
        assert all(2 <= deg <= 8 for deg in s["degrees"])
    combos = {(s["d"], s["field"]) for s in sets}
    assert combos == {(2, "gf2"), (2, "gf5"), (3, "gf2"), (3, "gf5")}
    assert rec["elapsed"] < 120.0
    print("criterion 3: PASS")


def test_criterion_4_orbit_combinatorics(run_a):
    rec = run_a["c4"]
    assert rec["count_2_7"] == 8
    assert len(rec["tuples"]) == 8
    assert rec["orbit_1112222"] == 35
    for key, total in rec["orbit_sums"].items():
        q, n = map(int, key.split(","))
        assert total == q**n, key
    assert rec["elapsed"] < 30.0
    print("criterion 4: PASS")


def test_criterion_5_nil_toy_exhaustive(run_a):
    rec = run_a["c5"]
    assert len(rec["pairs"]) == 24
    assert all(p["exponent"] == 3 and p["verified"] for p in rec["pairs"])
    assert len(rec["random"]) == 100
    assert all(r["exponent"] == 2 and r["verified"] for r in rec["random"])
    assert rec["elapsed"] < 30.0
    print("criterion 5: PASS")


def test_criterion_6_reduction_equality(run_a):
    rec = run_a["c6"]
    assert len(rec["cases"]) == 20
    for case in rec["cases"]:
        assert case["exact_equality"] is True, case
        # replay the equality with independent arithmetic
        d, eps = case["d"], Fraction(case["eps"])
        v, c, u = eps, eps * eps, d - 2 * eps
        assert (v * d - c) / (v + u) == eps
        assert (Fraction(case["v"]), Fraction(case["c"]), Fraction(case["u"])) == (v, c, u)
    print("criterion 6: PASS")


def test_criterion_7_growth_end_to_end(run_a):
    rec = run_a["c7"]
    assert rec["r"] == {13: 1}
    assert rec["violations"] == []
    assert rec["conditions"].ok
    growth = rec["growth"]
    assert growth.ok and growth.first_failure is None
    kinds = Counter(line.kind for line in growth.lines)
    assert kinds == {
        "weighted_tail": 16,
        "generator_tail": 15,
        "stepwise_ratio": 15,
        "power_bound": 17,
    }
    b = rec["b"]
    assert b[:13] == [2**n for n in range(13)] and b[13] == 2**13 - 1
    assert rec["power_ok"]
    assert all(Fraction(bn) >= Fraction(8, 5) ** n for n, bn in enumerate(b))
    assert rec["elapsed"] < 300.0
    print("criterion 7: PASS")


def test_criterion_8_construction_soundness(run_a):
    rec = run_a["c8"]
    rep2, rep3 = rec["rep2"], rec["rep3"]
    assert rep2.ok and rep3.ok
    assert all(blk.ok for blk in rep2.blocks + rep3.blocks)
    bp2, bp3 = rec["bp2"], rec["bp3"]
    assert rec["brute2"] == bp2.blocks[0].n == 63
    assert rec["brute3"] == bp3.blocks[0].n == 11
    # first-block margins as exact rationals
    m2 = Fraction(81, 400) * Fraction(11, 10) ** 61 - 64
    assert bp2.blocks[0].margin == m2 and m2 > 0
    assert bp3.blocks[0].margin == Fraction(50) and bp3.blocks[0].j_count == 78
    # generator counts sit under the per-degree budget of condition (a)
    for bp, params in ((bp2, GSParams(2, Fraction(9, 20))), (bp3, GSParams(3, Fraction(1, 2)))):
        blk = bp.blocks[0]
        cond = check_bound_conditions(
            {blk.n: blk.j_count}, certificate_from_epsilon(params), blk.n
        )
        assert cond.ok_a
    # minimality of the second-block degree, independently of the package
    assert rec["sweep3"] == []
    assert rec["boundary"]["d3_at_n"] and not rec["boundary"]["d3_before"]
    assert rec["boundary"]["d2_at_n"] and not rec["boundary"]["d2_before"]
    assert rec["elapsed"] < 10.0
    print("criterion 8: PASS")


def test_criterion_9_determinism(run_a, tmp_path_factory):
    out_b = tmp_path_factory.mktemp("acceptance_b")
    produce_all(out_b)
    names_a = sorted(p.name for p in run_a["outdir"].iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b
    assert names_a
    for name in names_a:
        a = (run_a["outdir"] / name).read_bytes()
        b = (out_b / name).read_bytes()
        assert a == b, "artifact %s differs between runs" % name
    print("criterion 9: PASS")
