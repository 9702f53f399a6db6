"""Subcommand flows, exit codes, and artifact determinism."""

import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import gsalg
from gsalg import graded
from gsalg.cli import main
from gsalg.field import FieldDescriptor
from gsalg.gscore import (
    GSParams,
    blueprint_to_dict,
    build_blueprint,
    load_blueprint,
    save_blueprint,
)


def _src_env():
    """The environment with this checkout's gsalg first on a child's path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gsalg.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def gens_file(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("# one mixed quadratic\n\nx1*x2\n")
    return str(path)


@pytest.fixture()
def toy13_file(tmp_path):
    bp = build_blueprint(None, mode="dense", d=2, toy_c=1, toy_n=3, field=FieldDescriptor(5))
    path = tmp_path / "toy13.json"
    save_blueprint(bp, str(path))
    return str(path)


# -- dims -----------------------------------------------------------------------


def test_dims_mixed_quadratic(capsys, gens_file):
    code, out, err = run(
        capsys, ["dims", "--gens", gens_file, "--d", "2", "--maxdeg", "8"]
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "n,dim_Tn,dim_In,b_n,eq1_bound,slack"
    assert [line.split(",")[3] for line in lines[1:]] == [
        str(n + 1) for n in range(9)
    ]
    assert lines[1] == "0,1,0,1,,"
    assert lines[3] == "2,4,1,3,3,0"


def test_dims_empty_file(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    code, out, err = run(
        capsys, ["dims", "--gens", str(path), "--d", "2", "--maxdeg", "6"]
    )
    assert code == 0
    assert [line.split(",")[3] for line in out.splitlines()[1:]] == [
        str(2**n) for n in range(7)
    ]


def test_dims_degree_one_generator(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("x1*x2\nx1\n")
    code, out, err = run(
        capsys, ["dims", "--gens", str(path), "--d", "2", "--maxdeg", "4"]
    )
    assert code == 2
    assert "line 2" in err and "degree 1 < 2" in err


def test_dims_parse_error_names_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("x1 + + x2\n")
    code, out, err = run(
        capsys, ["dims", "--gens", str(path), "--d", "2", "--maxdeg", "4"]
    )
    assert code == 2
    assert "line 1" in err


def test_dims_non_homogeneous(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("x1 + x1*x2\n")
    code, out, err = run(
        capsys, ["dims", "--gens", str(path), "--d", "2", "--maxdeg", "4"]
    )
    assert code == 2
    assert "homogeneous" in err


def test_dims_missing_file(capsys, tmp_path):
    code, out, err = run(
        capsys,
        ["dims", "--gens", str(tmp_path / "nope.txt"), "--d", "2", "--maxdeg", "4"],
    )
    assert code == 2
    assert "cannot read" in err


def test_dims_column_cap(capsys, tmp_path, monkeypatch):
    # a generator above maxdeg leaves b_n = 2**n: degree 11 needs 2048 columns
    monkeypatch.setattr(graded, "COLUMN_CAP", 2**10)
    path = tmp_path / "x1_13.txt"
    path.write_text("*".join(["x1"] * 13) + "\n")
    code, out, err = run(capsys, ["dims", "--gens", str(path), "--d", "2", "--maxdeg", "12"])
    assert code == 2
    assert "2048 columns, over the 1024-column cap" in err


def test_dims_artifacts_deterministic(capsys, gens_file, tmp_path):
    csv1, js1 = tmp_path / "a.csv", tmp_path / "a.json"
    csv2, js2 = tmp_path / "b.csv", tmp_path / "b.json"
    base = ["dims", "--gens", gens_file, "--d", "2", "--maxdeg", "6"]
    code, out, _ = run(capsys, base + ["--csv", str(csv1), "--json", str(js1)])
    assert code == 0
    code, _, _ = run(capsys, base + ["--csv", str(csv2), "--json", str(js2)])
    assert code == 0
    assert csv1.read_bytes() == csv2.read_bytes()
    assert js1.read_bytes() == js2.read_bytes()
    assert csv1.read_text() == out
    report = json.loads(js1.read_text())
    assert report["all_nonnegative"] is True
    assert report["rows"][2]["b_n"] == 3


# -- construct -------------------------------------------------------------------


def test_construct_symbolic_d3(capsys):
    code, out, err = run(
        capsys,
        ["construct", "--d", "3", "--eps", "1/2", "--blocks", "1", "--mode", "symbolic"],
    )
    assert code == 0 and err == ""
    assert out.splitlines() == ["block 1: c=1 q=3 n=11 |J|=78 margin=50"]


def test_construct_two_blocks_d3(capsys):
    code, out, err = run(
        capsys, ["construct", "--d", "3", "--eps", "1/2", "--blocks", "2"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "block 1: c=1 q=3 n=11 |J|=78 margin=50"
    assert lines[1] == (
        "block 2: c=12 q=797160 n=2713118 |J|=~2^2713113.95 margin_log2>=0.05164"
    )


@pytest.mark.parametrize(
    "eps, blocks, line",
    [
        # 0.0885603 rounded to nearest would print 0.0886, above the certified bound
        ("9/20", "2", "block 2: c=64 q=36893488147419103230 n=1920719647090318049267 "
                      "|J|=~2^264105719610650132480.00 margin_log2>=0.08856"),
        # a bound of 6.05e-06 printed with four decimals would read as zero
        ("49999/100000", "1", "block 1: c=1 q=2 n=745411 |J|=745412 margin_log2>=0.000006050"),
    ],
    ids=("d2-9/20", "d2-49999/100000"),
)
def test_construct_margin_rounds_toward_zero(capsys, eps, blocks, line):
    code, out, err = run(capsys, ["construct", "--d", "2", "--eps", eps, "--blocks", blocks])
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == line


def test_construct_boundary_eps(capsys):
    code, out, err = run(capsys, ["construct", "--d", "2", "--eps", "1/2"])
    assert code == 2
    assert "d - 2*eps" in err


def test_construct_toy_dense(capsys):
    code, out, err = run(
        capsys,
        ["construct", "--d", "2", "--toy-c", "1", "--toy-n", "3", "--mode", "dense"],
    )
    assert code == 0
    assert out.splitlines() == ["block 1: c=1 q=2 n=3 |J|=4 margin=skipped(toy)"]


def test_construct_out_deterministic(capsys, tmp_path):
    p1, p2 = tmp_path / "bp1.json", tmp_path / "bp2.json"
    base = ["construct", "--d", "3", "--eps", "1/2", "--blocks", "2"]
    code, out, _ = run(capsys, base + ["--out", str(p1)])
    assert code == 0
    assert "saved: %s" % p1 in out
    code, _, _ = run(capsys, base + ["--out", str(p2)])
    assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    bp = load_blueprint(str(p1))
    assert bp.blocks[1].n == 2713118


def test_construct_under_a_lowered_digit_limit_exits_two(capsys, tmp_path):
    # the exact margin of block 1 (1,078 digits over 1,074) is kept below a
    # fixed bound, so that a saved file does not depend on the int-to-text
    # limit.  Under a lowered limit it cannot print: one error line and exit
    # 2, with no file written
    path = tmp_path / "bp.json"
    argv = ["construct", "--d", "3", "--eps", "1/1000000000000000"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for extra in ([], ["--out", str(path)]):
            code, out, err = run(capsys, argv + extra)
            assert code == 2 and out == ""
            assert err == "error: the margin has over 640 digits; refusing to print it\n"
            assert not path.exists()
    finally:
        sys.set_int_max_str_digits(limit)


# -- nilcheck ---------------------------------------------------------------------


def test_nilcheck_verified(capsys, toy13_file):
    code, out, err = run(
        capsys,
        [
            "nilcheck", "--blueprint", toy13_file, "--g", "x1 + x2",
            "--field", "gf5", "--verify",
        ],
    )
    assert code == 0 and err == ""
    assert out.strip() == "n=3 verified"


def test_nilcheck_without_verify(capsys, toy13_file):
    code, out, err = run(
        capsys, ["nilcheck", "--blueprint", toy13_file, "--g", "x1 + x2"]
    )
    assert code == 0
    assert out.strip() == "n=3"


def test_nilcheck_constant_term(capsys, toy13_file):
    code, out, err = run(
        capsys, ["nilcheck", "--blueprint", toy13_file, "--g", "1 + x1"]
    )
    assert code == 2
    assert "constant term" in err


def test_nilcheck_degree_not_covered(capsys, toy13_file):
    code, out, err = run(
        capsys, ["nilcheck", "--blueprint", toy13_file, "--g", "x1*x2*x1"]
    )
    assert code == 2
    assert "exceeds the covered window degree" in err


def test_nilcheck_field_conflict(capsys, toy13_file):
    code, out, err = run(
        capsys,
        ["nilcheck", "--blueprint", toy13_file, "--g", "x1", "--field", "gf2"],
    )
    assert code == 2
    assert "materialized over gf5" in err


def test_nilcheck_verify_needs_dense(capsys, tmp_path):
    path = tmp_path / "sym.json"
    save_blueprint(build_blueprint(GSParams(3, Fraction(1, 2))), str(path))
    code, out, err = run(
        capsys, ["nilcheck", "--blueprint", str(path), "--g", "x1", "--verify"]
    )
    assert code == 2
    assert "dense blueprint" in err
    # without --verify the symbolic certificate still prints
    code, out, err = run(capsys, ["nilcheck", "--blueprint", str(path), "--g", "x1"])
    assert code == 0
    assert out.strip() == "n=11"


def test_nilcheck_rejects_blueprint_failing_invariants(capsys, tmp_path):
    # a dense toy block edited to n = 7 breaks c' = n*c and the degree floor
    path = tmp_path / "toy22.json"
    save_blueprint(build_blueprint(None, mode="dense", d=2, toy_c=2, toy_n=2), str(path))
    data = json.loads(path.read_text())
    data["blocks"][0]["n"] = 7
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["nilcheck", "--blueprint", str(path), "--g", "x1"])
    assert code == 1
    assert out == ""
    assert "blueprint invariants FAILED" in err


# -- tampered blueprints -----------------------------------------------------------


_TAMPER_SOURCES = {
    "d3-eps1/2-1block": lambda: build_blueprint(GSParams(3, Fraction(1, 2))),
    "d3-eps1/2-2blocks": lambda: build_blueprint(GSParams(3, Fraction(1, 2)), 2),
    "toy22-gf2": lambda: build_blueprint(None, mode="dense", d=2, toy_c=2, toy_n=2),
    "toy13-gf5": lambda: build_blueprint(None, mode="dense", d=2, toy_c=1, toy_n=3, field=FieldDescriptor(5)),
}


def _one_value_edits(data):
    """(label, edited copy) pairs, each changing one value of the saved data:
    ints + 1, strings to another string, booleans flipped, and present values
    made null."""
    edits = []

    def edit(path, value):
        new = copy.deepcopy(data)
        target = new
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        edits.append(("/".join(map(str, path)), new))

    def visit(path, value):
        if isinstance(value, bool):
            edit(path, not value)
        elif isinstance(value, int):
            edit(path, value + 1)
        elif isinstance(value, str):
            edit(path, value + "0")
        elif isinstance(value, dict):
            for key, item in value.items():
                visit(path + (key,), item)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                visit(path + (i,), item)
        if value is not None and path:
            edit(path, None)

    visit((), data)
    return edits


@pytest.mark.parametrize("source", sorted(_TAMPER_SOURCES))
def test_tampered_blueprint_never_passes(capsys, tmp_path, source):
    path = tmp_path / "bp.json"
    save_blueprint(_TAMPER_SOURCES[source](), str(path))
    data = json.loads(path.read_text())
    commands = (
        ["nilcheck", "--blueprint", str(path), "--g", "x1"],
        ["bound", "--d", str(data["d"]), "--eps", "2/5", "--r-from", str(path)],
    )
    edits = _one_value_edits(data)
    assert len(edits) > 20
    wrong = []
    for label, edited in edits:
        path.write_text(json.dumps(edited))
        for argv in commands:
            code, out, err = run(capsys, argv)
            rejected = (
                code in (1, 2)
                and out == ""
                and err.startswith("error: ")
                and err.count("\n") == 1
                and ("malformed blueprint data" in err or "blueprint invariants FAILED" in err)
            )
            if not rejected:
                wrong.append((label, argv[0], code, err))
    assert wrong == []


def test_tampered_blueprint_cases_that_passed_unchecked(capsys, tmp_path):
    path = tmp_path / "bp.json"
    save_blueprint(build_blueprint(GSParams(3, Fraction(1, 2))), str(path))
    saved = json.loads(path.read_text())
    # a symbolic file flagged as a toy with n = 2 is refused, not certified at n=2
    data = copy.deepcopy(saved)
    data["toy"], data["blocks"][0]["n"] = True, 2
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["nilcheck", "--blueprint", str(path), "--g", "x1+x2"])
    assert code == 2 and out == ""
    assert err.startswith("error: malformed blueprint data") and err.count("\n") == 1
    # a forged degree count never reaches condition (a)
    data = copy.deepcopy(saved)
    data["blocks"][0]["degree_counts"] = {"2": 0, "11": 1}
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["bound", "--d", "3", "--eps", "1/2", "--r-from", str(path)])
    assert code == 1 and out == ""
    assert err == (
        "error: blueprint invariants FAILED: block 1 key 'degree_counts'"
        " differs from its rebuild\n"
    )


def test_tampered_toy_over_the_enumeration_cap_exits_two(capsys, tmp_path):
    # the window of c = 10**6 has a 301030-digit word count; it must be
    # refused at the cap, before the tuple count C(q + 999, 1000) is formed
    path = tmp_path / "toy.json"
    save_blueprint(build_blueprint(None, mode="dense", d=2, toy_c=2, toy_n=2), str(path))
    data = json.loads(path.read_text())
    data["blocks"][0]["c"], data["blocks"][0]["n"] = 10**6, 1000
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["nilcheck", "--blueprint", str(path), "--g", "x1"])
    assert code == 2 and out == ""
    assert err == "error: window d=2, c=1000000 has more words than the cap 10000000\n"


@pytest.mark.parametrize("d, eps", [("3", "1/2"), ("2", "9/20"), ("4", "1")])
def test_third_block_refused_at_the_size_wall(capsys, d, eps):
    # block 3's window makes q so large that no block degree within the
    # search's reach can pass; it is refused before q is built
    start = time.perf_counter()
    code, out, err = run(capsys, ["construct", "--d", d, "--eps", eps, "--blocks", "3"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: block 3: window cap c=") and err.count("\n") == 1


@pytest.mark.parametrize("d, eps, blocks, err", [
    ("2", "499999/1000000", "2", "error: block 2: window cap c=8681515 makes q >= "
     "2**8681515, beyond any block degree the search reaches\n"),
    ("3", "1/2", "3", "error: block 3: window cap c=32557417 makes q >= "
     "3**32557417, beyond any block degree the search reaches\n"),
])
def test_size_wall_refusal_text(capsys, d, eps, blocks, err):
    # u = 1 + 2/10**6 puts block 1's degree at 8681514, and block 2 is
    # refused at the size wall like block 3 of (3, 1/2)
    assert run(capsys, ["construct", "--d", d, "--eps", eps, "--blocks", blocks]) == (2, "", err)


def test_forged_third_block_refused_at_the_size_wall(capsys, tmp_path):
    path = tmp_path / "bp.json"
    save_blueprint(build_blueprint(GSParams(3, Fraction(1, 2)), 2), str(path))
    data = json.loads(path.read_text())
    data["blocks"].append(dict(data["blocks"][1], k=3))
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run(capsys, ["nilcheck", "--blueprint", str(path), "--g", "x1"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: block 3: window cap c=32557417") and err.count("\n") == 1


def test_stale_log2_float_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "bp.json"
    save_blueprint(build_blueprint(GSParams(2, Fraction(9, 20)), 2), str(path))
    saved = json.loads(path.read_text())
    argv = ["nilcheck", "--blueprint", str(path), "--g", "x1"]
    # the value an older, looser comparison stored for this block
    for key, value in (("margin_log2_lo", 0.08856026704715918), ("j_count_log2", 1.0)):
        data = copy.deepcopy(saved)
        data["blocks"][1][key] = value
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith(
            "error: malformed blueprint data: block 2 key %r holds a stale" % key
        )
    # any other difference is still a failed invariant
    data = copy.deepcopy(saved)
    data["blocks"][1]["margin_log2_lo"] = 0.08856026704715918
    data["blocks"][1]["n"] += 1
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: blueprint invariants FAILED: block 2 key 'n'")


def test_dense_file_with_generator_text_is_stale(capsys, tmp_path):
    # a dense file saved when blocks stored their generators: the rebuild
    # holds none, so the file is stale input, refused whatever command reads it
    path = tmp_path / "toy.json"
    bp = build_blueprint(None, mode="dense", d=2, toy_c=2, toy_n=2)
    save_blueprint(bp, str(path))
    data = json.loads(path.read_text())
    assert data["blocks"][0]["generators"] is None
    data["blocks"][0]["generators"] = [gsalg.poly_str(g) for g in bp.all_generators()]
    path.write_text(json.dumps(data))
    for argv in (["nilcheck", "--blueprint", str(path), "--g", "x1", "--verify"],
                 ["bound", "--d", "2", "--eps", "2/5", "--r-from", str(path)]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == (
            "error: malformed blueprint data: block 1 key 'generators' holds a stale"
            " value; rebuild the file with construct\n"
        )


@pytest.mark.parametrize("c", [1, 2])
def test_verify_refuses_a_degree_one_generator(capsys, tmp_path, c):
    # a toy of block degree n = 1 has x1 among its generators: the verify
    # refuses them when it first makes them, as when they were made up front
    path = tmp_path / "toy.json"
    save_blueprint(build_blueprint(None, mode="dense", d=2, toy_c=c, toy_n=1), str(path))
    code, out, err = run(capsys, ["nilcheck", "--blueprint", str(path), "--g", "x1", "--verify"])
    assert code == 2 and out == ""
    assert err == "error: generator 0 has degree 1 < 2\n"


# -- bound -----------------------------------------------------------------------


def test_bound_degree13_passes(capsys):
    code, out, err = run(capsys, ["bound", "--d", "2", "--eps", "2/5", "--r", "13:1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "condition (a): pass (degrees 2..13)"
    assert lines[1] == "condition (b): pass ((v*d-c)/(v+u) = 2/5, v = 2/5)"


def test_bound_quadratic_fails(capsys):
    code, out, err = run(capsys, ["bound", "--d", "2", "--eps", "2/5", "--r", "2:1"])
    assert code == 1
    assert out.splitlines()[0] == "condition (a): FAIL at degree 2 (r_2 = 1 > 4/25)"


def test_bound_envelope_past_the_digit_limit_still_fails(capsys):
    # r_100000 = 1 > c*u**99998 ~ 0.31 at u = 500001/500000, an envelope of
    # over 4,300 digits: the FAIL line names it, and the run exits 1
    code, out, err = run(capsys, ["bound", "--d", "2", "--eps", "499999/1000000", "--r", "100000:1"])
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "condition (a): FAIL at degree 100000 (r_100000 = 1 > c*u**99998)",
        "condition (b): pass ((v*d-c)/(v+u) = 499999/1000000, v = 499999/1000000)",
    ]


def test_bound_ledger_full_algebra(capsys):
    code, out, err = run(
        capsys, ["bound", "--d", "3", "--eps", "1/2", "--b", "1,3,9,27,81,243"]
    )
    assert code == 0
    assert "ledger: 19 lines, all pass" in out


def test_bound_explicit_certificate(capsys):
    code, out, err = run(
        capsys,
        [
            "bound", "--d", "2", "--v", "2/5", "--c", "4/25", "--u", "6/5",
            "--r", "13:1",
        ],
    )
    assert code == 0
    assert "condition (b): pass" in out


def test_bound_needs_certificate(capsys):
    code, out, err = run(capsys, ["bound", "--d", "2", "--r", "2:1"])
    assert code == 2
    assert "need --eps or all three" in err


def test_bound_r_from_blueprint(capsys, tmp_path):
    path = tmp_path / "one.json"
    save_blueprint(build_blueprint(GSParams(3, Fraction(1, 2))), str(path))
    code, out, err = run(
        capsys, ["bound", "--d", "3", "--eps", "1/2", "--r-from", str(path)]
    )
    assert code == 0
    assert out.splitlines()[0] == "condition (a): pass (degrees 2..11)"
    code, out, err = run(
        capsys,
        ["bound", "--d", "3", "--eps", "1/2", "--r-from", str(path), "--r", "2:1"],
    )
    assert code == 2
    assert "mutually exclusive" in err


def test_bound_ledger_failure_exits_one(capsys):
    # b meets the degree-wise bound, but r_2 = 2 breaks condition (a) and the
    # ledger with it
    code, out, err = run(capsys, ["bound", "--d", "3", "--eps", "1/2", "--r", "2:2", "--b", "1,3,7,15"])
    assert code == 1 and err == ""
    assert out.splitlines() == [
        "condition (a): FAIL at degree 2 (r_2 = 2 > 1/4)",
        "condition (b): pass ((v*d-c)/(v+u) = 1/2, v = 1/2)",
        "ledger: FAIL generator_tail at n=0 (3/2 < 2)",
    ]


@pytest.mark.parametrize(
    "flags, first",
    [(["--r", "13"], "error: bad r entry '13' (expected deg:count)"),
     (["--r", "2:1,a:1"], "error: bad r entry 'a:1' (expected deg:count)"),
     (["--b", "1,3,x"], "error: bad b sequence '1,3,x' (expected comma-separated integers)"),
     (["--b-json", "{path}"], "error: b sequence in {path} has non-integer entries"),
     (["--r", "2:1,2:-1"], "error: r[2] must be a nonnegative integer, got -1"),
     (["--b", "1,2"], "error: b_1 must equal d = 3, got 2"),
     (["--b", ""], "error: b must start with b_0 = 1")],
    ids=["r-no-colon", "r-not-integer", "b-not-integer", "b-json-not-integer",
         "r-cancelled-negative", "b-wrong-b1", "b-empty"],
)
def test_bound_malformed_r_and_b_exit_two(capsys, tmp_path, flags, first):
    path = tmp_path / "b.json"
    path.write_text("[1, 3, 8.0]")
    argv = ["bound", "--d", "3", "--eps", "1/2"] + [f.format(path=path) for f in flags]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [first.format(path=path)]


def test_bound_inconsistent_b_exits_one(capsys):
    code, out, err = run(capsys, ["bound", "--d", "3", "--eps", "1/2", "--b", "1,3,0"])
    assert code == 1
    assert "below the degree-wise bound" in err


def test_bound_b_json_from_dims_report(capsys, tmp_path):
    gens = tmp_path / "none.txt"
    gens.write_text("")
    report = tmp_path / "dims.json"
    code, _, _ = run(
        capsys,
        [
            "dims", "--gens", str(gens), "--d", "2", "--maxdeg", "5",
            "--json", str(report),
        ],
    )
    assert code == 0
    code, out, err = run(
        capsys, ["bound", "--d", "2", "--eps", "2/5", "--b-json", str(report)]
    )
    assert code == 0
    assert "ledger: 19 lines, all pass" in out
    code, out, err = run(
        capsys,
        [
            "bound", "--d", "2", "--eps", "2/5", "--b-json", str(report),
            "--b", "1,2",
        ],
    )
    assert code == 2
    assert "mutually exclusive" in err


@pytest.mark.parametrize(
    "data",
    [{"rows": [{"n": 0}]}, {"rows": [{"b_n": 1}]}, {"rows": 5},
     {"rows": [{"n": "1", "b_n": 2}, {"n": 0, "b_n": 1}]},
     # rows must be n = 0..N, each once: these would read as b_0, b_1, b_2, ...
     {"rows": [{"n": 0, "b_n": 1}, {"n": 1, "b_n": 2}, {"n": 3, "b_n": 3}]},
     {"rows": [{"n": 0, "b_n": 1}, {"n": 1, "b_n": 2}, {"n": 1, "b_n": 2}]},
     {"rows": [{"n": 5, "b_n": 1}, {"n": 6, "b_n": 2}]},
     {"rows": [{"n": 0, "b_n": 1}, {"n": True, "b_n": 2}]}],
    ids=["no-b_n", "no-n", "rows-not-a-list", "mixed-n", "gapped-n", "repeated-n", "n-from-5",
         "boolean-n"],
)
def test_bound_b_json_malformed_report_exits_two(capsys, tmp_path, data):
    report = tmp_path / "dims.json"
    report.write_text(json.dumps(data))
    code, out, err = run(
        capsys, ["bound", "--d", "2", "--eps", "2/5", "--b-json", str(report)]
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# -- jcount and symfun --------------------------------------------------------------


def test_jcount(capsys):
    code, out, err = run(capsys, ["jcount", "--q", "2", "--n", "7"])
    assert code == 0
    assert out.strip() == "8"


def test_jcount_list(capsys):
    code, out, err = run(capsys, ["jcount", "--q", "2", "--n", "3", "--list"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "4"
    assert lines[1:] == ["1,1,1", "1,1,2", "1,2,2", "2,2,2"]


def test_jcount_refuses_astronomical(capsys):
    code, out, err = run(capsys, ["jcount", "--q", "797160", "--n", "2713118"])
    assert code == 2
    assert "refusing to materialize" in err


def test_jcount_huge_arguments_without_traceback(capsys):
    # the cost gate reads integer sizes, so a 401-digit argument neither
    # overflows a float nor gets refused when the count itself is small
    big = 10**400
    for q, n in [(big, 3), (3, big)]:
        code, out, err = run(capsys, ["jcount", "--q", str(q), "--n", str(n)])
        assert code == 0 and err == ""
        assert out == "%d\n" % math.comb(n + q - 1, n)
    start = time.perf_counter()
    code, out, err = run(capsys, ["jcount", "--q", str(big), "--n", str(10**6)])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "refusing to materialize" in err and err.count("\n") == 1
    # past the interpreter's int-to-text digit limit
    code, out, err = run(capsys, ["jcount", "--q", "20000", "--n", "20000"])
    assert code == 2 and out == ""
    assert err == "error: |J(20000, 20000)| has over 4300 digits; refusing to materialize\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["symfun", "--j", "1,1", "--d", "2", "--c", str(10**11)],
        ["construct", "--d", "2", "--mode", "dense", "--toy-c", str(10**22),
         "--toy-n", "2", "--field", "gf5", "--blocks", "1"],
    ],
    ids=["symfun", "toy-construct"],
)
def test_huge_window_refused_before_it_is_sized(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: window d=2, c=") and err.count("\n") == 1


# small, negative and huge integers; the huge ones start at 10**7, where even
# J(2, n) has more tuples than the enumeration cap, so no call materializes
# millions of generators
_INT = st.one_of(
    st.integers(-3, 3), st.integers(-10**400, -1), st.integers(10**7, 10**400)
)
# --list prints every tuple, so its draws stay printable: small values, or
# huge ones past 10**7 whose J(q, n) holds more entries than the cap
_LIST_INT = st.one_of(st.integers(-3, 3), st.integers(-10**400, -1), st.integers(10**7 + 1, 10**400))
_INT_ARGV = st.one_of(
    st.tuples(_INT, _INT).map(lambda qn: ["jcount", "--q=%d" % qn[0], "--n=%d" % qn[1]]),
    st.tuples(_LIST_INT, _LIST_INT).map(
        lambda qn: ["jcount", "--q=%d" % qn[0], "--n=%d" % qn[1], "--list"]
    ),
    _INT.map(lambda q: ["symfun", "--j", "1,1,2", "--q=%d" % q]),
    _INT.map(lambda c: ["symfun", "--j", "1,1,2", "--d", "2", "--c=%d" % c]),
    # toy windows of at most 14 words, or ones refused before they are sized
    st.tuples(st.one_of(st.integers(-3, 3), st.integers(10**6, 10**400)), _INT).map(
        lambda cn: ["construct", "--d", "2", "--mode", "dense",
                    "--toy-c=%d" % cn[0], "--toy-n=%d" % cn[1]]
    ),
)


def _assert_exit_contract(argv):
    """main(argv) in process: exit 0, 1 or 2, at most one stderr line, no traceback, in time."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 2.0
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") <= 1


# every quadratic monomial in two letters: b_n = 0 from degree 2 on
_QUADRATIC_MONOMIALS = os.path.join(os.path.dirname(__file__), "data", "quadratic_monomials_d2.txt")


@given(_INT_ARGV)
@example(["construct", "--d", "2", "--mode", "dense", "--toy-c=17", "--toy-n=100000000"])
@example(["jcount", "--q=900000", "--n=900000"])
# one tuple of 2**62 entries: the count alone passes any count cap
@example(["jcount", "--q=1", "--n=4611686018427387904", "--list"])
# one empty tuple, over a pool of 2**63 entries
@example(["jcount", "--q=9223372036854775808", "--n=0", "--list"])
# exact values past the interpreter's 4,300-digit int-to-text limit: a margin
# (kept as its log2 bound), the condition (a) envelope c*u**198, dim_T15000 =
# 2**15000, the orbit size 2000! and a 5,000-digit ratio read in
@example(["construct", "--d", "3", "--eps", "1/1" + "0" * 31])
@example(["bound", "--d", "3", "--eps", "1/1" + "0" * 32, "--r", "200:" + "9" * 130, "--range", "200"])
@example(["dims", "--gens", _QUADRATIC_MONOMIALS, "--d", "2", "--maxdeg", "15000"])
@example(["symfun", "--j", ",".join(map(str, range(1, 2001))), "--q", "2000"])
@example(["bound", "--d", "3", "--eps", "1/" + "1" * 5000])
# r_2 summed from two repeats to 4,301 digits
@example(["bound", "--d", "3", "--eps", "1/2", "--r", ",".join(["2:" + "9" * 4300] * 2)])
# u = 500001/500000: block degree n = 8,681,514, and condition (a) to degree
# 30,000 with no generators
@example(["construct", "--d", "2", "--eps", "499999/1000000", "--blocks", "1"])
@example(["bound", "--d", "2", "--eps", "499999/1000000", "--range", "30000"])
def test_integer_arguments_keep_the_exit_contract(argv):
    _assert_exit_contract(argv)


def test_tuple_list_over_the_entry_cap_prints_nothing(capsys):
    code, out, err = run(capsys, ["jcount", "--q", "1", "--n", str(2**62), "--list"])
    assert code == 2 and out == ""
    assert err.startswith("error: J(1, %d) has more tuple entries than the cap" % 2**62)


# -- malformed input files ---------------------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
# "[" * k, and k nested lists closed again: past the decoder's recursion
# limit both fail in it, below it the nesting reaches the caller
_DEEP = st.integers(1, 300_000).flatmap(
    lambda k: st.sampled_from(["[" * k, "[" * k + "]" * k])
)
_BLUEPRINTS = [
    blueprint_to_dict(build_blueprint(None, mode="dense", d=2, toy_c=1, toy_n=3,
                                      field=FieldDescriptor(5))),
    blueprint_to_dict(build_blueprint(GSParams(3, Fraction(1, 2)), 1, "symbolic", d=3)),
]


@st.composite
def _blueprint_data(draw):
    """A saved blueprint with one key, top-level or in its first block, redrawn or dropped."""
    data = copy.deepcopy(draw(st.sampled_from(_BLUEPRINTS)))
    rec = draw(st.sampled_from([data, data["blocks"][0]]))
    key = draw(st.sampled_from(sorted(rec)))
    if draw(st.booleans()):
        rec[key] = draw(_JSON)
    else:
        del rec[key]
    return data


def _json_bytes(values):
    return values.map(lambda v: json.dumps(v).encode())


_INPUT_FILES = st.one_of(
    # generator files: any bytes (invalid UTF-8 among them), or near-grammar text
    st.tuples(st.just("gens"), st.binary(max_size=48)),
    st.tuples(st.just("gens"), st.text("x12*+- #\n", max_size=24).map(str.encode)),
    st.tuples(
        st.sampled_from(["b-json", "blueprint"]),
        st.one_of(
            st.binary(max_size=48),
            _DEEP.map(str.encode),
            _json_bytes(_JSON),
            # dims reports with drawn rows
            _json_bytes(st.fixed_dictionaries({"rows": st.lists(
                st.fixed_dictionaries({"n": _JSON, "b_n": _JSON}), max_size=3)})),
            _json_bytes(_blueprint_data()),
        ),
    ),
)
_INPUT_ARGV = {
    "gens": ["dims", "--d", "2", "--maxdeg", "3", "--gens"],
    "b-json": ["bound", "--d", "3", "--eps", "1/2", "--b-json"],
    "blueprint": ["nilcheck", "--g", "x1", "--blueprint"],
}


@given(_INPUT_FILES)
@example(("gens", b"x1*x2\n\xff\n"))
@example(("b-json", b"[" * 200_000))
@example(("blueprint", b"[" * 200_000))
def test_malformed_input_files_keep_the_exit_contract(case):
    kind, content = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(content)
        _assert_exit_contract(_INPUT_ARGV[kind] + [path])


def test_symfun_window_mode(capsys):
    code, out, err = run(
        capsys, ["symfun", "--j", "1,2", "--d", "2", "--c", "1", "--field", "gf5"]
    )
    assert code == 0
    assert out.splitlines() == ["q = 2", "orbit size = 2", "h = x1*x2 + x2*x1"]


def test_symfun_abstract_mode(capsys):
    code, out, err = run(capsys, ["symfun", "--j", "1,1,1,2,2,2,2", "--q", "2"])
    assert code == 0
    assert out.splitlines() == ["q = 2", "orbit size = 35"]


def test_symfun_bad_tuple(capsys):
    code, out, err = run(capsys, ["symfun", "--j", "1,3", "--q", "2"])
    assert code == 2


def test_symfun_flag_pairing(capsys):
    code, out, err = run(capsys, ["symfun", "--j", "1", "--d", "2"])
    assert code == 2
    assert "--d and --c go together" in err
    code, out, err = run(capsys, ["symfun", "--j", "1"])
    assert code == 2
    assert "need --q, or --d with --c" in err


# -- parser-level behavior -------------------------------------------------------------


def test_usage_errors_exit_two():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["dims"]) == 2  # missing required flags


_BLOCK = {"k": 1, "c": 1, "c_prime": 3, "q": 2, "n": 3, "min_degree": 3, "max_degree": 3}
_BAD_BLUEPRINT_TEXT = {
    "nilcheck-not-json": "not json {\n",
    "nilcheck-no-mode": json.dumps({"d": 2, "blocks": [_BLOCK]}),
    "nilcheck-no-blocks": json.dumps({"d": 2, "mode": "symbolic", "blocks": []}),
    "nilcheck-eps-zero-denominator": json.dumps(
        {"d": 2, "eps": "1/0", "mode": "symbolic", "blocks": [_BLOCK]}
    ),
    "nilcheck-n-string": json.dumps({"d": 2, "mode": "symbolic", "blocks": [dict(_BLOCK, n="5")]}),
    "nilcheck-c-negative": json.dumps({"d": 2, "mode": "symbolic", "blocks": [dict(_BLOCK, c=-1)]}),
    "nilcheck-mode-unknown": json.dumps({"d": 2, "mode": "foo", "blocks": [_BLOCK]}),
    "nilcheck-d-bool": json.dumps({"d": True, "mode": "symbolic", "blocks": [_BLOCK]}),
    "nilcheck-generators-string": json.dumps(
        {"d": 2, "mode": "dense", "field": "gf5", "blocks": [dict(_BLOCK, generators="x1*x1*x1")]}
    ),
    "nilcheck-degree-counts-bad": json.dumps(
        {"d": 2, "mode": "symbolic", "blocks": [dict(_BLOCK, degree_counts={"3": "4"})]}
    ),
}


def _io_error_argv(case, tmp_path, gens_file):
    missing = str(tmp_path / "missing.json")
    unwritable = str(tmp_path / "no_such_dir" / "out")
    if case == "nilcheck-missing":
        return ["nilcheck", "--blueprint", missing, "--g", "x1"]
    if case in _BAD_BLUEPRINT_TEXT:
        path = tmp_path / "bad_blueprint.json"
        path.write_text(_BAD_BLUEPRINT_TEXT[case])
        return ["nilcheck", "--blueprint", str(path), "--g", "x1"]
    if case == "nilcheck-deep-nesting":
        path = tmp_path / "deep_blueprint.json"
        path.write_text("[" * 200_000)
        return ["nilcheck", "--blueprint", str(path), "--g", "x1"]
    if case == "bound-r-from-missing":
        return ["bound", "--d", "3", "--eps", "1/2", "--r-from", missing]
    if case == "construct-out-unwritable":
        return ["construct", "--d", "3", "--eps", "1/2", "--out", unwritable]
    dims = ["dims", "--gens", gens_file, "--d", "2", "--maxdeg", "3"]
    if case == "dims-csv-unwritable":
        return dims + ["--csv", unwritable]
    return dims + ["--json", unwritable]


@pytest.mark.parametrize(
    "case",
    [
        "nilcheck-missing",
        *_BAD_BLUEPRINT_TEXT,
        "nilcheck-deep-nesting",
        "bound-r-from-missing",
        "construct-out-unwritable",
        "dims-csv-unwritable",
        "dims-json-unwritable",
    ],
)
def test_io_errors_exit_two_without_traceback(case, tmp_path, gens_file):
    argv = _io_error_argv(case, tmp_path, gens_file)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, gsalg.cli; sys.exit(gsalg.cli.main(sys.argv[1:]))",
            *argv,
        ],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    if case in _BAD_BLUEPRINT_TEXT and case != "nilcheck-not-json":
        assert "malformed blueprint data" in proc.stderr


@pytest.mark.parametrize("flag", ["--csv", "--json", "--out"])
def test_failed_write_keeps_the_earlier_file(flag, tmp_path, gens_file, monkeypatch, capsys):
    # the write fails after its data went out: the earlier file stays as it
    # was and no temporary file is left beside it
    target = tmp_path / "result"
    target.write_bytes(b"earlier contents\n")
    if flag == "--out":
        argv = ["construct", "--d", "3", "--eps", "1/2", "--out", str(target)]
    else:
        argv = ["dims", "--gens", gens_file, "--d", "2", "--maxdeg", "3", flag, str(target)]
    before = sorted(p.name for p in tmp_path.iterdir())

    def fail(fd):
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as m:
        m.setattr(os, "fsync", fail)
        code, _, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("error: cannot write")
    assert target.read_bytes() == b"earlier contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    # the same write without the fault replaces the file
    assert run(capsys, argv)[0] == 0
    assert target.read_bytes() != b"earlier contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_closed_stdout_exits_two_and_keeps_the_saved_file(tmp_path):
    # the child's stdout is a pipe whose reader is already gone, so its
    # first write fails, after the file is saved
    cmd = [sys.executable, "-c", "import sys, gsalg.cli; sys.exit(gsalg.cli.main(sys.argv[1:]))",
           "construct", "--d", "2", "--mode", "dense", "--toy-c", "2", "--toy-n", "5",
           "--field", "gf2", "--out"]
    piped, plain = tmp_path / "piped.json", tmp_path / "plain.json"
    reader, writer = os.pipe()
    os.close(reader)
    try:
        proc = subprocess.run(cmd + [str(piped)], stdout=writer, stderr=subprocess.PIPE, env=_src_env())
    finally:
        os.close(writer)
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr
    full = subprocess.run(cmd + [str(plain)], capture_output=True, env=_src_env())
    assert full.returncode == 0
    assert full.stdout.startswith(b"block 1: c=2 q=6 n=5")
    assert piped.read_bytes() == plain.read_bytes()


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-c", "import gsalg.cli, sys; sys.exit(gsalg.cli.main(['jcount', '--q', '2', '--n', '7']))"],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "8"


def test_table_commands_never_import_mpmath(gens_file):
    # the package has no runtime dependency on mpmath: neither the import
    # nor a dims run loads it
    script = (
        "import sys, gsalg.cli\n"
        "print('mpmath' in sys.modules)\n"
        "code = gsalg.cli.main(['dims', '--gens', %r, '--d', '2', '--maxdeg', '6'])\n"
        "print(code, 'mpmath' in sys.modules)\n" % gens_file
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[0] == "False"
    assert lines[-1] == "0 False"


def test_no_subcommand_imports_mpmath(tmp_path):
    # the certified comparison runs on the standard library's decimal: a
    # construct and a nilcheck of its symbolic blueprint, whose check
    # re-certifies block 2 through certified_log2_gap, never load mpmath
    out = tmp_path / "bp.json"
    script = (
        "import sys\n"
        "from gsalg.cli import main\n"
        "codes = [main(['construct', '--d', '3', '--eps', '1/2', '--blocks', '2', '--out', %r]),\n"
        "         main(['nilcheck', '--blueprint', %r, '--g', 'x1*x2'])]\n"
        "print(codes, 'mpmath' in sys.modules)\n" % (str(out), str(out))
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "[0, 0] False"


def test_dims_loads_only_the_table_modules(gens_file):
    # a bare import loads no submodule; a dims run loads the table modules
    # alone, never the construction layers, dataclasses or csv; every public
    # name still resolves
    script = (
        "import sys, gsalg\n"
        "print(sorted(m for m in sys.modules if m.startswith('gsalg.')))\n"
        "import gsalg.cli\n"
        "code = gsalg.cli.main(['dims', '--gens', %r, '--d', '2', '--maxdeg', '6'])\n"
        "print(sorted(m for m in sys.modules if m == 'gsalg' or m.startswith('gsalg.')))\n"
        "late = ('gsalg.gscore', 'gsalg.symfun', 'dataclasses', 'csv', 'json')\n"
        "print(code, [m for m in late if m in sys.modules])\n"
        "print(gsalg.build_blueprint.__module__)\n"
        "star = {}\n"
        "exec('from gsalg import *', star)\n"
        "print(sorted(set(gsalg.__all__) - set(star)), sorted(set(gsalg.__all__) - set(dir(gsalg))))\n"
        % gens_file
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    loaded = ["gsalg", "gsalg.cli", "gsalg.errors", "gsalg.field", "gsalg.freealg", "gsalg.graded"]
    assert lines[-4] == str(loaded)
    assert lines[-3:] == ["0 []", "gsalg.gscore", "[] []"]


@pytest.mark.parametrize("argv, loaded, json_loaded", [
    (["construct", "--d", "3", "--eps", "1/2", "--blocks", "2"], ["gscore", "symfun"], False),
    (["nilcheck", "--blueprint", "{bp}", "--g", "x1*x2"], ["freealg", "gscore", "symfun"], True),
    (["bound", "--d", "3", "--eps", "1/2", "--range", "20"], ["gscore", "symfun"], False),
    (["jcount", "--q", "3", "--n", "4"], ["symfun"], False),
], ids=["construct", "nilcheck", "bound", "jcount"])
def test_each_subcommand_loads_only_the_layers_it_runs(tmp_path, argv, loaded, json_loaded):
    # a symbolic construct, a bound without a b sequence and a nilcheck
    # without --verify build no table, so they never load graded; construct,
    # bound and jcount make no polynomial, so they never load freealg; only
    # the runs that read or write JSON load json
    path = tmp_path / "bp.json"
    save_blueprint(build_blueprint(GSParams(3, Fraction(1, 2)), 2), str(path))
    script = (
        "import sys\n"
        "from gsalg.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('gsalg.')), 'json' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *(arg.format(bp=path) for arg in argv)],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 0 and proc.stderr == ""
    modules = ["gsalg.%s" % m for m in ["cli", "errors", "field", *loaded]]
    assert proc.stdout.splitlines()[-1] == "0 %s %s" % (sorted(modules), json_loaded)


def test_construct_loads_no_dataclass_machinery():
    # the construction's records are named tuples, so a construct run never
    # pays for importing dataclasses (and inspect behind it)
    script = (
        "import sys\n"
        "from gsalg.cli import main\n"
        "code = main(['construct', '--d', '3', '--eps', '1/2', '--blocks', '1'])\n"
        "print(code, [m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_out_of_memory_exits_two_without_traceback(capsys, gens_file, monkeypatch):
    # exit 1 would claim a failed check; running out of memory is not one
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(graded, "build_table", exhausted)
    code, out, err = run(capsys, ["dims", "--gens", gens_file, "--d", "2", "--maxdeg", "6"])
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: out of memory running dims"]
    assert "Traceback" not in err


def test_dims_finishes_no_level_past_the_last_walk(capsys, tmp_path, monkeypatch):
    # b_n at the top degree needs only the rank of its rows: dims to degree 6
    # finishes degrees 1-5 alone, and the sixth is finished by the first
    # normal form that reaches it, once
    calls, tables = [], []
    finish = graded._finish
    monkeypatch.setattr(graded, "_finish", lambda *args: calls.append(1) or finish(*args))
    build = graded.build_table
    monkeypatch.setattr(graded, "build_table", lambda *args, **kw: tables.append(build(*args, **kw)) or tables[-1])
    path = tmp_path / "quadric.txt"
    path.write_text("x1*x2 + x2*x3 + x3*x1\n")
    code, out, err = run(capsys, ["dims", "--gens", str(path), "--d", "3", "--maxdeg", "6", "--field", "gf2"])
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "6,729,352,377,377,0"
    assert len(calls) == 5
    (table,) = tables
    assert not table.normal_form(gsalg.parse_poly("x1*x2*x3*x1*x2", 3, table.field)).is_zero()
    assert len(calls) == 5
    for word in ("x1*x2*x3*x1*x2*x3", "x2*x1*x1*x3*x3*x2"):
        assert not table.normal_form(gsalg.parse_poly(word, 3, table.field)).is_zero()
        assert len(calls) == 6


def test_verify_builds_only_the_degrees_the_power_reaches_and_makes_no_generator(capsys, tmp_path, monkeypatch):
    # the toy table reaches c' = 10, but g**5 for a linear g lies in degree 5:
    # the verify puts in the rows of degrees 1-5 alone and finishes each once
    # (a table built to c' first finishes degrees 1-9).  The rows of the 6
    # degree-5 generators (of 252 of degree 5-10) come from the lattice of
    # their weak tuples, so no window generator is made at all
    path = tmp_path / "toy25.json"
    save_blueprint(build_blueprint(None, mode="dense", d=2, toy_c=2, toy_n=5), str(path))
    calls, tables, made = [], [], []
    finish = graded._finish
    monkeypatch.setattr(graded, "_finish", lambda *args: calls.append(1) or finish(*args))
    make = gsalg.symfun.window_generator
    for module in (gsalg.symfun, gsalg.gscore):
        monkeypatch.setattr(module, "window_generator",
                            lambda j, *args, **kw: made.append(j) or make(j, *args, **kw), raising=False)
    table_of = gsalg.gscore.blueprint_table
    monkeypatch.setattr(gsalg.gscore, "blueprint_table", lambda bp: tables.append(table_of(bp)) or tables[-1])
    code, out, err = run(capsys, ["nilcheck", "--blueprint", str(path), "--g", "x1 + x2", "--verify"])
    assert code == 0 and err == ""
    assert out == "n=5 verified\n"
    (table,) = tables
    assert table.maxdeg == 10
    assert len(calls) == 5 and len(table._b) == 6
    assert list(table._walked) == [5]
    assert table._walked[5][1] == [j for j in gsalg.weak_tuples(6, 5) if max(j) <= 2]
    assert made == []


def test_dims_out_of_address_space_exits_two(tmp_path):
    # two d=3 GF(2) quadrics whose reduced rows fill in need about 220 MB
    # to degree 13.  Under a 160 MB address-space limit, set on this child
    # alone, dims ends in the one-line out-of-memory error, not a traceback
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (160 << 20, 160 << 20))

    path = tmp_path / "pair_a.txt"
    path.write_text(
        "x1*x1 + x1*x2 + x2*x1 + x2*x3 + x3*x1 + x3*x3\n"
        "x1*x1 + x2*x3 + x3*x2 + x3*x3\n"
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, gsalg.cli; sys.exit(gsalg.cli.main(sys.argv[1:]))",
            "dims", "--gens", str(path), "--d", "3", "--maxdeg", "13", "--field", "gf2",
        ],
        capture_output=True,
        text=True,
        env=_src_env(),
        preexec_fn=limit,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: out of memory running dims\n"
    assert proc.stdout == ""


def test_dense_construct_runs_in_bounded_memory(tmp_path):
    # the c=4, n=5 toy has 278,256 generators, which construct counts by
    # degree without making one: a 47 MB peak of address space, run here
    # under a 100 MB limit set on this child alone.  Making them all took
    # past 4.4 GB
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20))

    path = tmp_path / "toy45.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, gsalg.cli; sys.exit(gsalg.cli.main(sys.argv[1:]))",
            "construct", "--d", "2", "--toy-c", "4", "--toy-n", "5", "--mode", "dense",
            "--out", str(path),
        ],
        capture_output=True,
        text=True,
        env=_src_env(),
        preexec_fn=limit,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines()[0] == "block 1: c=4 q=30 n=5 |J|=278256 margin=skipped(toy)"
    assert json.loads(path.read_text())["blocks"][0]["j_count"] == 278256


@pytest.mark.parametrize("argv, code, out, err", [
    (["--d", "3", "--eps", "1/2", "--blocks", "2"], 2, "",
     "error: J(797160, 2713118) has more tuple entries than the cap 10000000\n"),
    (["--d", "2", "--toy-c", "22", "--toy-n", "1"], 0,
     "block 1: c=22 q=8388606 n=1 |J|=8388606 margin=skipped(toy)\n", ""),
], ids=["refused-block-2", "toy-c22"])
def test_dense_construct_lists_no_window_word(argv, code, out, err):
    # a dense block's q and tuple counts come from (d, c, n) alone, so the
    # tuple cap refuses block 2 of (3, 1/2) before any of its window's
    # 797,160 words is listed, and the toy c=22 runs without listing its
    # 8,388,606 words (1.9 GB when they were), under a 100 MB address-space
    # limit set on this child alone
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20))

    proc = subprocess.run(
        [sys.executable, "-c", "import sys, gsalg.cli; sys.exit(gsalg.cli.main(sys.argv[1:]))",
         "construct", "--mode", "dense", *argv],
        capture_output=True, text=True, env=_src_env(), preexec_fn=limit,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


@pytest.mark.parametrize("argv, code, out, err", [
    (["nilcheck", "--blueprint", "TOY", "--g", "x1", "--verify"], 2, "",
     "error: generator 0 has degree 1 < 2\n"),
    (["symfun", "--j", "1", "--d", "2", "--c", "20"], 0,
     "q = 2097150\norbit size = 1\nh = x1\n", ""),
], ids=["verify-toy-c22", "symfun-c20"])
def test_window_reads_list_no_window_word(tmp_path, argv, code, out, err):
    # a window keeps only (d, c) and unranks the words it reads, so the verify
    # on the toy c=22, n=1 is refused at its first generator, x1, and h_(1) of
    # the c=20 window prints, with neither window's words listed (8,388,606
    # and 2,097,150 of them, 2.6 GB and 445 MB when they were), under a
    # 100 MB address-space limit set on this child alone
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20))

    path = tmp_path / "toy22.json"
    save_blueprint(build_blueprint(None, mode="dense", d=2, toy_c=22, toy_n=1), str(path))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, gsalg.cli; sys.exit(gsalg.cli.main(sys.argv[1:]))",
         *[str(path) if a == "TOY" else a for a in argv]],
        capture_output=True, text=True, env=_src_env(), preexec_fn=limit,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
