"""Command-line front end.

Subcommands map one-to-one onto the library layers: dims (graded dimension
tables with the degree-wise bound), construct (block blueprints), nilcheck
(nil-exponent certificates), bound (certificate conditions and the growth
ledger), jcount and symfun (weak tuples, orbits and window generators).

Exit codes: 0 all checks passed, 1 a mathematical check failed (negative
slack, violated condition, failed ledger line, unverified membership, a
blueprint file that differs from the rebuild of its parameters), 2 usage
or input errors (a blueprint file that differs from its rebuild only in
its log2 floats or generator list is a stale input, not a failed check),
a run out of memory, and a standard output closed before all was written.
Outputs are deterministic: fixed orderings, no timestamps, exact rationals
printed as num/den.

Only errors and field are imported here; each subcommand imports the
freealg, graded, gscore and symfun names it runs when it runs.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import suppress
from decimal import ROUND_DOWN, Context
from typing import Dict, List, Optional

from .errors import (
    BlueprintMismatch,
    DegreeBelowTwo,
    DimensionBoundViolated,
    GsalgError,
    InvalidParams,
    NonHomogeneousGenerator,
    ParseError,
    TooLarge,
    read_json,
    read_text,
    require_int,
    write_text_atomic,
)
from .field import GF2, FieldDescriptor, parse_field


# -- input parsing helpers -------------------------------------------------------

def _read_generators(path: str, d: int, field: FieldDescriptor) -> List[Polynomial]:
    """One polynomial per line; '#' starts a comment line; blanks skipped."""
    from .freealg import parse_poly

    gens: List[Polynomial] = []
    for lineno, line in enumerate(read_text(path, "generator file").split("\n"), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            poly = parse_poly(text, d, field)
        except ParseError as exc:
            raise InvalidParams("%s line %d: %s" % (path, lineno, exc)) from None
        # re-checked by build_table; duplicated here to name the line at fault
        if poly.is_zero() or not poly.is_homogeneous():
            raise NonHomogeneousGenerator(
                "%s line %d: generator must be homogeneous and nonzero" % (path, lineno)
            )
        if poly.degree() < 2:
            raise DegreeBelowTwo(
                "%s line %d: generator has degree %d < 2" % (path, lineno, poly.degree())
            )
        gens.append(poly)
    return gens


def _parse_r(text: str) -> Dict[int, int]:
    """'deg:count,deg:count' -> exact table; repeats of a degree add up."""
    table: Dict[int, int] = {}
    if not text.strip():
        return table
    for part in text.split(","):
        piece = part.strip()
        if ":" not in piece:
            raise InvalidParams("bad r entry %r (expected deg:count)" % (piece,))
        deg_s, count_s = piece.split(":", 1)
        try:
            deg, count = int(deg_s), int(count_s)
        except ValueError:
            raise InvalidParams("bad r entry %r (expected deg:count)" % (piece,)) from None
        require_int(count, "r[%d]" % deg, 0)
        table[deg] = table.get(deg, 0) + count
    return table


def _parse_ints(text: str, what: str) -> tuple:
    """'1,1,3' -> (1, 1, 3); what names the argument in the error."""
    try:
        return tuple(int(part.strip()) for part in text.split(",") if part.strip())
    except ValueError:
        raise InvalidParams("bad %s %r (expected comma-separated integers)" % (what, text)) from None


def _load_b_json(path: str) -> List[int]:
    """Accepts a bare JSON list or a dims JSON report (rows with b_n)."""
    data = read_json(path, "b sequence from")
    if isinstance(data, list):
        seq = data
    elif isinstance(data, dict) and "rows" in data:
        rows = data["rows"]
        if not isinstance(rows, list) or not all(
                isinstance(r, dict) and type(r.get("n")) is int and "b_n" in r for r in rows):
            raise InvalidParams("%s: dims report rows need an integer n and a b_n" % (path,))
        by_n = {r["n"]: r["b_n"] for r in rows}
        if sorted(by_n) != list(range(len(rows))):
            raise InvalidParams("%s: dims report rows need n = 0, 1, 2, ..., each once" % (path,))
        seq = [by_n[n] for n in range(len(rows))]
    else:
        raise InvalidParams("%s holds neither a list nor a dims report" % (path,))
    if not all(isinstance(x, int) for x in seq):
        raise InvalidParams("b sequence in %s has non-integer entries" % (path,))
    return seq


def _digit_limit() -> int:
    """The interpreter's int-to-text digit limit (0 means none), at most its default."""
    digits = sys.int_info.default_max_str_digits
    return min(sys.get_int_max_str_digits() or digits, digits)


def _text(x, what: str) -> str:
    """str of an exact int or Fraction; TooLarge past the digit limit."""
    digits = _digit_limit()
    if max(abs(x.numerator), x.denominator) >= 10**digits:
        raise TooLarge("%s has over %d digits; refusing to print it" % (what, digits))
    return str(x)


# -- subcommands ------------------------------------------------------------------

def cmd_dims(args) -> int:
    from .graded import (build_table, check_dimension_bounds, dimension_report, dimension_rows,
                         write_dimension_csv)

    field = parse_field(args.field)
    gens = _read_generators(args.gens, args.d, field)
    # every output holds dim_Tn = d**n: a table whose last row would not
    # print is refused before the build (past the first test d**n >= 16**digits)
    d, n, digits = args.d, args.maxdeg, _digit_limit()
    if d >= 2 and n >= 0 and (n * (d.bit_length() - 1) >= 4 * digits or d**n >= 10**digits):
        raise TooLarge("dim_T%d = %d**%d has over %d digits" % (n, d, n, digits))
    table = build_table(gens, n, d=d, field=field)
    rows = dimension_rows(table)
    buf = io.StringIO()
    write_dimension_csv(rows, buf)
    sys.stdout.write(buf.getvalue())
    if args.csv:
        write_text_atomic(args.csv, buf.getvalue())
    if args.json:
        import json
        write_text_atomic(args.json, json.dumps(dimension_report(table, rows), indent=2) + "\n")
    bad = check_dimension_bounds(rows)
    if bad:
        print(
            "negative slack at degree%s %s"
            % ("s" if len(bad) > 1 else "", ", ".join(map(str, bad))),
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_construct(args) -> int:
    from .gscore import GSParams, build_blueprint, check_blueprint, parse_ratio, save_blueprint

    params = None
    if args.eps is not None:
        params = GSParams(args.d, parse_ratio(args.eps))
    field = parse_field(args.field) if args.field is not None else None
    bp = build_blueprint(
        params,
        args.blocks,
        args.mode,
        d=args.d,
        field=field,
        toy_c=args.toy_c,
        toy_n=args.toy_n,
    )
    # every text is made before the file is saved: an exact value that a
    # lowered int-to-text limit cannot print is refused with nothing written
    heads = []
    for block in bp.blocks:
        if block.j_count is not None:
            jtxt = _text(block.j_count, "|J|")
        else:
            jtxt = "~2^%.2f" % block.j_count_log2
        if block.margin is not None:
            mtxt = "margin=%s" % _text(block.margin, "the margin")
        elif block.margin_log2_lo is not None:  # rounded toward zero: never above the certificate
            lo = Context(prec=4, rounding=ROUND_DOWN).create_decimal_from_float(block.margin_log2_lo)
            mtxt = "margin_log2>=%s" % format(lo, "f")
        else:
            mtxt = "margin=skipped(toy)"
        heads.append(
            "block %d: c=%d q=%d n=%d |J|=%s %s"
            % (block.k, block.c, block.q, block.n, jtxt, mtxt)
        )
    if args.out:
        save_blueprint(bp, args.out)
        heads.append("saved: %s" % args.out)
    print("\n".join(heads))
    report = check_blueprint(bp)
    if not report.ok:
        print("blueprint invariants FAILED", file=sys.stderr)
        return 1
    return 0


def cmd_nilcheck(args) -> int:
    from .freealg import parse_poly
    from .gscore import blueprint_table, load_blueprint, nil_certificate

    bp = load_blueprint(args.blueprint)
    field = (bp.field or GF2) if args.field is None else parse_field(args.field)
    if bp.field not in (None, field):
        raise InvalidParams("the blueprint's generators are materialized over %s, not %s"
                            % (bp.field, field))
    g = parse_poly(args.g, bp.d, field)
    table = blueprint_table(bp) if args.verify else None
    cert = nil_certificate(g, bp, table)
    print("n=%d%s" % (cert.exponent, " verified" if cert.verified else ""))
    if args.verify and not cert.verified:
        return 1
    return 0


def cmd_bound(args) -> int:
    from .gscore import (
        BoundCertificate,
        GSParams,
        certificate_from_epsilon,
        check_bound_conditions,
        load_blueprint,
        parse_ratio,
        verify_growth,
    )

    if args.eps is not None:
        cert = certificate_from_epsilon(GSParams(args.d, parse_ratio(args.eps)))
    elif args.v is not None and args.c is not None and args.u is not None:
        cert = BoundCertificate(
            args.d, parse_ratio(args.v), parse_ratio(args.c), parse_ratio(args.u)
        )
    else:
        raise InvalidParams("need --eps or all three of --v/--c/--u")
    if args.r is not None and args.r_from is not None:
        raise InvalidParams("--r and --r-from are mutually exclusive")
    if args.r_from is not None:
        r = load_blueprint(args.r_from).r_table()
    else:
        r = _parse_r(args.r or "")
    b: Optional[List[int]] = None
    if args.b is not None and args.b_json is not None:
        raise InvalidParams("--b and --b-json are mutually exclusive")
    if args.b is not None:
        b = list(_parse_ints(args.b, "b sequence"))
    elif args.b_json is not None:
        b = _load_b_json(args.b_json)
    range_max = args.range
    if range_max is None:
        range_max = max([2] + list(r) + ([len(b) - 1] if b else []))

    report = check_bound_conditions(r, cert, range_max)
    growth = None if b is None else verify_growth(b, r, cert)  # raises before any output
    if report.ok_a:
        print("condition (a): pass (degrees 2..%d)" % range_max)
    else:
        deg = report.first_violation
        count, envelope = _text(r[deg], "r_%d" % deg), "c*u**%d" % (deg - 2)
        with suppress(TooLarge):  # an envelope too long to print is named instead
            envelope = _text(report.envelope, envelope)
        print("condition (a): FAIL at degree %d (r_%d = %s > %s)" % (deg, deg, count, envelope))
    b_value = _text(report.b_value, "(v*d-c)/(v+u)")
    print("condition (b): %s ((v*d-c)/(v+u) = %s, v = %s)"
          % ("pass" if report.ok_b else "FAIL", b_value, report.v))
    ok = report.ok
    if growth is not None:
        if growth.ok:
            print("ledger: %d lines, all pass" % len(growth.lines))
        else:
            fail = growth.first_failure
            lhs, rhs = _text(fail.lhs, "ledger lhs"), _text(fail.rhs, "ledger rhs")
            print("ledger: FAIL %s at n=%d (%s < %s)" % (fail.kind, fail.n, lhs, rhs))
        ok = ok and growth.ok
    return 0 if ok else 1


def cmd_jcount(args) -> int:
    from .symfun import weak_tuple_count_within, weak_tuples

    q, n = args.q, args.n
    digits = _digit_limit()
    count = weak_tuple_count_within(q, n, 10**digits - 1)
    if count is None:
        raise TooLarge("|J(%d, %d)| has over %d digits; refusing to materialize" % (q, n, digits))
    tuples = weak_tuples(q, n) if args.list else ()  # refused before any output
    print(count)
    for tup in tuples:
        print(",".join(map(str, tup)))
    return 0


def cmd_symfun(args) -> int:
    from .symfun import monomial_window, orbit_size, validate_weak_tuple, window_generator

    j = _parse_ints(args.j, "index tuple")
    window = None
    if args.d is not None or args.c is not None:
        if args.d is None or args.c is None:
            raise InvalidParams("--d and --c go together")
        field = parse_field(args.field)
        window = monomial_window(args.d, args.c)
    elif args.q is None:
        raise InvalidParams("need --q, or --d with --c")
    q = args.q if window is None else window.q
    validate_weak_tuple(j, q)
    print("q = %d" % q)
    print("orbit size = %s" % _text(orbit_size(j), "the orbit size"))
    if window is not None:
        from .freealg import poly_str
        print("h = %s" % poly_str(window_generator(j, window, field)))
    return 0


# -- parser ------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsalg",
        description="Graded dimension tables, growth certificates, and the "
        "block generator construction for quotients of free algebras.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("dims", help="dimension table of a finitely generated graded ideal")
    p.add_argument("--gens", required=True, help="generator file, one polynomial per line")
    p.add_argument("--d", type=int, required=True, help="number of variables")
    p.add_argument("--maxdeg", type=int, required=True, help="largest degree to tabulate")
    p.add_argument("--field", default="gf2", help="gf2 | gf<p> | q (default gf2)")
    p.add_argument("--csv", help="also write the CSV table to this path")
    p.add_argument("--json", help="also write the JSON report to this path")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("construct", help="build a block blueprint")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps", help="accuracy parameter as a/b (required outside toy mode)")
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--mode", choices=("symbolic", "dense"), default="symbolic")
    p.add_argument("--toy-c", type=int, dest="toy_c", help="toy window degree cap")
    p.add_argument("--toy-n", type=int, dest="toy_n", help="toy block degree")
    p.add_argument("--field", help="coefficient field for dense mode (default gf2)")
    p.add_argument("--out", help="write the blueprint JSON here")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("nilcheck", help="nil-exponent certificate for a polynomial")
    p.add_argument("--blueprint", required=True, help="blueprint JSON path")
    p.add_argument("--g", required=True, help="polynomial in the text grammar")
    p.add_argument("--field", help="coefficient field (defaults to the blueprint's)")
    p.add_argument("--verify", action="store_true",
                   help="verify the membership g**n in the ideal (dense blueprints)")
    p.set_defaults(func=cmd_nilcheck)

    p = sub.add_parser("bound", help="certificate conditions and the growth ledger")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps", help="derive (v, c, u) = (eps, eps^2, d-2*eps)")
    p.add_argument("--v", help="certificate v as a/b")
    p.add_argument("--c", help="certificate c as a/b")
    p.add_argument("--u", help="certificate u as a/b")
    p.add_argument("--r", help="generator counts 'deg:count,deg:count'")
    p.add_argument("--r-from", dest="r_from", help="read r from a blueprint JSON")
    p.add_argument("--b", help="dimension sequence 'b0,b1,...'")
    p.add_argument("--b-json", dest="b_json",
                   help="read the b sequence from a JSON list or dims report")
    p.add_argument("--range", type=int, help="largest degree for condition (a)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("jcount", help="number of weakly increasing index tuples")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--list", action="store_true", help="also enumerate the tuples")
    p.set_defaults(func=cmd_jcount)

    p = sub.add_parser("symfun", help="orbit size and window generator of an index tuple")
    p.add_argument("--j", required=True, help="weakly increasing tuple '1,1,3'")
    p.add_argument("--q", type=int, help="index range (abstract mode)")
    p.add_argument("--d", type=int, help="number of variables (window mode)")
    p.add_argument("--c", type=int, help="window degree cap (window mode)")
    p.add_argument("--field", default="gf2")
    p.set_defaults(func=cmd_symfun)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout closed early (`gsalg ... | head`): as the signal module docs
        # advise, point it at devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (DimensionBoundViolated, BlueprintMismatch) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except GsalgError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        # raised before any cap refused the input; exit 1 would claim a failed check
        print("error: out of memory running %s" % args.subcommand, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
