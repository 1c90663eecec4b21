"""Command-line surface.

Subcommands: check (single verdict with residues), table (exception-table
reproduction), scan (density over primes for one record), recurrence (screen
plus cross-check), pure-cubic (family scan), ggc (biquadratic scanner), and
selftest (invariant suites).  Exit codes: 0 success, 1 input error (and a
table with any `error` cell), 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

from .errors import InvariantViolation, SplittingUndetermined
from .families import factorize, ggc_scan, pure_cubic_scan
from .harness import (
    CELL_ERROR,
    FieldRecord,
    bundled_pure_cubic_h,
    bundled_records,
    density_scan,
    load_records,
    parse_h_csv,
    parse_ints,
    render_table_csv,
    render_table_text,
    reproduce_table,
    unit_problem,
    verdict_for_record,
)
from .rationality import (
    NOT_APPLICABLE,
    NOT_P_RATIONAL,
    P_RATIONAL,
    VERDICT_UNDETERMINED,
)
from .recurrence import cross_check, minimal_poly_spec
from .numberfield import split_prime
from .torsion import condition2


def _poly_str(coords) -> str:
    # ASCII rendering, alpha as "a"
    terms = []
    for i, c in enumerate(coords):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{c}*a" if c != 1 else "a")
        else:
            terms.append(f"{c}*a^{i}" if c != 1 else f"a^{i}")
    return " + ".join(terms) if terms else "0"


def _prime_arg(p: int) -> int:
    """--prime as given, or ValueError (exit 1) when it is not a prime."""
    if p < 2 or factorize(p) != {p: 1}:
        raise ValueError(f"--prime must be a prime, got {p}")
    return p


def _cmd_check(args) -> int:
    p = _prime_arg(args.prime)
    record = FieldRecord(
        label="cli",
        poly_coeffs=parse_ints(args.poly),
        class_number=args.h,
        unit_coeffs=parse_ints(args.unit),
        unit_den=args.unit_den,
    )
    K = record.build_field()
    problem = unit_problem(K, record.unit_element())
    if problem is not None:
        raise ValueError(problem)
    factors = split_prime(K, p)
    shape = ", ".join(f"(e={pf.e}, f={pf.f})" for pf in factors)
    if len(factors) == K.n:  # every e = f = 1, as the e f sum to n
        shape = "split completely"
    elif len(factors) == 1 and factors[0].e == K.n:
        shape = "totally ramified"
    elif len(factors) == 1 and factors[0].f == K.n:
        shape = f"inert f = {K.n}"
    print(f"splitting of {p}: {shape}")
    v = verdict_for_record(record, p)
    if v.status != NOT_APPLICABLE:
        rep = condition2(K, p, record.unit_element(), factors)
        for entry in rep.per_prime:
            pf = entry.factor
            mod = p ** (pf.e + 1)
            rel = "=" if entry.congruent else "!="
            print(
                f"  P{pf.label} (e={pf.e}, f={pf.f}): "
                f"eps^{entry.exponent} = {_poly_str(entry.residue)} "
                f"(mod {mod}), {rel} 1 in O/P{pf.label}^{pf.e + 1}"
            )
    if v.status == P_RATIONAL:
        print(f"verdict: {p}-rational")
    elif v.status == NOT_P_RATIONAL:
        print(f"verdict: not {p}-rational ({', '.join(v.reasons)})")
    elif v.status == VERDICT_UNDETERMINED:
        print(f"verdict: undetermined ({', '.join(v.reasons)})")
    else:
        print(f"verdict: not applicable ({v.guard_reason})")
    return 0


def _cmd_table(args) -> int:
    if args.input:
        records = load_records(args.input, args.input_format)
    else:
        records = bundled_records("table1") + bundled_records("table2")
    rows = reproduce_table(records, args.pmin, args.pmax)
    if args.format == "csv":
        sys.stdout.write(render_table_csv(rows))
    else:
        print(render_table_text(rows))
    errors = sum(c == CELL_ERROR for row in rows for c in row.cells.values())
    if errors:
        print(f"{errors} error cells", file=sys.stderr)
        return 1
    return 0


def _cmd_scan(args) -> int:
    records = load_records(args.input, args.input_format)
    if not records:
        print("no records", file=sys.stderr)
        return 1
    for record in records:
        res = density_scan(record, args.xmax)
        print(
            f"{record.label}: {res.count} p-rational primes <= {args.xmax} "
            f"({res.undetermined} undetermined), count/log(x) = "
            f"{res.ratio_to_log_x:.3f}"
        )
    return 0


def _cmd_recurrence(args) -> int:
    p = _prime_arg(args.prime)
    records = (
        load_records(args.input, args.input_format)
        if args.input
        else [r for r in bundled_records("examples") if r.degree == 3]
    )
    for record in records:
        if record.degree != 3:
            continue
        K = record.build_field()
        unit = record.unit_element()
        spec = minimal_poly_spec(K, unit)
        try:
            rep = cross_check(K, unit, spec, p)
        except ValueError as exc:
            print(f"{record.label}: not applicable at {p}: {exc}")
            continue
        sres = rep.screen
        print(
            f"{record.label}: splitting {rep.splitting}, F_{sres.index} = "
            f"{sres.value} (mod {p*p}), screen "
            f"{'nonzero' if sres.nonzero else 'zero'}, witness "
            f"{'present' if rep.witness_exists else 'absent'}, violation "
            f"{rep.violation}"
        )
        if rep.violation:
            raise InvariantViolation("recurrence cross-check violated")
    return 0


def _cmd_pure_cubic(args) -> int:
    h_data = bundled_pure_cubic_h()
    if args.h_data:
        with open(args.h_data, encoding="ascii") as fh:
            h_data.update(parse_h_csv(fh.read()))
    results = pure_cubic_scan(args.pmin, args.pmax, h_data=h_data)
    bad = 0
    for r in results:
        flag = "" if r.h_flag == "h-unknown" else f" [{r.h_flag}]"
        ok = "condition2 holds" if r.condition2_holds else "CONDITION2 FAILS"
        if not r.condition2_holds:
            bad += 1
        print(f"p = {r.p}: {r.splitting}, {ok}{flag}")
    print(f"{len(results)} primes scanned, {bad} without witness")
    return 0


def _cmd_ggc(args) -> int:
    if not args.T < math.inf:  # NaN or +inf, where lemma_a_scan returns []
        raise ValueError(f"(log p)^T is not finite at T = {args.T}")
    for cand in ggc_scan(args.xmax, args.T):
        print(
            f"p = {cand.p}: n = {cand.n}, m = {cand.m}, "
            f"threshold = {cand.threshold:.3f}, K2 radicand = {cand.radicand}, "
            f"h(K2) = {cand.hK2} (bound {cand.lemma_b_bound:.2f}), {cand.verdict}"
        )
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_all

    suites = run_all(fast=args.fast)
    failed = False
    for name, ok, detail in suites:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failed = True
    if failed:
        raise InvariantViolation("selftest failure")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="single (field, prime) verdict")
    c.add_argument("--poly", required=True, help="coefficients low->high, ';'-separated")
    c.add_argument("--unit", required=True, help="unit coordinates in the power basis")
    c.add_argument("--unit-den", type=int, default=1)
    c.add_argument("--h", type=int, required=True, help="class number")
    c.add_argument("--prime", type=int, required=True)
    c.set_defaults(func=_cmd_check)

    t = sub.add_parser("table", help="reproduce the exception table")
    t.add_argument("--input", help="record CSV/JSON; bundled tables by default")
    t.add_argument("--input-format", choices=["csv", "json"], default="csv")
    t.add_argument("--pmin", type=int, default=5)
    t.add_argument("--pmax", type=int, default=100)
    t.add_argument("--format", choices=["text", "csv"], default="text")
    t.set_defaults(func=_cmd_table)

    s = sub.add_parser("scan", help="density of p-rational primes for records")
    s.add_argument("--input", required=True)
    s.add_argument("--input-format", choices=["csv", "json"], default="csv")
    s.add_argument("--xmax", type=int, required=True)
    s.set_defaults(func=_cmd_scan)

    r = sub.add_parser("recurrence", help="recurrence screen and cross-check")
    r.add_argument("--input", help="record CSV/JSON; bundled examples by default")
    r.add_argument("--input-format", choices=["csv", "json"], default="csv")
    r.add_argument("--prime", type=int, required=True)
    r.set_defaults(func=_cmd_recurrence)

    pc = sub.add_parser("pure-cubic", help="scan the pure cubic family")
    pc.add_argument("--pmin", type=int, default=5)
    pc.add_argument("--pmax", type=int, required=True)
    pc.add_argument("--h-data", help="CSV of p,h rows to merge")
    pc.set_defaults(func=_cmd_pure_cubic)

    g = sub.add_parser("ggc", help="biquadratic GGC scan")
    g.add_argument("--xmax", type=int, required=True)
    g.add_argument("--T", type=float, required=True)
    g.set_defaults(func=_cmd_ggc)

    st = sub.add_parser("selftest", help="run the invariant suites")
    st.add_argument("--fast", action="store_true")
    st.set_defaults(func=_cmd_selftest)
    return parser


def _normalize_argv(argv):
    """Join '--flag -2;-1;...' into '--flag=-2;-1;...' so coefficient lists
    with a leading minus survive argparse."""
    out = []
    i = 0
    value_like = re.compile(r"^-\d[\d;,./-]*$")
    while i < len(argv):
        tok = argv[i]
        if (
            tok.startswith("--")
            and "=" not in tok
            and i + 1 < len(argv)
            and value_like.match(argv[i + 1])
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def cli(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_normalize_argv(list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout early, as in `prat table | head`
        return 0
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, SplittingUndetermined) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    code = cli()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # send the interpreter's final flush of the closed pipe to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    main()
