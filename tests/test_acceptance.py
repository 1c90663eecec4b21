"""Acceptance criteria, one test per criterion, each printing a PASS line.

Expected table columns are transcribed from the published exception tables;
every other tolerance is exact as stated.
"""

import sys
import time

import pytest

from prationality.cli import cli
from prationality.families import ggc_scan, lemma_a_scan, pure_cubic_scan
from prationality.harness import (
    CELL_NOT_APPLICABLE,
    CELL_P_DIVIDES_H,
    CELL_P_RATIONAL,
    CELL_TORSION,
    bundled_pure_cubic_h,
    bundled_records,
    reproduce_table,
)
from prationality.numberfield import FieldElement, make_field, split_prime
from prationality.rationality import P_RATIONAL, condition1, verdict
from prationality.recurrence import cross_check, minimal_poly_spec
from prationality.ring import discriminant
from prationality.torsion import condition2

# Table 1 exception columns: label -> (tor primes, p|h primes)
TABLE1_EXPECT = {
    "x^3-x^2+x-9": ({13}, set()),
    "x^3-x^2+5*x+1": ({17}, set()),
    "x^3-x^2-2*x+6": ({5}, set()),
    "x^3-x^2+x+5": ({5}, set()),
    "x^3-x^2+5*x+2": ({11}, set()),
    "x^3-6*x-12": ({5}, set()),
    "x^3-x^2-x+13": ({5}, set()),
    "x^3-x^2-x-6": ({11}, set()),
    "x^3-x^2+5*x+11": ({11}, set()),
    "x^3-x^2+7*x-2": ({5}, set()),
    "x^3-8*x-11": ({5}, set()),
    "x^3-x^2-4*x+9": ({19}, set()),
    "x^3-x^2+7*x-6": (set(), {5}),
    "x^3-x^2+x+15": (set(), {5}),
    "x^3-x^2+x-24": ({5}, set()),
    "x^3-x^2+4*x-9": ({13}, set()),
    "x^3-x^2-6*x-16": ({5}, set()),
    "x^3+10*x-12": (set(), {5}),
    "x^3-x^2+10*x-16": (set(), {5}),
    "x^3-26": ({11}, set()),
    "x^3-x^2-8*x-10": ({5}, set()),
    "x^3-x^2-x-26": ({61}, set()),
    "x^3-x^2+13*x-1": (set(), {5}),
    "x^3-x^2-3*x-17": ({5}, set()),
    "x^3-x^2+7*x-19": ({31}, set()),
    "x^3-x^2-11*x+21": ({11}, set()),
    "x^3-11*x-17": ({5}, set()),
    "x^3-x^2+6*x-10": ({23}, set()),
    "x^3-x^2-10*x-20": (set(), {5}),
    "x^3-x^2-11*x-21": ({7}, set()),
    "x^3-2*x-20": (set(), {5}),
    "x^3+2*x-10": ({7}, set()),
    "x^3+4*x-20": ({13}, set()),
    "x^3-x^2+5*x-32": (set(), {5}),
    "x^3-x^2+9*x-21": (set(), {7}),
}

TABLE2_EXPECT = {
    "x^4-x^3+x^2-x+1": (set(), set()),
    "x^4+1": ({13, 31}, set()),
    "x^4-2*x^2+4": ({7}, set()),
    "x^4+2*x^2+4": ({13, 31}, set()),
    "x^4-2*x^3-2*x+5": ({11}, set()),
    "x^4-x^3-4*x^2+4*x+7": ({23}, set()),
    "x^4-2*x^3+5*x^2-4*x+2": ({13, 31}, set()),
    "x^4-x^3-2*x^2-3*x+9": ({29, 37}, set()),
    "x^4-2*x^3-4*x^2+5*x+7": ({5}, set()),
    "x^4-2*x^3-3*x^2+4*x+5": ({11}, set()),
    "x^4+4*x^2+2": ({13, 31}, set()),
    "x^4+9": ({7}, set()),
}


def report(n, ok, detail=""):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} {detail}".rstrip()
    print(line)
    print(line, file=sys.__stdout__, flush=True)


def test_acceptance_1_example_63(capsys):
    start = time.monotonic()
    rc = cli(
        [
            "check",
            "--poly", "3;0;-2;0;1",
            "--unit", "-2;-1;1;1",
            "--h", "1",
            "--prime", "5",
        ]
    )
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    ok = (
        rc == 0
        and "inert f = 4" in out
        and "eps^624" in out
        and "1 + 5*a + 15*a^3" in out
        and "(mod 25)" in out
        and "verdict: 5-rational" in out
        and elapsed < 1.0
    )
    report(1, ok, f"({elapsed:.2f}s)")
    assert ok, out


def test_acceptance_2_example_62():
    start = time.monotonic()
    K = make_field((27, -4, 0, 1))
    factors = split_prime(K, 3)
    gens = {pf.generator.coeffs for pf in factors}
    assert gens == {(0, 1), (1, 1), (2, 1)}  # x, x+1, x-1
    assert all((pf.e, pf.f) == (1, 1) for pf in factors)

    g = FieldElement((-604, 265, -77))
    assert K.pow_mod(g, 2, 9).coords == (1, 3, 0)  # g^2 = 1 + 3a (mod 9)
    eps = FieldElement((-3280, -3462, -729))
    assert K.pow_mod(eps, 2, 9).coords == (7, 3, 0)  # 1 + 3(a+2) (mod 9)

    records = bundled_records("examples")
    rec = [r for r in records if r.poly_coeffs == (27, -4, 0, 1)][0]
    rep1 = condition1(
        K, 3, class_number=rec.class_number, unit=rec.unit_element(),
        aux=rec.aux,
    )
    assert rep1.index == 3 and rep1.holds is True

    v = verdict(K, 3, unit=rec.unit_element(), class_number=rec.class_number,
                aux=rec.aux)
    elapsed = time.monotonic() - start
    ok = v.status == P_RATIONAL and elapsed < 1.0
    report(2, ok, f"(log-index 3, verdict {v.status}, {elapsed:.2f}s)")
    assert ok


def test_acceptance_3_table1_regression():
    start = time.monotonic()
    records = bundled_records("table1")
    assert len(records) == 35
    rows = reproduce_table(records, 5, 100)
    mismatches = []
    undetermined_rows = 0
    for row in rows:
        tor = {p for p, c in row.cells.items() if c == CELL_TORSION}
        ph = {p for p, c in row.cells.items() if c == CELL_P_DIVIDES_H}
        want_tor, want_h = TABLE1_EXPECT[row.label]
        if tor != want_tor or ph != want_h:
            mismatches.append((row.label, tor, ph))
        if ph:
            undetermined_rows += 1
        other = {
            p: c
            for p, c in row.cells.items()
            if c not in (CELL_P_RATIONAL, CELL_TORSION, CELL_P_DIVIDES_H)
        }
        if other:
            mismatches.append((row.label, "unexpected", other))
    elapsed = time.monotonic() - start
    # the published table carries eight 5? rows and one 7? row
    ok = not mismatches and undetermined_rows == 9 and elapsed < 60
    report(3, ok, f"({len(rows)} rows, {undetermined_rows} '?'-rows, {elapsed:.1f}s)")
    assert ok, mismatches


def test_acceptance_4_table2_regression():
    start = time.monotonic()
    records = bundled_records("table2")
    assert len(records) == 12
    rows = reproduce_table(records, 5, 100)
    mismatches = []
    for row in rows:
        tor = {p for p, c in row.cells.items() if c == CELL_TORSION}
        ph = {p for p, c in row.cells.items() if c == CELL_P_DIVIDES_H}
        want_tor, want_h = TABLE2_EXPECT[row.label]
        if tor != want_tor or ph != want_h:
            mismatches.append((row.label, tor, ph))
    by_label = {row.label: row for row in rows}
    na_ok = by_label["x^4-x^3+x^2-x+1"].cells[5] == CELL_NOT_APPLICABLE
    for label, row in by_label.items():
        for p, c in row.cells.items():
            if c == CELL_NOT_APPLICABLE and (label, p) != ("x^4-x^3+x^2-x+1", 5):
                mismatches.append((label, p, "unexpected notApplicable"))
    elapsed = time.monotonic() - start
    ok = not mismatches and na_ok and elapsed < 60
    report(4, ok, f"({len(rows)} rows, {elapsed:.1f}s)")
    assert ok, mismatches


def test_acceptance_5_pure_cubic_scan():
    start = time.monotonic()
    h_data = bundled_pure_cubic_h()
    results = pure_cubic_scan(5, 499, h_data=h_data)
    all_hold = all(r.condition2_holds for r in results)
    flag_2791 = pure_cubic_scan(2791, 2791, h_data=h_data)[0]
    elapsed = time.monotonic() - start
    ok = (
        all_hold
        and len(results) == 93
        and flag_2791.condition2_holds
        and flag_2791.h_flag == "p|h"
        and elapsed < 300
    )
    report(5, ok, f"({len(results)} primes, 2791 flag '{flag_2791.h_flag}', {elapsed:.1f}s)")
    assert ok


def test_acceptance_6_theorem_15_consistency():
    start = time.monotonic()
    records = [
        r
        for r in bundled_records("table1") + bundled_records("examples")
        if r.degree == 3
    ]
    assert len(records) == 36
    violations = []
    checked = 0
    from prationality.families import primes_up_to

    for record in records:
        K = record.build_field()
        unit = record.unit_element()
        spec = minimal_poly_spec(K, unit)
        d = discriminant(spec.companion_poly)
        for p in primes_up_to(300):
            if p == 2 or d % p == 0:
                continue
            rep = cross_check(K, unit, spec, p)
            checked += 1
            if rep.violation:
                violations.append((record.label, p))
    elapsed = time.monotonic() - start
    ok = not violations and checked > 1500 and elapsed < 300
    report(6, ok, f"({checked} (field, p) pairs, {elapsed:.1f}s)")
    assert ok, violations


def test_acceptance_7_ggc_scan():
    start = time.monotonic()
    cands = ggc_scan(1000, 1.0)
    ok = len(cands) > 0 and any(c.p == 17 for c in cands)
    for c in cands:
        ok = ok and c.p % 4 == 1
        ok = ok and (c.p - 1) % (c.n * c.n) == 0
        ok = ok and (c.p + 1) % (c.m * c.m) == 0
        ok = ok and c.n > c.threshold and c.m > c.threshold
        ok = ok and (c.verdict == "GgcHolds") == (c.hK2 % c.p != 0)
        ok = ok and c.hK2 <= c.lemma_b_bound
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30
    report(7, ok, f"({len(cands)} candidates: {[c.p for c in cands]}, {elapsed:.1f}s)")
    assert ok


def test_acceptance_8_oracle_suites():
    start = time.monotonic()
    from prationality.selftest import run_all

    suites = run_all(fast=False)
    elapsed = time.monotonic() - start
    ok = all(passed for _, passed, _ in suites) and elapsed < 300
    detail = "; ".join(f"{name}: {d}" for name, _, d in suites)
    report(8, ok, f"({detail}, {elapsed:.1f}s)")
    assert ok, suites
