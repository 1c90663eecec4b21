"""The workloads, each the body of the matching `prat` subcommand.

Importing this module imports the engine, so the benchmark's set-up timer
starts before this import.  Every engine call goes through a module
attribute (`harness.load_records`, not a name imported from it), so the
tracer's patches are seen here too.

A pass returns its answers as {(part, item): code} plus the parts that
aborted with an exception; `compare` scores them against the pinned
reference.  An answer coded "E" is an error cell: it counts as failed, and a
reference answer "E" may change.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field

from prationality import families, harness, recurrence, ring

import inputs

ERROR = inputs.ERROR

CELL_CODES = {
    harness.CELL_P_RATIONAL: "R",
    harness.CELL_P_DIVIDES_H: "H",
    harness.CELL_TORSION: "T",
    harness.CELL_UNDETERMINED: "U",
    harness.CELL_NOT_APPLICABLE: "N",
    harness.CELL_ERROR: ERROR,
}

STATUS_CODES = {"PRational": "R", "NotPRational": "X", "Undetermined": "U",
                "NotApplicable": "N"}


@dataclass
class PassResult:
    answers: dict = field(default_factory=dict)
    aborted: set = field(default_factory=set)


@dataclass
class Score:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0


# ---------------------------------------------------------------------------
# table: prat table --input records.csv --format csv, then the Theorem-15
# cross-check of acceptance test 6 on every cubic record


def table_ingest(spec):
    return harness.load_records(spec["input"], "csv")


def table_pass(spec) -> PassResult:
    out = PassResult()
    try:
        records = harness.load_records(spec["input"], "csv")
        rows = harness.reproduce_table(records, 5, spec["pmax"])
        rendered = harness.render_table_csv(rows)
    except Exception:
        out.aborted.add("*")
        return out
    for row in csv.DictReader(io.StringIO(rendered)):
        out.answers[(f"cells:{row['label']}", row["p"])] = CELL_CODES.get(
            row["cell"], row["cell"])
    for record in records:
        if record.degree != 3:
            continue
        part = f"pairs:{record.label}"
        try:
            K = record.build_field()
            unit = record.unit_element()
            spec_r = recurrence.minimal_poly_spec(K, unit)
            d = ring.discriminant(spec_r.companion_poly)
        except Exception:
            out.aborted.add(part)
            continue
        for p in families.primes_up_to(spec["pmax"]):
            if p < 5 or d % p == 0:
                continue
            try:
                rep = recurrence.cross_check(K, unit, spec_r, p)
            except Exception:
                out.answers[(part, str(p))] = ERROR
                continue
            out.answers[(part, str(p))] = (
                "V" if rep.violation else
                f"{rep.splitting}:{int(rep.screen_nonzero)}{int(rep.witness_exists)}")
    return out


def table_expected(spec, reference) -> dict:
    """Reference cells are pinned with h = 1; a pRational cell becomes
    pDividesH when p divides the record's class number (no auxiliary data
    is given, so condition (1) is then undetermined)."""
    with open(spec["input"], encoding="ascii") as fh:
        h_of = inputs.class_numbers(fh.read())
    ref = reference["table"]
    expected = {}
    for label, h in h_of.items():
        for p, base in ref["cells"][label].items():
            if int(p) <= spec["pmax"]:
                expected[(f"cells:{label}", p)] = (
                    "H" if base == "R" and h % int(p) == 0 else base)
        for p, code in ref["pairs"].get(label, {}).items():
            if int(p) <= spec["pmax"]:
                expected[(f"pairs:{label}", p)] = code
    return expected


# ---------------------------------------------------------------------------
# density: prat scan --input examples.csv --xmax X


def density_ingest(spec):
    return harness.load_records(spec["input"], "csv")


def density_pass(spec) -> PassResult:
    out = PassResult()
    try:
        records = harness.load_records(spec["input"], "csv")
    except Exception:
        out.aborted.add("*")
        return out
    for record in records:
        part = f"density:{record.label}"
        try:
            res = harness.density_scan(record, spec["xmax"])
        except Exception:
            out.aborted.add(part)
            continue
        codes = [STATUS_CODES.get(status, status) for _, status in res.per_prime]
        for (p, _), code in zip(res.per_prime, codes):
            out.answers[(part, str(p))] = code
        if (res.count, res.undetermined) != (codes.count("R"), codes.count("U")):
            out.answers[(part, "summary")] = "inconsistent"  # scored as wrong
    return out


def density_expected(spec, reference) -> dict:
    return {(f"density:{label}", p): code
            for label, statuses in reference["density"].items()
            for p, code in statuses.items() if int(p) <= spec["xmax"]}


# ---------------------------------------------------------------------------
# ggc: prat ggc --xmax X --T 1


def ggc_ingest(spec):
    return None


def ggc_pass(spec) -> PassResult:
    out = PassResult()
    try:
        cands = families.ggc_scan(spec["xmax"], spec["T"])
    except Exception:
        out.aborted.add("*")
        return out
    for c in cands:
        out.answers[("ggc", str(c.p))] = (
            f"{c.n},{c.m},{c.radicand},{c.hK2},{c.verdict}")
    return out


def ggc_expected(spec, reference) -> dict:
    return {("ggc", p): code for p, code in reference["ggc"].items()
            if int(p) <= spec["xmax"]}


WORKLOADS = {
    "table": (table_ingest, table_pass, table_expected),
    "density": (density_ingest, density_pass, density_expected),
    "ggc": (ggc_ingest, ggc_pass, ggc_expected),
}


def compare(result: PassResult, expected: dict) -> Score:
    """Score one pass: every expected answer is attempted once."""
    score = Score(attempted=len(expected))
    for key, want in expected.items():
        if "*" in result.aborted or key[0] in result.aborted:
            score.failed += 1
            continue
        got = result.answers.get(key)
        if got == ERROR:
            score.failed += 1
            if want != ERROR:
                score.wrong += 1
        elif got != want and want != ERROR:
            score.wrong += 1
    score.wrong += sum(1 for key in result.answers if key not in expected)
    return score


def answers_hash(result: PassResult) -> str:
    """sha256 of the sorted answers, comparable across commits for any seed."""
    h = hashlib.sha256()
    for key in sorted(result.answers):
        h.update(f"{'|'.join(key)}={result.answers[key]}\n".encode())
    for part in sorted(result.aborted):
        h.update(f"aborted {part}\n".encode())
    return h.hexdigest()
