"""Record ingestion and table reproduction.

Field records (polynomial, class number, fundamental unit, optional torsion
generator, optional integral basis, optional auxiliary ideal data) arrive as
CSV or JSON; the harness validates them on load, evaluates the verdict per
(record, prime) cell, and renders the exception table plus a density scan.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache, reduce

from . import ring
from .errors import InvariantViolation
from .families import primes_up_to
from .numberfield import FieldElement, NumberField, checked_make, make_field
from .rationality import (
    AuxIdealData,
    CLASS_NUMBER_DIVISIBLE,
    NOT_APPLICABLE,
    NOT_P_RATIONAL,
    P_RATIONAL,
    TORSION_NONTRIVIAL,
    VERDICT_UNDETERMINED,
    Verdict,
    verdict,
)

CSV_COLUMNS = [
    "label",
    "degree",
    "poly",
    "h",
    "unit",
    "unit_den",
    "torsion_order",
    "basis",
    "aux_q",
    "aux_gen_poly",
    "aux_power_gen",
    "torsion_gen",
    "torsion_gen_den",
]

# table cell values
CELL_P_RATIONAL = "pRational"
CELL_P_DIVIDES_H = "pDividesH"
CELL_TORSION = "torsionNontrivial"
CELL_UNDETERMINED = "undetermined"
CELL_NOT_APPLICABLE = "notApplicable"
CELL_ERROR = "error"


class FieldRecord(namedtuple("FieldRecord", (
        "label poly_coeffs class_number unit_coeffs unit_den torsion_order "
        "torsion_gen_coeffs torsion_gen_den integral_basis aux"),
        defaults=(1, 2, None, 1, None, None))):
    """One field as CSV or JSON gives it: coefficient tuples over the power
    basis, class_number None when unknown, integral_basis None for Z[alpha]
    and aux an optional rationality.AuxIdealData.  No __slots__: the instance
    __dict__ holds the field and unit built on first use."""

    _make = classmethod(checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.class_number is not None and self.class_number < 1:
            raise ValueError("class number must be positive")
        if self.unit_den < 1:
            raise ValueError("unit_den must be positive")
        if self.torsion_order < 2:  # every field holds +-1
            raise ValueError("torsion_order must be at least 2")
        if self.torsion_gen_den < 1:
            raise ValueError("torsion_gen_den must be positive")
        return self

    @property
    def degree(self) -> int:
        return len(self.poly_coeffs) - 1

    @cached_property
    def _field(self) -> NumberField:
        return make_field(self.poly_coeffs, basis=self.integral_basis)

    @cached_property
    def _unit(self) -> FieldElement:
        return self._field.element_from_power_coords(self.unit_coeffs, self.unit_den)

    def build_field(self) -> NumberField:
        return self._field

    def unit_element(self) -> FieldElement:
        return self._unit


class TableRow(namedtuple("TableRow", "label cells")):
    __slots__ = ()

    def exceptional(self) -> dict[int, str]:
        return {p: c for p, c in self.cells.items() if c != CELL_P_RATIONAL}


class RecordParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(";"))


def _parse_basis(text: str, n: int):
    text = text.strip()
    if not text:
        return None
    rows = tuple(tuple(Fraction(x) for x in row.split(",")) for row in text.split(";"))
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"basis must have {n} rows of {n} entries")
    return rows


def _record_from_fields(fields: dict[str, str], line: int) -> FieldRecord:
    try:
        poly_coeffs = parse_ints(fields["poly"])
        degree = int(fields["degree"])
        if len(poly_coeffs) - 1 != degree:
            raise ValueError(
                f"degree column {degree} does not match polynomial degree "
                f"{len(poly_coeffs) - 1}"
            )
        h = fields.get("h", "").strip()
        aux = None
        if fields.get("aux_q", "").strip():
            aux = AuxIdealData(
                q=int(fields["aux_q"]),
                gen_poly=parse_ints(fields["aux_gen_poly"]),
                power_gen=parse_ints(fields["aux_power_gen"]),
            )
        return FieldRecord(
            label=fields["label"].strip(),
            poly_coeffs=poly_coeffs,
            class_number=int(h) if h else None,
            unit_coeffs=parse_ints(fields["unit"]),
            unit_den=int(fields.get("unit_den", "") or 1),
            torsion_order=int(fields.get("torsion_order", "") or 2),
            torsion_gen_coeffs=parse_ints(fields["torsion_gen"]) or None
            if fields.get("torsion_gen", "").strip()
            else None,
            torsion_gen_den=int(fields.get("torsion_gen_den", "") or 1),
            integral_basis=_parse_basis(fields.get("basis", ""), degree),
            aux=aux,
        )
    except KeyError as exc:
        raise RecordParseError(line, f"missing field {exc}") from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise RecordParseError(line, str(exc)) from exc


def _validate(record: FieldRecord, line: int) -> str | None:
    """Returns a diagnostic when the record must be skipped, else None."""
    n = record.degree
    if n not in (3, 4):
        return f"line {line}: polynomial degree {n} is not 3 or 4"
    try:  # make_field refuses a polynomial that is not monic
        problem = unit_problem(record.build_field(), record.unit_element())
    except ValueError as exc:
        return f"line {line}: {exc}"
    return None if problem is None else f"line {line}: {problem}"


def unit_problem(K: NumberField, unit: FieldElement) -> str | None:
    """Why unit cannot be a field's fundamental unit, or None: it is not
    integral, its norm (-1)^n chi(0) is not +-1 for chi = cached_char_poly
    (which the verdicts then read), or it is a root of unity.  A root of
    unity of order k has minimal polynomial Phi_k, so its chi is
    Phi_k^(n / phi(k)); conversely a root of such a chi is a root of unity."""
    try:
        chi, _ = K.cached_char_poly(unit)
    except ValueError:
        return "unit is not integral"
    if abs(chi[0]) != 1:
        return "unit norm is not +-1"
    if chi in _root_of_unity_char_polys(K.n):
        return "unit is a root of unity"
    return None


# Phi_k for the k with phi(k) <= 4 (k = 1, 2, 3, 4, 6, 5, 8, 10, 12): the
# minimal polynomials of the roots of unity in a field of degree <= 4
_CYCLOTOMIC = ((-1, 1), (1, 1), (1, 1, 1), (1, 0, 1), (1, -1, 1),
               (1, 1, 1, 1, 1), (1, 0, 0, 0, 1), (1, -1, 1, -1, 1),
               (1, 0, -1, 0, 1))


@lru_cache(maxsize=None)
def _root_of_unity_char_polys(n: int) -> frozenset:
    """Phi_k^(n / phi(k)) for every Phi_k whose degree phi(k) divides n."""
    return frozenset(reduce(ring.poly_mul, [phi] * (n // ring.degree(phi)))
                     for phi in _CYCLOTOMIC if n % ring.degree(phi) == 0)


def load_records(source, fmt: str = "csv") -> list[FieldRecord]:
    """Parse and validate records from a path or file object.

    Malformed rows raise RecordParseError with the line number; records
    failing validation (e.g. norm != +-1) are skipped with a logged
    diagnostic.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="ascii") as fh:
            text = fh.read()
    if fmt == "csv":
        rows = _csv_fields(text)
    elif fmt == "json":
        rows = _json_fields(text)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    records = []
    for fields, line in rows:
        record = _record_from_fields(fields, line)
        diag = _validate(record, line)
        if diag is not None:
            _warn("skipping record %s: %s", record.label, diag)
            continue
        records.append(record)
    return records


def _warn(msg: str, *args) -> None:
    """A warning on the prationality.harness logger; logging is imported
    here, as a clean run emits none."""
    import logging
    logging.getLogger(__name__).warning(msg, *args)


def _csv_fields(text: str):
    """(column dict, line number) per data row of a record CSV."""
    buffered = []
    line_numbers = []
    for i, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        buffered.append(raw)
        line_numbers.append(i)
    if not buffered:
        return
    reader = csv.reader(io.StringIO("\n".join(buffered)))
    rows = list(reader)
    header = [h.strip() for h in rows[0]]
    if "label" not in header or "poly" not in header:
        raise RecordParseError(line_numbers[0], "missing header row")
    for row, line in zip(rows[1:], line_numbers[1:]):
        if len(row) > len(header):
            raise RecordParseError(line, "too many columns")
        yield dict(zip(header, row + [""] * (len(header) - len(row)))), line


def _json_fields(text: str):
    """(field dict, 1-based position) per object of a record JSON list."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise RecordParseError(1, "expected a JSON list of record objects")
    for i, obj in enumerate(data, start=1):
        if not isinstance(obj, dict):
            raise RecordParseError(i, "record must be a JSON object")
        yield {k: _stringify(v) for k, v in obj.items()}, i


def _stringify(v) -> str:
    """A JSON value in CSV cell form: list entries joined by ';', and the
    entries of nested lists (basis rows) by ','."""
    if isinstance(v, list):
        return ";".join(",".join(map(str, x)) if isinstance(x, list) else str(x)
                        for x in v)
    if v is None:
        return ""
    return str(v)


def records_to_csv(records: list[FieldRecord]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        basis = ""
        if r.integral_basis is not None:
            basis = ";".join(
                ",".join(str(x) for x in row) for row in r.integral_basis
            )
        writer.writerow(
            [
                r.label,
                r.degree,
                ";".join(str(c) for c in r.poly_coeffs),
                "" if r.class_number is None else r.class_number,
                ";".join(str(c) for c in r.unit_coeffs),
                r.unit_den,
                r.torsion_order,
                basis,
                "" if r.aux is None else r.aux.q,
                "" if r.aux is None else ";".join(str(c) for c in r.aux.gen_poly),
                "" if r.aux is None else ";".join(str(c) for c in r.aux.power_gen),
                ""
                if r.torsion_gen_coeffs is None
                else ";".join(str(c) for c in r.torsion_gen_coeffs),
                r.torsion_gen_den,
            ]
        )
    return out.getvalue()


def _bundled_text(filename: str) -> str:
    """A fixture file under prationality/data; a missing one is an internal
    fault of the installation, not bad input."""
    from importlib import resources  # imported on first use: ggc needs none
    try:
        return resources.files("prationality.data").joinpath(filename).read_text()
    except (ModuleNotFoundError, FileNotFoundError) as exc:
        raise InvariantViolation(
            f"bundled fixture prationality/data/{filename} is missing; "
            "regenerate it with tools/generate_fixtures.py"
        ) from exc


def bundled_records(name: str) -> list[FieldRecord]:
    """Load a fixture shipped with the package (table1, table2, examples)."""
    return load_records(io.StringIO(_bundled_text(f"{name}.csv")), "csv")


def parse_h_csv(text: str) -> dict[int, int]:
    """Class numbers from `p,h` rows; blank, `#` and header lines skipped.
    RecordParseError with the line number for a malformed row or h < 1."""
    out = {}
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#") or line.startswith("p,"):
            continue
        try:
            p, h = (int(x) for x in line.split(","))
        except ValueError as exc:
            raise RecordParseError(i, f"expected p,h: {exc}") from None
        if h < 1:
            raise RecordParseError(i, "class number must be positive")
        out[p] = h
    return out


def bundled_pure_cubic_h() -> dict[int, int]:
    return parse_h_csv(_bundled_text("pure_cubic_h.csv"))


# ---------------------------------------------------------------------------
# table reproduction


def cell_for_verdict(v: Verdict) -> str:
    if v.status == NOT_APPLICABLE:
        return CELL_NOT_APPLICABLE
    if v.status == P_RATIONAL:
        return CELL_P_RATIONAL
    if v.status == NOT_P_RATIONAL:
        if TORSION_NONTRIVIAL in v.reasons:
            return CELL_TORSION
        return CELL_P_DIVIDES_H
    if CLASS_NUMBER_DIVISIBLE in v.reasons:
        return CELL_P_DIVIDES_H
    return CELL_UNDETERMINED


def verdict_for_record(record: FieldRecord, p: int) -> Verdict:
    K = record.build_field()
    return verdict(
        K,
        p,
        unit=record.unit_element(),
        class_number=record.class_number,
        aux=record.aux,
    )


def reproduce_table(records: list[FieldRecord], pmin: int, pmax: int) -> list[TableRow]:
    if not (5 <= pmin <= pmax):
        raise ValueError("range must satisfy 5 <= pmin <= pmax")
    primes = [p for p in primes_up_to(pmax) if p >= pmin]
    rows = []
    for record in records:
        cells = {}
        for p in primes:
            try:
                cells[p] = cell_for_verdict(verdict_for_record(record, p))
            except Exception as exc:  # render, never abort the table
                _warn("cell (%s, %d) errored: %s", record.label, p, exc)
                cells[p] = CELL_ERROR
        rows.append(TableRow(record.label, cells))
    return rows


def render_table_text(rows: list[TableRow]) -> str:
    """Paper-style presentation: exceptional rows, then a summary line."""
    lines = []
    width = max((len(r.label) for r in rows), default=5)
    header = f"{'field':<{width}}  {'p|h(K)':<12} {'tor != 1':<16} {'not p-rational'}"
    lines.append(header)
    lines.append("-" * len(header))
    clean = 0
    for row in rows:
        exc = row.exceptional()
        if not exc:
            clean += 1
            continue
        ph = [p for p, c in exc.items() if c == CELL_P_DIVIDES_H]
        tor = [p for p, c in exc.items() if c == CELL_TORSION]
        other = {
            p: c for p, c in exc.items() if c not in (CELL_P_DIVIDES_H, CELL_TORSION)
        }
        nrat = [str(p) for p in tor]
        nrat += [f"{p}?" for p in ph]
        nrat += [f"{p}:{c}" for p, c in other.items()]
        lines.append(
            f"{row.label:<{width}}  {_fmt(ph):<12} {_fmt(tor):<16} "
            f"{','.join(nrat) if nrat else '-'}"
        )
    lines.append(f"({clean} rows p-rational at every prime in range)")
    return "\n".join(lines)


def _fmt(ps) -> str:
    return ",".join(str(p) for p in ps) if ps else "-"


def render_table_csv(rows: list[TableRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["label", "p", "cell"])
    for row in rows:
        for p in sorted(row.cells):
            writer.writerow([row.label, p, row.cells[p]])
    return out.getvalue()


# per_prime holds (p, verdict status) for every prime 5 <= p <= xmax
DensityResult = namedtuple("DensityResult",
                           "count undetermined ratio_to_log_x per_prime")


def density_scan(record: FieldRecord, xmax: int) -> DensityResult:
    """Count primes 5 <= p <= xmax where the verdict is p-rational."""
    if xmax < 5:
        raise ValueError("xmax must be at least 5")
    count = 0
    undetermined = 0
    per = []
    for p in primes_up_to(xmax):
        if p < 5:
            continue
        v = verdict_for_record(record, p)
        per.append((p, v.status))
        if v.status == P_RATIONAL:
            count += 1
        elif v.status == VERDICT_UNDETERMINED:
            undetermined += 1
    return DensityResult(count, undetermined, count / math.log(xmax), tuple(per))
