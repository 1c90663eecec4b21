import io
import json
import math
import re
from fractions import Fraction

import pytest

from prationality.errors import InvariantViolation
from prationality.cli import cli
from prationality.harness import (
    CELL_ERROR,
    CELL_NOT_APPLICABLE,
    CELL_TORSION,
    CELL_UNDETERMINED,
    FieldRecord,
    RecordParseError,
    _bundled_text,
    bundled_pure_cubic_h,
    bundled_records,
    density_scan,
    load_records,
    records_to_csv,
    render_table_csv,
    render_table_text,
    reproduce_table,
)
from prationality.numberfield import (FieldElement, NumberField,
                                      certified_parts, make_field, split_prime)
from prationality.rationality import verdict
from prationality.recurrence import cross_check, minimal_poly_spec
from prationality.torsion import condition2, condition2_holds
from test_torsion import roots_of_unity

EX63_CSV = """label,degree,poly,h,unit,unit_den,torsion_order,basis,aux_q,aux_gen_poly,aux_power_gen
x^4-2*x^2+3,4,3;0;-2;0;1,1,-2;-1;1;1,1,2,,,,
"""

EX62_CSV = """label,degree,poly,h,unit,unit_den,torsion_order,basis,aux_q,aux_gen_poly,aux_power_gen
x^3-4*x+27,3,27;-4;0;1,3,-3280;-3462;-729,1,2,,2,1;1,-604;265;-77
"""


def test_load_csv_example_63():
    records = load_records(io.StringIO(EX63_CSV), "csv")
    assert len(records) == 1
    r = records[0]
    assert r.poly_coeffs == (3, 0, -2, 0, 1)
    assert r.class_number == 1
    assert r.unit_coeffs == (-2, -1, 1, 1)
    assert r.aux is None


def test_load_csv_example_62_with_aux():
    records = load_records(io.StringIO(EX62_CSV), "csv")
    r = records[0]
    assert r.aux is not None
    assert r.aux.q == 2
    assert r.aux.gen_poly == (1, 1)
    assert r.aux.power_gen == (-604, 265, -77)


def test_load_empty_file():
    assert load_records(io.StringIO(""), "csv") == []


def test_load_rejects_malformed_row():
    bad = EX63_CSV + "broken,3,1;1,1\n"
    with pytest.raises(RecordParseError) as err:
        load_records(io.StringIO(bad), "csv")
    assert "line 3" in str(err.value)


def test_load_skips_invalid_unit(caplog):
    # norm of 2 is 16, not a unit; a/(a - 2) = (27 - 4a - 2a^2)/27 on
    # x^3 - 4x + 27 has norm 1 but is not integral (its table cells were once
    # all `error`): each record is skipped with its diagnostic
    bad = (
        "label,degree,poly,h,unit,unit_den,torsion_order\n"
        "notaunit,4,3;0;-2;0;1,1,2;0;0;0,1,2\n"
        "notintegral,3,27;-4;0;1,1,27;-4;-2,27,2\n"
    )
    with caplog.at_level("WARNING"):
        records = load_records(io.StringIO(bad), "csv")
    assert records == []
    assert [r.getMessage() for r in caplog.records] == [
        "skipping record notaunit: line 2: unit norm is not +-1",
        "skipping record notintegral: line 3: unit is not integral"]


def _root_of_unity_by_powers(K, unit):
    """The former check: unit^j = 1 for some j <= 12, which covers every
    order k with phi(k) <= 4; the reference for NumberField.unit_min_poly."""
    power = unit
    for _ in range(12):
        if K.equals(power, K.one()):
            return True
        power = K.mul(power, unit)
    return False


def _unit_cases():
    """(K, unit) pairs: every bundled unit, each root of unity of
    ROOTS_OF_UNITY and its product with the unit, alpha^k and -alpha^k on
    three cyclotomic quartics, +-1 in a cubic and a quartic, and units with
    |chi(0)| = 1 that are not roots of unity."""
    for name in ("table1", "table2", "examples"):
        for record in bundled_records(name):
            yield record.build_field(), record.unit_element()
    for record, _, zeta in roots_of_unity():
        K = record.build_field()
        yield K, zeta
        yield K, K.mul(record.unit_element(), zeta)
    for f in ((1, 1, 1, 1, 1), (1, 0, 0, 0, 1), (1, 0, -1, 0, 1)):
        K = make_field(f)
        power = K.one()
        for _ in range(13):
            yield K, power
            yield K, FieldElement(tuple(-c for c in power.coords))
            power = K.mul(power, FieldElement((0, 1, 0, 0)))
    for f in ((27, -4, 0, 1), (3, 0, -2, 0, 1)):
        K = make_field(f)
        yield K, K.one()
        yield K, K.from_int(-1)
    for f, unit in (((-1, -1, 0, 1), (0, 1, 0)), ((1, 1, 0, 0, 1), (0, 1, 0, 0)),
                    ((-1, 0, 1, 0, 1), (0, 1, 0, 0)),
                    ((1, 1, 1, 1, 1), (1, 1, 0, 0)),  # 1 + zeta_5, norm 1
                    ((1, 0, -1, 0, 1), (1, 1, 0, 0))):  # 1 + zeta_12
        yield make_field(f), FieldElement(unit)


def test_root_of_unity_read_off_char_poly_matches_powers():
    seen = {True: 0, False: 0}
    for K, unit in _unit_cases():
        try:
            K.unit_min_poly(unit)
            problem = None
        except ValueError as exc:
            problem = str(exc)
        assert problem in (None, "unit is a root of unity"), (K.poly, unit)
        expected = _root_of_unity_by_powers(K, unit)
        assert (problem is not None) == expected, (K.poly, unit)
        seen[expected] += 1
    assert seen[True] > 80 and seen[False] > 60


def test_every_unit_entry_refuses_what_the_loaders_refuse():
    # zeta_8 in x^4 + 1, -1 and a/(a - 2) in ex. 6.2, 2 in ex. 6.3: each
    # engine entry that takes a unit raises the loaders' message
    zeta8_field, ex62, ex63 = (make_field(f) for f in (
        (1, 0, 0, 0, 1), (27, -4, 0, 1), (3, 0, -2, 0, 1)))
    cases = [
        (zeta8_field, FieldElement((0, 1, 0, 0)), "unit is a root of unity"),
        (ex62, ex62.from_int(-1), "unit is a root of unity"),
        (ex63, ex63.from_int(2), "unit norm is not +-1"),
        (ex62, ex62.element_from_power_coords((27, -4, -2), 27),
         "unit is not integral"),
    ]
    spec = minimal_poly_spec(ex62, FieldElement((-3280, -3462, -729)))
    p = 17
    for K, unit, message in cases:
        calls = [
            lambda: verdict(K, p, unit=unit, class_number=1),
            lambda: condition2_holds(K, p, unit, certified_parts(K, p)),
            lambda: condition2(K, p, unit, split_prime(K, p)),
        ]
        if K.n == 3:
            calls += [lambda: minimal_poly_spec(K, unit),
                      lambda: cross_check(K, unit, spec, p)]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(message)):
                call()
    # a record built past the loaders gives error cells, not a verdict
    record = FieldRecord(label="zeta8", poly_coeffs=(1, 0, 0, 0, 1),
                         class_number=1, unit_coeffs=(0, 1, 0, 0))
    (row,) = reproduce_table([record], 5, 29)
    assert len(row.cells) == 8
    assert set(row.cells.values()) == {CELL_ERROR}


def test_csv_round_trip():
    # the fixture generator writes each file with records_to_csv: the file
    # minus its # lines is what the writer gives for what the loader read
    for name in ("table1", "table2", "examples"):
        text = _bundled_text(f"{name}.csv")
        records = bundled_records(name)
        written = records_to_csv(records)
        assert written == "".join(line for line in text.splitlines(keepends=True)
                                  if not line.startswith("#"))
        assert load_records(io.StringIO(written), "csv") == records


def test_load_json():
    data = """[
      {"label": "x^4-2*x^2+3", "degree": 4, "poly": [3, 0, -2, 0, 1],
       "h": 1, "unit": [-2, -1, 1, 1]}
    ]"""
    records = load_records(io.StringIO(data), "json")
    assert len(records) == 1
    assert records[0].unit_coeffs == (-2, -1, 1, 1)


@pytest.mark.parametrize("h", [0, -5])
def test_load_refuses_nonpositive_class_number(deadline, h):
    csv_text = EX63_CSV.replace("3;0;-2;0;1,1,", f"3;0;-2;0;1,{h},")
    json_text = ('[{"label": "x", "degree": 4, "poly": [3, 0, -2, 0, 1],'
                 f' "h": {h}, "unit": [-2, -1, 1, 1]}}]')
    for text, fmt, line in ((csv_text, "csv", 2), (json_text, "json", 1)):
        with deadline(5), pytest.raises(RecordParseError) as err:
            load_records(io.StringIO(text), fmt)
        assert str(err.value) == f"line {line}: class number must be positive"


@pytest.mark.parametrize("q", [0, 1, -2])
def test_load_refuses_an_auxiliary_prime_below_two(q):
    # aux_q = 0 was once accepted at load and failed only where condition
    # (1) built the auxiliary ideal, with a ZeroDivisionError
    csv_text = EX62_CSV.replace(",2,1;1,", f",{q},1;1,")
    json_text = ('[{"label": "x", "degree": 3, "poly": [27, -4, 0, 1], "h": 3,'
                 ' "unit": [-3280, -3462, -729], "aux_q": %d,'
                 ' "aux_gen_poly": [1, 1], "aux_power_gen": [-604, 265, -77]}]'
                 % q)
    for text, fmt, line in ((csv_text, "csv", 2), (json_text, "json", 1)):
        with pytest.raises(RecordParseError) as err:
            load_records(io.StringIO(text), fmt)
        assert str(err.value) == (
            f"line {line}: auxiliary ideal prime {q} is less than 2")


def test_load_names_a_missing_field():
    csv_text = EX63_CSV.replace("label,degree,", "label,").replace(",4,", ",")
    json_text = ('[{"label": "x", "poly": [3, 0, -2, 0, 1], "h": 1,'
                 ' "unit": [-2, -1, 1, 1]}]')
    for text, fmt, line in ((csv_text, "csv", 2), (json_text, "json", 1)):
        with pytest.raises(RecordParseError) as err:
            load_records(io.StringIO(text), fmt)
        assert str(err.value) == f"line {line}: missing field 'degree'"


@pytest.mark.parametrize("basis", [
    "1,0,0;0,1,0", "1,0;0,1;0,0", "1,0,0,0;0,1,0,0;0,0,1,0", "1,0,0;0,1,0;0,0,1,5",
], ids=["two-rows", "width-2", "width-4", "last-row-too-wide"])
def test_load_refuses_a_basis_of_the_wrong_shape(basis):
    # two rows once raised an IndexError from the unit's coordinates; rows
    # of width 2 or 4 were refused as "first basis element must be 1" and
    # a 4-entry last row passed as a basis, its unit then of norm 0
    csv_text = ("label,degree,poly,h,unit,basis\n"
                f'x^3-x^2+x-9,3,-9;1;-1;1,1,193;63;49,"{basis}"\n')
    rows = [[int(x) for x in row.split(",")] for row in basis.split(";")]
    json_text = ('[{"label": "x^3-x^2+x-9", "degree": 3, "poly": [-9, 1, -1, 1],'
                 f' "h": 1, "unit": [193, 63, 49], "basis": {json.dumps(rows)}}}]')
    for text, fmt, line in ((csv_text, "csv", 2), (json_text, "json", 1)):
        with pytest.raises(RecordParseError) as err:
            load_records(io.StringIO(text), fmt)
        assert str(err.value) == f"line {line}: basis must have 3 rows of 3 entries"


@pytest.mark.parametrize("den", [0, -1])
def test_load_refuses_a_unit_denominator_below_one(den):
    # -1 was once accepted, and made the unit -eps
    csv_text = EX63_CSV.replace(";1,1,2,", f";1,{den},2,")
    json_text = ('[{"label": "x", "degree": 4, "poly": [3, 0, -2, 0, 1], "h": 1,'
                 f' "unit": [-2, -1, 1, 1], "unit_den": {den}}}]')
    for text, fmt, line in ((csv_text, "csv", 2), (json_text, "json", 1)):
        with pytest.raises(RecordParseError) as err:
            load_records(io.StringIO(text), fmt)
        assert str(err.value) == f"line {line}: unit_den must be positive"


def test_load_ignores_torsion_columns():
    # no verdict reads the roots of unity, so the loaders ignore these
    # columns: w = 0, a zero denominator and (1 + 2a + 3a^2 + 4a^3)/7, which
    # is no root of unity, each load as ex. 6.3 without them
    row = "x^4-2*x^2+3,4,3;0;-2;0;1,1,-2;-1;1;1,"
    csv_text = ("label,degree,poly,h,unit,torsion_order,torsion_gen,torsion_gen_den\n"
                f"{row}0,,\n{row},,0\n{row},1;2;3;4,7\n")
    json_text = json.dumps([
        {"label": "x^4-2*x^2+3", "degree": 4, "poly": [3, 0, -2, 0, 1], "h": 1,
         "unit": [-2, -1, 1, 1], **columns}
        for columns in ({"torsion_order": 0}, {"torsion_gen_den": 0},
                        {"torsion_gen": [1, 2, 3, 4], "torsion_gen_den": 7})])
    plain = load_records(
        io.StringIO("label,degree,poly,h,unit\n" + row.rstrip(",")), "csv")
    want = reproduce_table(plain, 5, 100)[0].cells
    for text, fmt in ((csv_text, "csv"), (json_text, "json")):
        records = load_records(io.StringIO(text), fmt)
        assert records == plain * 3
        assert [r.cells for r in reproduce_table(records, 5, 100)] == [want] * 3


def test_replace_keeps_the_checks():
    # namedtuple's own _replace skips __new__, so a changed copy could
    # hold what the constructor refuses
    record = load_records(io.StringIO(EX62_CSV), "csv")[0]
    for valid, change in ((FieldElement((1, 2)), {"den": 0}),
                          (record.aux, {"q": 1}),
                          (record, {"unit_den": 0}),
                          (record, {"class_number": 0})):
        with pytest.raises(ValueError):
            valid._replace(**change)
    K = record.build_field()
    assert record._replace(label="y").build_field() is not K  # caches not shared


def test_load_json_with_nested_basis_matches_csv():
    # a bundled table record whose maximal order has the basis
    # 1, alpha, (1 + alpha^2) / 2; JSON gives the basis as a list of rows
    csv_text = ("label,degree,poly,h,unit,basis\n"
                'x^3-x^2+x-9,3,-9;1;-1;1,1,193;63;49,"1,0,0;0,1,0;1/2,0,1/2"\n')
    json_text = ('[{"label": "x^3-x^2+x-9", "degree": 3, "poly": [-9, 1, -1, 1],'
                 ' "h": 1, "unit": [193, 63, 49],'
                 ' "basis": [[1, 0, 0], [0, 1, 0], ["1/2", 0, "1/2"]]}]')
    from_csv = load_records(io.StringIO(csv_text), "csv")
    assert len(from_csv) == 1
    assert load_records(io.StringIO(json_text), "json") == from_csv
    assert from_csv[0].integral_basis[2] == (Fraction(1, 2), 0, Fraction(1, 2))


@pytest.mark.parametrize("data, line", [
    ('{"label": "a"}', 1),  # not a list
    ('[1, 2]', 1),
    ('[{"label": "x", "degree": 4, "poly": [3, 0, -2, 0, 1], "h": 1,'
     ' "unit": [-2, -1, 1, 1]}, "b"]', 2),
], ids=["object", "int-element", "str-element"])
def test_load_json_rejects_non_object_records(data, line):
    with pytest.raises(RecordParseError) as err:
        load_records(io.StringIO(data), "json")
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: ")


def test_reproduce_table_examples():
    records = load_records(io.StringIO(EX62_CSV + EX63_CSV.splitlines()[1] + "\n"), "csv")
    rows = reproduce_table(records, 5, 13)
    assert len(rows) == 2
    assert set(rows[0].cells) == {5, 7, 11, 13}
    text = render_table_text(rows)
    assert "field" in text
    csv_text = render_table_csv(rows)
    assert csv_text.startswith("label,p,cell")


def test_a_record_without_class_number_gives_no_error_cell(tmp_path, capsys):
    # condition (1) is undetermined without h: each cell of the basis record
    # x^3-x^2+x-9 is undetermined, or torsionNontrivial where condition (2)
    # fails (p = 13), and table and scan exit 0, from CSV and from JSON
    record = next(r for r in bundled_records("table1")
                  if r.label == "x^3-x^2+x-9")
    expected = {p: c if c in (CELL_TORSION, CELL_NOT_APPLICABLE)
                else CELL_UNDETERMINED
                for p, c in reproduce_table([record], 5, 100)[0].cells.items()}
    assert expected[13] == CELL_TORSION and expected[5] == CELL_UNDETERMINED
    csv_text = records_to_csv([record._replace(class_number=None)])
    json_text = ('[{"label": "x^3-x^2+x-9", "degree": 3, "poly": [-9, 1, -1, 1],'
                 ' "unit": [193, 63, 49],'
                 ' "basis": [[1, 0, 0], [0, 1, 0], ["1/2", 0, "1/2"]]}]')
    for text, fmt in ((csv_text, "csv"), (json_text, "json")):
        [loaded] = load_records(io.StringIO(text), fmt)
        assert loaded.class_number is None
        assert reproduce_table([loaded], 5, 100)[0].cells == expected, fmt
        path = tmp_path / f"record.{fmt}"
        path.write_text(text)
        args = ["--input", str(path), "--input-format", fmt]
        assert cli(["table", *args, "--format", "csv"]) == 0
        assert cli(["scan", *args, "--xmax", "100"]) == 0
        out = capsys.readouterr().out
        assert "0 p-rational primes <= 100 (22 undetermined)" in out, out


def test_reproduce_table_empty():
    assert reproduce_table([], 5, 100) == []


def test_table_cells_deterministic():
    records = load_records(io.StringIO(EX63_CSV), "csv")
    a = reproduce_table(records, 5, 30)
    b = reproduce_table(records, 5, 30)
    assert a == b


def test_density_scan_example_63(tmp_path, capsys):
    records = load_records(io.StringIO(EX63_CSV), "csv")
    res = density_scan(records[0], 100)
    # 23 primes in [5, 100]; the spec's derived bound
    assert res.count + res.undetermined <= 23
    assert res.count >= 21
    # prat scan prints count / log(x) next to the count
    path = tmp_path / "ex63.csv"
    path.write_text(EX63_CSV)
    assert cli(["scan", "--input", str(path), "--xmax", "100"]) == 0
    assert (f"{res.count} p-rational primes <= 100 ({res.undetermined} "
            f"undetermined), count/log(x) = {res.count / math.log(100):.3f}"
            in capsys.readouterr().out)
    # monotone in xmax
    res50 = density_scan(records[0], 50)
    assert res50.count <= res.count


def test_density_scan_checks_the_unit_norm_once(monkeypatch):
    # the loader's unit check computes the characteristic polynomial, whose
    # constant term is the norm, and every verdict of the scan reuses it
    calls = []
    original = NumberField.char_poly

    def counted(K, a):
        calls.append(a)
        return original(K, a)

    monkeypatch.setattr(NumberField, "char_poly", counted)
    records = load_records(io.StringIO(EX63_CSV), "csv")
    assert calls == [records[0].unit_element()]
    res = density_scan(records[0], 200)
    assert res.count > 0
    assert len(calls) == 1


def test_density_scan_small_range():
    records = load_records(io.StringIO(EX63_CSV), "csv")
    res = density_scan(records[0], 5)
    assert res.count in (0, 1)


def test_bundled_fixtures_present():
    t1 = bundled_records("table1")
    t2 = bundled_records("table2")
    ex = bundled_records("examples")
    assert len(t1) == 35
    assert len(t2) == 12
    assert len(ex) == 2
    h = bundled_pure_cubic_h()
    assert h[2791] == 31876011


def test_missing_bundled_fixture_is_internal_fault():
    with pytest.raises(InvariantViolation, match="generate_fixtures"):
        bundled_records("no-such-table")
