import io
import math
from fractions import Fraction

import pytest

from prationality.errors import InvariantViolation
from prationality.harness import (
    CELL_NOT_APPLICABLE,
    CELL_P_RATIONAL,
    FieldRecord,
    RecordParseError,
    bundled_pure_cubic_h,
    bundled_records,
    density_scan,
    load_records,
    records_to_csv,
    render_table_csv,
    render_table_text,
    reproduce_table,
    unit_problem,
)
from prationality.numberfield import FieldElement, NumberField, make_field

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
    order k with phi(k) <= 4; the reference for unit_problem."""
    power = unit
    for _ in range(12):
        if K.equals(power, K.one()):
            return True
        power = K.mul(power, unit)
    return False


def _unit_cases():
    """(K, unit) pairs: every bundled unit and torsion generator, alpha^k
    and -alpha^k on three cyclotomic quartics, +-1 in a cubic and a
    quartic, and units with |chi(0)| = 1 that are not roots of unity."""
    for name in ("table1", "table2", "examples"):
        for record in bundled_records(name):
            K, eps = record.build_field(), record.unit_element()
            yield K, eps
            if record.torsion_gen_coeffs is not None:
                zeta = K.element_from_power_coords(record.torsion_gen_coeffs,
                                                   record.torsion_gen_den)
                yield K, zeta
                yield K, K.mul(eps, zeta)
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
        problem = unit_problem(K, unit)
        assert problem in (None, "unit is a root of unity"), (K.poly, unit)
        expected = _root_of_unity_by_powers(K, unit)
        assert (problem is not None) == expected, (K.poly, unit)
        seen[expected] += 1
    assert seen[True] > 80 and seen[False] > 60


def test_csv_round_trip():
    records = load_records(io.StringIO(EX62_CSV), "csv")
    text = records_to_csv(records)
    again = load_records(io.StringIO(text), "csv")
    assert len(again) == 1
    a, b = records[0], again[0]
    assert (a.label, a.poly_coeffs, a.class_number) == (
        b.label,
        b.poly_coeffs,
        b.class_number,
    )
    assert a.unit_coeffs == b.unit_coeffs and a.unit_den == b.unit_den
    assert a.aux == b.aux


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


def test_reproduce_table_empty():
    assert reproduce_table([], 5, 100) == []


def test_table_cells_deterministic():
    records = load_records(io.StringIO(EX63_CSV), "csv")
    a = reproduce_table(records, 5, 30)
    b = reproduce_table(records, 5, 30)
    assert a == b


def test_density_scan_example_63():
    records = load_records(io.StringIO(EX63_CSV), "csv")
    res = density_scan(records[0], 100)
    # 23 primes in [5, 100]; the spec's derived bound
    assert res.count + res.undetermined <= 23
    assert res.count >= 21
    assert res.ratio_to_log_x == pytest.approx(res.count / math.log(100))
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
