import pytest

from prationality import recurrence
from prationality.families import primes_up_to
from prationality.harness import CELL_ERROR, bundled_records, reproduce_table
from prationality.numberfield import FieldElement, NumberField, make_field
from prationality.recurrence import (
    INERT,
    MIXED_1_2,
    SPLIT_COMPLETELY,
    RecurrenceSpec,
    cross_check,
    f_index_mod,
    minimal_poly_spec,
    screen,
)
from prationality.ring import discriminant
from prationality.selftest import suite_recurrence_matrix_vs_iteration

EX62 = (27, -4, 0, 1)
EPS62 = FieldElement((-3280, -3462, -729))


def _iterate(spec, n, m):
    seq = [0, 0, 1]
    while len(seq) <= n:
        seq.append(
            (spec.a2 * seq[-1] + spec.a1 * seq[-2] + spec.a0 * seq[-3]) % m
        )
    return seq[n] % m


def test_f_index_initial_values():
    spec = RecurrenceSpec(1, 2, 3)
    for m in (5, 10, 1000):
        assert [f_index_mod(spec, n, m) for n in (0, 1, 2)] == [0, 0, 1]


def test_f_index_matches_iteration():
    spec = RecurrenceSpec(1, 1, 1)
    assert f_index_mod(spec, 10, 10**6) == _iterate(spec, 10, 10**6)


def test_f_index_period_three_shift():
    spec = RecurrenceSpec(0, 0, 1)  # F_{n+3} = F_n
    for n in range(30):
        expected = 1 if n % 3 == 2 else 0
        assert f_index_mod(spec, n, 97) == expected


def test_matrix_power_vs_iteration_fuzz():
    _, ok, detail = suite_recurrence_matrix_vs_iteration()
    assert ok, detail


def test_recurrence_window_identity():
    spec = RecurrenceSpec(3, -2, 1)
    m = 10**9
    vals = [f_index_mod(spec, n, m) for n in range(50)]
    for n in range(len(vals) - 3):
        assert vals[n + 3] == (
            spec.a2 * vals[n + 2] + spec.a1 * vals[n + 1] + spec.a0 * vals[n]
        ) % m


def test_screen_examples():
    K = make_field(EX62)
    spec = minimal_poly_spec(K, EPS62)
    # the split-completely screen index at p = 3 is p - 1 = 2 and F_2 = 1,
    # but 3 divides d(f_eps) here so the screen itself refuses (hypothesis of
    # the theorem); the recurrence value is still trivially nonzero.
    assert f_index_mod(spec, 2, 9) == 1
    from prationality.ring import discriminant

    assert discriminant(spec.companion_poly) % 3 == 0
    with pytest.raises(ValueError):
        screen(spec, 3, SPLIT_COMPLETELY)
    spec2 = RecurrenceSpec(1, 1, 1)
    res2 = screen(spec2, 5, INERT)
    assert res2.index == 124
    assert res2.value == _iterate(spec2, 124, 25)


def test_screen_rejects_bad_p():
    spec = RecurrenceSpec(1, 1, 1)
    d = __import__("prationality.ring", fromlist=["discriminant"]).discriminant(
        spec.companion_poly
    )
    bad = next(p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31) if d % p == 0)
    with pytest.raises(ValueError):
        screen(spec, bad, SPLIT_COMPLETELY)
    with pytest.raises(ValueError):
        screen(spec, 2, INERT)


def test_companion_disc_is_computed_once_per_spec(monkeypatch):
    spec = RecurrenceSpec(1, 1, 1)
    calls = []

    def counted(f):
        calls.append(f)
        return discriminant(f)

    monkeypatch.setattr(recurrence, "discriminant", counted)
    assert spec.companion_disc == discriminant(spec.companion_poly) == -44
    for p in (5, 7, 13):
        screen(spec, p, INERT)
    with pytest.raises(ValueError):
        screen(spec, 11, INERT)  # 11 divides -44
    assert len(calls) == 1
    assert RecurrenceSpec(1, 1, 1) == spec


def test_minimal_poly_spec_example_62():
    K = make_field(EX62)
    spec = minimal_poly_spec(K, EPS62)
    # a0 = N(eps) = +-1
    assert abs(spec.a0) == 1
    # eps satisfies x^3 - a2 x^2 - a1 x - a0 exactly (checked inside);
    # cross-check with the norm/trace directly
    assert spec.a0 == int(K.norm(EPS62))


def test_minimal_poly_rejects_subfield_unit():
    K = make_field(EX62)
    with pytest.raises(ValueError):
        minimal_poly_spec(K, K.from_int(2))


def test_cross_check_example_62():
    # 3 | d(f_eps) for this unit, so run the cross-check at primes where the
    # theorem's hypothesis holds
    from prationality.ring import discriminant

    K = make_field(EX62)
    spec = minimal_poly_spec(K, EPS62)
    d = discriminant(spec.companion_poly)
    ran = 0
    for p in (5, 7, 11, 13, 17):
        if d % p == 0:
            continue
        rep = cross_check(K, EPS62, spec, p)
        assert not rep.violation
        ran += 1
    assert ran >= 4


def test_cross_check_pure_cubic_7():
    # x^3 + 1 - 7^3, eps = p^2 + p a + a^2
    p = 7
    K = make_field((1 - p**3, 0, 0, 1))
    eps = FieldElement((p * p, p, 1))
    spec = minimal_poly_spec(K, eps)
    rep = cross_check(K, eps, spec, p)
    assert rep.splitting == SPLIT_COMPLETELY  # 7 = 1 mod 3
    assert not rep.violation
    assert rep.witness_exists


def test_cross_check_vacuous_when_screen_zero():
    # any (field, unit, p) with screen zero leaves the implication vacuous
    K = make_field(EX62)
    spec = minimal_poly_spec(K, EPS62)
    for p in (5, 7, 11, 13, 17, 19, 23):
        if __import__("prationality.ring", fromlist=["discriminant"]).discriminant(
            spec.companion_poly
        ) % p == 0:
            continue
        rep = cross_check(K, EPS62, spec, p)
        assert not rep.violation


def test_cross_check_rejects_mismatched_spec():
    K = make_field(EX62)
    with pytest.raises(ValueError):
        cross_check(K, EPS62, RecurrenceSpec(1, 1, 1), 5)
    # -1 satisfies x^3 + 1, but a rational unit has no cubic minimal polynomial
    with pytest.raises(ValueError):
        cross_check(K, K.from_int(-1), RecurrenceSpec(0, 0, -1), 5)


def _count_char_poly(monkeypatch):
    """The (field, element) of every NumberField.char_poly call."""
    calls = []
    original = NumberField.char_poly

    def counted(K, a):
        calls.append((id(K), a))
        return original(K, a)

    monkeypatch.setattr(NumberField, "char_poly", counted)
    return calls


def test_cross_check_proves_the_spec_once(monkeypatch):
    calls = _count_char_poly(monkeypatch)
    K = make_field(EX62)
    spec = minimal_poly_spec(K, EPS62)
    d = discriminant(spec.companion_poly)
    for p in primes_up_to(200):
        if p >= 5 and d % p:
            cross_check(K, EPS62, spec, p)
    # the spec, its proof and condition (2) read one kept polynomial
    assert len(calls) == 1


def test_table_and_cross_check_compute_each_char_poly_once(monkeypatch):
    calls = _count_char_poly(monkeypatch)
    records = bundled_records("table1") + bundled_records("examples")
    rows = reproduce_table(records, 5, 100)
    assert all(CELL_ERROR not in row.cells.values() for row in rows)
    checked = 0
    for record in records:
        if record.degree != 3:
            continue
        K, unit = record.build_field(), record.unit_element()
        spec = minimal_poly_spec(K, unit)
        d = discriminant(spec.companion_poly)
        for p in primes_up_to(100):
            if p >= 5 and d % p:
                cross_check(K, unit, spec, p)
                checked += 1
    assert checked > 500
    assert len(calls) == len(set(calls)) == len(records)
