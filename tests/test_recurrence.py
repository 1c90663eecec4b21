import pytest

from prationality import recurrence, ring
from prationality.errors import SplittingUndetermined
from prationality.families import primes_up_to
from prationality.harness import (CELL_ERROR, bundled_records, reproduce_table,
                                  verdict_for_record)
from prationality.numberfield import (FieldElement, NumberField,
                                      certified_parts, make_field, split_prime)
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
from prationality.selftest import (suite_recurrence_matrix_vs_iteration,
                                   suite_screen_oracles)
from prationality.torsion import condition2_holds
from test_torsion import _known_answer_primes

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
        screen(spec, 3)
    spec2 = RecurrenceSpec(1, 1, 1)
    res2 = screen(spec2, 5)
    assert res2.splitting == INERT
    assert res2.index == 124
    assert res2.value == _iterate(spec2, 124, 25)


def test_screen_reads_the_splitting_off_chi():
    spec = RecurrenceSpec(1, 1, 1)  # x^3 - x^2 - x - 1, disc -44
    # 3 is a root mod 7 and (-44 / 7) = -1: one linear and one quadratic
    res = screen(spec, 7)
    assert (res.splitting, res.index) == (MIXED_1_2, 48)
    assert res.value == _iterate(spec, 48, 49)
    # no root mod 5 and (-44 / 5) = 1: inert
    res = screen(spec, 5)
    assert (res.splitting, res.index) == (INERT, 124)
    assert res.value == _iterate(spec, 124, 25)
    # x^3 - x^2 - x - 1 = (x - 5)(x - 17)(x - 26) mod 47
    res = screen(spec, 47)
    assert (res.splitting, res.index) == (SPLIT_COMPLETELY, 46)
    assert res.value == _iterate(spec, 46, 47 * 47)


def test_screen_agrees_with_split_prime_on_bundled_cubics():
    _, ok, detail = suite_screen_oracles()
    assert ok, detail


def test_screen_agrees_with_its_oracles_at_large_primes():
    # past the selftest's p <= 100: ex. 6.2's unit and the tribonacci
    # recurrence at the known-answer primes, up to the Miller-Rabin bound
    # and across the steps of the slot width; the value against
    # f_index_mod, a general power on the kernel, and the splitting against
    # the prime factors of split_prime
    names = {3: SPLIT_COMPLETELY, 2: MIXED_1_2, 1: INERT}
    tribonacci = RecurrenceSpec(1, 1, 1)
    K62 = make_field(EX62)
    seen, checked = set(), 0
    for K, spec in ((K62, minimal_poly_spec(K62, EPS62)),
                    (make_field(tribonacci.companion_poly), tribonacci)):
        for p in _known_answer_primes():
            if spec.companion_disc % p == 0:
                continue
            factors = split_prime(K, p)
            F = max(pf.f for pf in factors)
            res = screen(spec, p)
            assert (res.splitting, res.index) == (names[len(factors)],
                                                  p**F - 1), p
            assert res.value == f_index_mod(spec, p**F - 1, p * p), p
            seen.add(res.splitting)
            checked += 1
    assert seen == {SPLIT_COMPLETELY, MIXED_1_2, INERT} and checked > 40


def test_screen_rejects_bad_p():
    spec = RecurrenceSpec(1, 1, 1)
    d = __import__("prationality.ring", fromlist=["discriminant"]).discriminant(
        spec.companion_poly
    )
    bad = next(p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31) if d % p == 0)
    with pytest.raises(ValueError):
        screen(spec, bad)
    with pytest.raises(ValueError):
        screen(spec, 2)


def test_companion_disc_is_computed_once_per_spec(monkeypatch):
    spec = RecurrenceSpec(1, 1, 1)
    calls = []

    def counted(f):
        calls.append(f)
        return discriminant(f)

    monkeypatch.setattr(recurrence, "discriminant", counted)
    assert spec.companion_disc == discriminant(spec.companion_poly) == -44
    for p in (5, 7, 13):
        screen(spec, p)
    with pytest.raises(ValueError):
        screen(spec, 11)  # 11 divides -44
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
    # the units of Q, +-1, are roots of unity; 2 is no unit
    K = make_field(EX62)
    for x in (1, -1):
        with pytest.raises(ValueError, match="unit is a root of unity"):
            minimal_poly_spec(K, K.from_int(x))
    with pytest.raises(ValueError, match="unit norm is not"):
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


def test_cross_check_splits_no_polynomial(distinct_degree_calls):
    K = make_field(EX62)
    spec = minimal_poly_spec(K, EPS62)
    splittings = set()
    for p in primes_up_to(200):
        if p >= 5 and spec.companion_disc % p:
            splittings.add(cross_check(K, EPS62, spec, p).splitting)
    assert splittings == {SPLIT_COMPLETELY, MIXED_1_2, INERT}
    assert distinct_degree_calls == []
    # the counter sees a call through factor_mod_p
    ring.factor_mod_p(K.poly, 5)
    assert distinct_degree_calls == [(tuple(c % 5 for c in K.poly), 5)]


def test_a_composite_p_is_an_input_error():
    # the Fermat check fails at these composite p on ex. 6.2: the verdict
    # and the screen then test p and blame the input, not the engine
    record = next(r for r in bundled_records("examples")
                  if r.poly_coeffs == EX62)
    for p in (35, 91):
        with pytest.raises(ValueError, match=f"p = {p} is not a prime"):
            verdict_for_record(record, p)
    K = make_field(EX62)
    spec = minimal_poly_spec(K, EPS62)
    for q in (35, 91, 561, 1105):
        with pytest.raises(ValueError, match=f"p = {q} is not a prime"):
            screen(spec, q)
        with pytest.raises(ValueError, match=f"p = {q} is not a prime"):
            cross_check(K, EPS62, spec, q)


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


# the first primes above 2^16, 2^32 and 2^64
LARGE_PRIMES = (65537, 4294967311, 18446744073709551629)


def _bundled_cubics():
    for name in ("table1", "table2", "examples"):
        for record in bundled_records(name):
            if record.degree == 3:
                yield record, record.build_field(), record.unit_element()


def test_cross_check_decides_condition2_like_condition2_holds():
    # the screen's gamma against the direct test, at every 5 <= p <= 300
    # not dividing disc(chi) and at three large primes, on every bundled cubic
    witnesses = {False: 0, True: 0}
    for record, K, unit in _bundled_cubics():
        spec = minimal_poly_spec(K, unit)
        for p in primes_up_to(300)[2:] + list(LARGE_PRIMES):
            if spec.companion_disc % p == 0:
                continue
            if K.poly_disc % p == 0:
                # p divides the index of Z[alpha]; both refuse it alike
                with pytest.raises(SplittingUndetermined) as direct:
                    certified_parts(K, p)
                with pytest.raises(SplittingUndetermined) as fused:
                    cross_check(K, unit, spec, p)
                assert str(fused.value) == str(direct.value)
                continue
            holds = condition2_holds(K, p, unit, certified_parts(K, p))
            rep = cross_check(K, unit, spec, p)
            assert rep.witness_exists is holds, (record.label, p)
            witnesses[holds] += 1
    assert witnesses[False] > 0 and witnesses[True] > 1500


def test_cross_check_takes_one_frobenius_power(kernel_builds, x_power_calls,
                                               frobenius_defect_calls,
                                               certified_parts_calls):
    # the screen's t^p and X = chi(t^p) from one frobenius_defect and its
    # t^(p^F - 1) from one x_power; past them the cross-check takes no
    # power, builds no kernel and splits no polynomial at p prime to disc(f)
    K = make_field(EX62)
    spec = minimal_poly_spec(K, EPS62)
    chi, seen = spec.companion_poly, set()
    for p in primes_up_to(200)[2:] + list(LARGE_PRIMES):
        if spec.companion_disc % p == 0 or K.poly_disc % p == 0:
            continue
        del x_power_calls[:], frobenius_defect_calls[:]
        rep = cross_check(K, EPS62, spec, p)
        F = {SPLIT_COMPLETELY: 1, MIXED_1_2: 2, INERT: 3}[rep.splitting]
        assert frobenius_defect_calls == [(chi, p)], p
        assert x_power_calls == [(chi, p * p, p**F - 1)], p
        assert kernel_builds == [], p
        seen.add(rep.splitting)
    assert seen == {SPLIT_COMPLETELY, MIXED_1_2, INERT}
    assert certified_parts_calls == []
    # a ramified p is still refused through the radical parts
    with pytest.raises(ValueError, match="unramified cubic splitting expected"):
        cross_check(K, EPS62, spec, 19427)
    assert certified_parts_calls == [19427]


def test_no_kernel_is_built_for_a_power_of_t(kernel_builds):
    # the table's verdicts build a kernel only where a general element is
    # powered: the radical cofactor, kernel(f, p^2) at p dividing
    # disc(f) disc(mu); complete splitting takes x^p by ring.x_power.  The
    # cross-check builds none at any p prime to disc(f)
    records = [r for name in ("table1", "table2", "examples")
               for r in bundled_records(name)]
    reproduce_table(records, 5, 100)
    cofactor = set()
    for record in records:
        K = record.build_field()
        disc_mu = K.unit_min_poly(record.unit_element())[1]
        cofactor |= {(K.poly, p * p) for p in primes_up_to(100)[2:]
                     if K.poly_disc * disc_mu % p == 0}
    assert kernel_builds and set(kernel_builds) <= cofactor
    del kernel_builds[:]
    checked = 0
    for record, K, unit in _bundled_cubics():
        spec = minimal_poly_spec(K, unit)
        for p in primes_up_to(300)[1:] + list(LARGE_PRIMES):
            if K.poly_disc % p == 0:
                continue
            if spec.companion_disc % p == 0:
                with pytest.raises(ValueError, match="companion"):
                    cross_check(K, unit, spec, p)
            else:
                cross_check(K, unit, spec, p)
                checked += 1
    assert kernel_builds == [] and checked > 1500


def test_table_and_cross_check_compute_each_discriminant_once(
        discriminant_calls):
    # disc(f) when the field is built and disc(chi) when the unit is checked,
    # then disc(mu) where disc(chi) = 0: on the two quartics whose unit lies
    # in a quadratic subfield; the spec takes disc(mu) from the field
    records = [r for name in ("table1", "table2", "examples")
               for r in bundled_records(name)]
    reproduce_table(records, 5, 100)
    checked = 0
    for record in records:
        if record.degree != 3:
            continue
        K, unit = record.build_field(), record.unit_element()
        spec = minimal_poly_spec(K, unit)
        for p in primes_up_to(100)[2:]:
            if spec.companion_disc % p == 0:
                continue
            try:
                cross_check(K, unit, spec, p)
            except SplittingUndetermined:
                continue
            checked += 1
    assert checked > 500
    expected = [r.build_field().poly for r in records]
    expected += [r.build_field().char_poly(r.unit_element()) for r in records]
    subfield = [mu for r in records
                if len(mu := r.build_field().unit_min_poly(r.unit_element())[0])
                < len(r.poly_coeffs)]
    assert len(subfield) == 2 and all(len(mu) == 3 for mu in subfield)
    assert sorted(discriminant_calls) == sorted(expected + subfield)
