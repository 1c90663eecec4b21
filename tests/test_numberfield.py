import io
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from prationality.errors import InvariantViolation, SplittingUndetermined
from prationality.families import primes_up_to
from prationality.harness import (bundled_records, load_records, records_to_csv,
                                  reproduce_table)
from prationality.numberfield import (
    FieldElement,
    NumberField,
    dedekind_p_maximal,
    ideal_contains,
    ideal_from_two_generators,
    ideal_multiply,
    ideal_pow,
    identity_ideal,
    _real_root_count,
    make_field,
    principal_ideal,
    split_prime,
    squarefree_parts,
)
from prationality.recurrence import cross_check, minimal_poly_spec
from prationality.ring import (ModPoly, det_bareiss, discriminant, factor_mod_p,
                              poly, poly_mul)
from prationality import selftest
from prationality.selftest import suite_ef_sum
from prationality.torsion import condition2_holds

EX62 = (27, -4, 0, 1)  # x^3 - 4x + 27
EX63 = (3, 0, -2, 0, 1)  # x^4 - 2x^2 + 3


def test_make_field_signatures():
    K = make_field(EX62)
    assert K.n == 3 and K.signature == (1, 1) and K.criterion_eligible
    L = make_field(EX63)
    assert L.n == 4 and L.signature == (0, 2) and L.criterion_eligible
    M = make_field((-2, 0, 1))  # x^2 - 2: data carrier only
    assert M.n == 2 and M.signature == (2, 0) and not M.criterion_eligible
    assert make_field((1, 0, 1)).signature == (0, 1)
    assert make_field((-2, 0, 0, 1)).signature == (1, 1)
    assert make_field((1, -3, 0, 1)).signature == (3, 0)  # x^3 - 3x + 1
    assert make_field((2, 0, -4, 0, 1)).signature == (4, 0)  # x^4 - 4x^2 + 2
    assert make_field((-2, 0, 0, 0, 1)).signature == (2, 1)


def test_real_root_count():
    # the former Sturm cases; x^2 - 1 is refused as reducible, so its two
    # real roots are read from the signature rule directly
    for f, r1 in ((EX62, 1), (EX63, 0), ((-1, 0, 1), 2)):
        assert _real_root_count(f, discriminant(f)) == r1


def test_make_field_rejects_reducible():
    for f, reason in [
        ((-1, 0, 0, 1), "rational root"),  # x^3 - 1 has root 1
        ((-8, 0, 0, 1), "rational root"),  # x^3 - 8 has root 2
        ((-1, 0, 0, 0, 1), "rational root"),  # x^4 - 1
        ((0, 0, 1), "squarefree"),  # x^2
        ((1, 2, 3, 2, 1), "squarefree"),  # (x^2+x+1)^2
        ((1, 0, 2, 0, 1), "squarefree"),  # (x^2+1)^2
        ((4, 0, 5, 0, 1), "quadratic factor"),  # (x^2+1)(x^2+4)
        ((2, 0, 3, 0, 1), "quadratic factor"),  # (x^2+1)(x^2+2)
        ((4, 0, 0, 0, 1), "quadratic factor"),  # (x^2+2x+2)(x^2-2x+2)
        # (x^2+1)(x^3+x+1): irreducibility is only decided up to degree 4
        ((1, 1, 1, 2, 0, 1), "degree <= 4"),
    ]:
        with pytest.raises(ValueError, match=reason):
            make_field(f)


def test_make_field_basis_validation():
    first = "first basis element must be 1"
    lattice = "does not contain the power basis lattice"
    with pytest.raises(ValueError, match=first):
        make_field(EX62, basis=[[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match=lattice):  # det 2: misses a^2
        make_field(EX62, basis=[[1, 0, 0], [0, 1, 0], [0, 2, 2]])
    # Dedekind's x^3 - x^2 - 2x - 8: O_K = <1, a, (a^2 + a)/2>.  Both bases
    # span index-2 suborders of O_K of determinant 1 that miss a itself.
    f = (-8, -2, -1, 1)
    half = Fraction(1, 2)
    for basis in ([[1, 0, 0], [0, 2, 0], [0, half, half]],
                  [[1, 0, 0], [0, 3 * half, half], [0, 1, 1]]):
        with pytest.raises(ValueError, match=lattice):
            make_field(f, basis=basis)
    with pytest.raises(ValueError, match="singular"):
        make_field(f, basis=[[1, 0, 0], [0, 1, 0], [0, 2, 0]])
    with pytest.raises(ValueError, match=first):
        make_field(f, basis=[[half, 0, 0], [0, 1, 0], [0, 0, 1]])
    # contains Z[a] with index 2, but (a^2/2)^2 = (3a^2 + 10a + 8)/4 is outside
    with pytest.raises(ValueError, match="do not span an order"):
        make_field(f, basis=[[1, 0, 0], [0, 1, 0], [0, 0, half]])


def test_power_coords_roundtrip_on_bundled_records():
    rng = random.Random(2024)
    for record in (bundled_records("table1") + bundled_records("table2")
                   + bundled_records("examples")):
        K = record.build_field()
        for _ in range(20):
            x = FieldElement(tuple(rng.randint(-50, 50) for _ in range(K.n)),
                             rng.randint(1, 12)).normalized()
            assert K.element_from_power_coords(*K.to_power_coords(x)) == x


def test_mul_reduction_by_defining_relation():
    K = make_field(EX62)
    alpha = FieldElement((0, 1, 0))
    alpha2 = FieldElement((0, 0, 1))
    prod = K.mul(alpha, alpha2)
    assert prod.coords == (-27, 4, 0) and prod.den == 1
    assert K.equals(K.mul(K.one(), alpha), alpha)


def test_mul_paper_g_squared():
    # g = -835 + 265a - 77(a^2-3) = -604 + 265a - 77a^2
    K = make_field(EX62)
    g = FieldElement((-604, 265, -77))
    g2 = K.mul(g, g)
    # 2027557 - 643443a + 186957(a^2-3) = 1466686 - 643443a + 186957a^2
    assert g2.coords == (2027557 - 3 * 186957, -643443, 186957)


def test_norm_examples():
    K = make_field(EX62)
    eps = FieldElement((-3280, -3462, -729))
    assert abs(K.norm(eps)) == 1
    for p in (5, 7, 11):
        Kp = make_field((1 - p**3, 0, 0, 1))
        assert Kp.norm(FieldElement((0, 1, 0, 0)[: Kp.n])) == p**3 - 1
        assert Kp.norm(Kp.from_int(p)) == p**3


def test_norm_is_multiplicative():
    rng = random.Random(5150)
    K = make_field(EX63)
    for _ in range(500):
        a = FieldElement(tuple(rng.randint(-9, 9) for _ in range(4)))
        b = FieldElement(tuple(rng.randint(-9, 9) for _ in range(4)))
        assert K.norm(K.mul(a, b)) == K.norm(a) * K.norm(b)
        d = rng.randint(2, 9)
        assert K.norm(FieldElement(a.coords, d)) == K.norm(a) / d**4


def _inverse_by_char_poly(K, a, c):
    """a^-1 = -(a^(n-1) + c_(n-1) a^(n-2) + ... + c_1) / c_0 for a unit a
    with characteristic polynomial c."""
    acc = K.zero()
    for ci in reversed(c[1:]):
        acc = K.add(K.mul(acc, a), K.from_int(ci))
    inv = K.mul(acc, K.from_int(-c[0]))  # c_0 = +-1
    assert K.equals(K.mul(a, inv), K.one())
    return inv


def _char_poly_by_det(K, x):
    """det(t I - M) / den^n for M = mul_matrix(x) and den = x.den, as
    Fractions, interpolated from t = 0..n: the structure-constant reference
    for char_poly, also where x is not integral."""
    n, m = K.n, K.mul_matrix(x)
    out = [Fraction(0)] * (n + 1)
    for t in range(n + 1):
        value = Fraction(det_bareiss(
            [[t * x.den * (i == j) - m[j][i] for j in range(n)]
             for i in range(n)]), x.den**n)
        lagrange = (Fraction(1),)  # prod over s != t of (T - s) / (t - s)
        for s in range(n + 1):
            if s != t:
                lagrange = poly_mul(lagrange, (Fraction(-s, t - s),
                                               Fraction(1, t - s)))
        out = [o + value * c for o, c in zip(out, lagrange)]
    return tuple(out)


def test_char_poly_matches_determinant_on_bundled_units():
    # on every bundled field, basis_den > 1 included: the units, their
    # negatives and inverses, and random elements over denominators, whose
    # power coordinates carry the basis denominator too; a ValueError
    # exactly where the reference is not integral.  On cubic units c is
    # minimal_poly_spec's companion polynomial
    rng = random.Random(1931)
    cubic = integral = refused = with_basis_den = 0
    for name in ("table1", "table2", "examples"):
        for record in bundled_records(name):
            K = record.build_field()
            with_basis_den += K.basis_den > 1
            eps = record.unit_element()
            c = K.char_poly(eps)
            units = (eps, FieldElement(tuple(-x for x in eps.coords), eps.den),
                     _inverse_by_char_poly(K, eps, c))
            for unit in units:
                c = K.char_poly(unit)
                assert len(c) == K.n + 1 and c[-1] == 1 and abs(c[0]) == 1
                assert c == _char_poly_by_det(K, unit), (record.label, unit)
                if K.n == 3:
                    assert minimal_poly_spec(K, unit).companion_poly == c
                    cubic += 1
            for _ in range(6):
                den = rng.choice([1, 2, 3, 4, 6])
                x = FieldElement(tuple(rng.randint(-30, 30) * rng.choice([1, den])
                                       for _ in range(K.n)), den)
                ref = _char_poly_by_det(K, x)
                if all(r.denominator == 1 for r in ref):
                    assert K.char_poly(x) == ref, (record.label, x)
                    integral += 1
                else:
                    with pytest.raises(ValueError, match="not integral"):
                        K.char_poly(x)
                    refused += 1
    assert cubic > 100 and with_basis_den > 20
    assert integral > 100 and refused > 100


def test_char_poly_refuses_non_integral_and_checks_cayley_hamilton(
        monkeypatch):
    K = make_field(EX62)
    assert K.char_poly(FieldElement((0, 1, 0))) == EX62
    assert K.char_poly(FieldElement((0, 3, 0), 3)) == EX62
    with pytest.raises(ValueError, match="not integral"):
        K.char_poly(FieldElement((0, 1, 0), 3))  # t^3 - 4t/9 + 1
    with pytest.raises(ValueError, match="not integral"):
        minimal_poly_spec(K, FieldElement((0, 1, 0), 3))
    with pytest.raises(ValueError, match="not integral"):
        condition2_holds(K, 5, FieldElement((0, 1, 0), 3),
                         squarefree_parts(K, 5))
    # a wrong trace Tr(1) = 4, not 3, makes Tr(alpha^3) = Tr(4 alpha - 27)
    # = -108: the power sums of alpha give t^3 - 4t + 36, which alpha does
    # not satisfy
    assert K._traces == (3, 0, 8)
    monkeypatch.setattr(K, "_traces", (4, 0, 8))
    with pytest.raises(InvariantViolation):
        K.char_poly(FieldElement((0, 1, 0)))


def test_structure_constants_are_built_on_first_use(monkeypatch):
    # a power-basis record's load, table cells and recurrence cross-checks
    # build no structure constants; a basis with a denominator builds them
    # once, at load, to check that its rows span an order
    bundled = [r for name in ("table1", "table2", "examples")
               for r in bundled_records(name)]
    power = records_to_csv([r for r in bundled if r.integral_basis is None])
    with_den = records_to_csv([next(r for r in bundled_records("table1")
                                    if r.build_field().basis_den > 1)])
    calls = []
    original = NumberField._structure_constants

    def counted(K):
        calls.append(K.poly)
        return original(K)

    monkeypatch.setattr(NumberField, "_structure_constants", counted)
    records = load_records(io.StringIO(power))
    assert len(records) > 20
    reproduce_table(records, 5, 29)
    checked = 0
    for record in records:
        if record.degree != 3:
            continue
        K, unit = record.build_field(), record.unit_element()
        spec = minimal_poly_spec(K, unit)
        for p in primes_up_to(29):
            if p >= 5 and spec.companion_disc % p:
                cross_check(K, unit, spec, p)
                checked += 1
    assert checked > 100 and calls == []
    [record] = load_records(io.StringIO(with_den))
    K = record.build_field()
    assert calls == [K.poly]
    K.mul(record.unit_element(), record.unit_element())
    K.norm(record.unit_element())
    assert calls == [K.poly]


def _dedekind(f, p):
    return dedekind_p_maximal(f, p, factor_mod_p(f, p))


def test_dedekind_examples():
    assert _dedekind(make_field(EX62).poly, 3) is True
    assert _dedekind(make_field(EX63).poly, 5) is True
    for p in (3, 5, 7, 11):
        assert _dedekind((-(p**2), 0, 1), p) is False


def test_split_prime_examples():
    K = make_field(EX62)
    facs = split_prime(K, 3)
    assert sorted((pf.e, pf.f) for pf in facs) == [(1, 1), (1, 1), (1, 1)]
    assert {pf.generator.coeffs for pf in facs} == {(0, 1), (1, 1), (2, 1)}
    facs2 = split_prime(K, 2)
    assert sorted((pf.e, pf.f) for pf in facs2) == [(1, 1), (1, 2)]
    gens = {pf.f: pf.generator.coeffs for pf in facs2}
    assert gens[1] == (1, 1)  # alpha + 1
    assert gens[2] == (1, 1, 1)  # alpha^2 + alpha + 1 = alpha^2 - alpha + 1 mod 2
    L = make_field(EX63)
    facs3 = split_prime(L, 5)
    assert [(pf.e, pf.f) for pf in facs3] == [(1, 4)]


def test_split_prime_totally_ramified_via_dedekind():
    # x^4-x^3+x^2-x+1: disc(f) = 125, Z[alpha] maximal, 5 totally ramified
    K = make_field((1, -1, 1, -1, 1))
    assert discriminant(K.poly) % 5 == 0
    facs = split_prime(K, 5)
    assert [(pf.e, pf.f) for pf in facs] == [(4, 1)]


def test_split_prime_factors_once_at_a_dedekind_prime(factor_mod_p_calls):
    # p = 5 divides disc(f) = 125 and the order is the power basis, so the
    # Dedekind test runs; it reuses the one factorization of f mod 5
    K = make_field((1, -1, 1, -1, 1))
    split_prime(K, 5)
    assert factor_mod_p_calls == [(K.poly, 5)]


def test_split_prime_refuses_without_certificate():
    # x^2 - p^2 is reducible so use a genuine index-divisible case:
    # f = x^3 - x^2 - 2x - 8 has index 2 at p = 2 (classical Dedekind example)
    K = make_field((-8, -2, -1, 1))
    assert K.poly_disc % 2 == 0
    assert _dedekind(K.poly, 2) is False
    with pytest.raises(SplittingUndetermined):
        split_prime(K, 2)


def test_ef_sum_fuzz():
    _, ok, detail = suite_ef_sum()
    assert ok, detail


def test_ef_sum_fails_on_factors_that_do_not_multiply_back(monkeypatch):
    # every (e, f) kept, so e*f still sums to n, but each generator is x^f
    def wrong_generators(K, p):
        return [replace(pf, generator=ModPoly((0,) * pf.f + (1,), p))
                for pf in split_prime(K, p)]

    monkeypatch.setattr(selftest, "split_prime", wrong_generators)
    name, ok, detail = suite_ef_sum(20)
    assert name == "ef-sum" and not ok and detail.startswith("f=")


def test_ideal_hnf_examples():
    K = make_field(EX62)
    P1 = ideal_from_two_generators(K, 3, ModPoly((0, 1), 3))
    assert P1.norm == 3
    Q = ideal_from_two_generators(K, 2, ModPoly((1, 1, 1), 2))
    assert Q.norm == 4
    L = make_field(EX63)
    inert = split_prime(L, 5)[0]
    P5 = ideal_from_two_generators(L, 5, inert.generator)
    assert P5.norm == 5**4
    assert P5.rows == tuple(
        tuple(5 * int(i == j) for j in range(4)) for i in range(4)
    )


def test_ideal_multiply_examples():
    K = make_field(EX62)
    facs = split_prime(K, 3)
    ideals = [ideal_from_two_generators(K, 3, pf.generator) for pf in facs]
    prod = ideals[0]
    for I in ideals[1:]:
        prod = ideal_multiply(K, prod, I)
    assert prod.rows == tuple(
        tuple(3 * int(i == j) for j in range(3)) for i in range(3)
    )
    # norm multiplicativity on a degree-1 prime
    sq = ideal_multiply(K, ideals[0], ideals[0])
    assert sq.norm == 9
    # A * O_K = A
    assert ideal_multiply(K, ideals[0], identity_ideal(K)).rows == ideals[0].rows


def test_ideal_pow_norm():
    K = make_field(EX62)
    pf = split_prime(K, 2)[1]  # the f = 2 factor
    A = ideal_from_two_generators(K, 2, pf.generator)
    for k in range(4):
        assert ideal_pow(K, A, k).norm == 4**k


def test_ideal_contains_examples():
    K = make_field(EX62)
    pf = split_prime(K, 3)[0]
    P = ideal_from_two_generators(K, 3, pf.generator)
    assert ideal_contains(K, P, K.from_int(3))
    assert not ideal_contains(K, P, K.one())
    three_ok = principal_ideal(K, K.from_int(3))
    # alpha + 2 is not in 3 O_k
    assert not ideal_contains(K, three_ok, FieldElement((2, 1, 0)))


def test_pow_mod_examples():
    L = make_field(EX63)
    eps = FieldElement((-2, -1, 1, 1))
    r = L.pow_mod(eps, 5**4 - 1, 25)
    assert r.coords == (1, 5, 0, 15)
    K = make_field(EX62)
    eps62 = FieldElement((-3280, -3462, -729))
    r2 = K.pow_mod(eps62, 2, 9)
    assert r2.coords == (7, 3, 0)  # 1 + 3(alpha + 2)
    a = FieldElement((2, 5, 1))
    assert K.pow_mod(a, 1, 49).coords == (2, 5, 1)
    assert K.pow_mod(a, 0, 49) == K.one()
    assert K.power_coords_mod(FieldElement((1, 1, 0), 7), 9) == [4, 4, 0]
    for bad in ((a, -1, 49), (K.zero(), 0, 49),
                (FieldElement((1, 1, 0), 7), 2, 49)):
        with pytest.raises(ValueError):
            K.pow_mod(*bad)


def test_pow_mod_agrees_with_repeated_mul():
    rng = random.Random(2718)
    K = make_field(EX62)
    L = make_field(EX63)
    for _ in range(200):
        F = rng.choice([K, L])
        a = FieldElement(tuple(rng.randint(-6, 6) for _ in range(F.n)))
        e = rng.randint(1, 9)
        m = rng.choice([9, 25, 49, 121])
        acc = F.one()
        for _ in range(e):
            acc = F.mul(acc, a)
        expected = tuple(c % m for c in acc.coords)
        assert F.pow_mod(a, e, m).coords == expected


def test_element_from_power_coords_roundtrip():
    K = make_field(EX63)
    x = K.element_from_power_coords((1, 2, 3, 4), 1)
    assert x.coords == (1, 2, 3, 4)
    assert K.to_power_coords(x) == ((1, 2, 3, 4), 1)


def test_nonpower_basis_order():
    # Z[alpha] for x^3 - x^2 - 2x - 8 is not 2-maximal; the maximal order
    # contains (alpha^2 + alpha)/2 (Dedekind's classical example).
    f = (-8, -2, -1, 1)
    basis = [
        [1, 0, 0],
        [0, 1, 0],
        [0, Fraction(1, 2), Fraction(1, 2)],
    ]
    K = make_field(f, basis=basis)
    assert K.index == 2
    assert K.field_disc == discriminant(poly(f)) // 4
    # arithmetic over the larger order stays exact:
    # N((a^2+a)/2) = N(a)N(a+1)/8 = 8*8/8 = 8
    theta = FieldElement((0, 0, 1))
    assert K.norm(theta) == 8
    assert K.norm(FieldElement((0, 0, 1), 3)) == Fraction(8, 27)
    # p = 2 divides both disc(f) and the basis denominator: refuse
    with pytest.raises(SplittingUndetermined):
        split_prime(K, 2)
    # odd primes coprime to disc(f) still split fine over this basis
    facs = split_prime(K, 5)
    assert sum(pf.e * pf.f for pf in facs) == 3
