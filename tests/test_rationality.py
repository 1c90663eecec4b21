import random

import pytest

from prationality.errors import PrecisionExhausted, SplittingUndetermined
from prationality.families import pure_cubic_scan
from prationality import rationality, ring
from prationality.harness import (
    CELL_ERROR,
    FieldRecord,
    bundled_records,
    reproduce_table,
)
from prationality.numberfield import (
    FieldElement,
    certified_parts,
    ideal_pow,
    identity_ideal,
    make_field,
    principal_ideal,
    split_prime,
)
from prationality.rationality import (
    PRECISION_CAP,
    AuxIdealData,
    NOT_APPLICABLE,
    NOT_P_RATIONAL,
    P_RATIONAL,
    SPLIT_CYCLIC_INDEX,
    TRIVIAL_CLASS_NUMBER,
    UNDETERMINED,
    VERDICT_UNDETERMINED,
    condition1,
    verdict,
)
from test_torsion import _first_prime_above, _unit_inverse

EX62 = (27, -4, 0, 1)
EX63 = (3, 0, -2, 0, 1)

EPS62 = FieldElement((-3280, -3462, -729))
EPS63 = FieldElement((-2, -1, 1, 1))
AUX62 = AuxIdealData(q=2, gen_poly=(1, 1), power_gen=(-604, 265, -77))
G62 = FieldElement((-604, 265, -77))


def _scalar_log(u: int, p: int, k: int) -> int:
    """Reference: log(u) mod p^k for an integer u = 1 mod p, p odd, by
    the truncated series term by term in Z/p^(k+a).  A term m > 2k is 0:
    v(x^m / m) >= m - log_3(m) >= m / 2 > k, at any p."""
    pk = p**k
    x = (u - 1) % pk
    total = 0
    for m in range(1, 2 * k + 1):
        a, mm = 0, m
        while mm % p == 0:
            a, mm = a + 1, mm // p
        # v(x^m) >= m > a, and x mod p^k fixes x^m / p^a mod p^k
        term = pow(x, m, p ** (k + a)) // p**a * pow(mm, -1, pk)
        total += term if m % 2 else -term
    return total % pk


def _valuation(x: int, p: int):
    """v_p(x) for x != 0, None for 0."""
    if x == 0:
        return None
    v = 0
    while x % p == 0:
        x, v = x // p, v + 1
    return v


def _embed(K, x, root: int, p: int, k: int) -> int:
    """Image of x in Z/p^k under alpha -> root."""
    m = p**k
    coeffs, den = x
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * root + c) % m
    return acc * pow(den, -1, m) % m


def _reference_at_precision(K, p, g, unit, k):
    """The Log-index decision at precision k in the p completions: alpha
    goes to the Hensel lifts of the n roots of f mod p, and each embedding
    takes the scalar log."""
    roots = [ring.hensel_lift_root(K.poly, p, (-pf.generator[0]) % p, k)
             for pf in split_prime(K, p)]
    pk = p**k
    u_res, w_res = [], []
    for root in roots:
        gi = _embed(K, g, root, p, k)
        if gi % p == 0:
            raise ValueError("generator is not a unit at p")
        li = _scalar_log(pow(gi, p - 1, pk), p, k)
        assert li % p == 0
        u_res.append((li // p) * pow(p - 1, -1, pk) % p ** (k - 1))
        w_res.append(_scalar_log(pow(_embed(K, unit, root, p, k), p - 1, pk),
                                 p, k))
    known = [v for v in (_valuation(w, p) for w in w_res) if v is not None]
    if not known or min(known) >= k - 1:
        raise PrecisionExhausted("unit logs vanish at the working precision")
    m = min(known)
    wbar = [(w // p**m) % p for w in w_res]
    ubar = [u % p for u in u_res]
    pivot = next(i for i, w in enumerate(wbar) if w != 0)
    c = ubar[pivot] * pow(wbar[pivot], -1, p) % p
    return 1 if all(u == c * w % p for u, w in zip(ubar, wbar)) else p


def _reference_log_index(K, p, g, unit):
    """The embedding path with condition1's precision ladder."""
    k = 4
    while True:
        try:
            return _reference_at_precision(K, p, g, unit, k)
        except PrecisionExhausted:
            if 2 * k > PRECISION_CAP:
                raise
            k *= 2


def _outcome(decide, *args):
    try:
        return decide(*args)
    except PrecisionExhausted:
        return "PrecisionExhausted"


def test_condition1_trivial_class_number():
    L = make_field(EX63)
    rep = condition1(L, 5, class_number=1, unit=EPS63,
                     parts=certified_parts(L, 5))
    assert rep.branch == TRIVIAL_CLASS_NUMBER and rep.holds is True


def test_condition1_without_class_number_is_undetermined():
    L = make_field(EX63)
    rep = condition1(L, 5, class_number=None, unit=EPS63,
                     parts=certified_parts(L, 5))
    assert rep.branch == UNDETERMINED and rep.holds is None
    assert rep.detail == "class number unknown"


@pytest.mark.parametrize("h", [0, -5])
def test_condition1_refuses_nonpositive_class_number(deadline, h):
    # h = 0 once hung in the loop dividing h by p
    K = make_field(EX62)
    with deadline(5), pytest.raises(ValueError, match="must be positive"):
        condition1(K, 3, class_number=h, unit=EPS62,
                   parts=certified_parts(K, 3), aux=AUX62)


def test_condition1_split_cyclic_example_62():
    K = make_field(EX62)
    rep = condition1(K, 3, class_number=3, unit=EPS62,
                     parts=certified_parts(K, 3), aux=AUX62)
    assert rep.branch == SPLIT_CYCLIC_INDEX
    assert rep.index == 3
    assert rep.holds is True


def test_verdict_hands_its_parts_to_condition1(monkeypatch):
    # the split-cyclic branch reads complete splitting off the verdict's
    # parts and never computes them again
    calls = []
    original = rationality.certified_parts

    def counted(K, p):
        calls.append(p)
        return original(K, p)

    monkeypatch.setattr(rationality, "certified_parts", counted)
    K = make_field(EX62)
    v = verdict(K, 3, unit=EPS62, class_number=3, aux=AUX62)
    assert v.condition1.branch == SPLIT_CYCLIC_INDEX and calls == [3]
    calls.clear()
    v = verdict(K, 5, unit=EPS62, class_number=5, aux=AUX62)
    assert v.condition1.detail == "p is not completely split"
    assert calls == [5]


def test_condition1_undetermined_without_aux():
    K = make_field(EX62)
    rep = condition1(K, 3, class_number=3, unit=EPS62,
                     parts=certified_parts(K, 3))
    assert rep.branch == UNDETERMINED and rep.holds is None


def test_condition1_takes_x_to_the_p_once(x_power_calls, kernel_builds):
    # complete splitting is tested once, on the verdict's parts, by x^p
    # from ring.x_power: no kernel mod p is built (the Log index builds
    # its own at p^k, k >= 4)
    K = make_field(EX62)
    parts = certified_parts(K, 3)
    del x_power_calls[:], kernel_builds[:]
    rep = condition1(K, 3, class_number=3, unit=EPS62, parts=parts, aux=AUX62)
    assert rep.index == 3
    assert x_power_calls == [(EX62, 3, 3)]
    assert kernel_builds and all(m % 81 == 0 for _, m in kernel_builds)


def test_log_index_skips_the_undecidable_k_2_round(monkeypatch):
    # at k = 2 the unit's log, divisible by p, always vanishes mod p^(k - 1)
    K = make_field(EX62)
    with pytest.raises(PrecisionExhausted):
        rationality._log_index_at_precision(K, 3, G62, EPS62, 2)
    seen = []
    original = rationality._log_index_at_precision

    def spy(K, p, g, unit, k):
        seen.append(k)
        return original(K, p, g, unit, k)

    monkeypatch.setattr(rationality, "_log_index_at_precision", spy)
    rep = condition1(K, 3, class_number=3, unit=EPS62,
                     parts=certified_parts(K, 3), aux=AUX62)
    assert rep.index == 3 and seen == [4]


def test_log_index_invariant_under_principal_unit_shift():
    # g' = g * (1 + 9 alpha) differs from g by a unit at 3 that is 1 mod 9;
    # (g') is no longer Q^3, so compare the raw decisions at each precision
    K = make_field(EX62)
    g2 = K.mul(G62, FieldElement((1, 9, 0)))
    for k in (3, 4, 8):
        assert rationality._log_index_at_precision(K, 3, G62, EPS62, k) == 3
        assert rationality._log_index_at_precision(K, 3, g2, EPS62, k) == 3


def test_log_index_matches_embedding_reference_on_example_62():
    K = make_field(EX62)
    for k in range(2, PRECISION_CAP + 1):
        assert (_outcome(rationality._log_index_at_precision,
                         K, 3, G62, EPS62, k)
                == _outcome(_reference_at_precision, K, 3, G62, EPS62, k)), k
    rep = condition1(K, 3, class_number=3, unit=EPS62,
                     parts=certified_parts(K, 3), aux=AUX62)
    assert rep.index == _reference_log_index(K, 3, G62, EPS62) == 3


def test_log_index_matches_embedding_reference_on_bundled_records():
    # the raw decision at fixed precision on power-basis coordinates against
    # the Hensel-embedding reference, for every bundled record and completely
    # split odd p <= 60 with a seeded g, and with g = eps * h^p, whose
    # Log lies on the unit's line (index 1 whenever it is decided)
    rng = random.Random(14)
    outcomes = set()
    records = (bundled_records("table1") + bundled_records("table2")
               + bundled_records("examples"))
    for record in records:
        K, unit = record.build_field(), record.unit_element()
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
            try:
                if len(split_prime(K, p)) != K.n:
                    continue
            except SplittingUndetermined:
                continue
            g, h = (FieldElement(tuple(rng.randint(-9, 9) for _ in range(K.n)))
                    for _ in range(2))
            hp = K.one()
            for _ in range(p):
                hp = K.mul(hp, h)
            for x in (g, K.mul(unit, hp)):
                if K.norm(x) % p == 0:
                    continue
                for k in (2, 4, 8):
                    got = _outcome(rationality._log_index_at_precision,
                                   K, p, x, unit, k)
                    assert got == _outcome(_reference_at_precision,
                                           K, p, x, unit, k), (record.label, p, k)
                    outcomes.add(got if got == "PrecisionExhausted" else got == p)
    assert outcomes == {"PrecisionExhausted", True, False}


def test_log_principal_matches_embeddings_at_a_large_split_prime():
    # ring.log_principal at the first p > 2^64 where ex. 6.2's f splits
    # completely, on eps^(p-1) and seeded principal units, against the
    # scalar log at each Hensel-lifted root of f, where evaluation is a ring
    # isomorphism (Z/p^k)[x]/(f) -> (Z/p^k)^3 that commutes with log
    K = make_field(EX62)
    p = _first_prime_above(2**64)
    while not ring.splits_completely(*ring.x_power(K.poly, p, p), p):
        p = _first_prime_above(p)
        assert p < 2**64 + 2**16
    assert K.poly_disc % p
    rng = random.Random(64)
    for k in (2, 3, 5):
        pk = p**k
        roots = [ring.hensel_lift_root(K.poly, p, -g[0] % p, k)
                 for g, _ in ring.factor_mod_p(K.poly, p)]
        assert len(roots) == 3
        eps = ring.powmod(K.power_coords_mod(EPS62, pk), p - 1, K.poly, pk)
        for a in [eps] + [tuple(int(i == 0) + p * rng.randrange(pk)
                                for i in range(3)) for _ in range(4)]:
            log_a = FieldElement(tuple(ring.log_principal(a, K.poly, p, k)))
            for root in roots:
                u = _embed(K, FieldElement(tuple(a)), root, p, k)
                assert (_embed(K, log_a, root, p, k)
                        == _scalar_log(u, p, k)), (k, a, root)


def test_log_index_principal_ideal_gives_one():
    K = make_field(EX62)
    # find a small element of norm prime to 3, use Q0 = (g0), g = g0^3
    g0 = None
    for a in range(-4, 5):
        for b in range(-4, 5):
            for c in range(-4, 5):
                cand = FieldElement((a, b, c))
                n = K.norm(cand)
                if n != 0 and abs(n) % 3 != 0 and abs(n) > 1:
                    g0 = cand
                    break
            if g0:
                break
        if g0:
            break
    assert g0 is not None
    Q0 = principal_ideal(K, g0)
    g = K.mul(K.mul(g0, g0), g0)
    assert principal_ideal(K, g).rows == ideal_pow(K, Q0, 3).rows
    assert rationality._log_index_at_precision(K, 3, g, EPS62, 4) == 1


def test_log_index_validates_generator():
    K = make_field(EX62)
    with pytest.raises(ValueError, match="does not generate"):
        condition1(K, 3, class_number=3, unit=EPS62,
                   parts=certified_parts(K, 3),
                   aux=AUX62._replace(power_gen=(1, 1, 0)))


def test_log_index_refuses_a_prime_that_is_not_completely_split():
    # x^3 - 4x + 27 mod 5 has one root and an irreducible quadratic factor
    K = make_field(EX62)
    assert sorted((pf.e, pf.f) for pf in split_prime(K, 5)) == [(1, 1), (1, 2)]
    rep = condition1(K, 5, class_number=5, unit=EPS62,
                     parts=certified_parts(K, 5), aux=AUX62)
    assert rep.branch == UNDETERMINED and rep.holds is None
    assert rep.detail == "p is not completely split"


def test_log_index_invariant_under_unit_changes():
    # the unit's line is the same for -eps, eps^-1 and eps^2, and g * eps
    # generates Q^3 as g does
    K = make_field(EX62)
    parts = certified_parts(K, 3)
    ge = K.mul(G62, EPS62)
    assert ge.den == 1
    cases = [(FieldElement(tuple(-c for c in EPS62.coords)), AUX62),
             (_unit_inverse(K, EPS62), AUX62),
             (K.mul(EPS62, EPS62), AUX62),
             (EPS62, AUX62._replace(power_gen=ge.coords))]
    for unit, aux in cases:
        rep = condition1(K, 3, class_number=3, unit=unit, parts=parts, aux=aux)
        assert (rep.branch, rep.index) == (SPLIT_CYCLIC_INDEX, 3)


def test_log_index_invariant_under_shift_of_alpha():
    rec = [r for r in bundled_records("examples") if r.poly_coeffs == EX62][0]
    for c in (-2, -1, 1, 2):
        shifted = _shifted_record(rec, c)
        K = shifted.build_field()
        rep = condition1(K, 3, class_number=3, unit=shifted.unit_element(),
                         parts=certified_parts(K, 3), aux=shifted.aux)
        assert (rep.branch, rep.index) == (SPLIT_CYCLIC_INDEX, 3), c


def test_verdict_examples():
    K = make_field(EX62)
    v = verdict(K, 3, unit=EPS62, class_number=3, aux=AUX62)
    assert v.status == P_RATIONAL

    L = make_field(EX63)
    v = verdict(L, 5, unit=EPS63, class_number=1)
    assert v.status == P_RATIONAL

    # Q(zeta_10) at p = 5: totally ramified guard
    K10 = make_field((1, -1, 1, -1, 1))
    golden = FieldElement((1, 0, 1, -1))
    v = verdict(K10, 5, unit=golden, class_number=1)
    assert v.status == NOT_APPLICABLE


def test_verdict_never_factors_on_the_split_cyclic_branch(
        factor_mod_p_calls, distinct_degree_calls):
    # complete splitting is read off x^p on the kernel, as the pure-cubic
    # scan reads its splitting off t^p in Z[t]/(mu, p^2), checked against
    # the closed form there: neither splits a polynomial by degree
    rec = [r for r in bundled_records("examples") if r.poly_coeffs == EX62][0]
    K = rec.build_field()
    v = verdict(K, 3, unit=rec.unit_element(), class_number=rec.class_number,
                aux=rec.aux)
    assert (v.condition1.branch, v.condition1.index) == (SPLIT_CYCLIC_INDEX, 3)
    assert len(pure_cubic_scan(5, 200)) == 44
    assert factor_mod_p_calls == distinct_degree_calls == []


@pytest.mark.parametrize("poly, unit, h, p", [
    (EX63, EPS63, 1, 5),  # unramified
    (EX62, EPS62, 3, 19427),  # disc(f) = -19427: ramified, Dedekind-certified
], ids=["unramified", "ramified"])
def test_verdict_does_not_factor_at_p_prime_to_h(factor_mod_p_calls,
                                                 ideal_calls, poly, unit, h, p):
    K = make_field(poly)
    v = verdict(K, p, unit=unit, class_number=h)
    assert v.status == P_RATIONAL
    assert factor_mod_p_calls == []
    assert ideal_calls == []


@pytest.mark.parametrize("poly, unit, h, p", [
    (EX63, EPS63, 1, 5),  # unramified: the Frobenius-lift congruence
    (EX62, EPS62, 3, 19427),  # ramified: the radical-cofactor residue
], ids=["unramified", "ramified"])
def test_verdict_never_splits_by_degree_nor_calls_pow_mod(
        distinct_degree_calls, pow_mod_calls, poly, unit, h, p):
    # both branches of condition (2) run on the Z[x]/(f, p^2) kernel from
    # the radical parts alone: no residue degrees, no structure constants
    K = make_field(poly)
    v = verdict(K, p, unit=unit, class_number=h)
    assert v.status == P_RATIONAL
    assert distinct_degree_calls == []
    assert pow_mod_calls == []


def _shifted_poly(coeffs, c, length):
    """sum a_i (x - c)^i, padded with zeros to length."""
    out = ()
    for a in reversed(coeffs):
        out = ring.poly_add(ring.poly_mul(out, (-c, 1)), (a,))
    return tuple(out) + (0,) * (length - len(out))


def _shifted_record(record, c):
    """The record over alpha + c: the polynomial f(x - c), with the unit,
    the basis rows and the auxiliary ideal data composed with x - c."""
    n = record.degree
    aux = record.aux
    if aux is not None:
        aux = AuxIdealData(aux.q, _shifted_poly(aux.gen_poly, c, 0),
                           _shifted_poly(aux.power_gen, c, n))
    basis = record.integral_basis
    if basis is not None:
        basis = tuple(_shifted_poly(row, c, n) for row in basis)
    return FieldRecord(
        label=record.label,
        poly_coeffs=_shifted_poly(record.poly_coeffs, c, n + 1),
        class_number=record.class_number,
        unit_coeffs=_shifted_poly(record.unit_coeffs, c, n),
        unit_den=record.unit_den,
        integral_basis=basis,
        aux=aux,
    )


def test_verdicts_invariant_under_shift_of_alpha():
    # alpha -> alpha + c changes the lifts of the radical parts of f mod p
    # and every coordinate, but neither the field, the unit nor the index
    records = (bundled_records("table1") + bundled_records("table2")
               + bundled_records("examples"))
    base = reproduce_table(records, 5, 100)
    assert all(CELL_ERROR not in row.cells.values() for row in base)
    for c in (-2, -1, 1, 2):
        shifted = reproduce_table([_shifted_record(r, c) for r in records],
                                  5, 100)
        assert [row.cells for row in shifted] == [row.cells for row in base], c


def _unimodular_record(record):
    """The record over the basis b1 + b2, b1 + 2 b2 (b1 += b2, then
    b2 += b1): a change of basis of the same order that keeps b0 = 1 and
    is not triangular."""
    b = list(record.integral_basis)
    b[1] = tuple(x + y for x, y in zip(b[1], b[2]))
    b[2] = tuple(x + y for x, y in zip(b[2], b[1]))
    return record._replace(integral_basis=tuple(b))


def test_verdicts_invariant_under_unimodular_change_of_basis():
    # the order, so its index, its discriminant, its ideals and every
    # verdict, does not depend on the basis that spans it; the changed basis
    # matrices are full, so their integer inverses are too
    records = [r for name in ("table1", "table2", "examples")
               for r in bundled_records(name) if r.integral_basis is not None]
    assert records
    changed = [_unimodular_record(r) for r in records]
    rng = random.Random(7)
    for record, other in zip(records, changed):
        K, L = record.build_field(), other.build_field()
        assert L.basis != K.basis
        assert (L.index, L.field_disc) == (K.index, K.field_disc)
        assert other.unit_element() == record.unit_element()
        # d O_K and the ideals in power coordinates do not see the basis
        assert identity_ideal(L) == identity_ideal(K)
        for _ in range(20):
            x = FieldElement(tuple(rng.randint(-50, 50) for _ in range(L.n)))
            assert principal_ideal(L, x) == principal_ideal(K, x)
    base = reproduce_table(records, 5, 100)
    assert all(CELL_ERROR not in row.cells.values() for row in base)
    assert ([row.cells for row in reproduce_table(changed, 5, 100)]
            == [row.cells for row in base])


def test_verdict_undetermined_when_p_divides_h():
    # x^3 - x^2 + 7x - 6 with h = 5 at p = 5 must come out Undetermined
    K = make_field((-6, 7, -1, 1))
    # a synthetic unit is fine for exercising the plumbing here as long as it
    # has norm +-1; use a real unit of the field computed offline
    # N(x) for x = a + b*alpha + c*alpha^2 ... search a small true unit
    unit = None
    for a in range(-9, 10):
        for b in range(-9, 10):
            for c in range(-9, 10):
                cand = FieldElement((a, b, c))
                if abs(K.norm(cand)) == 1 and (a, b, c) not in ((1, 0, 0), (-1, 0, 0)):
                    unit = cand
                    break
            if unit:
                break
        if unit:
            break
    if unit is None:
        pytest.skip("no small unit found for the synthetic check")
    v = verdict(K, 5, unit=unit, class_number=5)
    assert v.status in (VERDICT_UNDETERMINED, NOT_P_RATIONAL)
    if v.status == VERDICT_UNDETERMINED:
        assert "classNumberDivisible" in v.reasons
        assert "condition1Undetermined" in v.reasons
