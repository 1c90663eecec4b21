import random
from dataclasses import replace

import pytest

from prationality.errors import PrecisionExhausted, SplittingUndetermined
from prationality import rationality, ring
from prationality.harness import (
    CELL_ERROR,
    FieldRecord,
    bundled_records,
    reproduce_table,
)
from prationality.numberfield import (
    FieldElement,
    ideal_from_two_generators,
    make_field,
    part_shapes,
    principal_ideal,
    split_prime,
    squarefree_parts,
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
    log_index_split_cyclic,
    verdict,
)
from prationality.ring import ModPoly

EX62 = (27, -4, 0, 1)
EX63 = (3, 0, -2, 0, 1)

EPS62 = FieldElement((-3280, -3462, -729))
EPS63 = FieldElement((-2, -1, 1, 1))
AUX62 = AuxIdealData(q=2, gen_poly=(1, 1), power_gen=(-604, 265, -77))
G62 = FieldElement((-604, 265, -77))


def _q62(K):
    return ideal_from_two_generators(K, 2, ModPoly((1, 1), 2))


def _scalar_log(u: int, p: int, k: int) -> int:
    """Reference: log(u) mod p^k for an integer u = 1 mod p, p odd, by
    the truncated series term by term in Z/p^(k+a)."""
    pk = p**k
    x = (u - 1) % pk
    total = 0
    for m in range(1, k * p // (p - 1) + p + 1):
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
    coeffs, den = K.to_power_coords(x)
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * root + c) % m
    return acc * pow(den, -1, m) % m


def _reference_at_precision(K, p, g, unit, k):
    """The Log-index decision at precision k in the p completions: alpha
    goes to the Hensel lifts of the n roots of f mod p, and each embedding
    takes the scalar log."""
    roots = [ring.hensel_lift_root(K.poly, p, (-pf.generator.coeffs[0]) % p, k)
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


def _reference_log_index(K, p, g, unit, precision):
    """The embedding path with the engine's precision doubling."""
    k = max(precision, 2)
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


def _inverse(K, x):
    """x^-1 for a unit x of the order: the solution y of x * y = 1."""
    cols = K.mul_matrix(x)
    a = [[cols[j][i] for j in range(K.n)] for i in range(K.n)]
    det, adj = ring.det_adjugate(a)
    sign = 1 if det > 0 else -1
    y = FieldElement(tuple(sign * row[0] * x.den for row in adj),
                     abs(det)).normalized()
    assert K.equals(K.mul(x, y), K.one())
    return y


def test_condition1_trivial_class_number():
    L = make_field(EX63)
    rep = condition1(L, 5, class_number=1, unit=EPS63)
    assert rep.branch == TRIVIAL_CLASS_NUMBER and rep.holds is True


def test_condition1_requires_class_number():
    L = make_field(EX63)
    with pytest.raises(ValueError):
        condition1(L, 5, class_number=None, unit=EPS63)


@pytest.mark.parametrize("h", [0, -5])
def test_condition1_refuses_nonpositive_class_number(deadline, h):
    # h = 0 once hung in the loop dividing h by p
    K = make_field(EX62)
    with deadline(5), pytest.raises(ValueError, match="must be positive"):
        condition1(K, 3, class_number=h, unit=EPS62, aux=AUX62)


def test_condition1_split_cyclic_example_62():
    K = make_field(EX62)
    rep = condition1(K, 3, class_number=3, unit=EPS62, aux=AUX62)
    assert rep.branch == SPLIT_CYCLIC_INDEX
    assert rep.index == 3
    assert rep.holds is True


def test_condition1_undetermined_without_aux():
    K = make_field(EX62)
    rep = condition1(K, 3, class_number=3, unit=EPS62)
    assert rep.branch == UNDETERMINED and rep.holds is None


def test_log_index_example_62_at_low_precision():
    K = make_field(EX62)
    Q = _q62(K)
    assert log_index_split_cyclic(K, 3, Q, G62, EPS62, precision=2) == 3
    # doubling precision never changes a decided index
    assert log_index_split_cyclic(K, 3, Q, G62, EPS62, precision=4) == 3
    assert log_index_split_cyclic(K, 3, Q, G62, EPS62, precision=8) == 3


def test_log_index_skips_the_undecidable_k_2_round(monkeypatch):
    # at k = 2 the unit's log, divisible by p, always vanishes mod p^(k - 1)
    K = make_field(EX62)
    Q = _q62(K)
    with pytest.raises(PrecisionExhausted):
        rationality._log_index_at_precision(K, 3, G62, EPS62, 2)
    seen = []
    original = rationality._log_index_at_precision

    def spy(K, p, g, unit, k):
        seen.append(k)
        return original(K, p, g, unit, k)

    monkeypatch.setattr(rationality, "_log_index_at_precision", spy)
    for precision in (1, 2):
        assert log_index_split_cyclic(K, 3, Q, G62, EPS62,
                                      precision=precision) == 3
    assert seen and min(seen) == 4


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
    Q = _q62(K)
    for k in range(2, PRECISION_CAP + 1):
        assert (log_index_split_cyclic(K, 3, Q, G62, EPS62, precision=k)
                == _reference_log_index(K, 3, G62, EPS62, k) == 3), k


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
                if part_shapes(squarefree_parts(K, p)) != ((1, 1),) * K.n:
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
    assert log_index_split_cyclic(K, 3, Q0, g, EPS62,
                                  precision=4) == 1


def test_log_index_validates_generator():
    K = make_field(EX62)
    with pytest.raises(ValueError):
        log_index_split_cyclic(K, 3, _q62(K), FieldElement((1, 1, 0)), EPS62)


def test_log_index_refuses_a_prime_that_is_not_completely_split():
    # x^3 - 4x + 27 mod 5 has one root and an irreducible quadratic factor
    K = make_field(EX62)
    assert sorted(part_shapes(squarefree_parts(K, 5))) == [(1, 1), (1, 2)]
    g0 = FieldElement((2, 1, 0))  # N(2 + alpha) = -f(-2) = -27
    g = K.one()
    for _ in range(5):
        g = K.mul(g, g0)
    with pytest.raises(ValueError, match="not completely split"):
        log_index_split_cyclic(K, 5, principal_ideal(K, g0), g, EPS62)


def test_log_index_invariant_under_unit_changes():
    # the unit's line is the same for -eps, eps^-1 and eps^2, and g * eps
    # generates Q^3 as g does
    K = make_field(EX62)
    Q = _q62(K)
    units = (FieldElement(tuple(-c for c in EPS62.coords)),
             _inverse(K, EPS62), K.mul(EPS62, EPS62))
    for unit in units:
        assert log_index_split_cyclic(K, 3, Q, G62, unit, precision=4) == 3
    assert log_index_split_cyclic(K, 3, Q, K.mul(G62, EPS62), EPS62,
                                  precision=4) == 3


def test_log_index_invariant_under_shift_of_alpha():
    rec = [r for r in bundled_records("examples") if r.poly_coeffs == EX62][0]
    for c in (-2, -1, 1, 2):
        shifted = _shifted_record(rec, c)
        K = shifted.build_field()
        rep = condition1(K, 3, class_number=3, unit=shifted.unit_element(),
                         aux=shifted.aux)
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


def test_verdict_never_factors_on_the_split_cyclic_branch(factor_mod_p_calls):
    rec = [r for r in bundled_records("examples") if r.poly_coeffs == EX62][0]
    K = rec.build_field()
    v = verdict(K, 3, unit=rec.unit_element(), class_number=rec.class_number,
                aux=rec.aux)
    assert (v.condition1.branch, v.condition1.index) == (SPLIT_CYCLIC_INDEX, 3)
    assert factor_mod_p_calls == []


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
    # the squarefree parts alone: no residue degrees, no structure constants
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
                           _shifted_poly(aux.power_gen, c, n),
                           aux.power_gen_den)
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
    # alpha -> alpha + c changes the lifts of the squarefree parts of f mod p
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
    return replace(record, integral_basis=tuple(b), _field=None, _unit=None)


def test_verdicts_invariant_under_unimodular_change_of_basis():
    # the order, so its index, its discriminant and every verdict, does not
    # depend on the basis that spans it; the changed basis matrices are full,
    # so their integer inverses are too
    records = [r for name in ("table1", "table2", "examples")
               for r in bundled_records(name) if r.integral_basis is not None]
    assert records
    changed = [_unimodular_record(r) for r in records]
    rng = random.Random(7)
    for record, other in zip(records, changed):
        K, L = record.build_field(), other.build_field()
        assert L.basis != K.basis
        assert (L.index, L.field_disc) == (K.index, K.field_disc)
        assert (L.to_power_coords(other.unit_element())
                == K.to_power_coords(record.unit_element()))
        for _ in range(20):
            x = FieldElement(tuple(rng.randint(-50, 50) for _ in range(L.n)),
                             rng.randint(1, 12)).normalized()
            assert L.element_from_power_coords(*L.to_power_coords(x)) == x
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
