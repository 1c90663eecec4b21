import random
from collections import Counter
from math import isqrt, lcm, log

import pytest

from prationality.errors import InvariantViolation, SplittingUndetermined
from prationality.families import primes_up_to
from prationality.harness import bundled_records
from prationality.numberfield import (
    FieldElement,
    certified_parts,
    ideal_contains,
    ideal_from_two_generators,
    ideal_pow,
    make_field,
    radical_cofactor,
    radical_parts,
    split_prime,
)
from prationality import rationality, ring, torsion
from prationality.ring import (MR_BASES, MR_BOUND, _strong_probable_prime,
                               degree, derivative, det_adjugate, mulmod, poly,
                               poly_add, poly_mul, poly_rem, poly_sub, powmod)
from prationality.rationality import (NOT_P_RATIONAL, P_RATIONAL,
                                      TORSION_NONTRIVIAL, verdict)
from prationality.torsion import applicability_guard, condition2, condition2_holds

EX62 = (27, -4, 0, 1)
EX63 = (3, 0, -2, 0, 1)
# the first primes above 2^16, 2^32 and 2^64
LARGE_PRIMES = (65537, 4294967311, 18446744073709551629)


def _pow_by_mul(K, a, k, m):
    """a^k mod m by square-and-multiply over exact products mod f, a's
    denominator inverted mod m; the reference for NumberField.pow_mod."""
    def mul_mod(x, y):
        return tuple(c % m for c in poly_rem(poly_mul(x, y), K.poly))

    dinv = pow(a.den, -1, m)
    result, base = (1,), tuple(c * dinv % m for c in a.coords)
    while k:
        if k & 1:
            result = mul_mod(result, base)
        k >>= 1
        base = mul_mod(base, base)
    return FieldElement(result + (0,) * (K.n - len(result)))


def _congruent_by_hnf(K, p, pf, residue):
    """residue = 1 (mod P^(e+1)) for P = pf, by HNF ideal membership; the
    reference for condition2's cofactor congruence."""
    first = ideal_from_two_generators(K, p, pf.generator)
    x = K.sub(residue, K.one())
    assert ideal_contains(K, first, x), "Fermat check"
    return ideal_contains(K, ideal_pow(K, first, pf.e + 1), x)


def _hnf_report(K, p, unit, factors):
    """(residue, congruent) per prime factor, the residue
    eps^(p^f - 1) mod p^(e+1) by _pow_by_mul, congruent by HNF."""
    out = []
    for pf in factors:
        r = _pow_by_mul(K, unit, p**pf.f - 1, p ** (pf.e + 1))
        out.append((r.coords, _congruent_by_hnf(K, p, pf, r)))
    return out


def _hnf_holds(K, p, unit, factors):
    """Condition (2) by the HNF reference: some P is not congruent."""
    return not all(congruent for _, congruent in _hnf_report(K, p, unit, factors))


# (degree, multiplicity) of the random factors of one f mod p
FACTOR_SHAPES = (
    ((2, 1),), ((1, 1), (1, 1)), ((1, 2),),
    ((3, 1),), ((2, 1), (1, 1)), ((1, 2), (1, 1)), ((1, 3),),
    ((4, 1),), ((3, 1), (1, 1)), ((2, 1), (2, 1)), ((2, 1), (1, 1), (1, 1)),
    ((2, 2),), ((1, 2), (2, 1)), ((1, 2), (1, 1), (1, 1)), ((1, 2), (1, 2)),
    ((1, 3), (1, 1)), ((1, 4),),
)


def test_radical_parts_and_degree_multiple_match_factor_mod_p():
    # f mod p a product of random monic factors to chosen multiplicities,
    # so that repeated factors occur, at 5 <= p <= 100: the radical,
    # cofactor and largest multiplicity against factor_mod_p, and the F the
    # cofactor path takes is a multiple of every residue degree
    rng = random.Random(41)
    primes = primes_up_to(100)[2:]
    seen = Counter()
    for _ in range(700):
        p, f = rng.choice(primes), (1,)
        for d, m in rng.choice(FACTOR_SHAPES):
            g = tuple(rng.randrange(p) for _ in range(d)) + (1,)
            for _ in range(m):
                f = poly(c % p for c in poly_mul(f, g))
        factors = ring.factor_mod_p(f, p)
        parts = radical_parts(f, p)
        assert parts == (*radical_cofactor(factors, p),
                         max(m for _, m in factors)), (f, p)
        F = torsion._degree_multiple(f, p, parts, ring.discriminant(f))
        assert all(F % degree(g) == 0 for g, _ in factors), (f, p, F)
        seen[tuple(sorted((m, degree(g)) for g, m in factors))] += 1
    # inert cubics and quartics, 1 + 3, and ramified quartics with a
    # quadratic factor, where F = 2 is needed
    assert {((1, 3),), ((1, 4),), ((1, 1), (1, 3)), ((2, 2),),
            ((1, 2), (2, 1)), ((3, 1),), ((4, 1),)} <= set(seen), seen


# x^3 + 3x + 3 = x^3 and x^4 - x^3 + 3x^2 + 3x + 3 = x^3 (x - 1) mod 3: a
# multiplicity equal to p, where gcd(f, f') mod p is not the cofactor
MULTIPLICITY_P = ((3, 3, 0, 1), (3, 3, 3, -1, 1))


def test_verdict_at_p_2_and_3_follows_split_prime():
    # on every bundled record and the two fields above, the verdict refuses
    # p = 2 and 3 where split_prime does, and otherwise gives the guard
    # reason that split_prime's largest e gives
    cases = [(record.build_field(), record.unit_element())
             for name in ("table1", "table2", "examples")
             for record in bundled_records(name)]
    cases += [(make_field(f), FieldElement((0, 1) + (0,) * (len(f) - 3)))
              for f in MULTIPLICITY_P]
    seen = Counter()
    for K, unit in cases:
        assert K.criterion_eligible
        for p in (2, 3):
            try:
                factors = split_prime(K, p)
            except SplittingUndetermined:
                with pytest.raises(SplittingUndetermined):
                    verdict(K, p, unit=unit, class_number=1)
                seen["refused"] += 1
                continue
            reason = applicability_guard(K, p, max(pf.e for pf in factors))
            v = verdict(K, p, unit=unit, class_number=1)
            assert (v.guard_reason or None) == reason, (K.poly, p)
            seen[reason] += 1
    assert len(seen) == 4, seen  # refused, p = 2, ramified 3, admitted 3
    for f, radical in zip(MULTIPLICITY_P, ((0, 1), (0, 2, 1))):
        fbar = poly(c % 3 for c in f)
        assert ring._mp_gcd(fbar, derivative(fbar), 3) == (0, 0, 0, 1)
        assert radical_parts(f, 3) == (radical, (0, 0, 1), 3)


def test_guard_examples():
    K10 = make_field((1, -1, 1, -1, 1))
    guard = applicability_guard(K10, 5, certified_parts(K10, 5).max_e)
    assert guard is not None and "ramified" in guard
    assert guard == applicability_guard(
        K10, 5, max(pf.e for pf in split_prime(K10, 5)))
    K = make_field(EX62)
    assert applicability_guard(K, 3, certified_parts(K, 3).max_e) is None
    assert applicability_guard(K, 2, certified_parts(K, 2).max_e) is not None


def test_condition2_example_63():
    L = make_field(EX63)
    eps = FieldElement((-2, -1, 1, 1))
    factors = split_prime(L, 5)
    rep = condition2(L, 5, eps, factors)
    assert rep.holds
    entry = rep.per_prime[0]
    assert entry.exponent == 624
    assert entry.residue == (1, 5, 0, 15)
    assert not entry.congruent


def test_condition2_example_62():
    K = make_field(EX62)
    eps = FieldElement((-3280, -3462, -729))
    factors = split_prime(K, 3)
    rep = condition2(K, 3, eps, factors)
    assert rep.holds
    # the paper's global form: eps^2 = 1 + 3(alpha+2), alpha+2 not in 3 O_k
    assert K.pow_mod(eps, 2, 9).coords == (7, 3, 0)


def test_condition2_requires_unit():
    K = make_field(EX62)
    with pytest.raises(ValueError):
        condition2(K, 3, FieldElement((2, 0, 0)), split_prime(K, 3))
    with pytest.raises(ValueError):
        condition2_holds(K, 3, FieldElement((2, 0, 0)), certified_parts(K, 3))
    eps = FieldElement((-3280, -3462, -729))
    with pytest.raises(ValueError):
        condition2_holds(K, 2, eps, certified_parts(K, 2))
    # disc(f) = -19427, a prime: 19427 ramifies with e = 2 < p and is decided
    # like any other prime
    parts = certified_parts(K, 19427)  # f = g h^2, g and h linear
    assert (degree(parts.radical), degree(parts.cofactor), parts.max_e) == (
        2, 1, 2)
    factors = split_prime(K, 19427)
    holds = condition2_holds(K, 19427, eps, parts)
    assert holds == condition2(K, 19427, eps, factors).holds
    assert holds == _hnf_holds(K, 19427, eps, factors)
    # x^3 + 3x + 3 is Eisenstein at 3, so f = x^3 (mod 3) with m = p
    E = make_field((3, 3, 0, 1))
    with pytest.raises(ValueError, match="exceed every multiplicity"):
        condition2_holds(E, 3, E.one(), certified_parts(E, 3))


def test_sign_and_inversion_invariance():
    K = make_field(EX62)
    eps = FieldElement((-3280, -3462, -729))
    rng = random.Random(11)
    primes = [3, 5, 7, 11, 13]
    for p in primes:
        factors = split_prime(K, p)
        if applicability_guard(K, p, max(pf.e for pf in factors)) is not None:
            continue
        base = condition2(K, p, eps, factors).holds
        assert base == _hnf_holds(K, p, eps, factors)
        neg = condition2(K, p, FieldElement(tuple(-c for c in eps.coords)), factors)
        assert neg.holds == base
        # inverse unit: solve eps * x = 1 via pow_mod with group order trick:
        # norm(eps) = -1 so eps^{-1} = -conjugate-product; compute exactly
        inv = _unit_inverse(K, eps)
        assert K.equals(K.mul(eps, inv), K.one())
        assert condition2(K, p, inv, factors).holds == base


def _unit_inverse(K, eps):
    # multiplication by eps on the power basis is A / den; its inverse
    # den * adj(A) / det(A) sends 1 = e1 to eps^-1
    n = K.n
    cols = [K.mul(FieldElement(eps.coords), K.element_from_power_coords(
        (0,) * j + (1,))).coords for j in range(n)]
    rows = [[cols[j][i] for j in range(n)] for i in range(n)]
    det, adj = det_adjugate(rows)
    sign = 1 if det > 0 else -1
    return FieldElement(tuple(sign * eps.den * adj[i][0] for i in range(n)),
                        abs(det)).normalized()


def test_report_determinism():
    K = make_field(EX62)
    eps = FieldElement((-3280, -3462, -729))
    factors = split_prime(K, 3)
    a = condition2(K, 3, eps, factors)
    b = condition2(K, 3, eps, factors)
    assert a == b


# (label, w, power coordinates, denominator) of a generator of the roots of
# unity of each bundled field with w > 2; all ten fields are in table2
ROOTS_OF_UNITY = (
    ("x^4-x^3+x^2-x+1", 10, (0, 0, -1, 0), 1),
    ("x^4+1", 8, (0, -1, 0, 0), 1),
    ("x^4-2*x^2+4", 6, (2, 0, -1, 0), 2),
    ("x^4+2*x^2+4", 6, (0, 0, -1, 0), 2),
    ("x^4-2*x^3-2*x+5", 4, (3, 1, 0, -1), 1),
    ("x^4-x^3-4*x^2+4*x+7", 6, (-4, 1, 2, -1), 1),
    ("x^4-x^3-2*x^2-3*x+9", 6, (9, 2, -2, -1), 6),
    ("x^4-2*x^3-4*x^2+5*x+7", 6, (3, 1, -1, 0), 1),
    ("x^4-2*x^3-3*x^2+4*x+5", 4, (2, 1, -1, 0), 1),
    ("x^4+9", 4, (0, 0, -1, 0), 3),
)


def roots_of_unity():
    """(record, w, zeta) per ROOTS_OF_UNITY entry, zeta in the record's field."""
    records = {r.label: r for r in bundled_records("table2")}
    for label, w, coords, den in ROOTS_OF_UNITY:
        record = records[label]
        yield record, w, record.build_field().element_from_power_coords(coords, den)


def test_roots_of_unity_have_their_order():
    # ROOTS_OF_UNITY is hand-kept data: each zeta must have order exactly w
    for record, w, zeta in roots_of_unity():
        K = record.build_field()
        with pytest.raises(ValueError, match="unit is a root of unity"):
            K.unit_min_poly(zeta)
        power = zeta
        for _ in range(w - 1):
            assert not K.equals(power, K.one()), record.label
            power = K.mul(power, zeta)
        assert K.equals(power, K.one()), record.label


def test_torsion_never_changes_condition2():
    # the guard admits no p dividing w, so zeta^(p^f-1) = 1 and every
    # eps * zeta^j has the report of eps
    for record, w, zeta in roots_of_unity():
        K = record.build_field()
        eps = record.unit_element()
        for p in primes_up_to(100):
            try:
                factors = split_prime(K, p)
            except SplittingUndetermined:
                continue
            if applicability_guard(K, p, max(pf.e for pf in factors)) is not None:
                continue
            assert w % p != 0, (record.label, p)
            base = condition2(K, p, eps, factors)
            variant = eps
            for _ in range(w - 1):
                variant = K.mul(variant, zeta)
                assert condition2(K, p, variant, factors) == base, (record.label, p)
                assert _hnf_holds(K, p, variant, factors) == base.holds, (
                    record.label, p)


def _random_unit_fields():
    """Seeded random monic cubics and quartics with f(0) = +-1, so that alpha
    is a unit: (K, alpha) pairs."""
    rng = random.Random(20231)
    fields = 0
    while fields < 120:
        n = rng.choice([3, 4])
        middle = tuple(rng.randint(-12, 12) for _ in range(n - 1))
        f = (rng.choice([1, -1]),) + middle + (1,)
        try:
            K = make_field(f)
        except ValueError:
            continue
        fields += 1
        yield K, FieldElement((0, 1) + (0,) * (n - 2))


def test_completely_split_matches_split_prime():
    # x^p = x on the kernel of f mod p against n prime factors from
    # split_prime, at every certified p <= 300 and at three large primes
    # prime to disc(f), on every bundled record and the random unit fields
    fields = [record.build_field() for name in ("table1", "table2", "examples")
              for record in bundled_records(name)]
    fields += [K for K, _ in _random_unit_fields()]
    seen = Counter()
    for K in fields:
        large = [q for q in LARGE_PRIMES if K.poly_disc % q]
        for p in primes_up_to(300) + large:
            try:
                factors = split_prime(K, p)
            except SplittingUndetermined:
                continue
            split = len(factors) == K.n
            parts = certified_parts(K, p)
            assert rationality._completely_split(K, p, parts) is split, (
                K.poly, p)
            seen[split, p in large] += 1
    assert len(seen) == 4, seen


def _power(K, x, k):
    out = K.one()
    for _ in range(k):
        out = K.mul(out, x)
    return out


def test_global_test_matches_report_on_random_unit_fields():
    # at odd p prime to disc(f), where the radical cofactor c is 1, one
    # residue eps^(p^F - 1) mod p^2 decides condition (2) for every prime
    # factor; k = (p^F - 1)/(p^f - 1) = 1 (mod p) also when p divides F/f,
    # as for degrees (1, 3) at p = 3
    cells = 0
    p3_shape_13 = 0
    for K, alpha in _random_unit_fields():
        for p in (3, 5, 7, 11, 13):
            if K.poly_disc % p == 0:
                continue
            factors = split_prime(K, p)
            parts = certified_parts(K, p)
            assert parts == (K.poly, (1,), 1), (K.poly, p)
            shapes = sorted((pf.e, pf.f) for pf in factors)
            fast = condition2_holds(K, p, alpha, parts)
            assert fast == condition2(K, p, alpha, factors).holds, (K.poly, p)
            assert fast == _hnf_holds(K, p, alpha, factors), (K.poly, p)
            cells += 1
            p3_shape_13 += p == 3 and shapes == [(1, 1), (1, 3)]
    assert cells > 400
    assert p3_shape_13 > 0


def test_condition2_matches_hnf_on_random_unit_fields():
    # the residue eps^(p^F - 1) mod p^2 times the radical cofactor c decides
    # condition (2) like the per-P HNF report at every certified prime the
    # guard admits, ramified ones included.  The unit alpha^p fails
    # condition (2) everywhere, since (1 + P)/(1 + P^(e+1)) has exponent p;
    # at ramified p only c tells that apart from a witness.  F is a common
    # multiple of the residue degrees that is not always their lcm, as for
    # p = P1 P2 P3^2 in a quartic, all of degree 1, where F = 2
    ramified = {False: 0, True: 0}  # keyed by "holds"
    coarse_F = 0
    for K, alpha in _random_unit_fields():
        for p in primes_up_to(60):
            try:
                factors = split_prime(K, p)
            except SplittingUndetermined:
                continue
            if applicability_guard(K, p, max(pf.e for pf in factors)) is not None:
                continue
            parts = certified_parts(K, p)
            assert (poly(c % p for c in parts.radical), parts.cofactor,
                    parts.max_e) == (*radical_cofactor(
                        [(pf.generator, pf.e) for pf in factors], p),
                        max(pf.e for pf in factors)), (K.poly, p)
            is_ramified = any(pf.e > 1 for pf in factors)
            for unit in (alpha, _power(K, alpha, p)):
                holds = _hnf_holds(K, p, unit, factors)
                assert condition2(K, p, unit, factors).holds == holds, (K.poly, p)
                assert condition2_holds(K, p, unit, parts) == holds, (K.poly, p)
                ramified[holds] += is_ramified
            if is_ramified:
                coarse_F += (torsion._degree_multiple(K.poly, p, parts,
                                                      K.poly_disc)
                             != lcm(*(pf.f for pf in factors)))
    assert ramified[False] > 0 and ramified[True] > 0
    assert coarse_F > 0


def test_per_prime_report_matches_hnf_and_products_mod_f():
    # every per-P decision and residue of condition2 against HNF membership
    # and powering by products mod f: on every bundled record at every
    # certified p <= 300, p = 2 and e >= p included, and on the random unit
    # fields at p <= 13
    cases = [(record.build_field(), record.unit_element(), primes_up_to(300))
             for name in ("table1", "table2", "examples")
             for record in bundled_records(name)]
    cases += [(K, alpha, primes_up_to(13)) for K, alpha in _random_unit_fields()]
    seen = Counter()
    for K, unit, primes in cases:
        for p in primes:
            try:
                factors = split_prime(K, p)
            except SplittingUndetermined:
                continue
            report = condition2(K, p, unit, factors)
            assert [(entry.residue, entry.congruent)
                    for entry in report.per_prime] == _hnf_report(
                        K, p, unit, factors), (K.poly, p)
            for pf, entry in zip(factors, report.per_prime):
                seen["ramified"] += pf.e > 1
                seen["congruent"] += entry.congruent
                seen["ramified congruent"] += pf.e > 1 and entry.congruent
                seen["p = 2"] += p == 2
                seen["e >= p"] += pf.e >= p
    assert min(seen.values()) > 0 and len(seen) == 5, seen


def test_frobenius_lift_matches_exponent_form_on_bundled_records():
    # at odd p not dividing disc(f), the congruence eps^p = phi(eps)
    # (mod p^2) decides condition (2) like the slow exponent form
    # eps^(p^F - 1) != 1 (mod p^2), F the lcm of the residue degrees
    cells = {False: 0, True: 0}  # keyed by "holds"
    for name in ("table1", "table2", "examples"):
        for record in bundled_records(name):
            K = record.build_field()
            eps = record.unit_element()
            for p in primes_up_to(200)[1:]:
                if K.poly_disc % p == 0:
                    continue
                parts = certified_parts(K, p)
                F = lcm(*(pf.f for pf in split_prime(K, p)))
                slow = K.pow_mod(eps, p**F - 1, p * p) != K.one()
                holds = condition2_holds(K, p, eps, parts)
                assert holds == slow, (record.label, p)
                cells[holds] += 1
    assert cells[False] > 0 and cells[True] > 1000


def _list_frobenius_defect(f, p, e):
    """X = f'(gamma)(eps^p - e(gamma)) + e'(gamma) f(gamma) in
    Z[x]/(f, p^2) on coefficient lists, gamma = x^p, e the coordinates of
    eps at p not dividing disc(f): phi(alpha) = gamma - f(gamma)/f'(gamma)
    (mod p^2) is one Newton step from gamma, so X = 0 iff eps^p = phi(eps),
    iff condition (2) fails; X = f(gamma) at e = x.  The reference for
    condition2_holds, which decides without it."""
    pp, n = p * p, degree(f)
    powers = [(1,), powmod((0, 1), p, f, pp)]
    while len(powers) <= n:
        powers.append(mulmod(powers[-1], powers[1], f, pp))
    cols = [w + (0,) * (n - len(w)) for w in powers]

    def at_gamma(g):
        return poly(sum(c * w[i] for c, w in zip(g, cols)) % pp
                    for i in range(n))

    u = powmod(e, p, f, pp)
    e_g, f_g = at_gamma(e), at_gamma(f)
    d = poly_sub(u, e_g)
    assert not any(c % p for c in f_g + d), "Fermat check"
    return poly(c % pp for c in poly_add(
        mulmod(at_gamma(derivative(f)), d, f, pp),
        mulmod(at_gamma(derivative(e)), f_g, f, pp)))


def test_condition2_holds_matches_list_frobenius_defect_on_bundled_records():
    # condition2_holds against the list X in Z[x]/(f, p^2) on the unit's
    # coordinates at every odd p <= 300 not dividing disc(f), at p = 1699
    # for ex. 6.2 and at the first primes above 2^16, 2^64 and 2^100, whose
    # slots are the widest the kernel's folds read.  Where p does not divide
    # disc(mu), mu the unit's minimal polynomial, the packed X = mu(gamma) in
    # Z[t]/(mu, p^2) is the list X there at e = t.  The cells where p divides
    # disc(chi), chi the characteristic polynomial, are those that took
    # Z[x]/(f, p^2) before mu: the two quartics whose unit lies in a
    # quadratic subfield, decided in Z[t]/(mu, p^2), and primes dividing
    # [O_k : Z[eps]], decided by the radical cofactor
    cells = {False: 0, True: 0}  # keyed by "holds"
    mu_ring, cofactor = set(), set()  # (label, p) where p divides disc(chi)
    for name in ("table1", "table2", "examples"):
        for record in bundled_records(name):
            K = record.build_field()
            eps = record.unit_element()
            mu, disc_mu = K.unit_min_poly(eps)
            disc_chi = ring.discriminant(K.char_poly(eps))
            primes = (primes_up_to(300)[1:] + [1699] * (K.poly == EX62)
                      + WIDE_PRIMES)
            for p in primes:
                if K.poly_disc % p == 0:
                    continue
                pp = p * p
                expected = _list_frobenius_defect(
                    K.poly, p, K.power_coords_mod(eps, pp))
                if disc_mu % p:
                    k = ring.kernel(mu, pp)
                    packed = ring.frobenius_defect(mu, p)[2]
                    by_mu = _list_frobenius_defect(mu, p, (0, 1))
                    assert k.unpack(packed) == by_mu, (record.label, p)
                    assert bool(by_mu) == bool(expected), (record.label, p)
                if disc_chi % p == 0:
                    (mu_ring if disc_mu % p else cofactor).add((record.label, p))
                holds = condition2_holds(K, p, eps, certified_parts(K, p))
                assert holds == bool(expected), (record.label, p)
                cells[holds] += 1
    assert cells[False] > 0 and cells[True] > 1000
    assert {("x^3-4*x+27", 3), ("x^3-4*x+27", 1699)} <= cofactor
    assert {label for label, _ in mu_ring} == {"x^4+4*x^2+2",
                                               "x^4-2*x^3+5*x^2-4*x+2"}
    assert len(mu_ring) > 100 and len(cofactor) < 30


def _is_prime(n):
    """Deterministic Miller-Rabin: the first 13 prime bases suffice below
    3.3 * 10^24 (Sorenson-Webster, Math. Comp. 86, 2017), every base
    a <= 2 (ln n)^2 above it (Bach, Math. Comp. 55, 1990, under GRH)."""
    if n < 2 or n % 2 == 0:
        return n == 2
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    bases = (small if n < 3317044064679887385961981
             else range(2, int(2 * log(n) ** 2) + 1))
    for a in bases:
        x = pow(a, d, n)
        if a % n == 0 or x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _first_prime_above(n):
    p = n + 1 + n % 2
    while not _is_prime(p):
        p += 2
    return p


WIDE_PRIMES = [_first_prime_above(2**k) for k in (16, 64, 100)]
LADDER = [_first_prime_above(2**k)
          for k in (16, 20, 24, 31, 32, 40, 61, 64, 100)]


def test_condition2_holds_matches_report_at_large_primes():
    # the kernel's slots widen with p: at the first prime above 2^k, up to
    # p^2 > 2^200, condition2_holds against the per-P report on every
    # bundled record
    assert LADDER[0] == 65537 and LADDER[7] == LARGE_PRIMES[2]
    pairs = 0
    for name in ("table1", "table2", "examples"):
        for record in bundled_records(name):
            K = record.build_field()
            eps = record.unit_element()
            for p in LADDER:
                factors = split_prime(K, p)
                assert applicability_guard(K, p, max(pf.e for pf in factors)) is None
                holds = condition2_holds(K, p, eps, certified_parts(K, p))
                assert holds == condition2(K, p, eps, factors).holds, (
                    record.label, p)
                pairs += 1
    assert pairs == 9 * 49


def test_condition2_holds_matches_report_on_random_fields_at_large_primes():
    # the same ladder on the random unit fields: slots wider than 200 bits
    # go through every fold of the kernel, the top one included, and each
    # splitting shape of a cubic and of a quartic is met
    shapes = set()
    for K, alpha in _random_unit_fields():
        for p in LADDER:
            factors = split_prime(K, p)
            holds = condition2_holds(K, p, alpha, certified_parts(K, p))
            assert holds == condition2(K, p, alpha, factors).holds, (K.poly, p)
            shapes.add(tuple(sorted((pf.e, pf.f) for pf in factors)))
    assert len(shapes) == 8, shapes


def test_one_pth_power_per_unramified_verdict(kernel_builds,
                                              frobenius_defect_calls):
    # at p prime to disc(f) and disc(c) condition (2) is decided in
    # Z[t]/(c, p^2), where eps = t: one frobenius_defect, which takes
    # gamma = t^p itself, and no kernel built
    K = make_field(EX62)
    eps = FieldElement((-3280, -3462, -729))
    c = K.char_poly(eps)
    primes = [p for p in primes_up_to(300)[1:]
              if K.poly_disc % p and ring.discriminant(c) % p]
    del kernel_builds[:]
    for p in primes:
        verdict(K, p, unit=eps, class_number=1)
    assert frobenius_defect_calls == [(c, p) for p in primes]
    assert kernel_builds == []


def test_unit_of_a_quadratic_subfield_takes_its_own_ring(kernel_builds,
                                                         frobenius_defect_calls):
    # the unit of x^4 + 4x^2 + 2 lies in a quadratic subfield: its
    # characteristic polynomial is mu^2, disc = 0, and every unramified p
    # not dividing disc(mu) is decided in Z[t]/(mu, p^2) with deg mu = 2,
    # by one frobenius_defect and no kernel; the others by the cofactor on
    # kernel(f, p^2)
    record = next(r for r in bundled_records("table2")
                  if r.label == "x^4+4*x^2+2")
    K = record.build_field()
    eps = record.unit_element()
    mu, disc_mu = K.unit_min_poly(eps)
    assert len(mu) == 3 and K.char_poly(eps) == poly_mul(mu, mu)
    cells = 0
    for p in primes_up_to(100)[1:]:
        if K.poly_disc % p == 0:
            continue
        parts = certified_parts(K, p)
        F = lcm(*(pf.f for pf in split_prime(K, p)))
        slow = K.pow_mod(eps, p**F - 1, p * p) != K.one()
        del kernel_builds[:], frobenius_defect_calls[:]
        assert condition2_holds(K, p, eps, parts) == slow, p
        if disc_mu % p:
            assert frobenius_defect_calls == [(mu, p)], p
            assert kernel_builds == [], p
        else:
            assert frobenius_defect_calls == [], p
            assert kernel_builds == [(K.poly, p * p)], p
        cells += disc_mu % p != 0
    assert cells > 20


def test_ramified_p_prime_to_disc_mu_takes_the_units_ring(
        kernel_builds, frobenius_defect_calls):
    # q ramifies in Q(sqrt 2, sqrt -q), the root field of
    # x^4 + 2(q - 2)x^2 + (q + 2)^2, but not in Q(1 + sqrt 2): the unit's
    # ring decides by one frobenius_defect and no kernel, and agrees with
    # the per-P report, the HNF reference and the Z[sqrt 2] oracle, which
    # fails at the Pell-Wieferich primes 13 and 31; likewise the bundled
    # quartic with that unit at 17, which ramifies there
    record = next(r for r in bundled_records("table2")
                  if r.label == "x^4-2*x^3+5*x^2-4*x+2")
    cells = [(record.build_field(), record.unit_element(), 17)] + [
        (make_field(((q + 2) ** 2, 0, 2 * (q - 2), 0, 1)),
         FieldElement((2 * q + 4, 6 - q, 0, -1), 2 * q + 4), q)
        for q in (5, 7, 11, 13, 19, 31)]
    for K, eps, p in cells:
        mu, _ = K.unit_min_poly(eps)
        parts, factors = certified_parts(K, p), split_prime(K, p)
        assert len(mu) == 3 and parts.max_e == 2
        del kernel_builds[:], frobenius_defect_calls[:]
        holds = condition2_holds(K, p, eps, parts)
        assert frobenius_defect_calls == [(mu, p)], p
        assert kernel_builds == [], p
        assert holds == condition2(K, p, eps, factors).holds, p
        assert holds == _hnf_holds(K, p, eps, factors), p
        assert holds is not _frobenius_fixes_mod_p2(1, 1, 2, p), p


def _inverse_by_char_poly(K, eps):
    """eps^-1 = -c_0 (eps^(n-1) + c_(n-1) eps^(n-2) + ... + c_1) for the
    characteristic polynomial c of eps, whose c_0 = N(eps) = +-1."""
    c = K.char_poly(eps)
    acc = K.one()
    for ci in reversed(c[1:-1]):
        acc = K.add(K.mul(acc, eps), K.from_int(ci))
    return K.mul(K.from_int(-c[0]), acc)


def test_condition2_invariant_under_sign_and_inversion_on_bundled_records():
    # eps, -eps and eps^-1 have the same condition (2) at every certified
    # p <= 200 the guard admits and at the three wide primes; -eps and
    # eps^-1 change c but not disc(c)
    cells = 0
    for name in ("table1", "table2", "examples"):
        for record in bundled_records(name):
            K = record.build_field()
            eps = record.unit_element()
            inverse = _inverse_by_char_poly(K, eps)
            assert inverse == _unit_inverse(K, eps), record.label
            variants = (FieldElement(tuple(-x for x in eps.coords), eps.den),
                        inverse)
            for p in primes_up_to(200) + WIDE_PRIMES:
                try:
                    parts = certified_parts(K, p)
                except SplittingUndetermined:
                    continue
                if applicability_guard(K, p, parts.max_e):
                    continue
                base = condition2_holds(K, p, eps, parts)
                for unit in variants:
                    assert condition2_holds(K, p, unit, parts) == base, (
                        record.label, p)
                cells += 1
    assert cells > 1500



def test_fermat_check_reads_every_slot():
    # a packed value passes iff every slot is 0 mod p: p^2 - p or 0 in all
    # slots passes, and one slot off a multiple of p raises, whichever slot;
    # with c = 1, _unit_defect(k, p, v + 1, c) is v
    for f, p in ((EX62, 5), (EX63, 7), (EX63, LARGE_PRIMES[0])):
        k, n = ring.kernel(f, p * p), degree(f)
        ok = k.pack([p * p - p] * n)
        assert torsion._unit_defect(k, p, ok + 1, (1,)) == ok
        assert torsion._unit_defect(k, p, 1, (1,)) == 0
        for i in range(n):
            with pytest.raises(InvariantViolation, match="Fermat"):
                torsion._unit_defect(k, p, ok + (1 << k.w * i) + 1, (1,))


def _off_slots(g, q):
    """The slots of g(t^q) in Z[t]/(g, q^2) that are not 0 mod q, by powmod
    and a mulmod Horner: the Fermat check's reference."""
    m = q * q
    gamma, v = powmod((0, 1), q, g, m), (1,)
    for c in reversed(g[:-1]):
        v = poly_add(mulmod(v, gamma, g, m), (c,))
    return [j for j, c in enumerate(v) if c % q]


def test_fermat_check_fires_for_a_wrong_frobenius():
    # at composite q, t^q is no Frobenius mod q, and g(t^q) = 0 (mod q)
    # fails: for ex. 6.2's f, mu_5 of the pure-cubic family and x^4 + x + 1
    # at q = 35, 91 and 561 in slot 0, and at the q below in one slot above
    # 0 alone, each slot of a cubic and the top one of a quadratic.  The
    # check is necessary only: x^2 - 2x - 1 passes it at q = 1105.
    mu5, quartic, quadratic = (-1, 15, -75, 1), (1, 1, 0, 0, 1), (-1, -2, 1)
    cases = [(g, q, 0) for g in (EX62, mu5, quartic) for q in (35, 91, 561)]
    cases += [(EX62, 9, 1), (EX62, 18, 2), (mu5, 25, 1), (mu5, 50, 2),
              (quartic, 9, 2), (quadratic, 6, 1)]
    for g, q, first in cases:
        off = _off_slots(g, q)
        assert off[0] == first and (first == 0 or off == [first]), (g, q)
        with pytest.raises(InvariantViolation, match="Fermat"):
            ring.frobenius_defect(g, q)
    assert _off_slots(quadratic, 1105) == []
    w, _, X = ring.frobenius_defect(quadratic, 1105)  # no InvariantViolation
    assert ring.slots_divisible(w, X, 1105)


def _prime_from(n, step):
    """The first prime from n > 41 on, going by step = 1 or -1, by the
    Miller-Rabin test that is deterministic below MR_BOUND."""
    while not all(_strong_probable_prime(n, a) for a in MR_BASES):
        n += step
    return n


def _known_answer_primes():
    """Primes from 5 to just below MR_BOUND, with the pairs whose p^2
    straddles 2^k and the pairs across which the slot width w of a cubic
    kernel mod p^2 steps."""
    primes = [5, 7, 11, 1009, 10**6 + 3, 2**61 - 1, _prime_from(MR_BOUND - 1, -1)]
    for k in (64, 65, 89, 128, 161):
        r = isqrt(2**k)  # p <= r has p^2 < 2^k, p > r has p^2 > 2^k
        primes += [_prime_from(r, -1), _prime_from(r + 1, 1)]

    def width(q):
        return ring.kernel((0, 0, 0, 1), q * q).w

    for w in (65, 129, 257):
        lo, hi = 41, 1 << w // 4 + 1  # width(lo) < w <= width(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if width(mid) >= w else (mid, hi)
        below, above = _prime_from(lo, -1), _prime_from(hi, 1)
        assert width(below) < w <= width(above)
        primes += [below, above]
    return primes


def test_pure_cubic_family_known_answers():
    # K_m = Q(cbrt(m^3 - 1)), eps = m^2 + m a + a^2 = 1/(m - a), at p | m:
    # the families docstring, with m for p, gives mu and X = mu(t^p) = 3m t
    # or 3m t^2 (mod p^2) as p = 1 or 2 (mod 3), so condition 2 holds iff
    # p^2 does not divide m.  The verdict at h = 1 follows; that K_m is then
    # not p-rational would also need eps not to be a p-th power, which
    # nothing here checks, so only condition 2's value is claimed.
    for p in _known_answer_primes():
        pp = p * p
        for m in (p, pp, 2 * pp, 3 * p):
            K = make_field((1 - m**3, 0, 0, 1))
            eps = FieldElement((m * m, m, 1))
            mu = (-1, 3 * m, -3 * m * m, 1)
            assert K.unit_min_poly(eps) == (mu, -27 * (m**3 - 1) ** 2), (p, m)
            w, _, X = ring.frobenius_defect(mu, p)
            assert X == 3 * m % pp << p % 3 * w, (p, m)
            fails = m % pp == 0
            parts = certified_parts(K, p)
            assert condition2_holds(K, p, eps, parts) is not fails, (p, m)
            v = verdict(K, p, unit=eps, class_number=1)
            assert (v.status, v.reasons) == (
                (NOT_P_RATIONAL, (TORSION_NONTRIVIAL,)) if fails
                else (P_RATIONAL, ())), (p, m)


def _frobenius_fixes_mod_p2(a, b, d, p):
    """Whether (a + b sqrt d)^p = a + (d/p) b sqrt d (mod p^2), on pairs of
    ints, for p prime to 2d.  That is eps^p = phi(eps) for the Frobenius
    lift phi of Z_p[sqrt d], phi(sqrt d) = (d/p) sqrt d, so condition 2
    fails for eps in any field containing Q(sqrt d) (module docstring)."""
    pp, legendre = p * p, 1 if pow(d, (p - 1) // 2, p) == 1 else -1
    target = (a % pp, legendre * b % pp)
    rx, ry, e = 1, 0, p
    while e:
        if e & 1:
            rx, ry = (rx * a + d * ry * b) % pp, (rx * b + ry * a) % pp
        a, b, e = (a * a + d * b * b) % pp, 2 * a * b % pp, e >> 1
    return (rx, ry) == target


# table2 quartics whose unit lies in Q(sqrt d), with that field's
# fundamental unit a + b sqrt d; the record units differ from it by a root
# of unity, a sign or an inverse, which the invariance tests cover
SUBFIELD_UNITS = {
    "x^4+1": (1, 1, 2),
    "x^4+4*x^2+2": (1, 1, 2),
    "x^4-2*x^3+5*x^2-4*x+2": (1, 1, 2),
    "x^4-2*x^2+4": (5, 2, 6),
    "x^4+9": (5, 2, 6),
}


def test_subfield_units_match_a_z_sqrt_d_oracle():
    # the Frobenius-lift form, not eps^(p - (d/p)) = 1, which misses the
    # inert primes: at p = 13, (2/13) = -1, condition 2 fails
    primes = primes_up_to(10**4)[2:]
    oracle = {(a, b, d): {p for p in primes if _frobenius_fixes_mod_p2(a, b, d, p)}
              for a, b, d in set(SUBFIELD_UNITS.values())}
    assert oracle == {(1, 1, 2): {13, 31}, (5, 2, 6): {7, 523}}
    records = {r.label: r for r in bundled_records("table2")}
    for label, unit in SUBFIELD_UNITS.items():
        K, eps = records[label].build_field(), records[label].unit_element()
        for p in primes:
            if K.poly_disc % p:
                parts = certified_parts(K, p)
                assert condition2_holds(K, p, eps, parts) is not (
                    p in oracle[unit]), (label, p)


@pytest.mark.parametrize("label", [label for label, unit in SUBFIELD_UNITS.items()
                                   if unit == (1, 1, 2)])
def test_pell_wieferich_primes_are_not_p_rational(label):
    # 13, 31 and 1,546,463 are the Pell-Wieferich primes of 1 + sqrt 2 up to
    # there; 1,546,469 is the next prime above the last
    record = next(r for r in bundled_records("table2") if r.label == label)
    K, eps = record.build_field(), record.unit_element()
    for p in (13, 31, 1546463, 1546469):
        fails = p != 1546469
        assert _frobenius_fixes_mod_p2(1, 1, 2, p) is fails
        v = verdict(K, p, unit=eps, class_number=record.class_number)
        assert (v.status, v.reasons) == (
            (NOT_P_RATIONAL, (TORSION_NONTRIVIAL,)) if fails
            else (P_RATIONAL, ())), p
