import random
from collections import Counter
from math import lcm

import pytest

from prationality.errors import SplittingUndetermined
from prationality.families import primes_up_to
from prationality.harness import bundled_records
from prationality.numberfield import (
    FieldElement,
    ideal_contains,
    ideal_from_two_generators,
    ideal_pow,
    make_field,
    part_shapes,
    split_prime,
    squarefree_parts,
)
from prationality import ring, torsion
from prationality.ring import (degree, derivative, det_adjugate, mulmod, poly,
                               poly_add, poly_sub, powmod)
from prationality.rationality import verdict
from prationality.torsion import applicability_guard, condition2, condition2_holds

EX62 = (27, -4, 0, 1)
EX63 = (3, 0, -2, 0, 1)


def _multiplicities(K, p):
    return [m for _, m in squarefree_parts(K, p)]


def _pow_by_mul(K, a, k, m):
    """a^k mod m in basis coordinates by square-and-multiply over the
    structure constants, a's basis denominator inverted mod m; the
    reference for NumberField.pow_mod."""
    dinv = pow(a.den, -1, m)
    result, base = K.one().coords, tuple(c * dinv % m for c in a.coords)
    while k:
        if k & 1:
            result = tuple(c % m for c in K.mul_coords(result, base))
        k >>= 1
        base = tuple(c % m for c in K.mul_coords(base, base))
    return FieldElement(result)


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


def test_guard_examples():
    K10 = make_field((1, -1, 1, -1, 1))
    guard = applicability_guard(K10, 5, _multiplicities(K10, 5))
    assert guard is not None and "ramified" in guard.reason
    assert guard == applicability_guard(
        K10, 5, [pf.e for pf in split_prime(K10, 5)])
    K = make_field(EX62)
    assert applicability_guard(K, 3, _multiplicities(K, 3)) is None
    assert applicability_guard(K, 2, _multiplicities(K, 2)) is not None


def test_condition2_example_63():
    L = make_field(EX63)
    eps = FieldElement((-2, -1, 1, 1))
    factors = split_prime(L, 5)
    rep = condition2(L, 5, eps, factors)
    assert rep.holds and rep.witness == 1
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
        condition2_holds(K, 3, FieldElement((2, 0, 0)), squarefree_parts(K, 3))
    eps = FieldElement((-3280, -3462, -729))
    with pytest.raises(ValueError):
        condition2_holds(K, 2, eps, squarefree_parts(K, 2))
    # disc(f) = -19427, a prime: 19427 ramifies with e = 2 < p and is decided
    # like any other prime
    assert _multiplicities(K, 19427) == [1, 2]
    factors = split_prime(K, 19427)
    holds = condition2_holds(K, 19427, eps, squarefree_parts(K, 19427))
    assert holds == condition2(K, 19427, eps, factors).holds
    assert holds == _hnf_holds(K, 19427, eps, factors)
    # x^3 + 3x + 3 is Eisenstein at 3, so f = x^3 (mod 3) with m = p
    E = make_field((3, 3, 0, 1))
    with pytest.raises(ValueError):
        condition2_holds(E, 3, E.one(), squarefree_parts(E, 3))


def test_sign_and_inversion_invariance():
    K = make_field(EX62)
    eps = FieldElement((-3280, -3462, -729))
    rng = random.Random(11)
    primes = [3, 5, 7, 11, 13]
    for p in primes:
        factors = split_prime(K, p)
        if applicability_guard(K, p, [pf.e for pf in factors]) is not None:
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
    # multiplication by eps is A / den; its inverse den * adj(A) / det(A)
    # sends 1 = e1 to eps^-1
    cols = K.mul_matrix(eps)
    n = K.n
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


def test_torsion_never_changes_condition2():
    # the guard admits no p dividing w, so zeta^(p^f-1) = 1 and every
    # eps * zeta^j has the report of eps
    records = [r for name in ("table1", "table2", "examples")
               for r in bundled_records(name) if r.torsion_order > 2]
    assert records
    for record in records:
        K = record.build_field()
        eps = record.unit_element()
        zeta = K.element_from_power_coords(record.torsion_gen_coeffs,
                                           record.torsion_gen_den)
        for p in primes_up_to(100):
            try:
                factors = split_prime(K, p)
            except SplittingUndetermined:
                continue
            if applicability_guard(K, p, [pf.e for pf in factors]) is not None:
                continue
            assert record.torsion_order % p != 0, (record.label, p)
            base = condition2(K, p, eps, factors)
            variant = eps
            for _ in range(record.torsion_order - 1):
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
            parts = squarefree_parts(K, p)
            shapes = sorted(part_shapes(parts))
            assert shapes == sorted((1, pf.f) for pf in factors), (K.poly, p)
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
    # at ramified p only c tells that apart from a witness.  F is
    # lcm(1..max deg g_m), a common multiple of the residue degrees that
    # is not always their lcm, as for p = P1 P2 P3^2 in a quartic, all of
    # degree 1, where g_1 = g(P1) g(P2) has degree 2
    ramified = {False: 0, True: 0}  # keyed by "holds"
    coarse_F = 0
    for K, alpha in _random_unit_fields():
        for p in primes_up_to(60):
            try:
                factors = split_prime(K, p)
            except SplittingUndetermined:
                continue
            if applicability_guard(K, p, [pf.e for pf in factors]) is not None:
                continue
            parts = squarefree_parts(K, p)
            shapes = sorted(part_shapes(parts))
            assert shapes == sorted((pf.e, pf.f) for pf in factors), (K.poly, p)
            is_ramified = any(pf.e > 1 for pf in factors)
            for unit in (alpha, _power(K, alpha, p)):
                holds = _hnf_holds(K, p, unit, factors)
                assert condition2(K, p, unit, factors).holds == holds, (K.poly, p)
                assert condition2_holds(K, p, unit, parts) == holds, (K.poly, p)
                ramified[holds] += is_ramified
            if is_ramified:
                max_deg = max(g.degree for g, _ in parts)
                coarse_F += (lcm(*range(1, max_deg + 1))
                             != lcm(*(pf.f for pf in factors)))
    assert ramified[False] > 0 and ramified[True] > 0
    assert coarse_F > 0


def test_per_prime_report_matches_hnf_and_structure_constants():
    # every per-P decision and residue of condition2 against HNF membership
    # and structure-constant powering: on every bundled record at every
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
                parts = squarefree_parts(K, p)
                F = lcm(*(f for _, f in part_shapes(parts)))
                slow = K.pow_mod(eps, p**F - 1, p * p) != K.one()
                holds = condition2_holds(K, p, eps, parts)
                assert holds == slow, (record.label, p)
                cells[holds] += 1
    assert cells[False] > 0 and cells[True] > 1000


def _list_frobenius_defect(f, p, e):
    """X = f'(gamma)(eps^p - e(gamma)) + e'(gamma) f(gamma) in
    Z[x]/(f, p^2) on coefficient lists, gamma = x^p (torsion's module
    docstring); the reference for the packed torsion._frobenius_defect."""
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


def test_packed_frobenius_defect_matches_list_reference_on_bundled_records():
    # the packed defect X against the list computation at every odd p <= 300
    # not dividing disc(f), and at p = 1699 for ex. 6.2, in both
    # presentations: Z[x]/(f, p^2) on the unit's coordinates, and
    # Z[t]/(c, p^2) with eps = t, c the unit's characteristic polynomial,
    # where p does not divide disc(c); condition2_holds takes the second
    # whenever it can, and both decide like the alpha-presentation
    cells = {False: 0, True: 0}  # keyed by "holds"
    alpha_path = set()  # (label, p) where p divides disc(c)
    for name in ("table1", "table2", "examples"):
        for record in bundled_records(name):
            K = record.build_field()
            eps = record.unit_element()
            c, disc_c = K.cached_char_poly(eps)
            assert c == K.char_poly(eps) and disc_c == ring.discriminant(c)
            primes = primes_up_to(300)[1:] + [1699] * (K.poly == EX62)
            for p in primes:
                if K.poly_disc % p == 0:
                    continue
                pp = p * p
                e = K.power_coords_mod(eps, pp)
                expected = _list_frobenius_defect(K.poly, p, e)
                k = ring.kernel(K.poly, pp)
                packed = torsion._frobenius_defect(k, K.poly, p, e)
                assert k.unpack(packed) == expected, (record.label, p)
                if disc_c % p:
                    by_c = _list_frobenius_defect(c, p, (0, 1))
                    kc = ring.kernel(c, pp)
                    packed = torsion._frobenius_defect(kc, c, p, (0, 1))
                    assert kc.unpack(packed) == by_c, (record.label, p)
                    assert bool(by_c) == bool(expected), (record.label, p)
                else:
                    alpha_path.add((record.label, p))
                holds = condition2_holds(K, p, eps, squarefree_parts(K, p))
                assert holds == bool(expected), (record.label, p)
                cells[holds] += 1
    assert cells[False] > 0 and cells[True] > 1000
    assert {("x^3-4*x+27", 3), ("x^3-4*x+27", 1699)} <= alpha_path
    assert len(alpha_path) < sum(cells.values()) // 2


def _counted_kernels(monkeypatch):
    """Record (f, m) of every ring.kernel built and the exponent of every
    pow on it."""
    built, pows = [], []
    original = ring.kernel

    def spy(f, m):
        built.append((tuple(f), m))
        k = original(f, m)

        def power(v, e):
            pows.append(e)
            return k.pow(v, e)

        return k._replace(pow=power)

    monkeypatch.setattr(ring, "kernel", spy)
    return built, pows


def test_one_pth_power_per_unramified_verdict(monkeypatch):
    # at p prime to disc(f) and disc(c) condition (2) is decided in
    # Z[t]/(c, p^2), where eps = t and gamma = t^p is the only power taken
    K = make_field(EX62)
    eps = FieldElement((-3280, -3462, -729))
    c = K.char_poly(eps)
    built, pows = _counted_kernels(monkeypatch)
    primes = [p for p in primes_up_to(300)[1:]
              if K.poly_disc % p and ring.discriminant(c) % p]
    for p in primes:
        verdict(K, p, unit=eps, class_number=1)
    assert built == [(c, p * p) for p in primes]
    assert pows == primes


def test_unit_of_a_quadratic_subfield_takes_the_alpha_path(monkeypatch):
    # the unit of x^4 + 4x^2 + 2 lies in a quadratic subfield: its
    # characteristic polynomial is a square, disc(c) = 0, and every
    # unramified p is decided in Z[x]/(f, p^2)
    record = next(r for r in bundled_records("table2")
                  if r.label == "x^4+4*x^2+2")
    K = record.build_field()
    eps = record.unit_element()
    c = K.char_poly(eps)
    assert ring.discriminant(c) == 0
    built, _ = _counted_kernels(monkeypatch)
    cells = 0
    for p in primes_up_to(100)[1:]:
        if K.poly_disc % p == 0:
            continue
        parts = squarefree_parts(K, p)
        F = lcm(*(f for _, f in part_shapes(parts)))
        slow = K.pow_mod(eps, p**F - 1, p * p) != K.one()
        assert condition2_holds(K, p, eps, parts) == slow, p
        assert built[-1] == (K.poly, p * p)
        cells += 1
    assert cells > 20


def test_condition2_invariant_under_sign_and_inversion_on_bundled_records():
    # eps, -eps and eps^-1 have the same condition (2) at every certified
    # p <= 200 the guard admits; -eps and eps^-1 change c but not disc(c)
    cells = 0
    for name in ("table1", "table2", "examples"):
        for record in bundled_records(name):
            K = record.build_field()
            eps = record.unit_element()
            variants = (FieldElement(tuple(-x for x in eps.coords), eps.den),
                        _unit_inverse(K, eps))
            for p in primes_up_to(200):
                try:
                    parts = squarefree_parts(K, p)
                except SplittingUndetermined:
                    continue
                if applicability_guard(K, p, [m for _, m in parts]):
                    continue
                base = condition2_holds(K, p, eps, parts)
                for unit in variants:
                    assert condition2_holds(K, p, unit, parts) == base, (
                        record.label, p)
                cells += 1
    assert cells > 1500
