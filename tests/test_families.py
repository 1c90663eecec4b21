import bisect
import inspect
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from prationality import families, numberfield, ring, torsion
from prationality.errors import InvariantViolation
from prationality.families import (
    GgcCandidate,
    _crt_pairs,
    _sqrts_mod_prime_power,
    _two_adic_roots,
    dirichlet_class_number,
    factorize,
    fundamental_discriminant,
    ggc_scan,
    imag_quadratic_class_number,
    lemma_a_scan,
    lemma_b_bound,
    primes_up_to,
    pure_cubic_scan,
    squarefree_part,
)
from prationality.recurrence import INERT, MIXED_1_2, SPLIT_COMPLETELY
from prationality.selftest import suite_forms_vs_dirichlet


def _reference_class_number(radicand: int) -> int:
    """Reduced primitive forms (a, b, c) counted over every a <= sqrt(|D|/3)
    and every b in [-a, a]: O(|D|), the reference for the root-based counter."""
    D = fundamental_discriminant(radicand)
    count = 0
    amax = math.isqrt(-D // 3) + 1
    for a in range(1, amax + 1):
        for b in range(-a, a + 1):
            if (b - D) % 2 != 0:
                continue
            num = b * b - D
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if math.gcd(math.gcd(a, abs(b)), c) != 1:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            count += 1
    return count


def _reference_root_class_number(radicand: int) -> int:
    """Reduced forms counted from the roots b of D mod 4a at every
    a <= sqrt(|D|/3): a brute-force 2-part joined by CRT to the roots mod
    the least odd prime power of a and mod its cofactor, O(sqrt|D|) with a
    list per a; the reference for the multiplicative count."""
    D = fundamental_discriminant(radicand)
    amax = math.isqrt(-D // 3)
    spf = list(range(amax + 1))
    for q in range(math.isqrt(amax), 1, -1):
        spf[q * q :: q] = [q] * len(range(q * q, amax + 1, q))
    two_roots = [[b for b in range(2 << k) if (b * b - D) % (4 << k) == 0]
                 for k in range(amax.bit_length())]
    odd_roots: list = [[0], [0]] + [None] * (amax - 1)
    count = 0
    for a in range(1, amax + 1):
        k = (a & -a).bit_length() - 1
        odd = a >> k
        if odd_roots[odd] is None:  # first visit: here odd == a
            q = qe = spf[a]
            while a % (qe * q) == 0:
                qe *= q
            roots = odd_roots[qe] if qe < a else _sqrts_mod_prime_power(D, q, qe)
            odd_roots[a] = _crt_pairs(roots, qe, odd_roots[a // qe], a // qe)
        if 4 * a * a < -D:  # then c > a for every root
            count += len(two_roots[k]) * len(odd_roots[odd])
            continue
        for b in _crt_pairs(two_roots[k], 2 << k, odd_roots[odd], odd):
            c = (min(b, 2 * a - b) ** 2 - D) // (4 * a)
            count += c > a or (c == a and b <= a)
    return count


def _reference_lemma_a_scan(xmax: int, T: float, pmin: int = 0) -> list[GgcCandidate]:
    """Lemma A at pmin <= p <= xmax with the square-divisor roots of p -+ 1
    read off factorize."""
    def square_divisor_root(n):
        return math.prod(q ** (e // 2) for q, e in factorize(n).items())

    out = []
    for p in primes_up_to(xmax):
        if p % 4 != 1 or p < pmin:
            continue
        n, m = square_divisor_root(p - 1), square_divisor_root(p + 1)
        threshold = math.log(p) ** T
        if n > threshold and m > threshold:
            out.append(GgcCandidate(p, n, m, threshold))
    return out


# D = -4, -8, -3; D = 1 mod 8 (-7); D = 5 mod 8 (-11); 4 || D (-5: D = -20);
# 8 | D (-6: D = -24); a = q^e, e >= 2, with q | D (-255: a = 9, 3 | D;
# -1995: a = 25, 5 | D) and with q prime to D (-251: a = 9, D = 1 mod 3).
# The window sqrt|D|/2 <= a <= sqrt(|D|/3), where roots are built, holds
# (1, 1, 1) (-3), c = a with 0 < b < a (-15: (2, 1, 2)), even a (-255:
# a = 8; -447: a = 12, 3 | D), odd prime powers prime to D (-251: a = 9;
# -469: a = 25) and two odd primes (-170: a = 15)
COVERING_RADICANDS = (-1, -2, -3, -7, -11, -5, -6, -255, -1995, -251,
                      -15, -447, -469, -170)


def _window_forms(D: int):
    """The forms (a, b, c) of D, reduced or not, with b in (-a, a] and a in
    the window, where the counter builds the roots b and tests c."""
    half, amax = math.isqrt(-D - 1) // 2, math.isqrt(-D // 3)
    return [(a, b, (b * b - D) // (4 * a))
            for a in range(half + 1, amax + 1) for b in range(1 - a, a + 1)
            if (b * b - D) % (4 * a) == 0]


def test_pure_cubic_scan_examples():
    res = {r.p: r for r in pure_cubic_scan(5, 23)}
    assert res[7].splitting == "split-completely" and res[7].condition2_holds
    assert res[5].splitting == "1+2" and res[5].condition2_holds
    assert res[13].splitting == "split-completely"
    assert res[11].splitting == "1+2"
    assert all(r.h_flag == "h-unknown" for r in res.values())


def test_pure_cubic_instance_identity():
    # K = Q(alpha), alpha^3 = p^3 - 1, and eps = p^2 + p alpha + alpha^2
    # inverts p - alpha, so eps is the unit the scan decides at p
    for p in primes_up_to(3000)[2:]:
        f = (1 - p**3, 0, 0, 1)
        assert ring.poly_rem(ring.poly_mul((p * p, p, 1), (p, -1)), f) == (1,)
    for p in (5, 7, 11, 2791):
        assert numberfield.make_field((1 - p**3, 0, 0, 1)).n == 3


def test_pure_cubic_splitting_matches_split_prime():
    # the scan against the built field: the minimal polynomial and
    # discriminant the scan writes down, condition 2 as the verdict decides
    # it, and the number of prime factors
    names = {3: SPLIT_COMPLETELY, 2: MIXED_1_2, 1: INERT}
    results = pure_cubic_scan(5, 3000)
    assert len(results) == 428
    for r in results:
        p = r.p
        field = numberfield.make_field((1 - p**3, 0, 0, 1))
        eps = numberfield.FieldElement((p * p, p, 1))
        assert field.unit_min_poly(eps) == ((-1, 3 * p, -3 * p * p, 1),
                                            -27 * (p**3 - 1) ** 2)
        parts = numberfield.squarefree_parts(field, p)
        assert r.condition2_holds == torsion.condition2_holds(field, p, eps, parts)
        assert r.splitting == names[len(numberfield.split_prime(field, p))], p


def test_pure_cubic_scan_builds_one_kernel_and_takes_one_power(
        kernel_builds, kernel_pows, make_field_calls, unit_min_poly_calls,
        squarefree_parts_calls):
    results = pure_cubic_scan(5, 3000)
    mus = [((-1, 3 * r.p, -3 * r.p**2, 1), r.p**2) for r in results]
    assert kernel_builds == mus
    assert kernel_pows == [(mu, m, r.p) for (mu, m), r in zip(mus, results)]
    assert make_field_calls == unit_min_poly_calls == squarefree_parts_calls == []


@pytest.mark.parametrize("p", [5, 7, 2791])
def test_pure_cubic_scan_refuses_a_power_off_its_closed_form(monkeypatch, p):
    # gamma + p keeps gamma = t^p (mod p), so the splitting and the Fermat
    # check pass, but X moves by p mu'(gamma), a unit times p
    original = families.kernel

    def perturbed(f, m):
        k = original(f, m)
        return k._replace(pow=lambda v, e: k.reduce(k.pow(v, e) + p))

    monkeypatch.setattr(families, "kernel", perturbed)
    with pytest.raises(InvariantViolation, match="closed form"):
        pure_cubic_scan(p, p)


def test_pure_cubic_scan_h_ingestion():
    res = pure_cubic_scan(2791, 2791, h_data={2791: 31876011})
    assert len(res) == 1
    assert res[0].condition2_holds
    assert res[0].h_flag == "p|h"
    res2 = pure_cubic_scan(5, 5, h_data={5: 1})
    assert res2[0].h_flag == "p coprime to h"


def test_lemma_a_scan_examples():
    cands = {c.p: c for c in lemma_a_scan(100, 1.0)}
    assert 17 in cands
    assert cands[17].n == 4 and cands[17].m == 3
    assert cands[17].threshold == pytest.approx(math.log(17))
    assert 13 not in cands  # largest n for p-1=12 is 2 < log 13


@pytest.mark.parametrize("xmax", [17, 809, 1249, 4801, 19999])
def test_lemma_a_sieve_matches_factorize(xmax):
    # xmax + 1 = 2 * 3^4 * 5, 2 * 5^4, 2 * 7^4, 2^5 * 5^4: a q^4 step lands
    # on the last slot; at 17, n = 4 comes from the last r = isqrt(18)
    for T in (0.0, 1.0):
        assert lemma_a_scan(xmax, T) == _reference_lemma_a_scan(xmax, T)
    if xmax % 4 == 1:  # a prime candidate whose m is read off the last slot
        assert lemma_a_scan(xmax, 0.0)[-1].p == xmax
    with pytest.raises(ValueError):
        lemma_a_scan(12, 1.0)


@pytest.mark.parametrize("xmax", [13, 17, 809, 4801, 19999])
@pytest.mark.parametrize("T", [-1, 0, 0.5, 1, 2, math.inf, -math.inf, math.nan])
def test_lemma_a_candidate_mask_matches_factorize(xmax, T):
    assert lemma_a_scan(xmax, T) == _reference_lemma_a_scan(xmax, T)


# (p, (n, m), T): 65537 = 2^16 + 1 has n = 256 past the byte cap, and its
# slots 2j, 2j + 1 open a threshold block; 134161 has m = 259; the slots of
# 180221 close a block; 665857 passes at a threshold (log p)^2.3 = 392
# beyond the cap
@pytest.mark.parametrize("p, roots, T_in", [
    (65537, (256, 3), 0), (134161, (4, 259), 0), (180221, (2, 7), 0),
    (665857, (816, 577), 2.3)])
def test_lemma_a_past_the_byte_cap_and_at_block_edges(p, roots, T_in):
    slots = {(p - 1) // 2 % families._BLOCK, ((p - 1) // 2 + 1) % families._BLOCK}
    assert max(roots) >= 256 or slots & {0, families._BLOCK - 1}
    for T in (0, 0.5, 1, 2, 2.3, 3):
        window = [c for c in lemma_a_scan(p + 200, T) if c.p >= p - 200]
        assert window == _reference_lemma_a_scan(p + 200, T, p - 200), T
        if T == T_in:
            assert (p, *roots) in [(c.p, c.n, c.m) for c in window]


def test_lemma_a_T_zero_forces_nontrivial_squares():
    for c in lemma_a_scan(200, 0.0):
        assert c.n >= 2 and c.m >= 2
        assert (c.p - 1) % (c.n * c.n) == 0
        assert (c.p + 1) % (c.m * c.m) == 0


def test_squarefree_part():
    assert squarefree_part(-288) == -2
    assert squarefree_part(-24) == -6
    assert squarefree_part(12) == 3
    assert squarefree_part(-163) == -163


def test_class_number_examples():
    assert imag_quadratic_class_number(-1) == 1
    assert imag_quadratic_class_number(-6) == 2
    assert imag_quadratic_class_number(-163) == 1
    assert imag_quadratic_class_number(-2) == 1
    assert imag_quadratic_class_number(-5) == 2
    assert imag_quadratic_class_number(-23) == 3
    assert imag_quadratic_class_number(-14) == 4


def test_class_number_rejects_bad_radicand():
    with pytest.raises(ValueError):
        imag_quadratic_class_number(5)
    with pytest.raises(ValueError):
        imag_quadratic_class_number(-4)  # not squarefree


def test_forms_vs_dirichlet_oracle():
    _, ok, detail = suite_forms_vs_dirichlet()
    assert ok, detail
    assert detail == "62 fundamental discriminants"  # radicand -1 included


def test_class_number_matches_reference_on_ggc_candidates():
    cands = ggc_scan(10**5, 1.0)
    assert len(cands) > 20
    for c in cands:
        assert c.radicand == squarefree_part(1 - c.p * c.p)
        assert c.hK2 == _reference_class_number(c.radicand), c.p


def test_covering_radicands_meet_every_case():
    Ds = [fundamental_discriminant(r) for r in COVERING_RADICANDS]
    assert {-3, -4, -8} <= set(Ds)
    assert {D % 8 for D in Ds} == {0, 1, 4, 5}

    def odd_prime_squares(D):  # odd q with q^2 among the a of D
        return [q for q in primes_up_to(math.isqrt(-D // 3))[1:]
                if q * q <= math.isqrt(-D // 3)]

    assert any(D % q == 0 for D in Ds for q in odd_prime_squares(D))
    assert any(pow(D, (q - 1) // 2, q) == 1 for D in Ds for q in odd_prime_squares(D))

    window = [(D, a, b, c) for D in Ds for a, b, c in _window_forms(D)]
    assert any(a == b == c for _, a, b, c in window)
    assert any(c == a and 0 < b < a for _, a, b, c in window)
    assert any(c < a for _, a, b, c in window)
    assert any(a % 4 == 0 for _, a, _, _ in window)
    odd_parts = [(D, factorize(a >> ((a & -a).bit_length() - 1)))
                 for D, a, _, _ in window]
    assert any(len(f) == 1 and min(f.values()) >= 2 and D % min(f)
               for D, f in odd_parts)
    assert any(len(f) >= 2 for _, f in odd_parts)


@pytest.mark.parametrize("radicand", COVERING_RADICANDS)
def test_class_number_matches_reference_on_covering_radicands(radicand):
    assert imag_quadratic_class_number(radicand) == _reference_class_number(radicand)


@settings(max_examples=300, deadline=None)
@given(st.integers(-19999, -1).filter(lambda r: squarefree_part(r) == r))
def test_class_number_matches_reference(radicand):
    assert imag_quadratic_class_number(radicand) == _reference_class_number(radicand)


@settings(max_examples=200, deadline=None)
@given(st.integers(-2 * 10**6, -2 * 10**4).filter(lambda r: squarefree_part(r) == r))
def test_class_number_matches_root_reference(radicand):
    assert (imag_quadratic_class_number(radicand)
            == _reference_root_class_number(radicand))


def test_ggc_class_numbers_match_root_reference_to_a_million():
    cands = ggc_scan(10**6, 1.0)
    assert len(cands) > 100
    assert max(-c.radicand for c in cands) > 10**7
    for c in cands:
        assert c.hK2 == _reference_root_class_number(c.radicand), c.p


def test_two_adic_lift_matches_brute_force():
    Ds = [fundamental_discriminant(r) for r in (-15, -7, -3, -11, -255, -1, -5, -2, -6)]
    assert {D % 16 for D in Ds} == {1, 9, 13, 5, 12, 8}  # every fundamental class
    for D in Ds:
        lifted = _two_adic_roots(D, 13)
        for k in range(13):
            brute = [b for b in range(2 << k) if (b * b - D) % (4 << k) == 0]
            assert sorted(lifted[k]) == brute, (D, k)


def test_class_number_matches_dirichlet_on_a_seeded_sample():
    rng = random.Random(5003)
    radicands = [r for r in rng.sample(range(-1250, 0), 200)
                 if squarefree_part(r) == r][:60]
    for r in radicands:
        D = fundamental_discriminant(r)
        assert abs(D) <= 5000
        assert imag_quadratic_class_number(r) == dirichlet_class_number(D), r


def test_lemma_b_examples():
    b = lemma_b_bound(24, 2)
    assert b == pytest.approx(3.59, abs=0.05)
    assert b >= imag_quadratic_class_number(-6)
    assert lemma_b_bound(3, 6) >= 1
    assert lemma_b_bound(4, 4) >= 1


def test_ggc_scan_examples():
    cands = {c.p: c for c in ggc_scan(1000, 1.0)}
    assert 17 in cands
    c17 = cands[17]
    assert c17.radicand == -2 and c17.hK2 == 1 and c17.verdict == "GgcHolds"
    for c in cands.values():
        # defining predicates on recheck
        assert (c.p - 1) % (c.n * c.n) == 0
        assert (c.p + 1) % (c.m * c.m) == 0
        assert c.n > c.threshold and c.m > c.threshold
        assert c.p % 4 == 1
        assert (c.verdict == "GgcHolds") == (c.hK2 % c.p != 0)
        assert c.hK2 <= c.lemma_b_bound
        # p does not divide small h automatically
        if c.hK2 < c.p:
            assert c.verdict == "GgcHolds"


def test_ggc_scan_never_enters_the_field_layers(monkeypatch):
    expected = ggc_scan(20000, 1.0)

    def refuse(*args, **kwargs):
        raise AssertionError("the ggc path called into ring, numberfield or torsion")

    for mod in (ring, numberfield, torsion):
        for name, obj in list(vars(mod).items()):
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and not attr.startswith("_"):
                        monkeypatch.setattr(obj, attr, refuse)
            elif (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                  and not name.startswith("_")):
                monkeypatch.setattr(mod, name, refuse)
                if getattr(families, name, None) is obj:
                    monkeypatch.setattr(families, name, refuse)
    # the radicands come from the Lemma-A sieve, not from trial division
    monkeypatch.setattr(families, "factorize", refuse)
    with pytest.raises(AssertionError):
        families.pure_cubic_scan(5, 5)  # the patches reach families' imports
    assert ggc_scan(20000, 1.0) == expected


def test_primes_up_to():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(1) == []


def _reference_primes(n: int) -> list[int]:
    """The sieve read back by a comprehension over every index."""
    sieve = [True] * (n + 1)
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            for j in range(i * i, n + 1, i):
                sieve[j] = False
    return [i for i in range(2, n + 1) if sieve[i]]


def test_primes_up_to_matches_comprehension():
    top = _reference_primes(3 * 10**5)
    assert primes_up_to(3 * 10**5) == top
    for n in range(3001):
        expected = top[:bisect.bisect_right(top, n)]
        got = primes_up_to(n)
        assert type(got) is list and got == expected, n
