"""Built-in families: the pure cubic fields Q(cbrt(p^3-1)) scanned at their
own prime, and the biquadratic GGC checker driven by square divisors of
p -+ 1, reduced-form class numbers of imaginary quadratic fields and the
analytic class number bound.

The pure cubic scan builds no field.  With alpha^3 = p^3 - 1, p >= 5, the
unit eps = p^2 + p alpha + alpha^2 = 1/(p - alpha) has minimal polynomial
mu_p = t^3 - 3p^2 t^2 + 3p t - 1, from (p - 1/eps)^3 = p^3 - 1.  As
alpha = p - 1/eps and 1/eps = eps^2 - 3p^2 eps + 3p, Z[eps] = Z[alpha] and
disc(mu_p) = disc(f) = -27 (p^3 - 1)^2, prime to p.  So p is unramified,
condition (2) is X = mu_p(gamma) != 0 in Z[t]/(mu_p, p^2), gamma = t^p
(torsion), both from one ring.frobenius_defect and no kernel built, and
gamma, at its slot width, gives the splitting (recurrence.cubic_splitting):
mu_p = t^3 - 1 (mod p) splits completely at p = 1 (mod 3), and as 1+2 at
p = 2 (mod 3), where t^2 + t + 1 has the non-square discriminant -3.
Mod p^2, t^3 = 1 - 3pt and p t^3 = p, so t^(3k) = 1 - 3kpt.  At p = 3k + 1
this gives gamma = t + p t^2 (-3kp = p - p^2) and gamma^3 = t^3 + 3p t^4 = 1;
at p = 3k + 2, gamma = t^2 + 2p (-3kp = 2p - p^2) and
gamma^3 = t^6 + 6p t^4 = 1.  As X = gamma^3 + 3p gamma - 1, X = 3p t, resp.
3p t^2: condition (2) holds at every p >= 5, a known answer for the kernel.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .errors import InvariantViolation
from .recurrence import MIXED_1_2, SPLIT_COMPLETELY, cubic_splitting
from .ring import frobenius_defect

EULER_GAMMA = 0.5772156649015329

TRIAL_DIVISION_CAP = 10**7

_BLOCK = 4096  # root slots per Lemma-A threshold block


def _odd_sieve(n: int) -> bytearray:
    """s[i] = 1 iff 2i + 1 is prime, for every odd 2i + 1 <= n (n >= 2)."""
    s = bytearray([1]) * ((n + 1) // 2)
    s[0] = 0
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if s[i]:
            start = 2 * i * (i + 1)  # the slot of (2i + 1)^2
            s[start :: 2 * i + 1] = bytes(len(range(start, len(s), 2 * i + 1)))
    return s


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    return [2, *itertools.compress(range(1, n + 1, 2), _odd_sieve(n))]


def factorize(n: int) -> dict[int, int]:
    """Trial-division factorization; refuses beyond the desk-scale cap."""
    if n <= 0:
        raise ValueError("positive integer required")
    if n > TRIAL_DIVISION_CAP**2:
        raise ValueError("input exceeds the trial-division cap")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree_part(n: int) -> int:
    """Largest squarefree divisor with the sign of n."""
    if n == 0:
        raise ValueError("zero has no squarefree part")
    sign = -1 if n < 0 else 1
    out = 1
    for q, e in factorize(abs(n)).items():
        if e % 2:
            out *= q
    return sign * out


# ---------------------------------------------------------------------------
# pure cubic family


# h_flag is "h-unknown", "p|h" or "p coprime to h"
PureCubicResult = namedtuple("PureCubicResult", "p splitting condition2_holds h_flag")


def pure_cubic_scan(pmin: int, pmax: int,
                    h_data: dict[int, int] | None = None) -> list[PureCubicResult]:
    """Evaluate condition (2) for Q(cbrt(p^3-1)) at p over a prime range,
    with class numbers only as ingested through h_data: one
    ring.frobenius_defect per p, which takes gamma = t^p and X in
    Z[t]/(mu_p, p^2), the splitting and X checked against their closed
    forms (module docstring), or InvariantViolation."""
    if not (5 <= pmin <= pmax):
        raise ValueError("range must satisfy 5 <= pmin <= pmax")
    results = []
    for p in primes_up_to(pmax):
        if p < pmin:
            continue
        pp = p * p
        mu = (-1, 3 * p, -3 * pp, 1)
        w, gamma, X = frobenius_defect(mu, p)
        splitting, _ = cubic_splitting(w, gamma, p, -27 * (pp * p - 1) ** 2)
        expected = {SPLIT_COMPLETELY: 1, MIXED_1_2: 2}.get(splitting)
        if p % 3 != expected:
            raise InvariantViolation("splitting does not match p mod 3 law")
        if X != 3 * p << p % 3 * w:  # 3p t or 3p t^2, reduced as 3p < p^2
            raise InvariantViolation("X = mu(t^p) does not match its closed form")
        if h_data and p in h_data:
            flag = "p|h" if h_data[p] % p == 0 else "p coprime to h"
        else:
            flag = "h-unknown"
        results.append(PureCubicResult(p, splitting, bool(X), flag))
    return results


# ---------------------------------------------------------------------------
# GGC scanner


# verdict is "GgcHolds" or "Unknown" once ggc_scan has decided the candidate
GgcCandidate = namedtuple(
    "GgcCandidate", "p n m threshold radicand hK2 lemma_b_bound verdict",
    defaults=(None,) * 4)


def _uncap(r: int, x: int) -> int:
    """The largest s with s^2 | x, given r = min(255, s)."""
    return r if r < 255 else next(s for s in range(math.isqrt(x), 254, -1)
                                  if x % (s * s) == 0)


def lemma_a_scan(xmax: int, T: float) -> list[GgcCandidate]:
    """Primes p = 1 mod 4 up to xmax with square divisors n^2 | p-1,
    m^2 | p+1 and n, m beyond (log p)^T, read off one byte sieve of
    min(255, largest r with r^2 | 2k) for each 2k <= xmax + 1.

    Only candidates are compared with their threshold.  Slot k is read at
    p = 2k + 1 (as n) or p = 2k - 1 (as m), so a block of slots a <= k < b
    serves p in [2a - 1, 2b - 1], clipped to [5, plast] (plast the largest
    prime p = 1 mod 4).  As log p > 1, (log p)^T is monotone in p, so its
    least value on the block is at an end, and n > (log p)^T implies
    n > t for t the floor of that value (or min(n, 255) > min(t, 254)).
    One translate per block marks such slots, and a candidate is a prime
    p = 4j + 1 whose slots 2j and 2j + 1 are both marked: a superset of the
    answer, so the exact comparison on it loses nothing.  A byte of 255
    stands for a root s >= 255, found by searching down from isqrt.  A NaN
    or infinite threshold admits no n; an overflowing one is a ValueError."""
    if xmax < 13:
        raise ValueError("xmax must be at least 13")
    primes = _odd_sieve(xmax)[::2]  # slot j: is 4j + 1 prime?
    plast = 4 * primes.rfind(1) + 1
    try:
        tmin = min(math.log(5) ** T, math.log(plast) ** T)
    except OverflowError:
        raise ValueError(f"(log p)^T overflows a float at T = {T}") from None
    if not tmin < math.inf:
        return []
    root = bytearray([1]) * ((xmax + 3) // 2)
    for r in range(2, math.isqrt(xmax + 1) + 1):  # ascending: the last r wins
        step = r * r // math.gcd(2, r)  # r^2 | 2k iff step | k
        root[step::step] = bytes([min(r, 255)]) * ((len(root) - 1) // step)

    def floor_at(k):  # floor (log p)^T at p = 2k - 1 clipped to [5, plast]
        return math.floor(math.log(min(max(2 * k - 1, 5), plast)) ** T)

    def mark(a):  # slots a <= k < a + _BLOCK: 1 where root[k] > t
        t = min(floor_at(a), floor_at(a + _BLOCK), 254)
        return root[a:a + _BLOCK].translate(bytes(t + 1) + b"\x01" * (255 - t))

    big = b"".join(map(mark, range(0, len(root), _BLOCK)))
    hits = (int.from_bytes(primes, "little") & int.from_bytes(big[::2], "little")
            & int.from_bytes(big[1::2], "little")).to_bytes(len(primes), "little")
    out = []
    j = hits.find(1)
    while j >= 0:
        p = 4 * j + 1
        n, m = _uncap(root[2 * j], p - 1), _uncap(root[2 * j + 1], p + 1)
        threshold = math.log(p) ** T
        if n > threshold and m > threshold:
            out.append(GgcCandidate(p, n, m, threshold))
        j = hits.find(1, j + 1)
    return out


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n)."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi symbol on odd n
    result = sign
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def fundamental_discriminant(radicand: int) -> int:
    """Discriminant of Q(sqrt(radicand)) for squarefree radicand."""
    if radicand in (0, 1):
        raise ValueError("radicand must define a quadratic field")
    if squarefree_part(radicand) != radicand:
        raise ValueError("radicand must be squarefree")
    return radicand if radicand % 4 == 1 else 4 * radicand


def _sqrts_mod_prime_power(D: int, q: int, qe: int) -> list[int]:
    """Square roots of a fundamental D mod qe = q^e, q an odd prime: at q | D
    only 0 mod q and none mod q^2 (q || D, and q | b gives q^2 | b^2), else a
    Tonelli-Shanks root (Cohen, GTM 138, Algorithm 1.5.1) Hensel-lifted."""
    if D % q == 0:
        return [0] if qe == q else []
    if pow(D, (q - 1) // 2, q) != 1:
        return []
    s = ((q - 1) & (1 - q)).bit_length() - 1
    t = (q - 1) >> s
    x, b = pow(D, (t + 1) // 2, q), pow(D, t, q)
    if s > 1:  # else q = 3 (mod 4) and b = D^((q-1)/2) = 1: no loop, no z
        z = next(z for z in range(2, q) if pow(z, (q - 1) // 2, q) == q - 1)
        c = pow(z, t, q)
    while b != 1:
        i = next(i for i in range(1, s) if pow(b, 1 << i, q) == 1)
        c = pow(c, 1 << (s - i - 1), q)
        x, c, s, b = x * c % q, c * c % q, i, b * c * c % q
    while (x * x - D) % qe:  # each Newton step doubles the q-adic precision
        x = (x - (x * x - D) * pow(2 * x, -1, qe)) % qe
    return [x, qe - x]


def _crt_pairs(r1: list[int], m1: int, r2: list[int], m2: int) -> list[int]:
    """Every x mod m1*m2 with x = u mod m1, x = v mod m2, u in r1, v in r2."""
    inv = pow(m1, -1, m2)
    return [u + m1 * ((v - u) * inv % m2) for u in r1 for v in r2]


def _two_adic_roots(D: int, kmax: int) -> list[list[int]]:
    """For k < kmax, the b mod 2^(k+1) with b^2 = D mod 2^(k+2), lifted one
    level at a time: a root at level k + 1 reduces to one at level k, so it
    is b or b + 2^(k+1) for some b of level k (at most 4 candidates)."""
    levels = [[D & 1]]  # D = 0, 1 mod 4: b = D mod 2
    for k in range(1, kmax):
        mod = 2 << k
        levels.append([c for b in levels[-1] for c in (b, b + mod // 2)
                       if (c * c - D) % (2 * mod) == 0])
    return levels


_SPLIT_INC = bytes(range(1, 256)) + b"\x00"  # bytes.translate: add 1
_NO_ROOT = 255


def imag_quadratic_class_number(radicand: int, *, D: int | None = None) -> int:
    """Class number of Q(sqrt(radicand)), radicand squarefree negative, by
    counting the reduced forms (a, b, c) of the field discriminant D, which
    a caller that holds it passes unchecked (Cohen, GTM 138, section 5.3):
    |b| <= a <= c, b >= 0 when |b| = a or a = c, so 3a^2 <= |D|.

    For each a the admissible b are the r(a) square roots of D mod 4a taken
    mod 2a in (-a, a].  r is multiplicative, with r(q^e) = 1 + (D/q) for q
    prime to D (Hensel; at q = 2 the Kronecker symbol is +1 for
    D = 1 mod 8 and -1 for D = 5 mod 8), r(q) = 1 and r(q^e) = 0 for
    e >= 2 when q | D (D is fundamental: q^2 does not divide D for odd q,
    and D/4 = 2, 3 mod 4 when q = 2).
    One sieve over a <= sqrt(|D|/3) counts the split primes of each a and
    marks r(a) = 0.  When 4a^2 < |D| every root gives c > a, so such an a
    adds r(a) and needs no roots.  Only the window sqrt(|D|)/2 <= a <=
    sqrt(|D|/3), where c <= a is possible, builds the roots: the 2-adic
    ones by lifting, joined by CRT to those mod each odd prime power.
    All forms of a fundamental D are primitive: g = gcd(a, b, c) has
    g^2 | D, so g | 2, and g = 2 would give 16 | D = 4d, d = 2, 3 mod 4.
    No gcd test.
    """
    if radicand >= 0:
        raise ValueError("radicand must be negative")
    D = D or fundamental_discriminant(radicand)
    amax, half = math.isqrt(-D // 3), math.isqrt(-D - 1) // 2  # 4 half^2 < |D|
    split = bytearray(amax + 1)  # slot a: split primes of a, or _NO_ROOT
    no_root = []  # every multiple of a step has r(a) = 0
    primes = primes_up_to(amax)
    for q in primes:  # (D/q) = 0, 1, -1
        if D % q == 0:
            no_root.append(q * q)
        elif D % 8 == 1 if q == 2 else pow(D, (q - 1) // 2, q) == 1:
            split[q::q] = split[q::q].translate(_SPLIT_INC)
        else:
            no_root.append(q)
    for step in no_root:
        split[step::step] = bytes([_NO_ROOT]) * len(range(step, amax + 1, step))
    count = sum(split.count(j, 1, half + 1) << j for j in range(amax.bit_length()))
    two_roots = _two_adic_roots(D, amax.bit_length())
    odd_roots: dict[int, list[int]] = {}  # q^e -> roots of D mod q^e
    for a in range(half + 1, amax + 1):
        if split[a] == _NO_ROOT:
            continue
        k = (a & -a).bit_length() - 1
        roots, mod, rest = two_roots[k], 2 << k, a >> k
        powers = []  # (q, q^e) over the odd prime powers q^e || a
        for q in primes:  # rest is odd
            if q * q > rest:
                break
            if rest % q == 0:
                qe, rest = q, rest // q
                while rest % q == 0:
                    qe, rest = qe * q, rest // q
                powers.append((q, qe))
        if rest > 1:
            powers.append((rest, rest))
        for q, qe in powers:
            if qe not in odd_roots:
                odd_roots[qe] = _sqrts_mod_prime_power(D, q, qe)
            roots, mod = _crt_pairs(roots, mod, odd_roots[qe], qe), mod * qe
        for b in roots:
            # b > a stands for b - 2a < 0; -a is not in (-a, a]: only c = a needs b >= 0
            c = (min(b, 2 * a - b) ** 2 - D) // (4 * a)
            count += c > a or (c == a and b <= a)
    return count


def dirichlet_class_number(D: int) -> int:
    """Independent oracle: h(D) = -(w / 2|D|) sum chi_D(k) k for D < -4."""
    if D >= 0:
        raise ValueError("negative discriminant required")
    if D in (-3, -4):
        return 1
    s = sum(kronecker_symbol(D, k) * k for k in range(1, abs(D)))
    h = Fraction(-2 * s, 2 * abs(D))
    if h.denominator != 1 or h <= 0:
        raise InvariantViolation(f"Dirichlet sum failed for D={D}")
    return int(h)


def lemma_b_bound(dK: int, omega: int) -> float:
    """(omega sqrt(dK) / 4 pi) (log dK + 2 + gamma - log pi), dK = |disc|."""
    if dK < 3:
        raise ValueError("dK must be at least 3")
    return (
        omega
        * math.sqrt(dK)
        / (4 * math.pi)
        * (math.log(dK) + 2 + EULER_GAMMA - math.log(math.pi))
    )


def _roots_of_unity_count(radicand: int) -> int:
    if radicand == -1:
        return 4
    if radicand == -3:
        return 6
    return 2


def ggc_scan(xmax: int, T: float) -> list[GgcCandidate]:
    """Lemma-A primes decorated with h(K2) = h(Q(sqrt(1-p^2))) and the
    resulting GGC verdict: GgcHolds iff p does not divide h(K2)."""
    out = []
    for cand in lemma_a_scan(xmax, T):
        p = cand.p
        # 1 - p^2 = -u v (nm)^2, u and v squarefree with gcd(u, v) | 2
        u = (p - 1) // (cand.n * cand.n)
        v = (p + 1) // (cand.m * cand.m)
        radicand = -u * v // 4 if u % 2 == 0 and v % 2 == 0 else -u * v
        D = radicand if radicand % 4 == 1 else 4 * radicand
        h = imag_quadratic_class_number(radicand, D=D)
        bound = lemma_b_bound(abs(D), _roots_of_unity_count(radicand))
        if h > bound:
            raise InvariantViolation(f"class number exceeds the Lemma B bound at p={p}")
        verdict = "GgcHolds" if h % p != 0 else "Unknown"
        out.append(
            GgcCandidate(p, cand.n, cand.m, cand.threshold, radicand, h, bound, verdict)
        )
    return out
