"""The unit-congruence test: is there a prime ideal P over p with
eps^(p^f - 1) != 1 (mod P^(e+1))?

condition2_holds decides this for every P at once from the radical and
cofactor of f = prod g^m (mod p), g the monic irreducible factors, that
numberfield.certified_parts returns, with one residue mod p^2 (Gras,
Canad. J. Math. 68, 2016, for the Fermat-quotient form of the test; Cohen,
GTM 138, 4.8.2, for Kummer-Dedekind).  The parts are only returned when p
does not divide the index of Z[alpha], so every P is (p, g(alpha)) with
e = m and f = deg g.  The cofactor congruences compute on ring.kernel's
packed ints, each sum of products reduced once; the unit's ring builds no
kernel.
Let F be any common multiple of the residue degrees.  For P of degree f,
eps^(p^F - 1) = u^k with u = eps^(p^f - 1) in 1 + P and
k = (p^F - 1)/(p^f - 1) = 1 (mod p); when e + 1 <= p,
(1 + P)/(1 + P^(e+1)) has exponent p (for y in P, (1 + y)^p - 1 is p*y plus
multiples of p*y^2 plus y^p), so u^k = u (mod P^(e+1)).

Wherever p does not divide disc(mu) = [O_k : Z[eps]]^2 d_k, mu the minimal
polynomial of eps and k = Q(eps), condition2_holds works in the unit's own
ring Z[t]/(mu, p^2) = O_k/p^2, eps = t, whether or not p ramifies in K: p
is unramified in k, and O_k (x) Z_p = Z_p[t]/(mu) is etale.  For P over the
prime q of k, e = e(P/p) = e(P/q) and v_P = e v_q on k, so y in k lies in
P^(e+1) iff it lies in q^2; by the above at q, where e = 1 and f(q)
divides f(P), eps^(N(P) - 1) = eps^(N(q) - 1) (mod q^2).  Every q lies
under some P, so condition (2) fails iff eps^(p^F - 1) = 1 (mod p^2 O_k),
F a common multiple of the residue degrees of k at p.  The etale ring has
a Frobenius lift phi: phi(y) = y^p (mod p), phi^F = id (Buium, J. Algebra
198, 1997: (phi(eps) - eps^p)/p is the p-derivation of eps).

- If y = z (mod p) then y^p = z^p (mod p^2); with y = eps^p and
  z = phi(eps), induction gives eps^(p^j) = phi^(j-1)(eps^p) (mod p^2).
  As phi is invertible and phi^F = id, eps^(p^F - 1) = 1 iff
  eps^p = phi(eps) (mod p^2).
- phi(t) is the root of mu that is gamma = t^p (mod p), so by Taylor at
  phi(t), X = mu(gamma) = mu'(phi(t)) (gamma - phi(t)) (mod p^2), with
  mu'(phi(t)) = mu'(t)^p (mod p) a unit.  So condition (2) fails iff X = 0
  (mod p^2): one p-th power, which the recurrence screen takes too, so
  recurrence.cross_check reads condition (2) off the screen's X.  The
  Fermat check, true in characteristic p and raising InvariantViolation
  if not, is X = 0 (mod p).  This holds at p = 3.

ring.frobenius_defect takes gamma, X and the Fermat check slot by slot in
one straight-line function (its docstring bounds the Horner slots).
The field keeps mu and disc(mu) once per unit (NumberField.unit_min_poly,
which refuses any other element for every caller): the recurrence screen's
ring and companion_disc.

Where p divides disc(mu), the radical cofactor decides in Z[x]/(f, p^2) on
the power-basis coordinates of eps: O_K/p^2 = Z[alpha]/p^2, and the unit's
denominator, which divides the index, is prime to p.  Let r = prod g, c the
lift of prod g^(m-1), x = eps^(p^F - 1) - 1 mod p^2 and F a common
multiple of the residue degrees; at p > n none needs a factorization
(numberfield.radical_parts, _degree_multiple):

- If every m < p, c = gcd(f, f') mod p: f' = sum m Dg f/g, and g divides
  f/g exactly m - 1 times, the other terms m times, and not m Dg (g is
  separable, p does not divide m).
- If c != 1, some g has m >= 2.  A factor of degree >= 2 is that g, with
  2m <= n, or another, of degree <= n - m; so for n <= 4 every residue
  degree is 1, or 1 or 2 where n = 4 and the largest m is 2: F = 1, or 2
  there.  If the g with m >= 2 have degrees summing to 2 or more, their
  part prod g^m has degree >= 4 >= n, so f = r^2 = r c.  Otherwise c = 1
  or g^(m-1) for one linear g, and m = n + 1 - deg r is the largest.
- If c = 1, the residue degrees are the cycle lengths of x -> x^p on
  F_p[x]/(f): F = 1 if x^p = x, else 2 if x^(p^2) = x.  Otherwise a cubic
  is inert (F = 3) and a quartic 1 + 3 (F = 3) or inert (F = 4), told
  apart by Stickelberger's (disc f / p) = (-1)^(n - k) for k factors
  (Swan, Pacific J. Math. 12, 1962), which also tells a cubic's F = 2 from
  3, as recurrence.cubic_splitting does.

With such an F:

- v_P(x) >= e + 1 iff eps^(p^f - 1) = 1 (mod P^(e+1)), by the above.
- v_P(c) = e - 1.  The other factors g'(alpha) are units at P.  When
  e >= 2, p lies in P^2 and P = (p, g(alpha)), so g(alpha) is not in P^2
  and v_P(g(alpha)) = 1.
- Hence x c lies in p^2 O_K = prod P^(2e) iff v_P(x) >= e + 1 for every P:
  condition (2) fails iff x c = 0 (mod p^2).  Likewise the Fermat check,
  v_P(x) >= 1 for every P, which always holds for a unit and raises
  InvariantViolation if it does not, is x c = 0 (mod p).

condition2_holds raises ValueError at p = 2, which the criterion excludes,
and when some m >= p, where the exponent-p step fails.  The applicability
guard refuses both anyway: p = 3 must be unramified, and m <= 4 < p for
p >= 5.

condition2 is the per-P report that `prat check` prints, with the residue
eps^(p^f - 1) mod p^(e+1) in power coordinates.  For each P = (p, g(alpha))
let x = eps^(p^f - 1) - 1 mod p^2 and h the lift of (f mod p)/g^e: mod p,
h(alpha) is the product of g'(alpha)^e' over the other P' = (p, g'(alpha)),
so v_P(h) = 0 and v_P'(h^2) >= 2e', and v_P(g(alpha)^(e-1)) = e - 1 as
above (at any p).  So x g^(e-1) h^2 = 0 (mod p^2) iff
eps^(p^f - 1) = 1 (mod P^(e+1)), with the Fermat check mod p.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvariantViolation
from . import ring
from .numberfield import FieldElement, NumberField, radical_cofactor
from .recurrence import cubic_splitting

# factor is a numberfield.PrimeFactor P; residue holds the coordinates of
# eps^exponent mod p^(e+1), exponent = N(P) - 1
PerPrimeResult = namedtuple("PerPrimeResult", "factor exponent residue congruent")


class Condition2Report(namedtuple("Condition2Report", "p per_prime")):
    """per_prime holds a PerPrimeResult for each prime factor; condition (2)
    holds iff some entry is not congruent."""

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return any(not e.congruent for e in self.per_prime)


def applicability_guard(K: NumberField, p: int, max_e: int) -> str | None:
    """The reason a guard from the criterion's hypotheses refuses p, or
    None when the criterion applies.

    max_e is the largest multiplicity of a factor of f mod p, which is the
    largest e of the prime factors.

    No (K, p) that passes has p | w, the number of roots of unity in K, so
    zeta^(p^f - 1) = 1 for every root of unity zeta and every eps * zeta has
    the same congruences as eps: the torsion never changes condition (2).
    For w in degree <= 4, p | w with p odd means p = 3 or p = 5.  If 3 | w
    then sqrt(-3) is in K, so 3 ramifies and the guard refuses p = 3.  If
    5 | w then K = Q(zeta_5), which is totally ramified at 5.
    """
    if p == 2:
        return "p = 2 is outside the criterion"
    if p == 3 and max_e > 1:
        return "p = 3 must be unramified"
    if K.n == 4 and p == 5 and max_e == 4:
        return "5 totally ramified in a quartic field"
    return None


def _unit_defect(k: ring.Kernel, p: int, u: int, c) -> int:
    """(u - 1) c in Z[x]/(f, p^2), packed by k, for a power u of the unit
    packed by k and c in Z[x]; InvariantViolation unless it is 0 mod p,
    the Fermat check of both cofactor congruences (module docstring)."""
    # (x - 1) c as x c + (p^2 - 1) c: a sum of two products, one reduce
    v = k.reduce((u + p * p - 1) * k.pack(c))
    if not ring.slots_divisible(k.w, v, p):
        raise InvariantViolation(ring.FERMAT_FAILURE)
    return v


def _degree_multiple(f, p: int, parts, disc: int) -> int:
    """F, a common multiple of the residue degrees of f mod p, odd p, for
    f of degree <= 4 with disc(f) = disc and radical parts parts mod p
    (module docstring)."""
    if parts.cofactor != (1,):
        return 2 if len(f) == 5 and parts.max_e == 2 else 1
    w, gamma = ring.x_power(f, p, p)
    if len(f) == 4:
        return cubic_splitting(w, gamma, p, disc)[1]
    if ring.splits_completely(w, gamma, p):
        return 1
    if ring.splits_completely(*ring.x_power(f, p, p * p), p):
        return 2
    return 3 if pow(disc, (p - 1) // 2, p) == 1 else 4


def condition2_holds(K: NumberField, p: int, unit: FieldElement,
                     parts) -> bool:
    """Condition (2) at p for every prime factor at once, from the radical
    parts of f mod p that numberfield.certified_parts returns: in
    Z[t]/(mu, p^2) wherever p does not divide disc(mu), ramified in K or
    not, and by the radical cofactor where it does (module docstring)."""
    if p == 2 or parts.max_e >= p:
        raise ValueError("p must be odd and exceed every multiplicity")
    mu, disc_mu = K.unit_min_poly(unit)
    if disc_mu % p:  # the unit as t in Z[t]/(mu, p^2)
        return bool(ring.frobenius_defect(mu, p)[2])
    # in Z[x]/(f, p^2), where the unit's denominator divides the index
    e, k = K.power_coords_mod(unit, p * p), ring.kernel(K.poly, p * p)
    F = _degree_multiple(K.poly, p, parts, K.poly_disc)
    return bool(_unit_defect(k, p, k.pow(k.pack(e), p**F - 1), parts.cofactor))


def condition2(K: NumberField, p: int, unit: FieldElement,
               factors) -> Condition2Report:
    """The per-P report over the prime factors of p that split_prime
    returns, each P = (p, g(alpha)) decided by its cofactor congruence
    x g^(e-1) h^2 = 0 (mod p^2) (module docstring)."""
    K.unit_min_poly(unit)  # ValueError unless a unit
    pp, fbar = p * p, ring._mp(K.poly, p)
    k = ring.kernel(K.poly, pp)
    per = []
    for pf in factors:
        exponent, g = p**pf.f - 1, pf.generator
        h = ring._mp_quo(fbar, radical_cofactor(((g, pf.e + 1),), p)[1], p)
        c = ring.poly_mul(radical_cofactor(((g, pf.e),), p)[1], ring.poly_mul(h, h))
        # one power: pack reduces eps^exponent mod p^(e+1) to it mod p^2
        r = K.pow_mod(unit, exponent, p ** (pf.e + 1))
        congruent = not _unit_defect(k, p, k.pack(r.coords), c)
        per.append(PerPrimeResult(pf, exponent, r.coords, congruent))
    return Condition2Report(p, tuple(per))
