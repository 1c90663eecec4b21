"""The unit-congruence test: is there a prime ideal P over p with
eps^(p^f - 1) != 1 (mod P^(e+1))?

condition2_holds decides this for every P at once from the squarefree parts
f = prod g_m^m (mod p) of numberfield.squarefree_parts, with one residue mod
p^2 (Gras, Canad. J. Math. 68, 2016, for the Fermat-quotient form of the
test; Cohen, GTM 138, 4.8.2, for Kummer-Dedekind).  The parts are only
returned when p does not divide the index of Z[alpha], so every P is
(p, g(alpha)) for an irreducible factor g of some g_m, with e = m and
f = deg g.  Both branches compute on ring.kernel's packed ints, and each
sum of products below is reduced once.
Let F be any common multiple of the residue degrees.  For P of degree f,
eps^(p^F - 1) = u^k with u = eps^(p^f - 1) in 1 + P and
k = (p^F - 1)/(p^f - 1) = 1 (mod p); when e + 1 <= p,
(1 + P)/(1 + P^(e+1)) has exponent p (for y in P, (1 + y)^p - 1 is p*y plus
multiples of p*y^2 plus y^p), so u^k = u (mod P^(e+1)).

At p unramified in K and prime to disc(mu), mu the minimal polynomial of
eps, condition2_holds works in the unit's own ring Z[t]/(mu, p^2), eps = t.
By the above, condition (2) fails iff eps^(p^F - 1) = 1 (mod p^2 O_K).  For
k = Q(eps), O_K meets k in O_k, so this holds iff it holds mod p^2 O_k; p is
unramified in k, and each residue degree in k divides one in K, so F is a
common multiple of those too.  As p does not divide
disc(mu) = [O_k : Z[eps]]^2 d_k, O_k (x) Z_p = Z_p[t]/(mu) is etale, with
a Frobenius lift phi: phi(y) = y^p (mod p), phi^F = id (Buium, J. Algebra
198, 1997: (phi(eps) - eps^p)/p is the p-derivation of eps).

- If y = z (mod p) then y^p = z^p (mod p^2); with y = eps^p and
  z = phi(eps), induction gives eps^(p^j) = phi^(j-1)(eps^p) (mod p^2).
  As phi is invertible and phi^F = id, eps^(p^F - 1) = 1 iff
  eps^p = phi(eps) (mod p^2).
- phi(t) is the root of mu that is gamma = t^p (mod p), so by Taylor at
  phi(t), X = mu(gamma) = mu'(phi(t)) (gamma - phi(t)) (mod p^2), with
  mu'(phi(t)) = mu'(t)^p (mod p) a unit.  So condition (2) fails iff X = 0
  (mod p^2): one p-th power, which the recurrence screen takes for its own
  (recurrence.cross_check).  The Fermat check, true in characteristic p and
  raising InvariantViolation if not, is X = 0 (mod p).  This holds at p = 3.

_value_at takes mu(gamma) by Horner, then the Fermat check slot by slot.
The field keeps mu and disc(mu) once per unit (NumberField.unit_min_poly,
which refuses any other element for every caller): the recurrence screen's
ring and companion_disc.

Everywhere else, at ramified p and where p divides disc(mu) (so
[O_k : Z[eps]]), the radical cofactor decides in Z[x]/(f, p^2) on the
power-basis coordinates of eps: O_K/p^2 = Z[alpha]/p^2, and the unit's
denominator, which divides the index, is prime to p.  Let c be the lift of
prod g_m^(m-1) and x = eps^(p^F - 1) - 1 mod p^2, with
F = lcm(1, ..., max deg g_m): every residue degree is the degree of a
factor of some g_m, so it divides F, and no factorization is needed.  At
unramified p, c = 1 and F = lcm(1, ..., n); in degree n <= 4 with some
m >= 2 every g_m has degree at most 2, so F <= 2.

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
from math import lcm

from .errors import InvariantViolation
from . import ring
from .numberfield import FieldElement, NumberField, checked_make, radical_cofactor

_FERMAT_FAILURE = "Fermat failure: eps^(p^f-1) - 1 not in the first power"


# factor is a numberfield.PrimeFactor P; residue holds the coordinates of
# eps^exponent mod p^(e+1), exponent = N(P) - 1
PerPrimeResult = namedtuple("PerPrimeResult", "factor exponent residue congruent")


class Condition2Report(namedtuple("Condition2Report", "p per_prime witness holds")):
    """per_prime holds a PerPrimeResult for each prime factor; witness is the
    label of a witnessing prime ideal, or None when there is none."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, p, per_prime, witness, holds):
        some = any(not e.congruent for e in per_prime)
        if holds != some or (witness is not None) != some:
            raise InvariantViolation("inconsistent Condition2Report")
        return super().__new__(cls, p, per_prime, witness, holds)


def applicability_guard(K: NumberField, p: int, max_e: int) -> str | None:
    """The reason a guard from the criterion's hypotheses refuses p, or
    None when the criterion applies.

    max_e is the largest m of the squarefree parts of f mod p, which is the
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


def _fermat_checked(k: ring.Kernel, p: int, v: int) -> int:
    """v packed by k; InvariantViolation unless each slot is 0 mod p."""
    if not ring.slots_divisible(k, v, p):
        raise InvariantViolation(_FERMAT_FAILURE)
    return v


def _value_at(k: ring.Kernel, g, p: int, gamma: int) -> int:
    """Fermat-checked g(gamma) in Z[x]/(g, p^2), packed by k, for monic g
    of degree n >= 2 and gamma = x^p packed by k: X for g = mu.  Horner
    takes n - 1 reduces: slot 0 of gamma + c is <= 2(p^2 - 1), so each
    product slot is <= (n + 1)(p^2 - 1)^2 + (p^2 - 1) <= 2n(p^2 - 1)^2."""
    pp = p * p
    v = gamma + g[-2] % pp
    for c in g[-3::-1]:
        v = k.reduce(v * gamma + c % pp)
    return _fermat_checked(k, p, v)


def _unit_defect(k: ring.Kernel, p: int, u: int, c) -> int:
    """(u - 1) c in Z[x]/(f, p^2), packed by k, for a power u of the unit
    packed by k and c in Z[x]; InvariantViolation unless it is 0 mod p,
    the Fermat check of both cofactor congruences (module docstring)."""
    # (x - 1) c as x c + (p^2 - 1) c: a sum of two products, one reduce
    return _fermat_checked(k, p, k.reduce((u + p * p - 1) * k.pack(c)))


def condition2_holds(K: NumberField, p: int, unit: FieldElement,
                     parts) -> bool:
    """Condition (2) at p for every prime factor at once, from the
    squarefree parts of f mod p that numberfield.squarefree_parts returns:
    in Z[t]/(mu, p^2) at unramified p not dividing disc(mu), by the radical
    cofactor everywhere else (module docstring)."""
    unramified = len(parts) == 1 and parts[0][1] == 1
    if p == 2 or not unramified and max(m for _, m in parts) >= p:
        raise ValueError("p must be odd and exceed every multiplicity")
    mu, disc_mu = K.unit_min_poly(unit)
    if unramified and disc_mu % p:  # the unit as t in Z[t]/(mu, p^2)
        k = ring.kernel(mu, p * p)
        return bool(_value_at(k, mu, p, k.pow(k.x, p)))
    # in Z[x]/(f, p^2), where the unit's denominator divides the index
    e, k = K.power_coords_mod(unit, p * p), ring.kernel(K.poly, p * p)
    F = lcm(*range(1, max(ring.degree(g) for g, _ in parts) + 1))
    return bool(_unit_defect(k, p, k.pow(k.pack(e), p**F - 1),
                             radical_cofactor(parts, p)))


def condition2(K: NumberField, p: int, unit: FieldElement,
               factors) -> Condition2Report:
    """The per-P report over the prime factors of p that split_prime
    returns, each P = (p, g(alpha)) decided by its cofactor congruence
    x g^(e-1) h^2 = 0 (mod p^2) (module docstring)."""
    K.unit_min_poly(unit)  # ValueError unless a unit
    pp, fbar = p * p, ring._mp(K.poly, p)
    k = ring.kernel(K.poly, pp)
    per, witness = [], None
    for pf in factors:
        exponent, g = p**pf.f - 1, pf.generator
        h = ring._mp_quo(fbar, radical_cofactor(((g, pf.e + 1),), p), p)
        c = ring.poly_mul(radical_cofactor(((g, pf.e),), p), ring.poly_mul(h, h))
        # one power: pack reduces eps^exponent mod p^(e+1) to it mod p^2
        r = K.pow_mod(unit, exponent, p ** (pf.e + 1))
        congruent = not _unit_defect(k, p, k.pack(r.coords), c)
        per.append(PerPrimeResult(pf, exponent, r.coords, congruent))
        if not congruent and witness is None:
            witness = pf.label
    return Condition2Report(p, tuple(per), witness, witness is not None)
