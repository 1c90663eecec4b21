"""The unit-congruence test: is there a prime ideal P over p with
eps^(p^f - 1) != 1 (mod P^(e+1))?

condition2_holds decides this for every P at once from the squarefree parts
f = prod g_m^m (mod p) of numberfield.squarefree_parts, with one residue mod
p^2 (Gras, Canad. J. Math. 68, 2016, for the Fermat-quotient form of the
test; Cohen, GTM 138, 4.8.2, for Kummer-Dedekind).  The parts are only
returned when p does not divide the index of Z[alpha], so every P is
(p, g(alpha)) for an irreducible factor g of some g_m, with e = m and
f = deg g.  For the same reason O_K/p^2 = Z[alpha]/p^2 and the unit's
denominator, which divides the index, is prime to p: the branches below
compute in Z[x]/(f, p^2) on the power-basis coordinates of eps (or in the
unit's own ring, see the unramified branch), by
ring.mulmod and ring.powmod's packed kernel (ring.kernel): each element is
one int from start to end, and each sum of products below is reduced once.
Let F be any common multiple of the residue degrees.  For P of degree f,
eps^(p^F - 1) = u^k with u = eps^(p^f - 1) in 1 + P and
k = (p^F - 1)/(p^f - 1) = 1 (mod p); when e + 1 <= p,
(1 + P)/(1 + P^(e+1)) has exponent p (for y in P, (1 + y)^p - 1 is p*y plus
multiples of p*y^2 plus y^p), so u^k = u (mod P^(e+1)).

At p not dividing disc(f) the parts are ((f mod p, 1),), Z_p[alpha] is
etale and has a Frobenius lift phi (phi(y) = y^p mod p, phi^F = id for F
the lcm of the residue degrees).  With e(x) the power-basis coordinates of
eps and gamma = x^p in Z[x]/(f, p^2), no factorization and no F are needed
(Buium, J. Algebra 198, 1997: (phi(eps) - eps^p)/p is the p-derivation of
eps):

- phi(alpha) = gamma - f(gamma)/f'(gamma) (mod p^2), one Newton step from
  gamma = phi(alpha) (mod p); f'(gamma) = f'(alpha)^p (mod p) is a unit.
  So phi(eps) = e(gamma) - e'(gamma) f(gamma)/f'(gamma) (mod p^2).
- If y = z (mod p) then y^p = z^p (mod p^2); with y = eps^p and
  z = phi(eps), induction gives eps^(p^k) = phi^(k-1)(eps^p) (mod p^2).
- As phi^F = id, eps^(p^F - 1) = 1 iff eps^p = phi(eps) (mod p^2).  Times
  the unit f'(gamma): condition (2) fails iff
  X = f'(gamma) (eps^p - e(gamma)) + e'(gamma) f(gamma) = 0 (mod p^2).
  The Fermat check, which holds in characteristic p and raises
  InvariantViolation if not, is f(gamma) = 0 and eps^p = e(gamma) (mod p).
  The argument holds at p = 3.

It holds for any monic g with Z_p[t]/(g) = O_K (x) Z_p in place of f.
condition2_holds takes g = chi, the unit's characteristic polynomial, and
eps = t whenever p does not divide disc(chi) = [O_K : Z[eps]]^2 d_K, which
makes Z_p[eps] = O_K (x) Z_p: then e(t) = t and eps^p = gamma, so
X = chi(gamma) and one p-th power decides.  The field keeps chi and
disc(chi) once per unit (NumberField.cached_char_poly, filled by the
loaders' harness.unit_problem).  This is the recurrence screen's
hypothesis, p not dividing companion_disc: the same ring and discriminant.
Where p divides [O_K : Z[eps]], or eps lies in a proper subfield
(disc(chi) = 0), it uses Z[x]/(f, p^2).

At ramified p no Frobenius lift exists.  Let c be the lift of
prod g_m^(m-1) and x = eps^(p^F - 1) - 1 mod p^2, with
F = lcm(1, ..., max deg g_m): every residue degree is the degree of a
factor of some g_m, so it divides F, and no factorization is needed.  In
degree n <= 4 with some m >= 2 every g_m has degree at most 2, so F <= 2.

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
eps^(p^f - 1) mod p^(e+1) in basis coordinates.  For each P = (p, g(alpha))
let x = eps^(p^f - 1) - 1 mod p^2 and h the lift of (f mod p)/g^e: mod p,
h(alpha) is the product of g'(alpha)^e' over the other P' = (p, g'(alpha)),
so v_P(h) = 0 and v_P'(h^2) >= 2e', and v_P(g(alpha)^(e-1)) = e - 1 as
above (at any p).  So x g^(e-1) h^2 = 0 (mod p^2) iff
eps^(p^f - 1) = 1 (mod P^(e+1)), with the Fermat check mod p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import InvariantViolation
from . import ring
from .numberfield import FieldElement, NumberField, PrimeFactor, radical_cofactor

_FERMAT_FAILURE = "Fermat failure: eps^(p^f-1) - 1 not in the first power"


@dataclass(frozen=True)
class NotApplicableReason:
    reason: str


@dataclass(frozen=True)
class PerPrimeResult:
    factor: PrimeFactor
    exponent: int
    residue: tuple[int, ...]
    congruent: bool


@dataclass(frozen=True)
class Condition2Report:
    p: int
    per_prime: tuple[PerPrimeResult, ...]
    witness: int | None  # label of a witnessing prime ideal
    holds: bool

    def __post_init__(self):
        some = any(not e.congruent for e in self.per_prime)
        if self.holds != some or (self.witness is not None) != some:
            raise InvariantViolation("inconsistent Condition2Report")


def applicability_guard(K: NumberField, p: int,
                        multiplicities) -> NotApplicableReason | None:
    """Guards from the criterion's hypotheses; None means applicable.

    multiplicities are the m of the squarefree parts of f mod p or the e of
    the prime factors; only their maximum is read, and it is the same.

    No (K, p) that passes has p | w, the number of roots of unity in K, so
    zeta^(p^f - 1) = 1 for every root of unity zeta and every eps * zeta has
    the same congruences as eps: the torsion never changes condition (2).
    For w in degree <= 4, p | w with p odd means p = 3 or p = 5.  If 3 | w
    then sqrt(-3) is in K, so 3 ramifies and the guard refuses p = 3.  If
    5 | w then K = Q(zeta_5), which is totally ramified at 5.
    """
    if p == 2:
        return NotApplicableReason("p = 2 is outside the criterion")
    if p == 3 and max(multiplicities) > 1:
        return NotApplicableReason("p = 3 must be unramified")
    if K.n == 4 and p == 5 and max(multiplicities) == 4:
        return NotApplicableReason("5 totally ramified in a quartic field")
    return None


def _unit_char_poly(K: NumberField, unit: FieldElement):
    """(chi, disc(chi)) of NumberField.cached_char_poly; ValueError unless
    unit is integral with N(unit) = (-1)^n chi(0) = +-1."""
    chi, disc = K.cached_char_poly(unit)
    if abs(chi[0]) != 1:
        raise ValueError("unit norm is not +-1")
    return chi, disc


def _frobenius_defect(k: ring.Kernel, f, p: int, e) -> int:
    """X in Z[x]/(f, p^2), packed by k, for the unit coordinates e at p not
    dividing disc(f) (module docstring); X = f(gamma) when e is x."""
    pp, n = p * p, ring.degree(f)
    gamma = k.pow(k.pack((0, 1)), p)
    powers = [k.pack((1,)), gamma]
    while len(powers) <= n:
        powers.append(k.reduce(powers[-1] * gamma))

    def at_gamma(g):  # slots <= (n + 1)(p^2 - 1)^2, within reduce's bound
        return k.reduce(sum(c % pp * w for c, w in zip(g, powers)))

    f_g, is_x = at_gamma(f), ring.poly(e) == (0, 1)
    # eps^p - e(gamma) with p^2 added to every slot, so no slot goes
    # negative; 0 when eps is x, as x^p = gamma
    d = 0 if is_x else k.reduce(k.pow(k.pack(e), p) - at_gamma(e)
                                + sum(pp << s for s in range(0, n * k.w, k.w)))
    if any(c % p for c in k.unpack(f_g) + k.unpack(d)):
        raise InvariantViolation(_FERMAT_FAILURE)
    if is_x:
        return f_g
    return k.reduce(at_gamma(ring.derivative(f)) * d
                    + at_gamma(ring.derivative(e)) * f_g)


def _unit_defect(k: ring.Kernel, p: int, e, exponent: int, c) -> int:
    """(eps^exponent - 1) c in Z[x]/(f, p^2), packed by k, for the unit
    coordinates e and c in Z[x]; InvariantViolation unless it is 0 mod p,
    the Fermat check of both cofactor congruences (module docstring)."""
    # (x - 1) c as x c + (p^2 - 1) c: a sum of two products, one reduce
    x = k.reduce((k.pow(k.pack(e), exponent) + p * p - 1) * k.pack(c))
    if any(v % p for v in k.unpack(x)):
        raise InvariantViolation(_FERMAT_FAILURE)
    return x


def condition2_holds(K: NumberField, p: int, unit: FieldElement,
                     parts) -> bool:
    """Condition (2) at p for every prime factor at once, from the
    squarefree parts of f mod p that numberfield.squarefree_parts returns:
    by the Frobenius lift at unramified p, in Z[t]/(chi, p^2) when p does
    not divide disc(chi), by the radical cofactor at ramified p (module
    docstring)."""
    if p == 2 or any(m >= p for _, m in parts):
        raise ValueError("p must be odd and exceed every multiplicity")
    chi, disc_chi = _unit_char_poly(K, unit)
    pp, f = p * p, K.poly
    unramified = len(parts) == 1 and parts[0][1] == 1
    if unramified and disc_chi % p:
        return bool(_frobenius_defect(ring.kernel(chi, pp), chi, p, (0, 1)))
    # the unit in Z[x]/(f, p^2); its denominator divides the index
    k, e = ring.kernel(f, pp), K.power_coords_mod(unit, pp)
    if unramified:
        return bool(_frobenius_defect(k, f, p, e))
    F = lcm(*range(1, max(g.degree for g, _ in parts) + 1))
    return bool(_unit_defect(k, p, e, p**F - 1, radical_cofactor(parts, p)))


def condition2(K: NumberField, p: int, unit: FieldElement,
               factors) -> Condition2Report:
    """The per-P report over the prime factors of p that split_prime
    returns, each P = (p, g(alpha)) decided by its cofactor congruence
    x g^(e-1) h^2 = 0 (mod p^2) (module docstring)."""
    _unit_char_poly(K, unit)  # ValueError unless a unit
    pp, fbar = p * p, ring._mp(K.poly, p)
    k = ring.kernel(K.poly, pp)
    e = K.power_coords_mod(unit, pp)  # its denominator divides the index
    per, witness = [], None
    for pf in factors:
        exponent, g = p**pf.f - 1, pf.generator
        h = ring._mp_divmod(fbar, radical_cofactor(((g, pf.e + 1),), p), p)[0]
        c = ring.poly_mul(radical_cofactor(((g, pf.e),), p), ring.poly_mul(h, h))
        congruent = not _unit_defect(k, p, e, exponent, c)
        r = K.pow_mod(unit, exponent, p ** (pf.e + 1))
        per.append(PerPrimeResult(pf, exponent, r.coords, congruent))
        if not congruent and witness is None:
            witness = pf.label
    return Condition2Report(p, tuple(per), witness, witness is not None)
