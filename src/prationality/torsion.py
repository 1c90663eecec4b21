"""The unit-congruence test: search for a prime ideal over p witnessing
eps^(p^f - 1) != 1 (mod P^(e+1)).

For each prime ideal P = (p, g(alpha)) over p the fundamental unit is raised
to p^f - 1 with coordinates reduced mod p^(e+1).  Reduction mod p^(e+1) is
legitimate because p^(e+1) O_K is contained in P^(e+1).  The residue r is
then tested on one of two paths:

- e = 1, by a cofactor congruence.  split_prime only returns when p does not
  divide the index of Z[alpha], so the Kummer-Dedekind factorization
  p O_K = prod P'^(e') holds with P' = (p, g'(alpha)).  Let h be the lift of
  (f mod p) / g, the product of the other g'^(e').  Then h(alpha) is a unit
  at P and lies in every other P'^(e'), so by CRT x = r - 1 lies in P iff
  x h(alpha) is in p O_K, and in P^2 iff x h(alpha)^2 is in p^2 O_K.  Both
  are read off the coordinates mod p^2, which is why the residue mod
  p^(e+1) = p^2 suffices and no ideal is built.
- e > 1, by HNF membership of r - 1 in P^(e+1); the same HNF test is the
  reference the selftest compares the cofactor path against.

Either path first checks x in P (Fermat), which always holds for a unit, and
raises InvariantViolation if it does not.

At odd p not dividing disc(f) no prime factor is needed (condition2_unramified,
the Fermat-quotient form of the test; Gras, Canad. J. Math. 68, 2016).  There
every e is 1 and p does not divide the index of Z[alpha], so
O_K/p^2 O_K = Z[alpha]/p^2 and p^2 O_K = prod P^2; the same holds for the
field's own basis, whose order lies between the two.  Let F be the lcm of the
residue degrees, read off the distinct-degree split of f mod p (Cohen,
GTM 138, 3.4.3), and r = eps^(p^F - 1) mod p^2.  For each P of degree f,
r = u^k with u = eps^(p^f - 1) in 1 + P and
k = (p^F - 1)/(p^f - 1) = 1 + p^f + p^(2f) + ... = 1 (mod p).  The group
(1 + P)/(1 + P^2) has exponent p, so r = 1 (mod P^2) iff u = 1 (mod P^2).
Hence condition (2) holds iff r != 1, and the Fermat check becomes
r = 1 (mod p).  Since k = 1 (mod p) for every p, the test is valid at p = 3
as well, whatever the degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from . import ring
from .errors import InvariantViolation
from .numberfield import (
    FieldElement,
    NumberField,
    PrimeFactor,
    ideal_contains,
    ideal_from_two_generators,
    ideal_pow,
)

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


def applicability_guard(K: NumberField, p: int, factors) -> NotApplicableReason | None:
    """Guards from the criterion's hypotheses; None means applicable.

    No (K, p) that passes has p | w, the number of roots of unity in K, so
    zeta^(p^f - 1) = 1 for every root of unity zeta and every eps * zeta has
    the same congruences as eps: the torsion never changes condition (2).
    For w in degree <= 4, p | w with p odd means p = 3 or p = 5.  If 3 | w
    then sqrt(-3) is in K, so 3 ramifies and the guard refuses p = 3.  If
    5 | w then K = Q(zeta_5), which is totally ramified at 5.
    """
    if p == 2:
        return NotApplicableReason("p = 2 is outside the criterion")
    if p == 3 and any(pf.e > 1 for pf in factors):
        return NotApplicableReason("p = 3 must be unramified")
    if K.n == 4 and p == 5 and len(factors) == 1 and factors[0].e == 4:
        return NotApplicableReason("5 totally ramified in a quartic field")
    return None


def _congruent_by_cofactor(K: NumberField, p: int, pf: PrimeFactor,
                           residue: FieldElement) -> bool:
    """residue = 1 (mod P^2) for P = pf with e = 1, by the cofactor
    congruence of the module docstring."""
    cofactor, _ = ring._mp_divmod(ring._mp(K.poly, p), pf.generator.coeffs, p)
    h = K.element_from_power_coords(cofactor).coords
    x = K.sub(residue, K.one()).coords
    xh = K.mul_mod(x, h, p * p)
    if any(c % p for c in xh):
        raise InvariantViolation(_FERMAT_FAILURE)
    return not any(K.mul_mod(xh, h, p * p))


def _congruent_by_hnf(K: NumberField, p: int, pf: PrimeFactor,
                      residue: FieldElement) -> bool:
    """residue = 1 (mod P^(e+1)) for P = pf, by HNF ideal membership."""
    first = ideal_from_two_generators(K, p, pf.generator)
    x = K.sub(residue, K.one())
    if not ideal_contains(K, first, x):
        raise InvariantViolation(_FERMAT_FAILURE)
    return ideal_contains(K, ideal_pow(K, first, pf.e + 1), x)


def _check_unit(K: NumberField, unit: FieldElement) -> None:
    if abs(K.norm(unit)) != 1:
        raise ValueError("unit must have norm +-1")


def global_test_applies(K: NumberField, p: int) -> bool:
    """Whether condition2_unramified decides condition (2) at p."""
    return p != 2 and K.poly_disc % p != 0


def condition2_unramified(K: NumberField, p: int, unit: FieldElement,
                          degrees) -> bool:
    """Condition (2) at an odd p not dividing disc(f), decided for every
    prime factor at once from r = eps^(p^F - 1) mod p^2 (module docstring);
    degrees are the residue degrees, as from ring.factor_degrees_mod_p."""
    if not global_test_applies(K, p):
        raise ValueError("p must be odd and prime to disc(f)")
    _check_unit(K, unit)
    pp = p * p
    r = K.pow_mod(unit, p ** lcm(*degrees) - 1, pp).coords
    x = (r[0] - 1,) + r[1:]
    if any(c % p for c in x):
        raise InvariantViolation(_FERMAT_FAILURE)
    return any(c % pp for c in x)


def condition2(K: NumberField, p: int, unit: FieldElement,
               factors) -> Condition2Report:
    """Evaluate the witness search over the given prime factors of p."""
    _check_unit(K, unit)
    per = []
    witness = None
    for pf in factors:
        exponent = p**pf.f - 1
        r = K.pow_mod(unit, exponent, p ** (pf.e + 1))
        test = _congruent_by_cofactor if pf.e == 1 else _congruent_by_hnf
        congruent = test(K, p, pf, r)
        per.append(PerPrimeResult(pf, exponent, r.coords, congruent))
        if not congruent and witness is None:
            witness = pf.label
    return Condition2Report(p, tuple(per), witness, witness is not None)
