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
"""

from __future__ import annotations

from dataclasses import dataclass

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


def condition2(K: NumberField, p: int, unit: FieldElement,
               factors) -> Condition2Report:
    """Evaluate the witness search over the given prime factors of p."""
    if abs(K.norm(unit)) != 1:
        raise ValueError("unit must have norm +-1")
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
