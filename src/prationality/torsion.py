"""The unit-congruence test: search for a prime ideal over p witnessing
eps^(p^f - 1) != 1 (mod p^(e+1)).

Every splitting shape runs through one uniform algorithm: for each prime
ideal over p, raise the fundamental unit to p^f - 1 with coordinates reduced
mod p^(e+1) and test membership of the residue minus 1 in the HNF of the
(e+1)-st ideal power.  Reduction mod p^(e+1) is legitimate because
p^(e+1) O_K is contained in every such ideal power.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation
from .numberfield import (
    FieldElement,
    NumberField,
    PrimeFactor,
    ideal_contains,
    ideal_from_two_generators,
    ideal_pow,
    is_completely_split,
)


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
    """Guards from the criterion's hypotheses; None means applicable."""
    if p == 2:
        return NotApplicableReason("p = 2 is outside the criterion")
    if p == 3 and any(pf.e > 1 for pf in factors):
        return NotApplicableReason("p = 3 must be unramified")
    if K.n == 4 and p == 5 and len(factors) == 1 and factors[0].e == 4:
        return NotApplicableReason("5 totally ramified in a quartic field")
    return None


def _unit_variants(K: NumberField, unit: FieldElement, torsion_order: int,
                   torsion_gen: FieldElement | None):
    """eps * zeta^j for every torsion generator power (trivial when w <= 2:
    the sign never changes any congruence since p^f - 1 is even)."""
    if torsion_order <= 2 or torsion_gen is None:
        return [unit]
    variants = []
    cur = unit
    for _ in range(torsion_order):
        variants.append(cur)
        cur = K.mul(cur, torsion_gen)
    return variants


def condition2(K: NumberField, p: int, unit: FieldElement, factors,
               torsion_order: int = 2,
               torsion_gen: FieldElement | None = None) -> Condition2Report:
    """Evaluate the witness search over the given prime factors of p."""
    if abs(K.norm(unit)) != 1:
        raise ValueError("unit must have norm +-1")
    variants = _unit_variants(K, unit, torsion_order, torsion_gen)
    per = []
    witness = None
    for pf in factors:
        exponent = p**pf.f - 1
        modulus = p ** (pf.e + 1)
        first = ideal_from_two_generators(K, p, pf.generator)
        power = ideal_pow(K, first, pf.e + 1)
        congruent = True
        residue = None
        for u in variants:
            r = K.pow_mod(u, exponent, modulus)
            if residue is None:
                residue = r.coords
            shifted = K.sub(r, K.one())
            if not ideal_contains(K, first, shifted):
                raise InvariantViolation(
                    "Fermat failure: eps^(p^f-1) - 1 not in the first power"
                )
            if not ideal_contains(K, power, shifted):
                congruent = False
        per.append(PerPrimeResult(pf, exponent, residue, congruent))
        if not congruent and witness is None:
            witness = pf.label
    return Condition2Report(p, tuple(per), witness, witness is not None)


def condition2_split_crt_check(K: NumberField, p: int, unit: FieldElement,
                               factors) -> bool:
    """Completely split cubic case: the single global congruence
    eps^(p-1) mod p^2 O_K decides the same predicate (CRT)."""
    if K.n != 3 or not is_completely_split(K, factors):
        raise ValueError("requires a completely split cubic instance")
    if p < 3:
        raise ValueError("requires p >= 3")
    r = K.pow_mod(unit, p - 1, p * p)
    return r.coords != K.one().coords


def prop24_equivalence_check(K: NumberField, p: int, unit: FieldElement,
                             pf2: PrimeFactor) -> bool:
    """For a degree-1 unramified factor, eps^(p-1) = 1 (mod pf2^2) iff
    eps^(p^2-1) = 1 (mod pf2^2); returns whether the two tests agree."""
    if (pf2.e, pf2.f) != (1, 1):
        raise ValueError("requires a factor with e = 1, f = 1")
    sq = ideal_pow(K, ideal_from_two_generators(K, p, pf2.generator), 2)
    lhs = ideal_contains(
        K, sq, K.sub(K.pow_mod(unit, p - 1, p * p), K.one())
    )
    rhs = ideal_contains(
        K, sq, K.sub(K.pow_mod(unit, p * p - 1, p * p), K.one())
    )
    return lhs == rhs
