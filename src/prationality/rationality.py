"""Hilbert p-class-field containment (condition 1) and verdict assembly.

Condition (1) is decided on two branches: trivially when p does not divide
the class number, and through the split-cyclic Log-index procedure when the
record supplies an auxiliary non-principal prime ideal Q with a generator of
Q^p.  The latter embeds the field into its p completions by Hensel lifting
the roots of f mod p, takes truncated p-adic logarithms, and compares the
image of Q against the lattice of principal logs modulo the line spanned by
the fundamental unit's logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import PrecisionExhausted
from .numberfield import (
    FieldElement,
    NumberField,
    ideal_from_two_generators,
    ideal_pow,
    is_completely_split,
    principal_ideal,
    split_prime,
    squarefree_parts,
)
from .ring import (
    ModPoly,
    PadicApprox,
    hensel_lift_root,
    padic_log,
)
from . import torsion as torsion_mod

PRECISION_CAP = 16

# condition-1 branches
TRIVIAL_CLASS_NUMBER = "TrivialClassNumber"
SPLIT_CYCLIC_INDEX = "SplitCyclicIndex"
UNDETERMINED = "Undetermined"

# verdict statuses
P_RATIONAL = "PRational"
NOT_P_RATIONAL = "NotPRational"
VERDICT_UNDETERMINED = "Undetermined"
NOT_APPLICABLE = "NotApplicable"

# reason tags
CLASS_NUMBER_DIVISIBLE = "classNumberDivisible"
TORSION_NONTRIVIAL = "torsionNontrivial"
GUARD = "guard"
CONDITION1_UNDETERMINED = "condition1Undetermined"


@dataclass(frozen=True)
class AuxIdealData:
    """An auxiliary prime ideal Q = (q, gen_poly(alpha)) together with a
    generator g of Q^p, in power-basis coordinates."""

    q: int
    gen_poly: tuple[int, ...]
    power_gen: tuple[int, ...]
    power_gen_den: int = 1


@dataclass(frozen=True)
class Condition1Report:
    branch: str
    index: int | None = None
    holds: bool | None = None
    detail: str = ""


@dataclass(frozen=True)
class Verdict:
    status: str
    reasons: tuple[str, ...]
    condition1: Condition1Report | None = None
    guard_reason: str = ""


def _embed(K: NumberField, x: FieldElement, root: PadicApprox) -> int:
    """Image of x in Z/p^k under alpha -> lifted root."""
    p, k = root.prime, root.precision
    m = p**k
    coeffs, den = K.to_power_coords(x)
    if gcd(den, p) != 1:
        raise ValueError("element denominator not invertible at p")
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * root.value + c) % m
    return acc * pow(den, -1, m) % m


def log_index_split_cyclic(K: NumberField, p: int, factors, Q,
                           g: FieldElement, unit: FieldElement,
                           precision: int = 4) -> int:
    """The lattice index (Log(I_p) : Log(P_p)) in {1, p} for a completely
    split odd prime p with prime factors `factors`, computed from a generator
    g of Q^p.

    The p completions send alpha to the Hensel lifts of the roots of f mod p,
    read off the linear factors and labelled in the order of `factors` (the
    index is label-invariant).

    Valuations that stay undecided at the working precision trigger a retry
    with doubled precision, capped at 16 digits; past the cap the decision is
    abandoned (PrecisionExhausted).
    """
    if p == 2:
        raise ValueError("p must be odd")
    if Q.norm % p == 0:
        raise ValueError("auxiliary ideal must be prime to p")
    if not g.is_integral:
        raise ValueError("generator of Q^p must be integral")
    if principal_ideal(K, g).rows != ideal_pow(K, Q, p).rows:
        raise ValueError("generator does not generate Q^p")
    if not is_completely_split(K, factors):
        raise ValueError("p is not completely split")
    roots = [(-pf.generator.coeffs[0]) % p for pf in factors]
    k = max(precision, 2)
    while True:
        try:
            return _log_index_at_precision(K, p, roots, g, unit, k)
        except PrecisionExhausted:
            if 2 * k > PRECISION_CAP:
                raise
            k *= 2


def _log_index_at_precision(K: NumberField, p: int, roots, g: FieldElement,
                            unit: FieldElement, k: int) -> int:
    lifted = [hensel_lift_root(K.poly, p, r, k) for r in roots]
    pk = p**k

    u_res = []  # Log(Q) coordinates, exact mod p^(k-1)
    w_res = []  # log of the unit embeddings, exact mod p^k
    inv_p1 = pow(p - 1, -1, pk)
    for root in lifted:
        gi = _embed(K, g, root)
        if gi % p == 0:
            raise ValueError("generator is not a unit at p")
        li = padic_log(PadicApprox(pow(gi, p - 1, pk), k, p)).value
        assert li % p == 0, "log of a (p-1)-st power has positive valuation"
        u_res.append((li // p) * inv_p1 % p ** (k - 1))
        ei = _embed(K, unit, root)
        w_res.append(padic_log(PadicApprox(pow(ei, p - 1, pk), k, p)))

    known = [v for v in (w.valuation() for w in w_res) if v is not None]
    if not known or min(known) >= k - 1:
        raise PrecisionExhausted("unit logs vanish at the working precision")
    m = min(known)
    wbar = [(w.value // p**m) % p for w in w_res]
    ubar = [u % p for u in u_res]
    # index 1 iff ubar lies on the F_p line spanned by wbar
    pivot = next(i for i, w in enumerate(wbar) if w != 0)
    c = ubar[pivot] * pow(wbar[pivot], -1, p) % p
    on_line = all(u == c * w % p for u, w in zip(ubar, wbar))
    return 1 if on_line else p


def condition1(K: NumberField, p: int, *, class_number: int | None,
               unit: FieldElement,
               aux: AuxIdealData | None = None) -> Condition1Report:
    """Decide condition (1) where possible.

    p coprime to h(K) settles it trivially.  Otherwise the split-cyclic
    branch requires: p completely split, p-part of the class group cyclic of
    order exactly p, and record-supplied auxiliary ideal data; only this
    branch splits p into prime ideals.  Anything else is Undetermined.
    """
    if class_number is None:
        raise ValueError("class number is required for condition (1)")
    if class_number % p != 0:
        return Condition1Report(TRIVIAL_CLASS_NUMBER, holds=True)
    vp = 0
    h = class_number
    while h % p == 0:
        h //= p
        vp += 1
    if vp != 1:
        return Condition1Report(
            UNDETERMINED, detail=f"p-class group of order p^{vp} not handled"
        )
    if aux is None:
        return Condition1Report(UNDETERMINED, detail="no auxiliary ideal data")
    factors = split_prime(K, p)
    if not is_completely_split(K, factors):
        return Condition1Report(UNDETERMINED, detail="p is not completely split")
    Q = ideal_from_two_generators(
        K, aux.q, ModPoly(tuple(c % aux.q for c in aux.gen_poly), aux.q)
    )
    g = K.element_from_power_coords(aux.power_gen, aux.power_gen_den)
    try:
        idx = log_index_split_cyclic(K, p, factors, Q, g, unit)
    except PrecisionExhausted as exc:
        return Condition1Report(UNDETERMINED, detail=str(exc))
    return Condition1Report(SPLIT_CYCLIC_INDEX, index=idx, holds=(idx == p))


def verdict(K: NumberField, p: int, *, unit: FieldElement,
            class_number: int | None,
            aux: AuxIdealData | None = None) -> Verdict:
    """Assemble the final p-rationality verdict for one (field, prime).

    One path for every p: the squarefree parts of f mod p (certified, and
    free at p not dividing disc(f)), the applicability guard on their
    multiplicities, condition (2) from the parts, then condition (1).
    """
    if not K.criterion_eligible:
        return Verdict(NOT_APPLICABLE, (GUARD,), guard_reason=
                       "field is not complex cubic or pure imaginary quartic")
    parts = squarefree_parts(K, p)  # SplittingUndetermined propagates
    guard = torsion_mod.applicability_guard(K, p, [m for _, m in parts])
    if guard is not None:
        return Verdict(NOT_APPLICABLE, (GUARD,), guard_reason=guard.reason)
    holds2 = torsion_mod.condition2_holds(K, p, unit, parts)
    rep1 = condition1(K, p, class_number=class_number, unit=unit, aux=aux)
    reasons = []
    if class_number is not None and class_number % p == 0:
        reasons.append(CLASS_NUMBER_DIVISIBLE)
    if not holds2:
        reasons.insert(0, TORSION_NONTRIVIAL)
        return Verdict(NOT_P_RATIONAL, tuple(reasons), rep1)
    if rep1.holds is True:
        return Verdict(P_RATIONAL, (), rep1)
    if rep1.holds is False:
        return Verdict(NOT_P_RATIONAL, tuple(reasons), rep1)
    reasons.append(CONDITION1_UNDETERMINED)
    return Verdict(VERDICT_UNDETERMINED, tuple(reasons), rep1)
