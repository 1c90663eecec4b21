"""Hilbert p-class-field containment (condition 1) and verdict assembly.

Condition (1) is decided on two branches: trivially when p does not divide
the class number, and through the split-cyclic Log-index procedure when the
record supplies an auxiliary non-principal prime ideal Q with a generator of
Q^p.  The latter takes truncated p-adic logarithms in Z[x]/(f, p^k) on
power-basis coordinates, on the same packed kernel as condition (2), and
compares the image of Q against the line spanned by the fundamental unit's
log modulo p.  No verdict factors f mod p into irreducibles.
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
    part_shapes,
    principal_ideal,
    squarefree_parts,
)
from .ring import ModPoly, log_principal, poly_sub, powmod
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


def _completely_split(K: NumberField, p: int) -> bool:
    return part_shapes(squarefree_parts(K, p)) == ((1, 1),) * K.n


def log_index_split_cyclic(K: NumberField, p: int, Q, g: FieldElement,
                           unit: FieldElement, precision: int = 4) -> int:
    """The index (Log(I_p) : Log(P_p)) in {1, p} for a completely split
    odd prime p, computed from a generator g of Q^p (Gras, Class Field
    Theory: From Theory to Practice, Springer 2003, ch. III; Movahhedi,
    Math. Nachr. 149, 1990).  Log(Q) = log(g^(p-1)) / (p (p-1)) and the
    unit's log(eps^(p-1)) are taken in Z[x]/(f, p^k) on power-basis
    coordinates; the index is 1 iff Log(Q) mod p lies on the F_p line of
    the unit's log divided by its least power of p.

    For p not dividing the index, evaluation at the Hensel lifts of the n
    roots of f mod p is a ring isomorphism (Z/p^k)[x]/(f) -> (Z/p^k)^n
    whose Vandermonde matrix is invertible mod p, so log commutes with it
    and valuations and F_p lines are the same in both coordinates.

    Valuations that stay undecided at the working precision trigger a retry
    with doubled precision, capped at 16 digits; past the cap the decision is
    abandoned (PrecisionExhausted).
    """
    if p == 2:
        raise ValueError("p must be odd")
    if Q.norm % p == 0:
        raise ValueError("auxiliary ideal must be prime to p")
    if principal_ideal(K, g).rows != ideal_pow(K, Q, p).rows:
        raise ValueError("generator does not generate Q^p")
    if not _completely_split(K, p):
        raise ValueError("p is not completely split")
    # k = 2 never decides: the unit's log is divisible by p = p^(k - 1)
    k = precision if precision > 2 else 4
    while True:
        try:
            return _log_index_at_precision(K, p, g, unit, k)
        except PrecisionExhausted:
            if 2 * k > PRECISION_CAP:
                raise
            k *= 2


def _log_power(K: NumberField, p: int, k: int, x: FieldElement,
               name: str) -> list[int]:
    """log(x^(p-1)) mod p^k on power-basis coordinates; ValueError when
    x's denominator is not prime to p (NumberField.power_coords_mod)."""
    pk = p**k
    v = powmod(K.power_coords_mod(x, pk), p - 1, K.poly, pk)
    if any(c % p for c in poly_sub(v, (1,))):
        raise ValueError(f"{name} is not a unit at p")
    return log_principal(v, K.poly, p, k)


def _log_index_at_precision(K: NumberField, p: int, g: FieldElement,
                            unit: FieldElement, k: int) -> int:
    u = _log_power(K, p, k, g, "generator")
    w = _log_power(K, p, k, unit, "unit")
    assert all(c % p == 0 for c in u), "log of a principal unit is 0 mod p"
    d = gcd(p ** (k - 1), *w)  # p^min(v(w), k - 1)
    if d == p ** (k - 1):
        raise PrecisionExhausted("unit logs vanish at the working precision")
    wbar = [c // d % p for c in w]
    ubar = [c // p % p for c in u]  # (p - 1) Log(Q): the same F_p line
    # index 1 iff ubar lies on the F_p line spanned by wbar
    pivot = next(i for i, c in enumerate(wbar) if c)
    c = ubar[pivot] * pow(wbar[pivot], -1, p) % p
    on_line = all(x == c * y % p for x, y in zip(ubar, wbar))
    return 1 if on_line else p


def condition1(K: NumberField, p: int, *, class_number: int | None,
               unit: FieldElement,
               aux: AuxIdealData | None = None) -> Condition1Report:
    """Decide condition (1) where possible.

    p coprime to h(K) settles it trivially.  Otherwise the split-cyclic
    branch requires: p completely split, p-part of the class group cyclic of
    order exactly p, and record-supplied auxiliary ideal data.  Anything
    else is Undetermined.
    """
    if class_number is None:
        raise ValueError("class number is required for condition (1)")
    if class_number < 1:
        raise ValueError("class number must be positive")
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
    if not _completely_split(K, p):
        return Condition1Report(UNDETERMINED, detail="p is not completely split")
    Q = ideal_from_two_generators(
        K, aux.q, ModPoly(tuple(c % aux.q for c in aux.gen_poly), aux.q)
    )
    g = K.element_from_power_coords(aux.power_gen, aux.power_gen_den)
    try:
        idx = log_index_split_cyclic(K, p, Q, g, unit)
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
