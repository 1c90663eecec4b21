"""Third-order recurrence screen for unit congruences.

From the minimal polynomial x^3 - a2 x^2 - a1 x - a0 of a cubic fundamental
unit, the sequence F_{n+3} = a2 F_{n+2} + a1 F_{n+1} + a0 F_n with
F0 = F1 = 0, F2 = 1 is evaluated at the index matching the splitting type of
p (p-1, p^2-1 or p^3-1) modulo p^2, read off x^n modulo the companion
polynomial and p^2.  A nonzero value implies the existence of a witness
prime for the unit-congruence test; the implication is one directional and
cross-checked against the direct evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import InvariantViolation
from .numberfield import (FieldElement, NumberField, part_shapes,
                          squarefree_parts)
from .ring import det_bareiss, discriminant, poly, powmod
from . import torsion as torsion_mod

SPLIT_COMPLETELY = "split-completely"
MIXED_1_2 = "1+2"
INERT = "inert"


@dataclass(frozen=True)
class RecurrenceSpec:
    """Coefficients of x^3 - a2 x^2 - a1 x - a0; initial terms are fixed."""

    a2: int
    a1: int
    a0: int

    @property
    def companion_poly(self) -> tuple[int, ...]:
        return poly((-self.a0, -self.a1, -self.a2, 1))

    @cached_property
    def companion_disc(self) -> int:
        return discriminant(self.companion_poly)


@dataclass(frozen=True)
class ScreenResult:
    index: int
    value: int
    nonzero: bool


@dataclass(frozen=True)
class ConsistencyReport:
    p: int
    splitting: str
    screen: ScreenResult
    witness_exists: bool
    violation: bool

    @property
    def screen_nonzero(self) -> bool:
        return self.screen.nonzero


def f_index_mod(spec: RecurrenceSpec, n: int, modulus: int) -> int:
    """F_n mod modulus by Fiduccia's method: x^k -> F_k vanishes on the
    multiples of the companion polynomial, so with x^n = r0 + r1 x + r2 x^2
    modulo it, F_n = r0 F0 + r1 F1 + r2 F2 = r2.  ValueError for n < 0 or
    modulus < 2."""
    r = powmod((0, 1), n, spec.companion_poly, modulus)
    return r[2] if len(r) > 2 else 0


def splitting_type(shape) -> str:
    """Name of an unramified cubic splitting from its (e, f) pairs."""
    shapes = sorted(shape)
    if shapes == [(1, 1), (1, 1), (1, 1)]:
        return SPLIT_COMPLETELY
    if shapes == [(1, 1), (1, 2)]:
        return MIXED_1_2
    if shapes == [(1, 3)]:
        return INERT
    raise ValueError(f"unramified cubic splitting expected, got {shapes}")


def screen(spec: RecurrenceSpec, p: int, splitting: str) -> ScreenResult:
    """Evaluate the case-appropriate F index mod p^2."""
    if p == 2:
        raise ValueError("p must be odd")
    if spec.companion_disc % p == 0:
        raise ValueError("p divides the discriminant of the companion polynomial")
    index = {
        SPLIT_COMPLETELY: p - 1,
        MIXED_1_2: p * p - 1,
        INERT: p**3 - 1,
    }[splitting]
    value = f_index_mod(spec, index, p * p)
    return ScreenResult(index, value, value != 0)


def minimal_poly_spec(K: NumberField, unit: FieldElement) -> RecurrenceSpec:
    """RecurrenceSpec from the characteristic polynomial of multiplication by
    the unit; rejects units generating a proper subfield."""
    if K.n != 3:
        raise ValueError("recurrence screen is for cubic fields")
    # char poly of M/den: t^3 - tr t^2 + s2 t - det, with tr, s2 and det
    # those of M over den, den^2 and den^3 (all transpose-invariant, so the
    # columns of mul_matrix serve as M)
    m = K.mul_matrix(unit)
    den = unit.den
    tr = m[0][0] + m[1][1] + m[2][2]
    s2 = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i]
             for i, j in ((0, 1), (0, 2), (1, 2)))
    det = det_bareiss(m)
    if tr % den or s2 % den**2 or det % den**3:
        raise ValueError("unit is not integral")
    spec = RecurrenceSpec(a2=tr // den, a1=-(s2 // den**2), a0=det // den**3)
    if spec.companion_disc == 0:
        raise ValueError("unit generates a proper subfield (degree drop)")
    if not _satisfies(K, unit, spec.companion_poly):
        raise InvariantViolation("unit does not satisfy its characteristic polynomial")
    return spec


def _satisfies(K: NumberField, x: FieldElement, f) -> bool:
    """Whether f(x) = 0 in K."""
    acc = K.zero()
    powv = K.one()
    for c in f:
        if c:
            acc = K.add(acc, FieldElement(tuple(c * v for v in powv.coords), powv.den))
        powv = K.mul(powv, x)
    return K.equals(acc, K.zero())


@lru_cache(maxsize=64)
def _check_spec(K: NumberField, unit: FieldElement, spec: RecurrenceSpec) -> None:
    """Raise ValueError unless spec is the characteristic polynomial of the
    unit; once per (field, unit, spec).  In a cubic field that holds iff the
    unit is irrational and satisfies the spec's companion polynomial, which
    is cheaper to check than recomputing it."""
    if not any(unit.coords[1:]) or not _satisfies(K, unit, spec.companion_poly):
        raise ValueError("spec does not match the minimal polynomial of the unit")


def cross_check(K: NumberField, unit: FieldElement, spec: RecurrenceSpec,
                p: int) -> ConsistencyReport:
    """Assert the screen's implication against the direct congruence test.

    spec must be the characteristic polynomial of the unit (_check_spec).
    """
    _check_spec(K, unit, spec)
    parts = squarefree_parts(K, p)
    stype = splitting_type(part_shapes(parts))
    sres = screen(spec, p, stype)
    holds = torsion_mod.condition2_holds(K, p, unit, parts)
    violation = sres.nonzero and not holds
    return ConsistencyReport(p, stype, sres, holds, violation)
