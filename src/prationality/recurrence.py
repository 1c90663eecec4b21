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
from functools import cached_property

from .numberfield import (FieldElement, NumberField, part_shapes,
                          squarefree_parts)
from .ring import discriminant, poly, powmod
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
    """RecurrenceSpec from the characteristic polynomial of the unit
    (NumberField.cached_char_poly); rejects units generating a proper
    subfield."""
    if K.n != 3:
        raise ValueError("recurrence screen is for cubic fields")
    c, _ = K.cached_char_poly(unit)  # ValueError unless integral
    spec = RecurrenceSpec(a2=-c[2], a1=-c[1], a0=-c[0])
    if spec.companion_disc == 0:
        raise ValueError("unit generates a proper subfield (degree drop)")
    return spec


def _check_spec(K: NumberField, unit: FieldElement, spec: RecurrenceSpec) -> None:
    """Raise ValueError unless spec is the characteristic polynomial of the
    unit, which the field computes once."""
    if K.cached_char_poly(unit)[0] != spec.companion_poly:
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
