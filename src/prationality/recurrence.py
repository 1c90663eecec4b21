"""Third-order recurrence screen for unit congruences.

From the minimal polynomial chi = x^3 - a2 x^2 - a1 x - a0 of a cubic
fundamental unit, the sequence F_{n+3} = a2 F_{n+2} + a1 F_{n+1} + a0 F_n
with F0 = F1 = 0, F2 = 1 is evaluated at the index matching the splitting
type of p (p-1, p^2-1 or p^3-1) modulo p^2, read off t^n in Z[t]/(chi, p^2).
A nonzero value implies the existence of a witness prime for the
unit-congruence test; the implication is one directional, and cross_check
tests it against condition (2) decided from the screen's own t^p (torsion).

The screen needs p not dividing disc(chi), and then reads the splitting
off the same chain of powers (cubic_splitting).  chi is squarefree mod p,
so its residue degrees are those of the Frobenius t -> t^p on
F_p[t]/(chi): chi splits into linear factors iff t^p = t mod (chi, p)
(ring.splits_completely; condition 1 reads complete splitting of f so).
Otherwise Stickelberger's parity theorem, (disc chi / p) = (-1)^(3 - r)
for r irreducible factors (Swan, Pacific J. Math. 12, 1962), tells 1+2
(r = 2) from inert (r = 1), as the pure-cubic scan does for its unit's mu.
This is how p splits in K: disc(chi) = [O_K : Z[eps]]^2 disc(K), so p
prime to it gives Z_p[eps] = O_K (x) Z_p, as in the torsion module, and
the irreducible factors of chi mod p are the prime ideals over p with their
degrees (Kummer-Dedekind).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .numberfield import FieldElement, NumberField, squarefree_parts
from .ring import (Kernel, degree, discriminant, kernel, poly, powmod,
                   splits_completely)
from . import torsion as torsion_mod

SPLIT_COMPLETELY = "split-completely"
MIXED_1_2 = "1+2"
INERT = "inert"


class RecurrenceSpec(namedtuple("RecurrenceSpec", "a2 a1 a0")):
    """Coefficients of x^3 - a2 x^2 - a1 x - a0; initial terms are fixed.
    No __slots__: the instance __dict__ holds both cached properties."""

    @cached_property
    def companion_poly(self) -> tuple[int, ...]:
        return poly((-self.a0, -self.a1, -self.a2, 1))

    @cached_property
    def companion_disc(self) -> int:
        return discriminant(self.companion_poly)


# gamma is t^p in Z[t]/(chi, p^2), packed by kernel(chi, p^2)
ScreenResult = namedtuple("ScreenResult", "splitting index value nonzero gamma")


class ConsistencyReport(namedtuple(
        "ConsistencyReport", "p splitting screen witness_exists violation")):
    __slots__ = ()

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


def cubic_splitting(k: Kernel, gamma: int, p: int, disc: int) -> tuple[str, int]:
    """The name and residue degree F of the splitting of odd p for a cubic
    g with disc(g) = disc prime to p, from k = kernel(g, m), p | m, and
    gamma = t^p packed by k (module docstring)."""
    if splits_completely(k, gamma, p):
        return SPLIT_COMPLETELY, 1
    if pow(disc, (p - 1) // 2, p) == p - 1:
        return MIXED_1_2, 2
    return INERT, 3


def screen(spec: RecurrenceSpec, p: int) -> ScreenResult:
    """F_(p^F - 1) mod p^2 for the residue degree F of the splitting of p,
    which gamma = u_1 t, u_1 = t^(p-1) in Z[t]/(chi, p^2), gives (module
    docstring); then u_F = u_(F-1)^p u_1 = t^(p^F - 1), whose t^2
    coordinate is the value (f_index_mod).  gamma is handed out too."""
    if p == 2:
        raise ValueError("p must be odd")
    if spec.companion_disc % p == 0:
        raise ValueError("p divides the discriminant of the companion polynomial")
    k = kernel(spec.companion_poly, p * p)
    u1 = k.pow(k.x, p - 1)
    gamma = k.reduce(u1 << k.w)
    splitting, F = cubic_splitting(k, gamma, p, spec.companion_disc)
    u = u1
    for _ in range(F - 1):
        u = k.reduce(k.pow(u, p) * u1)
    value = u >> 2 * k.w  # the t^2 slot, the top one of a reduced u
    return ScreenResult(splitting, p**F - 1, value, value != 0, gamma)


def minimal_poly_spec(K: NumberField, unit: FieldElement) -> RecurrenceSpec:
    """RecurrenceSpec from the minimal polynomial of the unit and its
    discriminant, both as NumberField.unit_min_poly keeps them.  That
    polynomial is a cubic: the only proper subfield of a cubic field is Q,
    whose units +-1 are roots of unity, which unit_min_poly refuses."""
    if K.n != 3:
        raise ValueError("recurrence screen is for cubic fields")
    c, disc = K.unit_min_poly(unit)  # ValueError unless a unit
    spec = RecurrenceSpec(a2=-c[2], a1=-c[1], a0=-c[0])
    spec.__dict__["companion_disc"] = disc  # the field's, not computed again
    return spec


def cross_check(K: NumberField, unit: FieldElement, spec: RecurrenceSpec,
                p: int) -> ConsistencyReport:
    """Assert the screen's implication against the direct congruence test,
    condition (2) read off the screen's own gamma = t^p in Z[t]/(chi, p^2)
    as torsion.condition2_holds reads it in the unit's ring: one power, no
    splitting of f.  ValueError unless spec is chi, the minimal polynomial
    of the unit, which the field keeps.  At p dividing disc(f),
    f mod p has a repeated factor: p ramifies, and divides disc(chi) too, or
    squarefree_parts refuses it; the refusal says how p ramifies.
    """
    chi, _ = K.unit_min_poly(unit)  # ValueError unless a unit
    if chi != spec.companion_poly:
        raise ValueError("spec does not match the minimal polynomial of the unit")
    if K.poly_disc % p == 0:
        shapes = sorted((m, degree(g)) for g, m in squarefree_parts(K, p))
        raise ValueError(f"unramified cubic splitting expected, got {shapes}")
    sres = screen(spec, p)
    holds = bool(torsion_mod._value_at(kernel(chi, p * p), chi, p, sres.gamma))
    violation = sres.nonzero and not holds
    return ConsistencyReport(p, sres.splitting, sres, holds, violation)
