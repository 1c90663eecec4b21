"""Invariant suites runnable from the CLI and reused by the acceptance tests.

Each suite returns (name, passed, detail); run_all aggregates them.  These are
the engine's internal consistency oracles: the reduced-form class numbers
against the Dirichlet character sum, the recurrence read off x^n modulo its
companion polynomial against direct iteration, the prime factors of random
fields against f mod p, condition (2) for all P at once against the
per-P report, two computations in Z[x]/(f, p^2), on every bundled field, and
the recurrence screen's splitting and value against the prime factors and
the direct index on every bundled cubic.
"""

from __future__ import annotations

import random

from .errors import SplittingUndetermined
from .families import (
    dirichlet_class_number,
    fundamental_discriminant,
    imag_quadratic_class_number,
    primes_up_to,
    squarefree_part,
)
from .harness import bundled_records
from .numberfield import (certified_parts, make_field, radical_cofactor,
                          split_prime)
from .recurrence import (INERT, MIXED_1_2, SPLIT_COMPLETELY, RecurrenceSpec,
                         f_index_mod, minimal_poly_spec, screen)
from .torsion import applicability_guard, condition2, condition2_holds


def suite_forms_vs_dirichlet():
    checked = 0
    for radicand in range(-200, 0):
        if squarefree_part(radicand) != radicand:
            continue
        D = fundamental_discriminant(radicand)
        if abs(D) > 200:
            continue
        forms = imag_quadratic_class_number(radicand)
        expected = dirichlet_class_number(D)
        if forms != expected:
            return (
                "forms-vs-dirichlet",
                False,
                f"D={D}: forms {forms} != dirichlet {expected}",
            )
        checked += 1
    return ("forms-vs-dirichlet", True, f"{checked} fundamental discriminants")


def suite_recurrence_matrix_vs_iteration():
    rng = random.Random(90125)
    for _ in range(100):
        spec = RecurrenceSpec(
            rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9)
        )
        m = rng.choice([4, 9, 25, 49, 121, 169, 1000003])
        n = rng.randint(0, 2000)
        seq = [0, 0, 1]
        while len(seq) <= n:
            seq.append(
                (spec.a2 * seq[-1] + spec.a1 * seq[-2] + spec.a0 * seq[-3]) % m
            )
        if f_index_mod(spec, n, m) != seq[n] % m:
            return (
                "recurrence-matrix-vs-iteration",
                False,
                f"spec {spec} n={n} m={m}",
            )
    return ("recurrence-matrix-vs-iteration", True, "100 random specs")


def suite_ef_sum(pairs: int = 1000):
    """The g^e of split_prime multiply back to f mod p on random fields at
    p prime to disc(f); split_prime itself only asserts sum e*f = n."""
    rng = random.Random(6021023)
    checked = 0
    while checked < pairs:
        n = rng.choice([3, 4])
        f = tuple(rng.randint(-30, 30) for _ in range(n)) + (1,)
        try:
            K = make_field(f)
        except ValueError:
            continue
        p = rng.choice([2, 3, 5, 7, 11, 13, 17, 19, 101, 211, 499])
        if K.poly_disc % p == 0:
            continue
        factors = split_prime(K, p)
        product = radical_cofactor([(pf.generator, pf.e + 1) for pf in factors], p)
        if product[1] != tuple(c % p for c in f):  # prod g^e, as (g, e + 1) pairs
            return ("ef-sum", False, f"f={f} p={p}")
        checked += 1
    return ("ef-sum", True, f"{pairs} random (field, prime) pairs")


def _bundled():
    return (bundled_records("table1") + bundled_records("table2")
            + bundled_records("examples"))


def suite_condition2_oracles():
    """condition2_holds against the per-P report, and the radical parts of
    f mod p against the radical, cofactor and largest e of the prime
    factors, on every bundled field at every certified prime up to 100 the
    guard admits, ramified primes included."""
    compared = {False: 0, True: 0}  # keyed by "ramified"
    for record in _bundled():
        K = record.build_field()
        unit = record.unit_element()
        for p in primes_up_to(100):
            try:
                factors = split_prime(K, p)
            except SplittingUndetermined:
                continue
            max_e = max(pf.e for pf in factors)
            if applicability_guard(K, p, max_e) is not None:
                continue
            r, c, e = parts = certified_parts(K, p)
            if ((tuple(x % p for x in r), c, e) != (*radical_cofactor(
                    [(pf.generator, pf.e) for pf in factors], p), max_e)
                    or condition2_holds(K, p, unit, parts)
                    != condition2(K, p, unit, factors).holds):
                return (
                    "condition2-oracles",
                    False,
                    f"mismatch with the per-P report at {record.label}, p={p}",
                )
            compared[any(pf.e > 1 for pf in factors)] += 1
    return (
        "condition2-oracles",
        True,
        f"condition2_holds agrees with the per-P report at {compared[False]} "
        f"unramified and {compared[True]} ramified primes",
    )


def suite_screen_oracles():
    """The splitting that the recurrence screen reads off the Frobenius
    power against the number of prime factors of split_prime, and its value
    against f_index_mod at p^F - 1, on every bundled cubic at every odd
    certified prime up to 100 that does not divide disc(chi)."""
    checked, names = 0, {3: SPLIT_COMPLETELY, 2: MIXED_1_2, 1: INERT}
    for record in _bundled():
        if record.degree != 3:
            continue
        K = record.build_field()
        spec = minimal_poly_spec(K, record.unit_element())
        for p in primes_up_to(100)[1:]:
            if spec.companion_disc % p == 0:
                continue
            try:
                factors = split_prime(K, p)
            except SplittingUndetermined:
                continue
            F = max(pf.f for pf in factors)
            res = screen(spec, p)
            if (res.splitting != names[len(factors)]
                    or res.index != p**F - 1
                    or res.value != f_index_mod(spec, p**F - 1, p * p)):
                return (
                    "screen-oracles",
                    False,
                    f"mismatch with split_prime at {record.label}, p={p}",
                )
            checked += 1
    return (
        "screen-oracles",
        True,
        f"the screen's splitting and value agree with split_prime at "
        f"{checked} (cubic, prime) pairs",
    )


def run_all():
    return [
        suite_forms_vs_dirichlet(),
        suite_recurrence_matrix_vs_iteration(),
        suite_ef_sum(),
        suite_condition2_oracles(),
        suite_screen_oracles(),
    ]
