"""Invariant suites runnable from the CLI and reused by the acceptance tests.

Each suite returns (name, passed, detail); run_all aggregates them.  These are
the engine's internal consistency oracles: the reduced-form class numbers
against the Dirichlet character sum, the recurrence read off x^n modulo its
companion polynomial against direct iteration, the prime factors of random
fields against f mod p, and condition (2) for all P at once against the
per-P report, two computations in Z[x]/(f, p^2), on every bundled field.
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
from .numberfield import (make_field, part_shapes, radical_cofactor,
                          split_prime, squarefree_parts)
from .recurrence import RecurrenceSpec, f_index_mod
from .torsion import applicability_guard, condition2, condition2_holds


def suite_forms_vs_dirichlet(limit: int = 200):
    checked = 0
    for radicand in range(-limit, 0):
        if squarefree_part(radicand) != radicand:
            continue
        D = fundamental_discriminant(radicand)
        if abs(D) > limit:
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


def suite_recurrence_matrix_vs_iteration(specs: int = 100, nmax: int = 2000):
    rng = random.Random(90125)
    for _ in range(specs):
        spec = RecurrenceSpec(
            rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9)
        )
        m = rng.choice([4, 9, 25, 49, 121, 169, 1000003])
        n = rng.randint(0, nmax)
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
    return ("recurrence-matrix-vs-iteration", True, f"{specs} random specs")


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
        if product != tuple(c % p for c in f):  # prod g^e, as (g, e + 1) pairs
            return ("ef-sum", False, f"f={f} p={p}")
        checked += 1
    return ("ef-sum", True, f"{pairs} random (field, prime) pairs")


def suite_condition2_oracles(pmax: int = 100):
    """condition2_holds and the (e, f) read off the squarefree parts
    against the per-P report, on every bundled field at every certified
    prime the guard admits, ramified primes included."""
    compared = {False: 0, True: 0}  # keyed by "ramified"
    records = (bundled_records("table1") + bundled_records("table2")
               + bundled_records("examples"))
    for record in records:
        K = record.build_field()
        unit = record.unit_element()
        for p in primes_up_to(pmax):
            try:
                factors = split_prime(K, p)
            except SplittingUndetermined:
                continue
            if applicability_guard(K, p, [pf.e for pf in factors]) is not None:
                continue
            parts = squarefree_parts(K, p)
            if (sorted(part_shapes(parts))
                    != sorted((pf.e, pf.f) for pf in factors)
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


def run_all(fast: bool = False):
    suites = [
        suite_forms_vs_dirichlet(),
        suite_recurrence_matrix_vs_iteration(20 if fast else 100),
        suite_ef_sum(100 if fast else 1000),
        suite_condition2_oracles(50 if fast else 100),
    ]
    return suites
