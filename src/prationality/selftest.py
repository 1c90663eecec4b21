"""Invariant suites runnable from the CLI and reused by the acceptance tests.

Each suite returns (name, passed, detail); run_all aggregates them.  These are
the engine's internal consistency oracles: the reduced-form class numbers
against the Dirichlet character sum, the companion-matrix recurrence against
direct iteration, the e*f sum over random fields, Fermat first-power
membership, and the split/CRT and two-exponent congruence equivalences.
"""

from __future__ import annotations

import random

from .families import (
    dirichlet_class_number,
    fundamental_discriminant,
    imag_quadratic_class_number,
    squarefree_part,
)
from .numberfield import FieldElement, make_field, split_prime
from .recurrence import RecurrenceSpec, f_index_mod
from .torsion import (
    applicability_guard,
    condition2,
    condition2_split_crt_check,
    prop24_equivalence_check,
)


def suite_forms_vs_dirichlet(limit: int = 200):
    checked = 0
    for radicand in range(-limit, -1):
        if squarefree_part(radicand) != radicand:
            continue
        D = fundamental_discriminant(radicand)
        if abs(D) > limit:
            continue
        forms = imag_quadratic_class_number(radicand)
        expected = 1 if D >= -4 else dirichlet_class_number(D)
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
        if sum(pf.e * pf.f for pf in factors) != K.n:
            return ("ef-sum", False, f"f={f} p={p}")
        checked += 1
    return ("ef-sum", True, f"{pairs} random (field, prime) pairs")


def _bundled_cubic_instances():
    from .harness import bundled_records

    for record in bundled_records("table1") + bundled_records("examples"):
        if record.degree != 3:
            continue
        yield record


def suite_condition2_oracles(pmax: int = 100):
    """Fermat membership (checked inside condition2), the split/CRT
    equivalence, and the two-exponent equivalence on the bundled fields."""
    from .families import primes_up_to

    crt_checked = 0
    prop24_checked = 0
    for record in _bundled_cubic_instances():
        K = record.build_field()
        unit = record.unit_element()
        for p in primes_up_to(pmax):
            if p < 3 or K.poly_disc % p == 0:
                continue
            factors = split_prime(K, p)
            if applicability_guard(K, p, factors) is not None:
                continue
            rep = condition2(K, p, unit, factors)  # Fermat asserted inside
            shapes = sorted((pf.e, pf.f) for pf in factors)
            if shapes == [(1, 1), (1, 1), (1, 1)]:
                if condition2_split_crt_check(K, p, unit, factors) != rep.holds:
                    return (
                        "condition2-oracles",
                        False,
                        f"CRT mismatch at {record.label}, p={p}",
                    )
                crt_checked += 1
            for pf in factors:
                if (pf.e, pf.f) == (1, 1):
                    if not prop24_equivalence_check(K, p, unit, pf):
                        return (
                            "condition2-oracles",
                            False,
                            f"two-exponent mismatch at {record.label}, p={p}",
                        )
                    prop24_checked += 1
                    break
    return (
        "condition2-oracles",
        True,
        f"{crt_checked} CRT instances, {prop24_checked} two-exponent instances",
    )


def run_all(fast: bool = False):
    suites = [
        suite_forms_vs_dirichlet(),
        suite_recurrence_matrix_vs_iteration(20 if fast else 100),
        suite_ef_sum(100 if fast else 1000),
        suite_condition2_oracles(50 if fast else 100),
    ]
    return suites
