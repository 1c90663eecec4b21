"""Invariant suites runnable from the CLI and reused by the acceptance tests.

Each suite returns (name, passed, detail); run_all aggregates them.  These are
the engine's internal consistency oracles: the reduced-form class numbers
against the Dirichlet character sum, the companion-matrix recurrence against
direct iteration, the e*f sum over random fields, and condition (2)'s
per-prime verdicts (with their Fermat first-power checks) against HNF ideal
membership on every bundled field.
"""

from __future__ import annotations

import random

from .errors import SplittingUndetermined
from .families import (
    dirichlet_class_number,
    fundamental_discriminant,
    imag_quadratic_class_number,
    squarefree_part,
)
from .numberfield import FieldElement, make_field, split_prime
from .recurrence import RecurrenceSpec, f_index_mod
from .ring import factor_degrees_mod_p
from .torsion import (
    _congruent_by_hnf,
    applicability_guard,
    condition2,
    condition2_unramified,
    global_test_applies,
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


def suite_condition2_oracles(pmax: int = 100):
    """condition2's per-prime flags (the cofactor congruence at e = 1, the
    Fermat check inside) against the HNF reference, and at odd p prime to
    disc(f) the global test (with the residue degrees from the
    distinct-degree split) against the report, on every bundled field at
    every prime the guard admits."""
    from .families import primes_up_to
    from .harness import bundled_records

    compared = {False: 0, True: 0}  # keyed by "ramified"
    global_cells = 0
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
            if applicability_guard(K, p, factors) is not None:
                continue
            rep = condition2(K, p, unit, factors)
            if global_test_applies(K, p):
                degrees = factor_degrees_mod_p(K.poly, p)
                if (degrees != sorted(pf.f for pf in factors)
                        or condition2_unramified(K, p, unit, degrees)
                        != rep.holds):
                    return (
                        "condition2-oracles",
                        False,
                        f"global test mismatch at {record.label}, p={p}",
                    )
                global_cells += 1
            for entry in rep.per_prime:
                pf = entry.factor
                residue = FieldElement(entry.residue)
                if _congruent_by_hnf(K, p, pf, residue) != entry.congruent:
                    return (
                        "condition2-oracles",
                        False,
                        f"HNF mismatch at {record.label}, p={p}, P{pf.label}",
                    )
                compared[pf.e > 1] += 1
    return (
        "condition2-oracles",
        True,
        f"{compared[False]} unramified and {compared[True]} ramified "
        f"prime factors agree with HNF; the global test agrees with the "
        f"report at {global_cells} odd primes prime to disc(f)",
    )


def run_all(fast: bool = False):
    suites = [
        suite_forms_vs_dirichlet(),
        suite_recurrence_matrix_vs_iteration(20 if fast else 100),
        suite_ef_sum(100 if fast else 1000),
        suite_condition2_oracles(50 if fast else 100),
    ]
    return suites
