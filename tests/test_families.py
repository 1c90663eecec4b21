import math

import pytest

from prationality.families import (
    GgcCandidate,
    PureCubicInstance,
    ggc_scan,
    imag_quadratic_class_number,
    kuroda_check,
    lemma_a_scan,
    lemma_b_bound,
    primes_up_to,
    pure_cubic_scan,
    squarefree_part,
)
from prationality.selftest import suite_forms_vs_dirichlet


def test_pure_cubic_instance_identity():
    for p in (5, 7, 11, 2791):
        inst = PureCubicInstance.build(p)
        assert inst.field.n == 3


def test_pure_cubic_scan_examples():
    res = {r.p: r for r in pure_cubic_scan(5, 23)}
    assert res[7].splitting == "split-completely" and res[7].condition2_holds
    assert res[5].splitting == "1+2" and res[5].condition2_holds
    assert res[13].splitting == "split-completely"
    assert res[11].splitting == "1+2"
    assert all(r.h_flag == "h-unknown" for r in res.values())


def test_pure_cubic_scan_h_ingestion():
    res = pure_cubic_scan(2791, 2791, h_data={2791: 31876011})
    assert len(res) == 1
    assert res[0].condition2_holds
    assert res[0].h_flag == "p|h"
    res2 = pure_cubic_scan(5, 5, h_data={5: 1})
    assert res2[0].h_flag == "p coprime to h"


def test_lemma_a_scan_examples():
    cands = {c.p: c for c in lemma_a_scan(100, 1.0)}
    assert 17 in cands
    assert cands[17].n == 4 and cands[17].m == 3
    assert cands[17].threshold == pytest.approx(math.log(17))
    assert 13 not in cands  # largest n for p-1=12 is 2 < log 13


def test_lemma_a_T_zero_forces_nontrivial_squares():
    for c in lemma_a_scan(200, 0.0):
        assert c.n >= 2 and c.m >= 2
        assert (c.p - 1) % (c.n * c.n) == 0
        assert (c.p + 1) % (c.m * c.m) == 0


def test_squarefree_part():
    assert squarefree_part(-288) == -2
    assert squarefree_part(-24) == -6
    assert squarefree_part(12) == 3
    assert squarefree_part(-163) == -163


def test_class_number_examples():
    assert imag_quadratic_class_number(-1) == 1
    assert imag_quadratic_class_number(-6) == 2
    assert imag_quadratic_class_number(-163) == 1
    assert imag_quadratic_class_number(-2) == 1
    assert imag_quadratic_class_number(-5) == 2
    assert imag_quadratic_class_number(-23) == 3
    assert imag_quadratic_class_number(-14) == 4


def test_class_number_rejects_bad_radicand():
    with pytest.raises(ValueError):
        imag_quadratic_class_number(5)
    with pytest.raises(ValueError):
        imag_quadratic_class_number(-4)  # not squarefree


def test_forms_vs_dirichlet_oracle():
    _, ok, detail = suite_forms_vs_dirichlet()
    assert ok, detail


def test_lemma_b_examples():
    b = lemma_b_bound(24, 2)
    assert b == pytest.approx(3.59, abs=0.05)
    assert b >= imag_quadratic_class_number(-6)
    assert lemma_b_bound(3, 6) >= 1
    assert lemma_b_bound(4, 4) >= 1


def test_kuroda_check():
    r = kuroda_check(1, 2, 1, 1)
    assert r.q == 1 and r.valid
    r = kuroda_check(1, 1, 1, 1)
    assert r.q == 2 and r.valid
    r = kuroda_check(1, 3, 1, 1)
    assert not r.valid and float(r.q) == pytest.approx(2 / 3)


def test_ggc_scan_examples():
    cands = {c.p: c for c in ggc_scan(1000, 1.0)}
    assert 17 in cands
    c17 = cands[17]
    assert c17.radicand == -2 and c17.hK2 == 1 and c17.verdict == "GgcHolds"
    for c in cands.values():
        # defining predicates on recheck
        assert (c.p - 1) % (c.n * c.n) == 0
        assert (c.p + 1) % (c.m * c.m) == 0
        assert c.n > c.threshold and c.m > c.threshold
        assert c.p % 4 == 1
        assert (c.verdict == "GgcHolds") == (c.hK2 % c.p != 0)
        assert c.hK2 <= c.lemma_b_bound
        # p does not divide small h automatically
        if c.hK2 < c.p:
            assert c.verdict == "GgcHolds"


def test_primes_up_to():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(1) == []
