import random

import pytest
from hypothesis import given, settings, strategies as st

from prationality.numberfield import part_shapes
from prationality.ring import (
    ModPoly,
    derivative,
    det_adjugate,
    det_bareiss,
    discriminant,
    factor_mod_p,
    hensel_lift_root,
    kernel,
    log_principal,
    mod_poly,
    mulmod,
    poly,
    poly_eval,
    poly_mul,
    poly_rem,
    powmod,
)


def test_discriminant_examples():
    # x^3 - 4x + 27
    assert discriminant((27, -4, 0, 1)) == -19427
    # x^3 + 1 - p^3 at p = 5
    assert discriminant((1 - 125, 0, 0, 1)) == -27 * (1 - 125) ** 2 == -415152
    # triple root
    assert discriminant((0, 0, 0, 1)) == 0


def test_discriminant_rejects_low_degree_and_nonmonic():
    with pytest.raises(ValueError):
        discriminant((1, 2))
    with pytest.raises(ValueError):
        discriminant((1, 0, 2))


def test_discriminant_matches_depressed_cubic_formula():
    rng = random.Random(1812)
    for _ in range(500):
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        assert discriminant((b, a, 0, 1)) == -4 * a**3 - 27 * b**2


def test_factor_mod_p_examples():
    facs = factor_mod_p((27, -4, 0, 1), 3)
    assert [(f.coeffs, m) for f, m in facs] == [
        ((0, 1), 1),  # x
        ((1, 1), 1),  # x + 1
        ((2, 1), 1),  # x - 1
    ]
    facs = factor_mod_p((3, 0, -2, 0, 1), 5)
    assert len(facs) == 1 and facs[0][1] == 1 and facs[0][0].degree == 4
    facs = factor_mod_p((0, 1), 7)
    assert [(f.coeffs, m) for f, m in facs] == [((0, 1), 1)]


def test_factor_mod_p_rejects_zero():
    with pytest.raises(ValueError):
        factor_mod_p((5, 10), 5)


def _is_irreducible_mod_p(g, p):
    # deg <= 3: no roots; deg 4: additionally no quadratic factor
    d = len(g) - 1
    if d == 1:
        return True
    if any(poly_eval(g, x) % p == 0 for x in range(p)):
        return False
    if d <= 3:
        return True
    # check gcd(x^(p^2) - x, g) trivial via brute quadratic trial division
    for b in range(p):
        for c in range(p):
            q = (c, b, 1)
            _, rem = _poly_divmod_mod(g, q, p)
            if not rem:
                return False
    return True


def _poly_divmod_mod(f, g, p):
    inv = pow(g[-1], -1, p)
    rem = [a % p for a in f]
    quo = [0] * max(len(f) - len(g) + 1, 1)
    while len(rem) >= len(g):
        while rem and rem[-1] % p == 0:
            rem.pop()
        if len(rem) < len(g):
            break
        c = rem[-1] * inv % p
        shift = len(rem) - len(g)
        quo[shift] = c
        for i, b in enumerate(g):
            rem[shift + i] = (rem[shift + i] - c * b) % p
        rem.pop()
    return poly(quo), poly(r % p for r in rem)


def test_factor_mod_p_reassembles_and_factors_irreducible():
    rng = random.Random(99)
    primes = [2, 3, 5, 7, 11, 13, 101]
    for _ in range(120):
        p = rng.choice(primes)
        deg = rng.choice([2, 3, 4])
        f = tuple(rng.randrange(-20, 20) for _ in range(deg)) + (1,)
        try:
            facs = factor_mod_p(f, p)
        except ValueError:
            assert all(c % p == 0 for c in f)
            continue
        prod = (1,)
        total = 0
        for g, m in facs:
            assert _is_irreducible_mod_p(g.coeffs, p)
            total += g.degree * m
            for _ in range(m):
                prod = poly(c % p for c in poly_mul(prod, g.coeffs))
        fbar = poly(c % p for c in f)
        assert prod == fbar
        assert total == len(fbar) - 1
        if all(m == 1 for _, m in facs):
            parts = ((ModPoly(fbar, p), 1),)
            assert (sorted(d for _, d in part_shapes(parts))
                    == [g.degree for g, _ in facs])


def test_factor_mod_p_repeated_factors():
    # x^4 - x^3 + x^2 - x + 1 = (x+1)^4 mod 5 (5 totally ramified)
    facs = factor_mod_p((1, -1, 1, -1, 1), 5)
    assert [(f.coeffs, m) for f, m in facs] == [((1, 1), 4)]


def test_hensel_lift_examples():
    assert hensel_lift_root((27, -4, 0, 1), 3, 1, 2) == 7
    assert hensel_lift_root((-5, 1), 3, 2, 4) == 5
    # unique lift of 0 mod 3: brute force over {0, 3, 6}
    expected = [c for c in (0, 3, 6) if poly_eval((27, -4, 0, 1), c) % 9 == 0]
    assert len(expected) == 1
    assert hensel_lift_root((27, -4, 0, 1), 3, 0, 2) == expected[0]


def test_hensel_lift_rejects_nonroot_and_nonsimple():
    with pytest.raises(ValueError):
        hensel_lift_root((1, 0, 1), 3, 1, 2)
    with pytest.raises(ValueError):
        hensel_lift_root((0, 0, 1), 3, 0, 2)  # x^2: f'(0) = 0


X = (0, 1)  # Z[x]/(x, m) = Z/m: the packed log is the scalar p-adic log


def _log(u, p, k):
    return log_principal((u,), X, p, k)[0]


def _valuation(x, p):
    v = 0
    while x % p == 0:
        x, v = x // p, v + 1
    return v


def test_padic_log_examples():
    for p in (3, 5, 7):
        assert _log(1 + p, p, 2) == p
    assert _valuation(_log(4, 3, 2), 3) == 1  # 1 + 3 mod 9
    for k in (2, 3, 5):
        assert _log(1, 5, k) == 0


def test_padic_log_rejects_bad_input():
    with pytest.raises(ValueError):
        log_principal((2,), X, 3, 2)  # not 1 mod 3
    with pytest.raises(ValueError):
        log_principal((3,), X, 2, 2)  # p = 2


def test_padic_log_is_additive():
    rng = random.Random(4242)
    for _ in range(200):
        p = rng.choice([3, 5, 7, 13])
        k = rng.randint(2, 6)
        pk = p**k
        a = 1 + p * rng.randrange(pk // p)
        b = 1 + p * rng.randrange(pk // p)
        assert (_log(a, p, k) + _log(b, p, k)) % pk == _log(a * b % pk, p, k)
    # and on the coordinates of Z[x]/(f) for the cubic x^3 - 4x + 27
    f = (27, -4, 0, 1)
    for _ in range(50):
        p = rng.choice([3, 5, 7])
        k = rng.randint(2, 6)
        pk = p**k
        a, b = ([int(i == 0) + p * rng.randrange(pk) for i in range(3)]
                for _ in range(2))
        lab = log_principal(mulmod(a, b, f, pk), f, p, k)
        assert lab == [(x + y) % pk for x, y in zip(log_principal(a, f, p, k),
                                                    log_principal(b, f, p, k))]


def test_padic_log_agrees_across_precisions():
    # log at precision 2k, reduced mod p^k, is log at precision k: the
    # series is not cut too early (3^9 / 9 still counts at p = 3, k = 8)
    rng = random.Random(11)
    for _ in range(100):
        p = rng.choice([3, 5, 7])
        k = rng.randint(2, 16)
        u = 1 + p * rng.randrange(p ** (2 * k))
        assert _log(u, p, k) == _log(u, p, 2 * k) % p**k


def test_padic_log_valuation_tracks_argument():
    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice([3, 5, 7])
        k = rng.randint(2, 6)
        t = rng.randint(1, k - 1)
        w = rng.randrange(1, p)  # unit digit
        u = (1 + p**t * w) % p**k
        assert _valuation(_log(u, p, k), p) == t


def test_mod_poly_normalization():
    m = mod_poly((10, 7, 3), 3)
    assert m.coeffs == (1, 1) and m.modulus == 3


def _rem_by_monic(g, f):
    """Remainder of g by monic f in Z[x], by long division."""
    r = list(g)
    while len(r) >= len(f):
        c, shift = r[-1], len(r) - len(f)
        for i, b in enumerate(f):
            r[shift + i] -= c * b
        r.pop()
    return r


def test_mulmod_and_powmod_match_division_by_f():
    # the product-and-reduce kernel against the Z[x] remainder by monic f,
    # modulo a prime, its square and composites
    rng = random.Random(31337)
    for _ in range(300):
        n = rng.randint(2, 5)
        f = tuple(rng.randint(-30, 30) for _ in range(n)) + (1,)
        p = rng.choice([3, 5, 7, 101])
        m = rng.choice([p, p * p, 12, 1155])

        def rem(g):
            return poly(c % m for c in _rem_by_monic(g, f))

        a, b = (tuple(rng.randint(-99, 99) for _ in range(rng.randint(0, 2 * n)))
                for _ in range(2))
        assert mulmod(a, b, f, m) == rem(poly_mul(a, b)), (f, m, a, b)
        assert poly_rem(poly_mul(a, b), f) == poly(
            _rem_by_monic(poly_mul(a, b), f)), (f, a, b)
        e = rng.randint(0, 30)
        expected = (1,)
        for _ in range(e):
            expected = rem(poly_mul(expected, a))
        assert powmod(a, e, f, m) == expected, (f, m, a, e)


def _adjugate(rows):
    """Adjugate by cofactors: entry (i, j) is the (j, i) cofactor; the
    reference for det_adjugate."""
    n = len(rows)
    return [[(-1) ** (i + j) * det_bareiss(
                [r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j])
             for j in range(n)] for i in range(n)]


def test_det_adjugate_matches_cofactors():
    # random 2-4 square matrices, sparse enough that zero pivots (a row
    # swap) and singular matrices are frequent, plus fixed cases of both
    rng = random.Random(4711)
    cases = [[[0, 1], [1, 0]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
             [[1, 2, 3], [2, 4, 6], [0, 0, 1]], [[0, 1], [0, 2]]]
    for _ in range(3000):
        n = rng.randint(2, 4)
        cases.append([[rng.choice((0, 0, rng.randint(-9, 9)))
                       for _ in range(n)] for _ in range(n)])
    swapped = singular = 0
    for rows in cases:
        det, adj = det_adjugate(rows)
        assert det == det_bareiss(rows), rows
        if det == 0:
            assert adj is None
            singular += 1
            continue
        swapped += rows[0][0] == 0
        assert adj == _adjugate(rows), rows
    assert swapped > 100 and singular > 100 and len(cases) - singular > 400


def test_powmod_rejects_bad_input():
    with pytest.raises(ValueError):
        powmod((1, 1), 3, (1, 2), 7)  # f not monic
    with pytest.raises(ValueError):
        powmod((1, 1), 3, (1, 0, 1), 1)
    with pytest.raises(ValueError):
        powmod((1, 1), -1, (1, 0, 1), 7)
    with pytest.raises(ValueError):
        mulmod((1, 1), (1, 1), (1, 2), 7)


def _list_mulmod(a, b, f, m):
    """a * b in Z[x]/(f, m) on coefficient lists: n^2 small products, then a
    top-down reduction by monic f; the reference for the packed kernel."""
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                c[i + j] += x * y
    n = len(f) - 1
    for k in range(len(c) - 1, n - 1, -1):
        t = c[k] % m
        if t:
            for i in range(n):
                c[k - n + i] -= t * f[i]
    return poly([x % m for x in c[:n]])


def _list_powmod(a, e, f, m):
    result, base = _list_mulmod((1,), (1,), f, m), _list_mulmod(a, (1,), f, m)
    while e:
        if e & 1:
            result = _list_mulmod(result, base, f, m)
        e >>= 1
        base = _list_mulmod(base, base, f, m)
    return result


_P = 999983  # p^2 = 999966000289, near 10^12
_MODULI = st.sampled_from([2, 3, 9, 12, 1155, 101, 101 * 101, _P, _P * _P])


@st.composite
def _ring_case(draw):
    n = draw(st.integers(1, 5))
    f = tuple(draw(st.lists(st.integers(-10**6, 10**6), min_size=n,
                            max_size=n))) + (1,)
    m = draw(_MODULI)
    coeffs = st.integers(-3 * m, 3 * m)
    a, b = (tuple(draw(st.lists(coeffs, max_size=3 * n))) for _ in range(2))
    return f, m, a, b


@settings(max_examples=400, deadline=None)
@given(_ring_case(), st.integers(0, 2**20))
def test_packed_kernel_matches_list_reference(case, e):
    # unreduced inputs of any sign and length, e = 0 included
    f, m, a, b = case
    assert mulmod(a, b, f, m) == _list_mulmod(a, b, f, m)
    assert powmod(a, e, f, m) == _list_powmod(a, e, f, m)
    assert powmod(a, e % 3, f, m) == _list_powmod(a, e % 3, f, m)


@pytest.mark.parametrize("m", [2, 7, 49, 12, 1155, _P * _P])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_packed_kernel_at_full_slots(n, m):
    # every slot m - 1, with f = 1 + x + ... + x^n so that the row of x^n
    # is full as well; the reduction reads a sum of two such products
    f = (1,) * (n + 1)
    full = (m - 1,) * n
    k = kernel(f, m)
    assert k.w == (2 * (2 * n - 1) * (m - 1) ** 2).bit_length()
    v = k.pack(full)
    assert k.unpack(v) == full
    square = _list_mulmod(full, full, f, m)
    assert mulmod(full, full, f, m) == square
    assert k.unpack(k.reduce(v * v + v * v)) == poly(2 * c % m for c in square)
    assert powmod(full, 5, f, m) == _list_powmod(full, 5, f, m)


def test_packed_kernel_at_degree_0_and_1():
    # Z[x]/(1) is the zero ring; in Z[x]/(x + c, m), x = -c
    for m in (2, 9, 1155):
        assert mulmod((3, -1, 4), (1, 5), (1,), m) == ()
        assert powmod((3, 1), 0, (1,), m) == ()
        for c in (-4, 0, 7):
            a = (3, -1, 4, 1)
            value = poly_eval(a, -c) % m
            assert mulmod(a, a, (c, 1), m) == poly((value * value % m,))
            assert powmod(a, 0, (c, 1), m) == (1,)
            assert powmod(a, 9, (c, 1), m) == poly((pow(value, 9, m),))
