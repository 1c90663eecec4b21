import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from prationality import ring
from prationality.errors import InvariantViolation
from prationality.harness import bundled_records
from prationality.ring import (
    _equal_degree_split,
    _mp_quo,
    _mp_rem,
    _straight_line,
    derivative,
    det_adjugate,
    det_bareiss,
    discriminant,
    factor_mod_p,
    hensel_lift_root,
    kernel,
    log_principal,
    mulmod,
    poly,
    poly_add,
    poly_eval,
    poly_mul,
    poly_rem,
    poly_sub,
    power_sums,
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


def _resultant(f, g):
    """Resultant of integer polynomials: the determinant of the Sylvester
    matrix; the reference for the power-sum discriminant."""
    n, m = len(f) - 1, len(g) - 1
    if n < 0 or m < 0:
        return 0
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    fr, gr = list(reversed(f)), list(reversed(g))
    rows = [[0] * i + fr + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + gr + [0] * (n - 1 - i) for i in range(n)]
    return det_bareiss(rows)


def _sylvester_discriminant(f):
    """(-1)^(n(n-1)/2) Res(f, f') for monic f of degree n."""
    n = len(f) - 1
    return (-1) ** (n * (n - 1) // 2) * _resultant(f, derivative(f))


def test_discriminant_matches_the_sylvester_resultant():
    rng = random.Random(2114)
    for _ in range(3000):
        n = rng.randint(2, 6)
        bound = rng.choice([3, 100, 10**6])
        f = tuple(rng.randint(-bound, bound) for _ in range(n)) + (1,)
        assert discriminant(f) == _sylvester_discriminant(f), f
    checked = 0
    for name in ("table1", "table2", "examples"):
        for record in bundled_records(name):
            K = record.build_field()
            mu, disc_mu = K.unit_min_poly(record.unit_element())
            assert K.poly_disc == _sylvester_discriminant(K.poly)
            assert disc_mu == _sylvester_discriminant(mu)
            checked += 1
    assert checked >= 47
    # a repeated root, and the power sums that give the Hankel matrix
    assert discriminant((4, 0, -3, 1)) == 0  # (x - 2)^2 (x + 1)
    assert power_sums((-6, 11, -6, 1), 5) == [3, 6, 14, 36, 98]  # 1, 2, 3


def test_factor_mod_p_examples():
    facs = factor_mod_p((27, -4, 0, 1), 3)
    assert facs == [
        ((0, 1), 1),  # x
        ((1, 1), 1),  # x + 1
        ((2, 1), 1),  # x - 1
    ]
    facs = factor_mod_p((3, 0, -2, 0, 1), 5)
    assert len(facs) == 1 and facs[0][1] == 1 and len(facs[0][0]) == 5
    facs = factor_mod_p((0, 1), 7)
    assert facs == [((0, 1), 1)]


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
            assert _is_irreducible_mod_p(g, p)
            total += (len(g) - 1) * m
            for _ in range(m):
                prod = poly(c % p for c in poly_mul(prod, g))
        fbar = poly(c % p for c in f)
        assert prod == fbar
        assert total == len(fbar) - 1


def test_factor_mod_p_repeated_factors():
    # x^4 - x^3 + x^2 - x + 1 = (x+1)^4 mod 5 (5 totally ramified)
    facs = factor_mod_p((1, -1, 1, -1, 1), 5)
    assert facs == [((1, 1), 4)]


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
        p = rng.choice([3, 5, 7, 13, 1000003, 2**64 + 13])
        k = rng.randint(2, 6)
        pk = p**k
        a = 1 + p * rng.randrange(pk // p)
        b = 1 + p * rng.randrange(pk // p)
        assert (_log(a, p, k) + _log(b, p, k)) % pk == _log(a * b % pk, p, k)
    # and on the coordinates of Z[x]/(f) for the cubic x^3 - 4x + 27
    f = (27, -4, 0, 1)
    for _ in range(50):
        p = rng.choice([3, 5, 7, 1000003, 2**64 + 13])
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
        p = rng.choice([3, 5, 7, 1000003, 2**64 + 13])
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
_Q = 2**64 + 13  # the first prime above 2^64: slots wider than 128 bits
_MODULI = st.sampled_from([2, 3, 9, 12, 1155, 101, 101 * 101, _P, _P * _P,
                           _Q * _Q])


@st.composite
def _ring_case(draw):
    n = draw(st.integers(1, 5))
    f = tuple(draw(st.lists(st.integers(-10**6, 10**6), min_size=n,
                            max_size=n))) + (1,)
    m = draw(_MODULI)
    coeffs = st.integers(-3 * m, 3 * m)
    a, b = (tuple(draw(st.lists(coeffs, max_size=3 * n))) for _ in range(2))
    # sometimes x itself, which pow takes by shifted squares when n >= 2
    a = draw(st.sampled_from([a, a, (0, 1), (m, 1 + m)]))
    return f, m, a, b


@settings(max_examples=400, deadline=None)
@given(_ring_case(), st.integers(0, 2**20))
def test_packed_kernel_matches_list_reference(case, e):
    # unreduced inputs of any sign and length, e = 0 and 1 included
    f, m, a, b = case
    assert mulmod(a, b, f, m) == _list_mulmod(a, b, f, m)
    assert powmod(a, e, f, m) == _list_powmod(a, e, f, m)
    assert powmod(a, e % 3, f, m) == _list_powmod(a, e % 3, f, m)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5), _MODULI, st.data())
def test_packed_kernel_packs_short_input_without_reduce(n, m, data):
    # at most n coefficients fill the slots as they are, which is what
    # reduce would leave of them
    f = tuple(data.draw(st.lists(st.integers(-10**6, 10**6), min_size=n,
                                 max_size=n))) + (1,)
    a = tuple(data.draw(st.lists(st.integers(-3 * m, 3 * m), max_size=n)))
    k = kernel(f, m)
    v = k.pack(a)
    assert v == k.reduce(sum(c % m << k.w * i for i, c in enumerate(a)))
    assert k.unpack(v) == poly(c % m for c in a)


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
    # x^e by shifted squares for n >= 2 (at n = 1, x is a constant): x^n is
    # the full row, so the square of x^n that a shift follows is the
    # largest square, and each of the n top-down folds reads a slot that
    # the folds above it have added to
    for e in (1, 2, 5, 2**20 + 1):
        assert powmod((0, 1), e, f, m) == _list_powmod((0, 1), e, f, m)


def _loop_reduce(f, m, v):
    """reduce with a loop over the folds and one over the low slots, the
    same arithmetic as the kernel's straight-line code; its reference."""
    n = len(f) - 1
    w = (2 * (2 * n - 1) * (m - 1) ** 2).bit_length()
    slot, row = (1 << w) - 1, 0
    for c in reversed(f[:n]):
        row = row << w | -c % m
    for s in range(2 * n * w - w, n * w - 1, -w):
        v += (v >> s & slot) % m * (row << s - n * w)
    out = 0
    for s in range(0, n * w, w):
        out |= (v >> s & slot) % m << s
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6), st.sampled_from([2, 49, 1155, (2**64 - 59) ** 2]),
       st.data())
def test_straight_line_kernel_matches_the_loops(n, m, data):
    # the two inputs the kernel docstring bounds, a sum of two products of
    # reduced elements and a shifted square, with slots and the row of x^n
    # often full (c = m - 1, f_i = 1); 2^64 - 59 is the largest 64-bit prime
    f = tuple(data.draw(st.lists(st.sampled_from([1, -1, 0])
                                 | st.integers(-10**6, 10**6),
                                 min_size=n, max_size=n))) + (1,)
    k = kernel(f, m)
    slots = st.lists(st.just(m - 1) | st.integers(0, m - 1), min_size=n,
                     max_size=n)
    a, b, c, d = (sum(s << k.w * i for i, s in enumerate(data.draw(slots)))
                  for _ in range(4))
    for v in (a * b + c * d, a * a << k.w):
        assert k.reduce(v) == _loop_reduce(f, m, v)
    e = data.draw(st.integers(0, 2**20))
    assert k.unpack(k.pow(k.x, e)) == _list_powmod((0, 1), e, f, m)
    assert k.unpack(k.pow(a, e)) == _list_powmod(k.unpack(a), e, f, m)


def test_straight_line_code_is_built_once_per_degree():
    _straight_line.cache_clear()
    for m in (2, 49, 1155):
        for n in range(7):
            kernel.__wrapped__((1,) * (n + 1), m)
    info = _straight_line.cache_info()
    assert (info.misses, info.hits, info.currsize) == (7, 14, 7)


def test_a_dropped_kernel_needs_no_cycle_collector():
    # pack's Horner loop over x^n chunks runs without a self-reference, and
    # of the straight-line reduce and pow only pow refers to the other, so
    # a kernel evicted from the cache is freed by reference counting alone,
    # at every degree
    for n in range(6):
        f = (27, -4, 0, 1, 5, -2)[:n] + (1,)
        gc.collect()
        gc.disable()
        try:
            k = kernel.__wrapped__(f, 49)
            assert k.unpack(k.pack(tuple(range(-9, 9)))) == _list_mulmod(
                tuple(range(-9, 9)), (1,), f, 49)
            assert k.unpack(k.pow(k.x, 50)) == _list_powmod((0, 1), 50, f, 49)
            del k
            assert gc.collect() == 0, n
        finally:
            gc.enable()


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


_PRIMES = st.sampled_from([2, 3, 5, 7, 101, 999983, 2**61 - 1, 2**89 - 1])


@settings(max_examples=200, deadline=None)
@given(_PRIMES, st.data())
def test_mp_quo_and_mp_rem_divide_over_f_p(p, data):
    # unreduced f of any sign and length, g of any leading coefficient
    # prime to p; f = q g + r over F_p with deg r < deg g
    f = data.draw(st.lists(st.integers(-3 * p, 3 * p), max_size=10))
    g = data.draw(st.lists(st.integers(0, p - 1), max_size=5))
    g = tuple(g) + (data.draw(st.integers(1, p - 1)),)
    q, r = _mp_quo(f, g, p), _mp_rem(f, g, p)
    assert len(r) < len(g) and all(0 <= c < p for c in q + r)
    assert all(c % p == 0 for c in poly_sub(f, poly_add(poly_mul(q, g), r)))


def test_equal_degree_split_fails_fast_on_a_broken_kernel(monkeypatch,
                                                          deadline):
    # with h = 1 for every candidate no split is ever found; the walk stops
    # at its cap instead of running through p shifts
    monkeypatch.setattr(ring, "powmod", lambda a, e, f, m: (1,))
    f = poly_mul((-2, 1), (-3, 1))
    with deadline(5), pytest.raises(InvariantViolation):
        _equal_degree_split(f, 1, 2**61 - 1)
