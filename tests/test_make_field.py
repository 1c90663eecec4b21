"""make_field's closed-form signature and integer-root reducibility tests
against the Sturm count over Q and the divisor searches they replaced,
which are kept here as references."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from prationality.families import primes_up_to
from prationality.harness import bundled_records
from prationality.numberfield import make_field
from prationality.ring import (derivative, discriminant, poly, poly_add,
                               poly_eval, poly_mul)

SQUAREFREE = "defining polynomial must be squarefree"
RATIONAL_ROOT = "defining polynomial is reducible (rational root)"
QUADRATIC_FACTOR = "defining polynomial is reducible (quadratic factor)"


def _rem_q(f, g):
    """Remainder of f by nonzero g in Q[x], as a list of Fractions."""
    r = [Fraction(c) for c in f]
    while len(r) >= len(g):
        c = r[-1] / g[-1]
        shift = len(r) - len(g)
        for i, b in enumerate(g):
            r[shift + i] -= c * b
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def sturm_real_roots(f) -> int:
    """Distinct real roots of a squarefree integer polynomial (Sturm)."""
    chain = [list(f), list(derivative(f))]
    while True:
        r = _rem_q(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])

    def changes(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_pos = [1 if g[-1] > 0 else -1 for g in chain]
    at_neg = [s * (-1) ** (len(g) - 1) for s, g in zip(at_pos, chain)]
    return changes(at_neg) - changes(at_pos)


def divisors(c: int) -> set[int]:
    c = abs(c)
    out = set()
    for d in range(1, isqrt(c) + 1):
        if c % d == 0:
            out.update((d, -d, c // d, -(c // d)))
    return out


def has_rational_root(f) -> bool:
    # rational roots of a monic integer polynomial are divisors of f(0)
    return f[0] == 0 or any(poly_eval(f, r) == 0 for r in divisors(f[0]))


def has_quadratic_factor(f) -> bool:
    # monic quartic: f = (x^2+ax+b)(x^2+cx+d) over Z, b running over the
    # divisors of f(0)
    c0, c1, c2, c3 = f[:4]
    if c0 == 0:
        return True
    for b in divisors(c0):
        dd = c0 // b
        ac = c2 - b - dd
        disc = c3 * c3 - 4 * ac
        if disc < 0 or isqrt(disc) ** 2 != disc:
            continue
        for a in {(c3 + isqrt(disc)) // 2, (c3 - isqrt(disc)) // 2}:
            c = c3 - a
            if a * c == ac and a * dd + b * c == c1:
                return True
    return False


def reference_shape(f):
    """The signature, or the refusal make_field gave before its integer
    rewrite."""
    n = len(f) - 1
    if discriminant(f) == 0:
        return SQUAREFREE
    if has_rational_root(f):
        return RATIONAL_ROOT
    if n == 4 and has_quadratic_factor(f):
        return QUADRATIC_FACTOR
    r1 = sturm_real_roots(f)
    return (r1, (n - r1) // 2)


def shape(f):
    try:
        return make_field(f).signature
    except ValueError as exc:
        return str(exc)


def _random_monic(rng, n, span=12):
    return tuple(rng.randint(-span, span) for _ in range(n)) + (1,)


def _random_polys(rng, count):
    for i in range(count):
        if i % 4 == 3:  # products of two monic quadratics
            yield poly_mul(_random_monic(rng, 2), _random_monic(rng, 2))
        elif i % 8 == 2:  # f(0) = 0
            yield (0,) + _random_monic(rng, rng.choice((1, 2, 3)))
        else:
            yield _random_monic(rng, rng.choice((2, 3, 4)))


def test_sturm_reference_counts():
    assert sturm_real_roots((27, -4, 0, 1)) == 1  # ex. 6.2
    assert sturm_real_roots((3, 0, -2, 0, 1)) == 0  # ex. 6.3
    assert sturm_real_roots((-1, 0, 1)) == 2
    assert sturm_real_roots((4, 0, -5, 0, 1)) == 4  # (x^2-1)(x^2-4)


def test_make_field_matches_references_on_random_polynomials():
    rng = random.Random(20261018)
    seen = set()
    for f in _random_polys(rng, 4000):
        expected = reference_shape(f)
        seen.add(expected)
        assert shape(f) == expected, f
    # every branch was met: both refusals and every signature of degree <= 4
    assert {SQUAREFREE, RATIONAL_ROOT, QUADRATIC_FACTOR} <= seen
    assert {(2, 0), (0, 1), (3, 0), (1, 1), (4, 0), (2, 1), (0, 2)} <= seen


def test_signature_matches_sturm_on_bundled_fields():
    for name in ("table1", "table2", "examples"):
        for record in bundled_records(name):
            f = poly(record.poly_coeffs)
            r1 = sturm_real_roots(f)
            assert record.build_field().signature == (r1, (len(f) - 1 - r1) // 2)


def test_pure_cubics():
    # x^3 - (p^3 - 1) is irreducible, since p^3 - 1 lies strictly between
    # two consecutive cubes; the divisor search is O(p^1.5), so it checks a
    # seeded sample beyond p = 400
    primes = [p for p in primes_up_to(3000) if p >= 5]
    rng = random.Random(3)
    sample = {p for p in primes if p < 400} | set(rng.sample(primes, 12))
    for p in primes:
        f = (1 - p**3, 0, 0, 1)
        assert shape(f) == (1, 1)
        if p in sample:
            assert reference_shape(f) == (1, 1)
        assert shape((-p**3, 0, 0, 1)) == RATIONAL_ROOT  # root p


def test_large_integer_roots_and_quadratic_factors():
    # refusals fixed by construction, with roots and constant terms far
    # beyond the small primes the q-adic lift starts from
    rng = random.Random(99)

    def has_root(g):
        disc = g[1] ** 2 - 4 * g[0]
        return disc >= 0 and isqrt(disc) ** 2 == disc

    for _ in range(300):
        r = rng.randint(-10**9, 10**9)
        g = _random_monic(rng, rng.choice((1, 2, 3)), span=10**6)
        f = poly_mul((-r, 1), g)
        assert shape(f) == (SQUAREFREE if discriminant(f) == 0 else RATIONAL_ROOT)
        g, h = (_random_monic(rng, 2, span=10**6) for _ in range(2))
        f = poly_mul(g, h)
        if discriminant(f) == 0:
            expected = SQUAREFREE
        elif has_root(g) or has_root(h):
            expected = RATIONAL_ROOT
        else:
            expected = QUADRATIC_FACTOR
        assert shape(f) == expected, f


def test_resolvent_cubic_has_the_discriminant_of_the_quartic():
    # make_field looks for the resolvent's integer roots at the q chosen
    # for f, which needs disc(resolvent) = disc(f)
    rng = random.Random(5)
    for _ in range(300):
        d, c, b, a, _ = _random_monic(rng, 4, span=50)
        resolvent = (-(a * a * d - 4 * b * d + c * c), a * c - 4 * d, -b, 1)
        assert discriminant(resolvent) == discriminant((d, c, b, a, 1))


def _shifted(f, c):
    """f(x + c)."""
    out, power = (), (1,)
    for a in f:
        out = poly_add(out, tuple(a * y for y in power))
        power = poly_mul(power, (c, 1))
    return out


def _reflected(f):
    """(-1)^n f(-x), monic again."""
    n = len(f) - 1
    return tuple((-1) ** (n - i) * a for i, a in enumerate(f))


@pytest.mark.parametrize("transform", ["shift", "reflect"])
def test_shape_is_invariant_under_shift_and_reflection(transform):
    rng = random.Random(7 if transform == "shift" else 8)
    for f in _random_polys(rng, 1500):
        g = _shifted(f, rng.randint(-20, 20)) if transform == "shift" else _reflected(f)
        assert shape(g) == shape(f), (f, g)
