"""Exact integer and modular polynomial arithmetic.

Polynomials are tuples of arbitrary-precision integers, low degree first;
the zero polynomial is the empty tuple and has degree -1.  On top of that
convention this module provides exact determinants and adjugates by
fraction-free elimination, resultant-based discriminants, products and
powers in Z[x]/(f, m) for monic f on Kronecker-packed ints (kernel: one int
per element; mulmod and powmod wrap it), the truncated p-adic logarithm on
the same kernel (condition 1's Log index), deterministic factorization over
prime fields and Hensel lifting of simple roots (used for integer roots in
`numberfield.make_field`).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd


# ---------------------------------------------------------------------------
# integer polynomials


def poly(coeffs) -> tuple[int, ...]:
    """Normalize a coefficient sequence (low degree first) to a poly tuple."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(f) -> int:
    return len(f) - 1


def is_monic(f) -> bool:
    return bool(f) and f[-1] == 1


def poly_add(f, g):
    n = max(len(f), len(g))
    return poly(
        (f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)
    )


def poly_sub(f, g):
    return poly_add(f, tuple(-a for a in g))


def poly_mul(f, g):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return poly(out)


def poly_rem(g, f):
    """The remainder of g on division by monic f, over Z."""
    r, n = list(g), len(f) - 1
    for k in range(len(r) - 1, n - 1, -1):
        if r[k]:
            for i in range(n):
                r[k - n + i] -= r[k] * f[i]
    return poly(r[:n])


def poly_eval(f, x):
    acc = 0
    for a in reversed(f):
        acc = acc * x + a
    return acc


def derivative(f):
    return poly(i * a for i, a in enumerate(f) if i > 0)


def det_bareiss(rows) -> int:
    """Exact determinant of a square integer matrix by fraction-free
    Gaussian elimination (Bareiss); the input is not modified."""
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_adjugate(rows) -> tuple[int, list[list[int]] | None]:
    """(det, adj) of a square integer matrix, rows * adj = det * I, by one
    fraction-free Gauss-Jordan elimination of [rows | I].  After step k
    every entry is a (k + 1)-minor of the augmented matrix up to sign, so
    each division by the previous pivot is exact; the left block ends as
    d I with d = +-det and the right one as d rows^-1 (Bareiss, Math.
    Comp. 22, 1968).  adj is None when det = 0."""
    n = len(rows)
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        top = a[k]
        for i, row in enumerate(a):
            if i != k:
                c = row[k]
                a[i] = [(top[k] * x - c * y) // prev for x, y in zip(row, top)]
        prev = top[k]
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


def resultant(f, g) -> int:
    """Resultant of integer polynomials: the determinant of the Sylvester
    matrix."""
    n, m = degree(f), degree(g)
    if n < 0 or m < 0:
        return 0
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    fr = list(reversed(f))
    gr = list(reversed(g))
    rows = [[0] * i + fr + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + gr + [0] * (n - 1 - i) for i in range(n)]
    return det_bareiss(rows)


def discriminant(f) -> int:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f) for monic f of degree >= 2."""
    n = degree(f)
    if n < 2:
        raise ValueError("discriminant requires degree >= 2")
    if not is_monic(f):
        raise ValueError("discriminant requires a monic polynomial")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, derivative(f))


def content(f) -> int:
    c = 0
    for a in f:
        c = gcd(c, abs(a))
    return c


# ---------------------------------------------------------------------------
# polynomials over Z/m (ModPoly): tuple of residues in [0, m) plus the modulus


@dataclass(frozen=True)
class ModPoly:
    coeffs: tuple[int, ...]
    modulus: int

    def __post_init__(self):
        if self.modulus <= 1:
            raise ValueError("modulus must exceed 1")
        if any(not (0 <= a < self.modulus) for a in self.coeffs):
            raise ValueError("coefficients out of range")
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("unnormalized ModPoly")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def mod_poly(coeffs, m) -> ModPoly:
    return ModPoly(poly(a % m for a in coeffs), m)


def _mp(coeffs, m):
    # internal: normalized residue tuple without the wrapper
    return poly(a % m for a in coeffs)


def _mp_monic(f, p):
    if not f:
        return f
    inv = pow(f[-1], -1, p)
    return poly(a * inv % p for a in f)


def _mp_divmod(f, g, p):
    # p prime, g nonzero
    if not g:
        raise ZeroDivisionError
    inv = pow(g[-1], -1, p)
    rem = list(f)
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
    return poly(q % p for q in quo), poly(r % p for r in rem)


def _mp_gcd(f, g, p):
    a, b = poly(x % p for x in f), poly(x % p for x in g)
    while b:
        a, b = b, _mp_divmod(a, b, p)[1]
    return _mp_monic(a, p)


Kernel = namedtuple("Kernel", "w pack unpack reduce pow")


@lru_cache(maxsize=8)  # kept kernels scatter over the heap and raise RSS
def kernel(f: tuple[int, ...], m: int) -> Kernel:
    """Z[x]/(f, m) on packed ints, for monic f of degree n and m >= 2
    (Kronecker substitution; von zur Gathen-Gerhard, Modern Computer
    Algebra, 8.4).  The reduced element sum c_i x^i, i < n, 0 <= c_i < m,
    is the int sum c_i 2^(w i).  pack(a) reduces any a in Z[x]; unpack(v)
    is the poly of a reduced v; pow(v, e) is v^e for e >= 0.  reduce(v)
    takes 2n - 1 slots of at most T n (m - 1)^2, T = 2, as in a sum of T
    products of reduced elements (a slot of one sums at most n terms
    a_i b_j <= (m - 1)^2).  It adds each high slot k >= n, mod m, times
    row k = x^k mod (f, m) to the low slots, then takes those mod m.  Each
    of the n - 1 folds adds at most (m - 1)^2 to a low slot, which ends
    <= T n (m - 1)^2 + (n - 1)(m - 1)^2 <= T (2n - 1)(m - 1)^2 < 2^w for
    w = bitlen(T (2n - 1)(m - 1)^2): no slot ever carries into the next.
    """
    if not is_monic(f) or m < 2:
        raise ValueError("the kernel needs monic f and m >= 2")
    n = len(f) - 1
    w = (2 * (2 * n - 1) * (m - 1) ** 2).bit_length()  # n = 0: every v is 0
    slot, nw = (1 << w) - 1, n * w

    def reduce(v):
        lo = v & (1 << nw) - 1
        v >>= nw
        for row in rows:
            lo += (v & slot) % m * row
            v >>= w
        out = 0
        for s in range(nw - w, -1, -w):
            out = out << w | (lo >> s & slot) % m
        return out

    def pack(a):
        if len(a) < 2 * n or not n:
            return reduce(sum(c % m << w * i for i, c in enumerate(a)))
        return reduce(pack(a[n:]) * rows[0] + pack(a[:n]))  # x^n = row 0

    def unpack(v):
        return poly(v >> s & slot for s in range(0, nw, w))

    def power(v, e):
        r = v if e else reduce(1)
        for bit in bin(e)[3:]:
            r = reduce(r * r)
            if bit == "1":
                r = reduce(r * v)
        return r

    # x^k mod (f, m) for n <= k <= max(n, 2n - 2); x * row_k has a single
    # high slot, folded by the first row alone
    rows = [sum(-c % m << w * i for i, c in enumerate(f[:n]))]
    while len(rows) < n - 1:
        rows.append(reduce(rows[-1] << w))
    return Kernel(w, pack, unpack, reduce, power)


def mulmod(a, b, f, m):
    """a * b in Z[x]/(f, m) for monic integer f and any modulus m >= 2;
    the result is reduced (degree < deg f, residues in [0, m))."""
    k = kernel(tuple(f), m)
    return k.unpack(k.reduce(k.pack(a) * k.pack(b)))


def powmod(a, e, f, m):
    """a^e in Z[x]/(f, m) for monic integer f and any modulus m >= 2."""
    if e < 0:
        raise ValueError("powmod needs e >= 0")
    k = kernel(tuple(f), m)
    return k.unpack(k.pow(k.pack(a), e))


def _sqf_decomposition(f, p):
    """Squarefree decomposition of monic f over F_p: list of (g_i, m_i) with
    f = prod g_i^{m_i}, the g_i squarefree and pairwise coprime."""
    result = []
    if degree(f) <= 0:
        return result
    fp = _mp(derivative(f), p)
    if not fp:
        # f = g(x^p) over F_p (Frobenius fixes F_p coefficients)
        for h, m in _sqf_decomposition(poly(f[::p]), p):
            result.append((h, m * p))
        return result
    t = _mp_gcd(f, fp, p)
    v = _mp_divmod(f, t, p)[0]
    k = 0
    while degree(v) > 0:
        k += 1
        w = _mp_gcd(t, v, p)
        z = _mp_divmod(v, w, p)[0]
        if degree(z) > 0:
            result.append((z, k))
        v = w
        t = _mp_divmod(t, w, p)[0]
    if degree(t) > 0:
        # leftover is a p-th power carrying its full multiplicity already
        result.extend(_sqf_decomposition(t, p))
    return result


def _distinct_degree(f, p):
    """Split squarefree monic f over F_p into products of equal-degree factors:
    list of (product, factor degree)."""
    result = []
    rest = f
    x = frob = (0, 1)  # frob: x^(p^d) mod a multiple of rest
    d = 0
    while degree(rest) > 0:
        d += 1
        if degree(rest) < 2 * d:
            result.append((rest, degree(rest)))
            break
        frob = powmod(frob, p, rest, p)
        g = _mp_gcd(poly_sub(frob, x), rest, p)
        if degree(g) > 0:
            result.append((g, d))
            rest = _mp_divmod(rest, g, p)[0]
    return result


def _candidate_polys(p, max_deg):
    """Deterministic enumeration of splitting candidates: the shifts
    x+0, x+1, ..., x+(p-1) first, then all monic polynomials by degree."""
    for s in range(p):
        yield (s, 1)
    for d in range(2, max_deg + 1):
        for idx in product(range(p), repeat=d):
            yield idx[::-1] + (1,)


def _equal_degree_split(f, d, p):
    """Factor monic squarefree f (product of irreducibles of degree d) over F_p,
    deterministically."""
    if degree(f) == d:
        return [f]
    for t in _candidate_polys(p, 2 * d):
        if p == 2:  # trace map to F_2
            acc, term = (), t
            for _ in range(d):
                acc = poly_add(acc, term)
                term = mulmod(term, term, f, p)
            g = _mp_gcd(acc, f, p)
        else:
            e = (p**d - 1) // 2
            h = powmod(t, e, f, p)
            g = _mp_gcd(poly_sub(h, (1,)), f, p)
        if 0 < degree(g) < degree(f):
            left = _equal_degree_split(g, d, p)
            right = _equal_degree_split(_mp_divmod(f, g, p)[0], d, p)
            return left + right
    raise AssertionError("equal-degree split exhausted candidates")


def factor_mod_p(f, p: int) -> list[tuple[ModPoly, int]]:
    """Monic irreducible factors of f over F_p with multiplicities.

    Output is sorted by (degree, coefficient tuple) so prime-ideal labels are
    stable across runs.  Raises ValueError when f vanishes mod p.
    """
    fbar = _mp(f, p)
    if not fbar:
        raise ValueError("polynomial is zero modulo p")
    fbar = _mp_monic(fbar, p)
    factors: list[tuple[tuple[int, ...], int]] = []
    for g, mult in _sqf_decomposition(fbar, p):
        for part, d in _distinct_degree(g, p):
            for irr in _equal_degree_split(part, d, p):
                factors.append((irr, mult))
    factors.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return [(ModPoly(g, p), m) for g, m in factors]


def log_principal(a, f, p: int, k: int) -> list[int]:
    """log(a) = sum (-1)^(j+1) z^j / j, z = a - 1, in Z_p[x]/(f) mod p^k,
    as deg f power-basis coordinates, for monic f, odd p and a with every
    coordinate of z divisible by p (a mod p^k determines the result).
    Every slot of z^j is then divisible by p^j, so the terms past
    j = kp/(p - 1) + p vanish mod p^k.  z^j is computed on the kernel mod
    p^(k+e), p^e the largest power of p up to that bound, and divided
    exactly by the p-part of j on the packed int; the terms are summed per
    coordinate after unpacking, as packed sums could carry between slots."""
    if p == 2:
        raise ValueError("p = 2 is unsupported")
    z = poly_sub(a, (1,))
    if any(c % p for c in z):
        raise ValueError("argument must be a principal unit (1 mod p)")
    pk, terms, e = p**k, k * p // (p - 1) + p, 0
    while p ** (e + 1) <= terms:
        e += 1
    kern = kernel(tuple(f), p ** (k + e))
    z, zj = kern.pack(z), 1
    total = [0] * degree(f)
    for j in range(1, terms + 1):
        zj = kern.reduce(zj * z)
        q, jj = 1, j
        while jj % p == 0:
            q, jj = q * p, jj // p
        c = pow(jj if j % 2 else -jj, -1, pk)
        for i, s in enumerate(kern.unpack(zj // q)):
            total[i] += c * s
    return [t % pk for t in total]


def hensel_lift_root(f, p: int, r0: int, k: int) -> int:
    """Lift a simple root of f mod p to precision p^k by Newton iteration;
    the lift is returned in [0, p^k)."""
    if poly_eval(f, r0) % p != 0:
        raise ValueError("r0 is not a root of f modulo p")
    fp = derivative(f)
    if poly_eval(fp, r0) % p == 0:
        raise ValueError("root is not simple: f'(r0) = 0 mod p")
    prec = 1
    r = r0 % p
    while prec < k:
        prec = min(2 * prec, k)
        m = p**prec
        d = poly_eval(fp, r) % m
        r = (r - poly_eval(f, r) * pow(d, -1, m)) % m
    assert poly_eval(f, r) % p**k == 0
    return r % p**k
