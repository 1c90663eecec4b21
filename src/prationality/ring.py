"""Exact integer and modular polynomial arithmetic.

Polynomials are tuples of arbitrary-precision integers, low degree first;
the zero polynomial is the empty tuple and has degree -1.  On top of that
convention this module provides exact determinants and adjugates by
fraction-free elimination, discriminants from power sums, products and
powers in Z[x]/(f, m) for monic f on Kronecker-packed ints (kernel: one int
per element; mulmod and powmod use it; frobenius_defect is condition 2's
t^p and g(t^p), and x_power is x^e, from the kernel's generated set-up with
no kernel built; splits_completely reads x^p at that width), the truncated
p-adic logarithm on the same kernel (condition 1's Log index),
deterministic factorization over prime fields and Hensel lifting of simple
roots (used for integer roots in `numberfield.make_field`).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import islice, product
from math import gcd

from .errors import InvariantViolation


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


def power_sums(f, count) -> list[int]:
    """s_0, ..., s_(count-1), s_k the sum of the k-th powers of the roots of
    monic f, by Newton's identities."""
    n, s = degree(f), [degree(f)]
    for k in range(1, count):
        s.append(-(k * f[n - k] if k <= n else 0)
                 - sum(f[n - i] * s[k - i] for i in range(1, min(k, n + 1))))
    return s


def discriminant(f) -> int:
    """disc(f) = prod_(i<j) (r_i - r_j)^2 = det(V V^T) for monic f of degree
    n >= 2, V the Vandermonde matrix (r_j^i) of its roots: the determinant
    of the Hankel matrix (s_(i+j)) of its power sums."""
    n = degree(f)
    if n < 2:
        raise ValueError("discriminant requires degree >= 2")
    if not is_monic(f):
        raise ValueError("discriminant requires a monic polynomial")
    s = power_sums(f, 2 * n - 1)
    return det_bareiss([s[i:i + n] for i in range(n)])


def content(f) -> int:
    c = 0
    for a in f:
        c = gcd(c, abs(a))
    return c


# Miller-Rabin on the 13 primes up to 41 decides primality below MR_BOUND
# (Sorenson-Webster, Math. Comp. 86, 2017)
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


def _strong_probable_prime(n: int, a: int) -> bool:
    """a^d = 1 or a^(2^i d) = -1 mod n for some i < s, n - 1 = 2^s d with d
    odd.  A base a dividing n > a fails: a^d and its squares share a
    factor with n, so are neither 1 nor -1."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    return x == 1 or any(pow(x, 1 << i, n) == n - 1 for i in range(s))


def is_prime(n: int) -> bool:
    """Whether n is a prime, by Miller-Rabin on MR_BASES: exact below
    MR_BOUND; a False, a failing base, proves n composite at any size."""
    return n in MR_BASES or n > 41 and all(
        _strong_probable_prime(n, a) for a in MR_BASES)


def require_prime(p: int) -> None:
    """ValueError naming p where a Fermat check failed at a composite p:
    the input is at fault there, not the engine."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not a prime")


# ---------------------------------------------------------------------------
# polynomials over F_p: normalized tuples of residues in [0, p)


def _mp(coeffs, m):
    return poly(a % m for a in coeffs)


def _mp_monic(f, p):
    if not f:
        return f
    inv = pow(f[-1], -1, p)
    return poly(a * inv % p for a in f)


def _mp_quo(f, g, p):
    # the quotient of f by nonzero g over F_p, without the remainder
    inv, n = pow(g[-1], -1, p), len(g) - 1
    quo, rem = [], list(f)
    while len(rem) > n:
        quo.append(rem.pop() * inv % p)
        for i in range(n):
            rem[len(rem) - n + i] -= quo[-1] * g[i]
    return poly(quo[::-1])


def _mp_rem(f, g, p):
    # the remainder of f by nonzero g over F_p, without the quotient
    inv, n = pow(g[-1], -1, p), len(g) - 1
    rem = list(f)
    while len(rem) > n:
        c = rem.pop() * inv % p
        for i in range(n):
            rem[len(rem) - n + i] -= c * g[i]
    return _mp(rem, p)


def _mp_gcd(f, g, p):
    a, b = poly(x % p for x in f), poly(x % p for x in g)
    while b:
        a, b = b, _mp_rem(a, b, p)
    return _mp_monic(a, p)


Kernel = namedtuple("Kernel", "w pack unpack reduce pow")
FERMAT_FAILURE = "Fermat failure: eps^(p^f-1) - 1 not in the first power"


@lru_cache(maxsize=16)
def _straight_line(n: int):
    """(make, frobenius, x_power) at degree n, from one set-up text (the
    width w, the offsets, row = x^n mod (g, m) and its shifts) and one fold
    and low-slot text: make(g, m) -> (w, slot, row, reduce, power) of
    kernel, and the bodies of frobenius_defect and x_power, which share the
    x^e loop."""
    def at(pad, text):  # text with its later lines indented by pad
        return text.replace("\n", "\n" + pad * " ")

    folds = "\n".join(f"u += (u >> s{k} & slot) % m * h{k - n}"
                      for k in range(2 * n - 1, n - 1, -1))
    low = " | ".join(["(u & slot) % m"][:n] + [
        f"(u >> s{j} & slot) % m << s{j}" for j in range(1, n)]) or "0"
    slots = ", ".join(f"s{j}" for j in range(2 * n))
    shifts = ", ".join(f"row << s{j}" for j in range(n))
    setup = f"""\
w = ({2 * (2 * n - 1)} * (m - 1) ** 2).bit_length()  # n = 0: every v is 0
slot = (1 << w) - 1
[{slots}] = range(0, {2 * n} * w, w)
row = {" | ".join(f"-g[{j}] % m << s{j}" for j in range(n)) or "0"}
[{", ".join(f"h{j}" for j in range(n))}] = [{shifts}]"""
    x_loop = f"""\
gamma = 1 << w
for bit in bin(e)[3:]:
    u = gamma * gamma << w if bit == "1" else gamma * gamma
    {at(4, folds)}
    gamma = {low}"""
    horner = "".join(f"u = v * gamma + g[{i}] % m\n{folds}\nv = {low}\n"
                     for i in range(n - 2, -1, -1))
    fermat = " or ".join(["(v & slot) % p"][:n] + [
        f"(v >> s{j} & slot) % p" for j in range(1, n)]) or "0"
    src = f"""\
def make(g, m):
    {at(4, setup)}
    def reduce(u):
        {at(8, folds)}
        return {low}
    def power(v, e):
        r = v if e else reduce(1)
        for bit in bin(e)[3:]:
            u = r * r
            {at(12, folds)}
            r = {low}
            if bit == "1":
                r = reduce(r * v)
        return r
    return w, slot, row, reduce, power
def frobenius(g, p):
    m, e = p * p, p
    {at(4, setup)}
    {at(4, x_loop)}
    v = gamma + g[{n - 1}] % m
    {at(4, horner)}if {fermat}:
        raise InvariantViolation({FERMAT_FAILURE!r})
    return w, gamma, v
def x_power(g, m, e):
    {at(4, setup)}
    {at(4, x_loop)}
    return w, gamma
"""
    exec(compile(src, f"<ring straight-line code, degree {n}>", "exec"),
         namespace := {"InvariantViolation": InvariantViolation})
    return namespace["make"], namespace["frobenius"], namespace["x_power"]


def kernel(f: tuple[int, ...], m: int) -> Kernel:
    """Z[x]/(f, m) on packed ints, for monic f of degree n and m >= 2
    (Kronecker substitution; von zur Gathen-Gerhard, Modern Computer
    Algebra, 8.4).  The reduced element sum c_i x^i, i < n, 0 <= c_i < m,
    is the int sum c_i 2^(w i).  pack(a) reduces any a in Z[x]; unpack(v)
    is the poly of a reduced v; pow(v, e) is v^e for e >= 0, by square and
    multiply.  w, row = x^n mod (f, m), reduce and pow's squaring step are
    straight-line code built once per degree (_straight_line), as loops
    over the slots cost more than their int arithmetic; frobenius_defect
    and x_power run the same set-up and fold lines.  reduce(v) takes a sum
    of T = 2 products of reduced elements, slot j < 2n - 1 at most
    T min(j + 1, 2n - 1 - j)(m - 1)^2, or a square times x (x_power's
    1-bits), 2n slots of at most n (m - 1)^2.  It folds the high slots
    top-down: for k = 2n - 1, ..., n it adds slot k mod m, times row
    shifted to slot k - n, to v, which changes slots k - n .. k - 1 only,
    so each slot is final when read; then it ORs each low slot, mod m,
    back in at its offset w i.  A fold adds <= (m - 1)^2 to a slot, and
    slot j takes those of slots j + 1 .. j + n, so a sum's slot ends
    <= T n (m - 1)^2 + (n - 1)(m - 1)^2 (its slot 2n - 1 is 0, and a slot
    j >= n starts <= T (2n - 1 - j)(m - 1)^2 and takes 2n - 2 - j folds)
    and a shifted square's <= 2n (m - 1)^2, both <= T (2n - 1)(m - 1)^2
    < 2^w for w = bitlen(T (2n - 1)(m - 1)^2): no slot ever carries into
    the next.
    """
    if not is_monic(f) or m < 2:
        raise ValueError("the kernel needs monic f and m >= 2")
    n = len(f) - 1
    w, slot, row, reduce, power = _straight_line(n)[0](f, m)
    offsets = range(0, n * w, w)

    def lift(a):
        return sum(c % m << w * i for i, c in enumerate(a))

    def pack(a):  # Horner in x^n, not recursive: a self-reference is a cycle
        if len(a) <= n or not n:  # already reduced; at n = 0 every v is 0
            return lift(a[:n])
        top = (len(a) - 1) // n * n  # a[top:] has 1 to n slots
        v = lift(a[top:])
        for i in range(top - n, -1, -n):
            v = reduce(v * row + lift(a[i:i + n]))
        return v

    def unpack(v):
        return poly(v >> s & slot for s in offsets)

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


def frobenius_defect(g, p: int) -> tuple[int, int, int]:
    """(w, gamma, X) in Z[t]/(g, m), m = p^2, p prime, g monic of degree
    n >= 2, packed as kernel(g, m) packs, at its width w: gamma = t^p,
    X = g(gamma), and InvariantViolation unless each slot of X is 0 mod p
    (the Fermat check, g(t^p) = g(t)^p).  Generated once per degree from
    the kernel's set-up, fold and low-slot lines (_straight_line); no
    kernel is built.  gamma is x_power(g, m, p)'s, one reduce per bit;
    Horner takes n - 1.  Slot 0 of gamma + c is <= 2(m - 1), so a
    product's slot j < n is <= (j + 2)(m - 1)^2 (+ c at j = 0) and takes
    min(j + 1, n - 1) folds of <= (m - 1)^2, and its slot j >= n ends
    <= (4n - 3 - 2j)(m - 1)^2: as in x_power (kernel), every slot stays
    <= 2n (m - 1)^2 < 2^w."""
    if len(g) < 3 or g[-1] != 1:
        raise ValueError("frobenius_defect needs monic g of degree >= 2")
    return _straight_line(len(g) - 1)[1](g, p)


def x_power(g, m: int, e: int) -> tuple[int, int]:
    """(w, x^e) in Z[x]/(g, m), g monic of degree n >= 2, m >= 2, e >= 1,
    packed as kernel(g, m) packs, at its width w: square and shift, one
    reduce per bit, from the kernel's set-up and fold lines
    (_straight_line), with no kernel built."""
    if len(g) < 3 or g[-1] != 1 or m < 2 or e < 1:
        raise ValueError("x_power needs monic g of degree >= 2, m >= 2, e >= 1")
    return _straight_line(len(g) - 1)[2](g, m, e)


def slots_divisible(w: int, v: int, p: int) -> bool:
    """Whether every slot of v, packed at slot width w, is divisible by p."""
    slot = (1 << w) - 1
    while v and not (v & slot) % p:
        v >>= w
    return not v


def splits_completely(w: int, gamma: int, p: int) -> bool:
    """Whether g of degree >= 2, squarefree mod p, splits into linear
    factors mod p, for gamma = x^p in Z[x]/(g, m), p | m, at width w:
    iff gamma = x mod p slot by slot, as x^p - x = prod (x - c) over F_p.
    gamma + (p - 1) x adds p - 1 < m to slot 1 and carries nowhere."""
    return slots_divisible(w, gamma + (p - 1 << w), p)


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
    v = _mp_quo(f, t, p)
    k = 0
    while degree(v) > 0:
        k += 1
        w = _mp_gcd(t, v, p)
        z = _mp_quo(v, w, p)
        if degree(z) > 0:
            result.append((z, k))
        v = w
        t = _mp_quo(t, w, p)
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
            rest = _mp_quo(rest, g, p)
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
    deterministically.  A candidate x + s fails about half the time: bundled
    fields and units need <= 20 at p <= 3000 and near 10^6, 10^12, 2^64, and
    1000 in a row, far past the ~log2 p to expect, raise InvariantViolation."""
    if degree(f) == d:
        return [f]
    for t in islice(_candidate_polys(p, 2 * d), 1000):
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
            right = _equal_degree_split(_mp_quo(f, g, p), d, p)
            return left + right
    raise InvariantViolation(f"no equal-degree split of {f} mod {p}")


def factor_mod_p(f, p: int) -> list[tuple[tuple[int, ...], int]]:
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
    return factors


def log_principal(a, f, p: int, k: int) -> list[int]:
    """log(a) = sum (-1)^(j+1) z^j / j, z = a - 1, in Z_p[x]/(f) mod p^k,
    as deg f power-basis coordinates, for monic f, odd p and a with every
    coordinate of z divisible by p (a mod p^k determines the result).
    Every slot of z^j is then divisible by p^j, so z^j / j is 0 mod p^k
    once j - v_p(j) >= k, which holds for every j > J, J the least j with
    p^(i - k + 1) > i for every i > j: p^(j - k + 1) grows faster than j
    from j = k on.  z^j is computed on the kernel mod p^(k+e), p^e the
    largest power of p up to J, and divided exactly by the p-part of j on
    the packed int; the terms are summed per coordinate after unpacking,
    as packed sums could carry between slots."""
    if p == 2:
        raise ValueError("p = 2 is unsupported")
    z = poly_sub(a, (1,))
    if any(c % p for c in z):
        raise ValueError("argument must be a principal unit (1 mod p)")
    pk, terms, e = p**k, max(k - 1, 0), 0
    while p ** (terms - k + 2) <= terms + 1:
        terms += 1
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
