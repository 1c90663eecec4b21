"""Number-field structure in power coordinates.

A field K = Q[x]/(f) of degree 2, 3 or 4 is described by its monic defining
polynomial, whose discriminant fixes the signature, and a basis
of an order containing Z[alpha], stored as integer rows over the power basis
divided by one common denominator d (identity rows over d = 1 for Z[alpha]).
Elements are power coordinates over a denominator, sum c_j alpha^j / den,
so a product is one product mod f; the basis is only a lattice, d O_K, and
the index certificate of the splitting code.  Loading a field checks that
the rows span an order containing Z[alpha] (one fraction-free Gauss-Jordan
elimination, none for Z[alpha]) and builds the traces of the powers of
alpha, from which characteristic polynomials come.

An ideal I is kept as the Hermite normal form of the lattice d I in power
coordinates, together with the covolume [Z^n : d O_K] = d^n / index that
turns its determinant into the norm [O_K : I]; on Z[alpha], d = 1.  The
module also decides Dedekind's p-maximality criterion and reads prime
splitting off factoring f mod p.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm, prod

from .errors import InvariantViolation, SplittingUndetermined
from . import ring


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def checked_make(cls, iterable):
    """namedtuple's _make through cls(...): _replace builds its result with
    _make, which would otherwise skip the checks in cls.__new__."""
    return cls(*iterable)


class FieldElement(namedtuple("FieldElement", "coords den")):
    """sum coords[j] alpha^j / den, over a positive denominator."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, coords, den=1):
        if den <= 0:
            raise ValueError("denominator must be positive")
        return super().__new__(cls, coords, den)

    def normalized(self) -> "FieldElement":
        g = gcd(ring.content(self.coords), self.den)
        if g <= 1:
            return self
        return FieldElement(tuple(c // g for c in self.coords), self.den // g)


class PrimeFactor(namedtuple("PrimeFactor", "generator e f label")):
    """A prime ideal (p, generator(alpha)) of split_prime(K, p) with index e
    and degree f; label is its 1-based position in the deterministic ordering."""

    __slots__ = ()


class IdealHNF(namedtuple("IdealHNF", "rows covolume", defaults=(1,))):
    """Upper-triangular column basis of the lattice d I in power
    coordinates; the norm [O_K : I] is the product of the diagonal over the
    covolume [Z^n : d O_K] (NumberField.covolume)."""

    __slots__ = ()

    @property
    def norm(self) -> int:
        return prod(row[i] for i, row in enumerate(self.rows)) // self.covolume

    def columns(self):
        return list(zip(*self.rows))


def _real_root_count(f, disc: int) -> int:
    """r1 of a squarefree f of degree n <= 4 from the sign of its
    discriminant, (-1)^(r2): disc < 0 leaves one complex pair.  A quartic
    with disc > 0 has four real roots iff 8b - 3a^2 < 0 and
    64d - 16b^2 + 16a^2b - 16ac - 3a^4 < 0, none otherwise, for
    f = x^4 + ax^3 + bx^2 + cx + d (Rees, Amer. Math. Monthly 29, 1922)."""
    n = ring.degree(f)
    if disc < 0:
        return n - 2
    if n < 4:
        return n
    d, c, b, a = f[:4]
    p = 8 * b - 3 * a * a
    q = 64 * d - 16 * b * b + 16 * a * a * b - 16 * a * c - 3 * a**4
    return 4 if p < 0 and q < 0 else 0


def _min_poly(chi) -> tuple[int, ...]:
    """mu for chi = mu^(n/d), n = deg chi <= 4, d the least divisor of n
    that admits one: mu = t + a with n a = chi_(n-1), or t^2 + b t + c with
    2b = chi_3, 2c = chi_2 - b^2 (n = 4), confirmed by one product.
    InvariantViolation when no d does."""
    n, b = ring.degree(chi), chi[-2] // 2
    for mu in ((chi[-2] // n, 1), ((chi[-3] - b * b) // 2, b, 1)):
        k, r = divmod(n, len(mu) - 1)
        if not r and reduce(ring.poly_mul, [mu] * k) == chi:
            return mu
    raise InvariantViolation("characteristic polynomial is not a power")


# Phi_k for the k with phi(k) <= 4 (k = 1, 2, 3, 4, 6, 5, 8, 10, 12): the
# minimal polynomials of the roots of unity in a field of degree <= 4
_CYCLOTOMIC = ((-1, 1), (1, 1), (1, 1, 1), (1, 0, 1), (1, -1, 1),
               (1, 1, 1, 1, 1), (1, 0, 0, 0, 1), (1, -1, 1, -1, 1),
               (1, 0, -1, 0, 1))


class NumberField:
    """Immutable field/order data; construct via make_field.  basis_rows
    None means Z[alpha]: identity rows over d = 1, index 1."""

    def __init__(self, f, poly_disc: int, basis_rows):
        n = ring.degree(f)
        self.poly = f
        self.n = n
        self.poly_disc = poly_disc
        r1 = _real_root_count(f, poly_disc)
        self.signature = (r1, (n - r1) // 2)
        self.criterion_eligible = (n, *self.signature) in ((3, 1, 1), (4, 0, 2))
        if basis_rows is None:
            # the checks below hold for the identity by inspection: its first
            # row is 1, its determinant 1, its inverse itself, and 1 | disc
            d = self.index = self.covolume = 1
            self.basis = tuple(tuple(int(i == j) for j in range(n))
                               for i in range(n))
        else:
            rows = [[Fraction(x) for x in row] for row in basis_rows]
            d = lcm(*[x.denominator for row in rows for x in row], 1)
            self.basis = tuple(tuple(x.numerator * (d // x.denominator)
                                     for x in row) for row in rows)
            if list(self.basis[0]) != [d] + [0] * (n - 1):
                raise ValueError("first basis element must be 1")
            det, adj = ring.det_adjugate(self.basis)
            if det == 0:
                raise ValueError("basis matrix is singular")
            # B^-1 = d adj(dB) / det(dB); its rows are the basis coordinates
            # of the powers of alpha, so it is integral iff the order
            # contains Z[alpha]
            if any(d * a % det for row in adj for a in row):
                raise ValueError("basis does not contain the power basis "
                                 "lattice")
            # [Z^n : d O_K], which turns the HNF of d I into [O_K : I]
            self.covolume = abs(det)
            self.index = d**n // self.covolume
            if self.poly_disc % (self.index**2) != 0:
                raise ValueError("basis determinant incompatible with disc(f)")
            # b_i b_j has the basis coordinates v adj / (d det) for the power
            # coordinates v of d b_i d b_j; integral rows spanning a lattice
            # that contains Z[alpha] span Z[alpha], so only d > 1 can fail
            for i, bi in enumerate(self.basis if d > 1 else ()):
                for bj in self.basis[i:]:
                    v = self._times(bi, bj)
                    if any(sum(x * row[k] for x, row in zip(v, adj)) % (d * det)
                           for k in range(n)):
                        raise ValueError("basis rows do not span an order")
        self.basis_den = d
        self.field_disc = self.poly_disc // self.index**2
        # Tr(alpha^m), m < n: the power sums of the roots of f
        self._traces = tuple(ring.power_sums(f, n))
        self._min_polys: dict[FieldElement, tuple[tuple[int, ...], int]] = {}
        self.is_power_basis = d == 1

    # -- elements -------------------------------------------------------------

    def zero(self) -> FieldElement:
        return FieldElement((0,) * self.n)

    def one(self) -> FieldElement:
        return FieldElement((1,) + (0,) * (self.n - 1))

    def from_int(self, c: int) -> FieldElement:
        return FieldElement((c,) + (0,) * (self.n - 1))

    def element_from_power_coords(self, coeffs, den: int = 1) -> FieldElement:
        """The element sum coeffs[j] alpha^j / den, in lowest terms."""
        vec = tuple(coeffs)
        if len(vec) > self.n:
            raise ValueError("too many coordinates")
        return FieldElement(vec + (0,) * (self.n - len(vec)), den).normalized()

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        d = lcm(a.den, b.den)
        sa, sb = d // a.den, d // b.den
        return FieldElement(
            tuple(x * sa + y * sb for x, y in zip(a.coords, b.coords)), d
        ).normalized()

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return self.add(a, FieldElement(tuple(-c for c in b.coords), b.den))

    def _times(self, u, v) -> tuple[int, ...]:
        """u v mod f on coordinate tuples, padded to n coordinates."""
        r = ring.poly_rem(ring.poly_mul(u, v), self.poly)
        return r + (0,) * (self.n - len(r))

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return FieldElement(self._times(a.coords, b.coords),
                            a.den * b.den).normalized()

    def power_coords_mod(self, a: FieldElement, modulus: int) -> list[int]:
        """a in Z[x]/(f, modulus): its coordinates times the inverse of its
        denominator mod modulus, reduced.  ValueError (from pow) when the
        denominator is not prime to the modulus."""
        dinv = pow(a.den, -1, modulus)
        return [c * dinv % modulus for c in a.coords]

    def pow_mod(self, a: FieldElement, exponent: int, modulus: int) -> FieldElement:
        """a^exponent reduced mod modulus, computed by ring.powmod in
        Z[x]/(f, modulus) on power_coords_mod(a, modulus).  ValueError for
        0^0, for a denominator not prime to the modulus and for a negative
        exponent (ring.powmod)."""
        if exponent == 0 and not any(a.coords):
            raise ValueError("0^0 is undefined")
        r = ring.powmod(self.power_coords_mod(a, modulus), exponent, self.poly,
                        modulus)
        return FieldElement(r + (0,) * (self.n - len(r)))

    def mul_matrix(self, a: FieldElement):
        """Columns are d a b_j, b_j = basis[j] / d, in power coordinates
        (the denominator of a kept aside)."""
        return [self._times(a.coords, row) for row in self.basis]

    def char_poly(self, a: FieldElement) -> tuple[int, ...]:
        """The characteristic polynomial c of a, monic of degree n.  With
        a = w(alpha)/D, that of w is C, C_i = c_i D^(n - i), read off the
        power sums Tr(w^k), k <= n, by Newton's identities: w^k is an exact
        product mod f, and Tr is linear with Tr(alpha^m) = self._traces[m].
        ValueError unless a is integral, InvariantViolation unless C(w) = 0
        (Cayley-Hamilton)."""
        n, f = self.n, self.poly
        w, den = a
        powers = [w]  # w^1, ..., w^n mod f
        while len(powers) < n:
            powers.append(ring.poly_rem(ring.poly_mul(powers[-1], w), f))
        s = [sum(x * t for x, t in zip(v, self._traces)) for v in powers]
        e = [1]  # elementary symmetric functions of the conjugates of w
        for k in range(1, n + 1):
            e.append(sum((-1) ** (i - 1) * e[k - i] * s[i - 1]
                         for i in range(1, k + 1)) // k)
        c = [(-1) ** (n - i) * e[n - i] for i in range(n + 1)]
        acc = (c[0],)  # C(w) = sum C_i w^i
        for ci, v in zip(c[1:], powers):
            acc = ring.poly_add(acc, tuple(ci * x for x in v))
        if acc:
            raise InvariantViolation("element does not satisfy its "
                                     "characteristic polynomial")
        if any(ci % den ** (n - i) for i, ci in enumerate(c)):
            raise ValueError("element is not integral")
        return tuple(ci // den ** (n - i) for i, ci in enumerate(c))

    def unit_min_poly(self, u: FieldElement) -> tuple[tuple[int, ...], int]:
        """(mu, disc(mu)) for the minimal polynomial mu of a unit u, computed
        once per unit of this field: the loaders, the recurrence screen and
        condition (2) all read it.  chi = char_poly(u) is mu^(n / deg mu), so
        u has norm +-1 iff chi(0) = +-1, and chi is mu unless disc(chi) = 0;
        u is a root of unity iff mu is some Phi_k.  ValueError unless u is
        integral, of norm +-1 and no root of unity."""
        entry = self._min_polys.get(u)
        if entry is None:
            try:
                chi = self.char_poly(u)
            except ValueError:
                raise ValueError("unit is not integral") from None
            if abs(chi[0]) != 1:
                raise ValueError("unit norm is not +-1")
            disc = self.poly_disc if chi == self.poly else ring.discriminant(chi)
            mu = chi if disc else _min_poly(chi)
            if mu in _CYCLOTOMIC:
                raise ValueError("unit is a root of unity")
            entry = self._min_polys[u] = mu, disc or ring.discriminant(mu)
        return entry

    def norm(self, a: FieldElement) -> Fraction:
        """The determinant of multiplication by a on the power basis."""
        powers = [(0,) * j + (1,) for j in range(self.n)]
        return Fraction(ring.det_bareiss([self._times(a.coords, x)
                                          for x in powers]), a.den**self.n)

    def equals(self, a: FieldElement, b: FieldElement) -> bool:
        a, b = a.normalized(), b.normalized()
        return a.coords == b.coords and a.den == b.den


def make_field(poly_coeffs, basis=None) -> NumberField:
    """Build a NumberField from a monic squarefree irreducible polynomial of
    degree 2, 3 or 4; cubics and quartics of the right signature are
    criterion-eligible, the other shapes are accepted as data carriers but
    flagged via criterion_eligible = False.  Irreducibility is decided by
    integer roots of f and, for quartics, of its resolvent cubic; both tests
    are complete only up to degree 4, so higher degrees are refused."""
    f = ring.poly(poly_coeffs)
    n = ring.degree(f)
    if n < 2:
        raise ValueError("defining polynomial must have degree >= 2")
    if n > 4:
        raise ValueError("defining polynomial must have degree <= 4")
    if not ring.is_monic(f):
        raise ValueError("defining polynomial must be monic")
    poly_disc = ring.discriminant(f)
    if poly_disc == 0:
        raise ValueError("defining polynomial must be squarefree")
    if _integer_roots(f, poly_disc):
        raise ValueError("defining polynomial is reducible (rational root)")
    if n == 4 and _has_quadratic_factor(f, poly_disc):
        raise ValueError("defining polynomial is reducible (quadratic factor)")
    return NumberField(f, poly_disc, basis)


def _integer_roots(f, disc: int) -> list[int]:
    """The integer roots (the rational ones) of monic f with disc(f) = disc,
    nonzero.  The least q >= 2 prime to disc is a prime, f mod q is
    squarefree, and an integer root r is the unique q-adic lift of the
    simple root r mod q.  Lifted to q^k > 2(1 + max|f_i|), twice the Cauchy
    bound on |r|, its symmetric residue is r itself (Cohen, GTM 138, 3.5)."""
    q = 2
    while gcd(q, disc) != 1:
        q += 1
    k, bound = 1, 2 * (1 + max(abs(c) for c in f[:-1]))
    while q**k <= bound:
        k += 1
    roots = []
    for r0 in range(q):
        if ring.poly_eval(f, r0) % q == 0:
            r = ring.hensel_lift_root(f, q, r0, k)
            if 2 * r > q**k:
                r -= q**k
            if ring.poly_eval(f, r) == 0:
                roots.append(r)
    return roots


def _sum_product_roots(s: int, t: int) -> tuple[int, int] | None:
    """Integers (r, r') with r + r' = s and r r' = t, or None."""
    disc = s * s - 4 * t
    if disc < 0 or isqrt(disc) ** 2 != disc:
        return None
    r = isqrt(disc)
    return (s + r) // 2, (s - r) // 2


def _has_quadratic_factor(f, disc: int) -> bool:
    # monic quartic x^4 + ax^3 + bx^2 + cx + d = (x^2 + ux + v)(x^2 + u'x + v')
    # over Z (Gauss's lemma) iff theta = v + v' is an integer root of the
    # resolvent cubic, which has the discriminant of f, with v, v' the roots
    # of z^2 - theta z + d, u, u' those of t^2 - at + (b - theta), and
    # uv' + u'v = c; such integers multiply back to f
    d, c, b, a = f[:4]
    resolvent = (-(a * a * d - 4 * b * d + c * c), a * c - 4 * d, -b, 1)
    for theta in _integer_roots(resolvent, disc):
        vs, us = _sum_product_roots(theta, d), _sum_product_roots(a, b - theta)
        if vs and us:
            (v, v2), (u, u2) = vs, us
            if c in (u * v2 + u2 * v, u * v + u2 * v2):
                return True
    return False


# ---------------------------------------------------------------------------
# Dedekind's criterion and prime splitting


def radical_cofactor(factors, p: int) -> tuple[int, ...]:
    """prod g^(m - 1) over F_p for (g, m) pairs that multiply to f mod p,
    so that f = rad(f) * cofactor mod p."""
    out = (1,)
    for g, mult in factors:
        for _ in range(mult - 1):
            out = ring._mp(ring.poly_mul(out, g), p)
    return out


def dedekind_p_maximal(f, p: int, factors) -> bool:
    """Dedekind's criterion: is Z[alpha] maximal at p?

    f is the monic defining polynomial and factors its factorization mod p
    as (g, multiplicity) pairs, g a residue tuple: the irreducible factors
    of ring.factor_mod_p or the squarefree parts of squarefree_parts.  Only
    the radical and its cofactor are read, and they are the same for both.
    """
    gbar = (1,)
    for g, _ in factors:
        gbar = ring._mp(ring.poly_mul(gbar, g), p)
    hbar = radical_cofactor(factors, p)
    glift = ring.poly(gbar)
    hlift = ring.poly(hbar)
    diff = ring.poly_sub(f, ring.poly_mul(glift, hlift))
    tbar = ring.poly((c // p) % p for c in diff)
    assert all(c % p == 0 for c in diff), "f - g*h must vanish mod p"
    g1 = ring._mp_gcd(tbar, gbar, p)
    g2 = ring._mp_gcd(g1, hbar, p)
    return ring.degree(g2) == 0


def _require_certificate(K: NumberField, p: int, factors) -> None:
    """Refuse p unless it provably does not divide the index i: p^2 not
    dividing disc(f) = i^2 d_K (Cohen, GTM 138, ch. 4), so Dedekind's test
    runs only where p^2 does, or Dedekind p-maximality of the power basis,
    or a basis denominator prime to p (p divides it only if p divides i)."""
    if K.poly_disc % (p * p) == 0 and not (
            dedekind_p_maximal(K.poly, p, factors) if K.is_power_basis
            else K.basis_den % p != 0):
        raise SplittingUndetermined(
            f"p = {p} may divide the index; splitting undetermined"
        )


def squarefree_parts(K: NumberField,
                     p: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """f mod p = prod g_m^m as (g_m, m) pairs, the g_m monic, squarefree and
    pairwise coprime, under split_prime's certificate.  At p not dividing
    disc(f) this is ((f, 1),) unreduced: no reader needs f mod p there.

    Since p does not divide the index, each irreducible factor g of g_m
    gives the prime ideal (p, g(alpha)) with e = m and f = deg g.
    """
    if K.poly_disc % p != 0:
        return ((K.poly, 1),)
    parts = tuple(ring._sqf_decomposition(ring._mp(K.poly, p), p))
    _require_certificate(K, p, parts)
    return parts


def split_prime(K: NumberField, p: int) -> list[PrimeFactor]:
    """Prime ideals over p with (e, f), read off from factoring f mod p,
    under the certificate of _require_certificate."""
    factors = ring.factor_mod_p(K.poly, p)
    _require_certificate(K, p, factors)
    out = [
        PrimeFactor(g, mult, ring.degree(g), i + 1)
        for i, (g, mult) in enumerate(factors)
    ]
    assert sum(pf.e * pf.f for pf in out) == K.n
    return out


# ---------------------------------------------------------------------------
# ideals in Hermite normal form


def _hnf_from_columns(cols, n, covolume=1) -> IdealHNF:
    work = [list(c) for c in cols]
    out_cols = [None] * n
    for i in reversed(range(n)):
        pivot = None
        rest = []
        for c in work:
            if c[i] == 0:
                rest.append(c)
                continue
            if pivot is None:
                pivot = c
            else:
                a, b = pivot[i], c[i]
                g, s, t = _xgcd(a, b)
                u, v = a // g, b // g
                newp = [s * pivot[r] + t * c[r] for r in range(n)]
                newc = [u * c[r] - v * pivot[r] for r in range(n)]
                pivot = newp
                if any(newc):
                    rest.append(newc)
        if pivot is None:
            raise ValueError("columns do not span a full-rank lattice")
        if pivot[i] < 0:
            pivot = [-x for x in pivot]
        out_cols[i] = pivot
        work = rest
    # reduce off-diagonal entries of each row mod the diagonal; descending i
    # keeps already-reduced lower rows intact (column i only touches rows <= i)
    for i in reversed(range(n)):
        di = out_cols[i][i]
        for j in range(i + 1, n):
            q = out_cols[j][i] // di
            if q:
                out_cols[j] = [x - q * y for x, y in zip(out_cols[j], out_cols[i])]
    rows = tuple(tuple(out_cols[j][i] for j in range(n)) for i in range(n))
    return IdealHNF(rows, covolume)


def identity_ideal(K: NumberField) -> IdealHNF:
    return _hnf_from_columns(K.basis, K.n, K.covolume)


def ideal_from_two_generators(K: NumberField, p: int, g) -> IdealHNF:
    """HNF of (p, g(alpha)), spanned by the p basis[j] and g basis[j], g a
    residue tuple mod p, reduced mod f over F_p first: (p, g(alpha)) =
    (p, (g mod f)(alpha)), and the order contains Z[alpha]."""
    rem = ring._mp_rem(g, ring._mp(K.poly, p), p)
    cols = [[p * c for c in row] for row in K.basis]
    cols += K.mul_matrix(K.element_from_power_coords(rem))
    return _hnf_from_columns(cols, K.n, K.covolume)


def principal_ideal(K: NumberField, x: FieldElement) -> IdealHNF:
    """HNF of d (x), spanned by the columns d x b_j of mul_matrix(x) over
    x's denominator, integral as x is in O_K (ValueError otherwise)."""
    if not ideal_contains(K, identity_ideal(K), x):
        raise ValueError("principal ideal requires an integral generator")
    cols = [[c // x.den for c in col] for col in K.mul_matrix(x)]
    return _hnf_from_columns(cols, K.n, K.covolume)


def ideal_multiply(K: NumberField, A: IdealHNF, B: IdealHNF) -> IdealHNF:
    """d A B from the products of d A and d B over d, exact as d O_K lies
    in Z^n."""
    d = K.basis_den
    cols = [K._times(u, v) for u in A.columns() for v in B.columns()]
    if d > 1:
        cols = [[c // d for c in w] for w in cols]
    return _hnf_from_columns(cols, K.n, K.covolume)


def ideal_pow(K: NumberField, A: IdealHNF, e: int) -> IdealHNF:
    """A^e by e - 1 multiplications (A is already in HNF)."""
    if e < 0:
        raise ValueError("negative ideal power")
    if e == 0:
        return identity_ideal(K)
    result = A
    for _ in range(e - 1):
        result = ideal_multiply(K, result, A)
    return result


def ideal_contains(K: NumberField, A: IdealHNF, x: FieldElement) -> bool:
    """Membership of d x by back-substitution against the HNF columns."""
    rem = [K.basis_den * c for c in x.coords]
    if any(c % x.den for c in rem):
        raise ValueError("membership test requires an integral element")
    rem = [c // x.den for c in rem]
    cols = A.columns()
    for i in reversed(range(K.n)):
        d = A.rows[i][i]
        if rem[i] % d != 0:
            return False
        q = rem[i] // d
        if q:
            rem = [r - q * c for r, c in zip(rem, cols[i])]
    return True
