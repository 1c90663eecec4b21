"""Number-field structure over an integral basis.

A field K = Q[x]/(f) of degree 2, 3 or 4 is described by its monic defining
polynomial, whose discriminant fixes the signature, and a basis
of an order containing Z[alpha], stored as integer rows over the power basis
divided by one common denominator d (identity rows over d = 1 for Z[alpha]).
Because the order contains Z[alpha], the inverse basis matrix, which gives
the powers of alpha in basis coordinates, is an integer matrix.  Elements
carry integer coordinates over the basis plus an optional denominator.

Loading a field builds what every verdict reads: the inverse basis (one
fraction-free Gauss-Jordan elimination) and the traces of the powers of
alpha, from which characteristic polynomials come on power coordinates.
The integer structure constants of the basis, behind exact
multiplication, norms and ideal arithmetic in Hermite normal form, are
built on first use, or at once for a basis with a denominator, whose rows
must be checked to span an order.  The module also decides Dedekind's
p-maximality criterion and reads prime splitting off factoring f mod p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm, prod

from .errors import InvariantViolation, SplittingUndetermined
from . import ring
from .ring import ModPoly


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


@dataclass(frozen=True)
class FieldElement:
    """coords over the field basis divided by a positive denominator."""

    coords: tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        if self.den <= 0:
            raise ValueError("denominator must be positive")

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def normalized(self) -> "FieldElement":
        g = gcd(ring.content(self.coords), self.den)
        if g <= 1:
            return self
        return FieldElement(tuple(c // g for c in self.coords), self.den // g)


@dataclass(frozen=True)
class PrimeFactor:
    """A prime ideal (p, g(alpha)) with ramification index e and residue
    degree f; label is its 1-based position in the deterministic ordering."""

    p: int
    generator: ModPoly
    e: int
    f: int
    label: int


@dataclass(frozen=True)
class IdealHNF:
    """Upper-triangular column basis of an ideal lattice over the field basis;
    the norm is the product of the diagonal."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def norm(self) -> int:
        return prod(self.rows[i][i] for i in range(self.n))

    def columns(self):
        return [tuple(self.rows[i][j] for i in range(self.n)) for j in range(self.n)]


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


class NumberField:
    """Immutable field/order data; construct via make_field."""

    def __init__(self, f, poly_disc: int, basis_rows):
        n = ring.degree(f)
        self.poly = f
        self.n = n
        self.poly_disc = poly_disc
        r1 = _real_root_count(f, poly_disc)
        self.signature = (r1, (n - r1) // 2)
        self.criterion_eligible = (n, *self.signature) in ((3, 1, 1), (4, 0, 2))
        rows = [[Fraction(x) for x in row] for row in basis_rows]
        d = lcm(*[x.denominator for row in rows for x in row], 1)
        self.basis_den = d
        self.basis = tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                           for row in rows)
        if list(self.basis[0]) != [d] + [0] * (n - 1):
            raise ValueError("first basis element must be 1")
        det, adj = ring.det_adjugate(self.basis)
        if det == 0:
            raise ValueError("basis matrix is singular")
        # B^-1 = d adj(dB) / det(dB); its rows are the basis coordinates of
        # the powers of alpha, so it is integral iff the order contains Z[alpha]
        inv = [[d * a for a in row] for row in adj]
        if any(a % det for row in inv for a in row):
            raise ValueError("basis does not contain the power basis lattice")
        self._basis_inv = tuple(tuple(a // det for a in row) for row in inv)
        self.index = d**n // abs(det)
        if self.poly_disc % (self.index**2) != 0:
            raise ValueError("basis determinant incompatible with disc(f)")
        self.field_disc = self.poly_disc // self.index**2
        # Tr(alpha^m), m < n: the power sums of the roots of f (Newton)
        traces = [n]
        for k in range(1, n):
            traces.append(-k * f[n - k] - sum(f[n - i] * traces[k - i]
                                              for i in range(1, k)))
        self._traces = tuple(traces)
        self._char_polys: dict[FieldElement, tuple[tuple[int, ...], int]] = {}
        # integral rows spanning a lattice that contains Z[alpha] span Z[alpha]
        self.is_power_basis = d == 1
        if d > 1:  # only then can the rows fail to span an order
            self.__dict__["_structure"] = self._structure_constants()

    # -- construction helpers -------------------------------------------------

    @cached_property
    def _structure(self):
        """The structure constants, built on first use."""
        return self._structure_constants()

    def _structure_constants(self):
        """T[i][j] = integer coords of b_i * b_j over the basis: the product
        of the integer rows d*b_i and d*b_j, reduced by f, in basis
        coordinates, divided exactly by d^2.  T is symmetric; the i <= j
        half is computed.  Built on first use by the multiplication, norm
        and HNF code, or at construction when d > 1."""
        n, d2 = self.n, self.basis_den**2
        table = [[None] * n for _ in range(n)]
        for i, bi in enumerate(self.basis):
            for j in range(i, n):
                vec = ring.poly_rem(ring.poly_mul(bi, self.basis[j]), self.poly)
                coords = self._power_vec_to_coords(vec)
                if any(c % d2 for c in coords):
                    raise ValueError("basis rows do not span an order")
                table[i][j] = table[j][i] = tuple(c // d2 for c in coords)
        return table

    def _power_vec_to_coords(self, vec):
        inv = self._basis_inv
        return [sum(v * inv[i][j] for i, v in enumerate(vec) if v)
                for j in range(self.n)]

    # -- elements -------------------------------------------------------------

    def zero(self) -> FieldElement:
        return FieldElement((0,) * self.n)

    def one(self) -> FieldElement:
        return FieldElement((1,) + (0,) * (self.n - 1))

    def from_int(self, c: int) -> FieldElement:
        return FieldElement((c,) + (0,) * (self.n - 1))

    def element_from_power_coords(self, coeffs, den: int = 1) -> FieldElement:
        """Element given by power-basis coordinates / den, as basis coords."""
        vec = list(coeffs)
        if len(vec) > self.n:
            raise ValueError("too many coordinates")
        if den < 0:
            vec, den = [-v for v in vec], -den
        return FieldElement(tuple(self._power_vec_to_coords(vec)), den).normalized()

    def to_power_coords(self, x: FieldElement) -> tuple[tuple[int, ...], int]:
        """(coeffs, den) in lowest terms with x = sum coeffs[j] alpha^j / den;
        the inverse of element_from_power_coords."""
        n = self.n
        y = FieldElement(
            tuple(sum(x.coords[i] * self.basis[i][j] for i in range(n))
                  for j in range(n)),
            x.den * self.basis_den,
        ).normalized()
        return y.coords, y.den

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        d = lcm(a.den, b.den)
        sa, sb = d // a.den, d // b.den
        return FieldElement(
            tuple(x * sa + y * sb for x, y in zip(a.coords, b.coords)), d
        ).normalized()

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return self.add(a, FieldElement(tuple(-c for c in b.coords), b.den))

    def mul_coords(self, a, b) -> list[int]:
        """Integer coordinates of the product of two coordinate tuples, read
        off the structure constants."""
        n = self.n
        out = [0] * n
        T = self._structure
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y == 0:
                    continue
                tij = T[i][j]
                c = x * y
                for k in range(n):
                    if tij[k]:
                        out[k] += c * tij[k]
        return out

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return FieldElement(
            tuple(self.mul_coords(a.coords, b.coords)), a.den * b.den
        ).normalized()

    def power_coords_mod(self, a: FieldElement, modulus: int) -> list[int]:
        """a in Z[x]/(f, modulus): its power-basis coordinates times the
        inverse of their denominator mod modulus, reduced.  ValueError (from
        pow) when the denominator is not prime to the modulus."""
        coeffs, den = self.to_power_coords(a)
        dinv = pow(den, -1, modulus)
        return [c * dinv % modulus for c in coeffs]

    def pow_mod(self, a: FieldElement, exponent: int, modulus: int) -> FieldElement:
        """a^exponent in basis coordinates reduced mod modulus, computed by
        ring.powmod in Z[x]/(f, modulus) on power_coords_mod(a, modulus).
        ValueError for 0^0, for a denominator not prime to the modulus and
        for a negative exponent (ring.powmod)."""
        if exponent == 0 and not any(a.coords):
            raise ValueError("0^0 is undefined")
        r = ring.powmod(self.power_coords_mod(a, modulus), exponent, self.poly,
                        modulus)
        return FieldElement(tuple(c % modulus for c in self._power_vec_to_coords(r)))

    def mul_matrix(self, a: FieldElement):
        """Columns are the coords of a * b_j (denominator kept aside)."""
        n = self.n
        return [
            self.mul_coords(a.coords, [int(i == j) for i in range(n)])
            for j in range(n)
        ]

    def char_poly(self, a: FieldElement) -> tuple[int, ...]:
        """The characteristic polynomial c of a, monic of degree n.  With
        a = w(alpha)/D in power coordinates, that of w is C, C_i =
        c_i D^(n - i), read off the power sums Tr(w^k), k <= n, by Newton's
        identities: w^k is an exact product mod f, and Tr is linear with
        Tr(alpha^m) = self._traces[m].  ValueError unless a is integral,
        InvariantViolation unless C(w) = 0 (Cayley-Hamilton)."""
        n, f = self.n, self.poly
        w, den = self.to_power_coords(a)
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

    def cached_char_poly(self, a: FieldElement) -> tuple[tuple[int, ...], int]:
        """(char_poly(a), its discriminant), computed once per element of
        this field: the loaders' unit check, the recurrence screen and
        condition (2) all read a unit's.  ValueError unless a is integral."""
        entry = self._char_polys.get(a)
        if entry is None:
            chi = self.char_poly(a)
            entry = self._char_polys[a] = chi, ring.discriminant(chi)
        return entry

    def norm(self, a: FieldElement) -> Fraction:
        # the determinant of the columns equals that of their transpose
        return Fraction(ring.det_bareiss(self.mul_matrix(a)), a.den**self.n)

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
    if basis is None:
        basis = [[int(i == j) for j in range(n)] for i in range(n)]
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
    for fac, mult in factors:
        for _ in range(mult - 1):
            out = ring._mp(ring.poly_mul(out, fac.coeffs), p)
    return out


def dedekind_p_maximal(f, p: int, factors) -> bool:
    """Dedekind's criterion: is Z[alpha] maximal at p?

    f is the monic defining polynomial and factors its factorization mod p
    as (ModPoly, multiplicity) pairs: the irreducible factors of
    ring.factor_mod_p or the squarefree parts of squarefree_parts.  Only
    the radical and its cofactor are read, and they are the same for both.
    """
    gbar = (1,)
    for fac, _ in factors:
        gbar = ring._mp(ring.poly_mul(gbar, fac.coeffs), p)
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
    """Refuse p unless it provably does not divide the index: p coprime to
    disc(f), or Dedekind p-maximality of the power basis, or an ingested
    basis whose common denominator is coprime to p."""
    if K.poly_disc % p == 0 and not (
            dedekind_p_maximal(K.poly, p, factors) if K.is_power_basis
            else K.basis_den % p != 0):
        raise SplittingUndetermined(
            f"p = {p} may divide the index; splitting undetermined"
        )


def squarefree_parts(K: NumberField,
                     p: int) -> tuple[tuple[ModPoly, int], ...]:
    """f mod p = prod g_m^m as (g_m, m) pairs, the g_m monic, squarefree and
    pairwise coprime, under split_prime's certificate.  At p not dividing
    disc(f) this is ((f mod p, 1),) with no polynomial work.

    Since p does not divide the index, each irreducible factor g of g_m
    gives the prime ideal (p, g(alpha)) with e = m and f = deg g.
    """
    fbar = ring.mod_poly(K.poly, p)
    if K.poly_disc % p != 0:
        return ((fbar, 1),)
    parts = tuple((ModPoly(g, p), m)
                  for g, m in ring._sqf_decomposition(fbar.coeffs, p))
    _require_certificate(K, p, parts)
    return parts


def part_shapes(parts) -> tuple[tuple[int, int], ...]:
    """(e, f) of every prime ideal over p, read off the squarefree parts by
    the distinct-degree split of each part, with no equal-degree split.
    Condition (2) needs no residue degrees: only condition 1's split-cyclic
    branch, the recurrence cross-check, the pure-cubic scan and the
    selftest, which test, report or compare the splitting type, call this."""
    return tuple((m, d) for g, m in parts
                 for part, d in ring._distinct_degree(g.coeffs, g.modulus)
                 for _ in range(ring.degree(part) // d))


def split_prime(K: NumberField, p: int) -> list[PrimeFactor]:
    """Prime ideals over p with (e, f), read off from factoring f mod p,
    under the certificate of _require_certificate."""
    factors = ring.factor_mod_p(K.poly, p)
    _require_certificate(K, p, factors)
    out = [
        PrimeFactor(p, fac, mult, fac.degree, i + 1)
        for i, (fac, mult) in enumerate(factors)
    ]
    assert sum(pf.e * pf.f for pf in out) == K.n
    return out


# ---------------------------------------------------------------------------
# ideals in Hermite normal form


def _hnf_from_columns(cols, n) -> IdealHNF:
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
    return IdealHNF(rows)


def identity_ideal(K: NumberField) -> IdealHNF:
    return IdealHNF(tuple(tuple(int(i == j) for j in range(K.n)) for i in range(K.n)))


def ideal_from_two_elements(K: NumberField, a: FieldElement, b: FieldElement) -> IdealHNF:
    """HNF of the lattice spanned by {a*b_i} and {b*b_i}."""
    if not (a.is_integral and b.is_integral):
        raise ValueError("ideal generators must be integral")
    return _hnf_from_columns(K.mul_matrix(a) + K.mul_matrix(b), K.n)


def ideal_from_two_generators(K: NumberField, p: int, g: ModPoly) -> IdealHNF:
    """HNF of (p, g(alpha)) over the integral basis.  g is reduced mod f
    over F_p first: (p, g(alpha)) = (p, (g mod f)(alpha)), and the order
    contains Z[alpha], so the reduced generator is integral."""
    rem = ring._mp_divmod(g.coeffs, ring._mp(K.poly, p), p)[1]
    return ideal_from_two_elements(K, K.from_int(p),
                                   K.element_from_power_coords(rem))


def principal_ideal(K: NumberField, x: FieldElement) -> IdealHNF:
    if not x.is_integral:
        raise ValueError("principal ideal requires an integral generator")
    return _hnf_from_columns(K.mul_matrix(x), K.n)


def ideal_multiply(K: NumberField, A: IdealHNF, B: IdealHNF) -> IdealHNF:
    cols = [K.mul_coords(u, v) for u in A.columns() for v in B.columns()]
    return _hnf_from_columns(cols, K.n)


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
    """Membership by back-substitution against the HNF columns."""
    if not x.is_integral:
        raise ValueError("membership test requires an integral element")
    n = K.n
    rem = list(x.coords)
    cols = A.columns()
    for i in reversed(range(n)):
        d = A.rows[i][i]
        if rem[i] % d != 0:
            return False
        q = rem[i] // d
        if q:
            rem = [r - q * c for r, c in zip(rem, cols[i])]
    return True
