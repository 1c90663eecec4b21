"""Offline fixture generator for the bundled field records.

Computes, for each table field: the maximal order, a fundamental unit, the
torsion subgroup for quartic fields, and the class number. The maximal order
is built exactly from Z[alpha]: at each prime q with q^2 dividing the
order's discriminant, integral y/q are added until an exhaustive search of
O/qO proves it q-maximal. That search is capped at q^n <= BRUTE_FORCE_CAP
(20000), so a polynomial whose discriminant is divisible by q^2 for some
q >= 13 (quartic) or q >= 29 (cubic) is refused with RuntimeError; none of
the bundled fields reaches the cap. sympy's round_two is not used: sympy 1.14
returns, for x^4-x^3-2*x^2-3*x+9, a basis without 1 and dK = 272, while
disc(f) = 39204 admits no such dK (the field has dK = 1089 and index 6).

Units are found by exhaustive enumeration of constant-volume skewed
ellipsoids sliding along the unit geodesic (each level j covers all units
whose largest archimedean value lies in [e^(D j), e^(D (j+1))]), with exact
norm verification; minimality is certified because every level below
sqrt(t) of the found unit is fully enumerated.  Class numbers come from
factor-base relations below the Minkowski bound reduced to the quotient
order, cross-checked against a truncated Euler-product estimate of the
analytic class number formula.

The resulting records are dry-run through the engine and the exception
columns compared against the published table data before the CSV fixtures
are written.  Run from the repository root:

    python3 tools/generate_fixtures.py
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import mpmath

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from prationality.families import factorize, primes_up_to
from prationality.harness import FieldRecord, records_to_csv
from prationality.numberfield import (
    FieldElement,
    _hnf_from_columns,
    ideal_contains,
    ideal_from_two_generators,
    ideal_multiply,
    identity_ideal,
    make_field,
)
from prationality.rationality import AuxIdealData
from prationality.ring import factor_mod_p

mpmath.mp.dps = 60

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "prationality" / "data"

DELTA = 2.0  # log-width of one geodesic level
LEVEL_CAP = 64
BRUTE_FORCE_CAP = 20000  # largest q^n searched element by element

# (label, poly low->high, expected {p: column} with column "tor" or "h")
TABLE1 = [
    ("x^3-x^2+x-9", (-9, 1, -1, 1), {13: "tor"}),
    ("x^3-x^2+5*x+1", (1, 5, -1, 1), {17: "tor"}),
    ("x^3-x^2-2*x+6", (6, -2, -1, 1), {5: "tor"}),
    ("x^3-x^2+x+5", (5, 1, -1, 1), {5: "tor"}),
    ("x^3-x^2+5*x+2", (2, 5, -1, 1), {11: "tor"}),
    ("x^3-6*x-12", (-12, -6, 0, 1), {5: "tor"}),
    ("x^3-x^2-x+13", (13, -1, -1, 1), {5: "tor"}),
    ("x^3-x^2-x-6", (-6, -1, -1, 1), {11: "tor"}),
    ("x^3-x^2+5*x+11", (11, 5, -1, 1), {11: "tor"}),
    ("x^3-x^2+7*x-2", (-2, 7, -1, 1), {5: "tor"}),
    ("x^3-8*x-11", (-11, -8, 0, 1), {5: "tor"}),
    ("x^3-x^2-4*x+9", (9, -4, -1, 1), {19: "tor"}),
    ("x^3-x^2+7*x-6", (-6, 7, -1, 1), {5: "h"}),
    ("x^3-x^2+x+15", (15, 1, -1, 1), {5: "h"}),
    ("x^3-x^2+x-24", (-24, 1, -1, 1), {5: "tor"}),
    ("x^3-x^2+4*x-9", (-9, 4, -1, 1), {13: "tor"}),
    ("x^3-x^2-6*x-16", (-16, -6, -1, 1), {5: "tor"}),
    ("x^3+10*x-12", (-12, 10, 0, 1), {5: "h"}),
    ("x^3-x^2+10*x-16", (-16, 10, -1, 1), {5: "h"}),
    ("x^3-26", (-26, 0, 0, 1), {11: "tor"}),
    ("x^3-x^2-8*x-10", (-10, -8, -1, 1), {5: "tor"}),
    ("x^3-x^2-x-26", (-26, -1, -1, 1), {61: "tor"}),
    ("x^3-x^2+13*x-1", (-1, 13, -1, 1), {5: "h"}),
    ("x^3-x^2-3*x-17", (-17, -3, -1, 1), {5: "tor"}),
    ("x^3-x^2+7*x-19", (-19, 7, -1, 1), {31: "tor"}),
    ("x^3-x^2-11*x+21", (21, -11, -1, 1), {11: "tor"}),
    ("x^3-11*x-17", (-17, -11, 0, 1), {5: "tor"}),
    ("x^3-x^2+6*x-10", (-10, 6, -1, 1), {23: "tor"}),
    ("x^3-x^2-10*x-20", (-20, -10, -1, 1), {5: "h"}),
    ("x^3-x^2-11*x-21", (-21, -11, -1, 1), {7: "tor"}),
    ("x^3-2*x-20", (-20, -2, 0, 1), {5: "h"}),
    ("x^3+2*x-10", (-10, 2, 0, 1), {7: "tor"}),
    ("x^3+4*x-20", (-20, 4, 0, 1), {13: "tor"}),
    ("x^3-x^2+5*x-32", (-32, 5, -1, 1), {5: "h"}),
    ("x^3-x^2+9*x-21", (-21, 9, -1, 1), {7: "h"}),
]

TABLE2 = [
    ("x^4-x^3+x^2-x+1", (1, -1, 1, -1, 1), {}),  # 5 totally ramified
    ("x^4+1", (1, 0, 0, 0, 1), {13: "tor", 31: "tor"}),
    ("x^4-2*x^2+4", (4, 0, -2, 0, 1), {7: "tor"}),
    ("x^4+2*x^2+4", (4, 0, 2, 0, 1), {13: "tor", 31: "tor"}),
    ("x^4-2*x^3-2*x+5", (5, -2, 0, -2, 1), {11: "tor"}),
    ("x^4-x^3-4*x^2+4*x+7", (7, 4, -4, -1, 1), {23: "tor"}),
    ("x^4-2*x^3+5*x^2-4*x+2", (2, -4, 5, -2, 1), {13: "tor", 31: "tor"}),
    ("x^4-x^3-2*x^2-3*x+9", (9, -3, -2, -1, 1), {29: "tor", 37: "tor"}),
    ("x^4-2*x^3-4*x^2+5*x+7", (7, 5, -4, -2, 1), {5: "tor"}),
    ("x^4-2*x^3-3*x^2+4*x+5", (5, 4, -3, -2, 1), {11: "tor"}),
    ("x^4+4*x^2+2", (2, 0, 4, 0, 1), {13: "tor", 31: "tor"}),
    ("x^4+9", (9, 0, 0, 0, 1), {7: "tor"}),
]


# ---------------------------------------------------------------------------
# numeric embeddings and lattice enumeration


class Embeddings:
    def __init__(self, K):
        self.K = K
        roots = mpmath.polyroots(
            [mpmath.mpf(1)] + [mpmath.mpf(c) for c in reversed(K.poly[:-1])],
            maxsteps=200,
            extraprec=120,
        )
        real = sorted([r.real for r in roots if abs(r.imag) < 1e-30])
        cplx = sorted(
            [r for r in roots if r.imag > 1e-30], key=lambda z: (float(z.real), float(z.imag))
        )
        self.places = [("r", r) for r in real] + [("c", z) for z in cplx]
        r1, r2 = K.signature
        assert len(real) == r1 and len(cplx) == r2
        self.basis_emb = []
        for _, z in self.places:
            powers = [mpmath.mpf(1)]
            for _ in range(K.n - 1):
                powers.append(powers[-1] * z)
            row = []
            for i in range(K.n):
                val = mpmath.mpf(0)
                for j in range(K.n):
                    c = K.basis[i][j]
                    if c:
                        val += mpmath.mpf(c) / K.basis_den * powers[j]
                row.append(val)
            self.basis_emb.append(row)

    def element_abs(self, coords, den=1):
        out = []
        for row in self.basis_emb:
            val = sum(c * row[i] for i, c in enumerate(coords)) / den
            out.append(abs(val))
        return out


def gram_matrix(emb: Embeddings, weights, lattice_cols):
    """Gram (mpmath entries) of the lattice columns under
    sum_k w_k mult_k |sigma_k(.)|^2."""
    vecs = []
    for col in lattice_cols:
        per_place = []
        for row in emb.basis_emb:
            per_place.append(sum(c * row[i] for i, c in enumerate(col)))
        vecs.append(per_place)
    m = len(lattice_cols)
    G = [[mpmath.mpf(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            acc = mpmath.mpf(0)
            for k, (kind, _) in enumerate(emb.places):
                mult = 1 if kind == "r" else 2
                term = vecs[i][k] * mpmath.conj(vecs[j][k])
                acc += mpmath.mpf(weights[k]) * mult * mpmath.re(term)
            G[i][j] = G[j][i] = acc
    return G


def lll_reduce_gram(G0):
    """LLL on a Gram matrix (mpmath); returns (reduced Gram, unimodular U)
    with reduced = U^T G0 U.  The skewed geodesic forms span many orders of
    magnitude, so the reduction runs at mpmath precision."""
    n = len(G0)
    G = [[mpmath.mpf(G0[i][j]) for j in range(n)] for i in range(n)]
    U = [[int(i == j) for j in range(n)] for i in range(n)]

    def gso():
        mu = [[mpmath.mpf(0)] * n for _ in range(n)]
        bstar = [mpmath.mpf(0)] * n
        inner = [[mpmath.mpf(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                s = G[i][j]
                for k in range(j):
                    s -= mu[j][k] * inner[i][k]
                inner[i][j] = s
                if j < i:
                    mu[i][j] = s / bstar[j]
                else:
                    bstar[i] = s
        return mu, bstar

    def add_multiple(k, j, q):
        # b_k <- b_k - q b_j
        for t in range(n):
            U[t][k] -= q * U[t][j]
        for t in range(n):
            G[k][t] -= q * G[j][t]
        for t in range(n):
            G[t][k] -= q * G[t][j]

    k = 1
    guard = 0
    while k < n and guard < 10000:
        guard += 1
        mu, bstar = gso()
        for j in range(k - 1, -1, -1):
            q = int(mpmath.nint(mu[k][j]))
            if q:
                add_multiple(k, j, q)
                mu, bstar = gso()
        if bstar[k] >= (mpmath.mpf("0.99") - mu[k][k - 1] ** 2) * bstar[k - 1]:
            k += 1
        else:
            G[k], G[k - 1] = G[k - 1], G[k]
            for t in range(n):
                G[t][k], G[t][k - 1] = G[t][k - 1], G[t][k]
            for t in range(n):
                U[t][k], U[t][k - 1] = U[t][k - 1], U[t][k]
            k = max(k - 1, 1)
    return G, U


def enumerate_lattice(emb: Embeddings, weights, cols, bound):
    """Nonzero integer combinations of cols with the weighted form <= bound,
    via LLL reduction followed by Fincke-Pohst."""
    n = len(cols)
    Gred, U = lll_reduce_gram(gram_matrix(emb, weights, cols))
    Gf = [[float(Gred[i][j]) for j in range(n)] for i in range(n)]
    out = []
    for y in enumerate_short_vectors(Gf, bound):
        out.append(tuple(sum(U[i][j] * y[j] for j in range(n)) for i in range(n)))
    return out


def enumerate_short_vectors(G, bound):
    """All nonzero integer vectors (up to overall sign by top coordinate)
    with x^T G x <= bound."""
    n = len(G)
    d = [0.0] * n
    u = [[0.0] * n for _ in range(n)]
    A = [row[:] for row in G]
    for i in range(n):
        d[i] = A[i][i]
        if d[i] <= 0:
            raise ValueError("form not positive definite")
        for j in range(i + 1, n):
            u[i][j] = A[i][j] / d[i]
        for k in range(i + 1, n):
            for l in range(k, n):
                A[k][l] -= d[i] * u[i][k] * u[i][l]
    eps = 1e-9 * bound + 1e-12
    x = [0] * n
    out = []

    def rec(i, rem):
        if i < 0:
            if any(x):
                out.append(tuple(x))
            return
        off = sum(u[i][j] * x[j] for j in range(i + 1, n))
        lim = math.sqrt(max(rem + eps, 0.0) / d[i])
        lo = math.ceil(-off - lim - 1e-12)
        hi = math.floor(-off + lim + 1e-12)
        for xi in range(lo, hi + 1):
            t = d[i] * (xi + off) ** 2
            if t <= rem + eps:
                x[i] = xi
                rec(i - 1, rem - t)
        x[i] = 0

    lim_top = math.sqrt(max(bound + eps, 0.0) / d[n - 1])
    for xi in range(0, math.floor(lim_top + 1e-12) + 1):
        t = d[n - 1] * xi * xi
        if t <= bound + eps:
            x[n - 1] = xi
            rec(n - 2, bound - t)
    x[n - 1] = 0
    return out


def level_weights(K, emb: Embeddings, j: int, g3: float):
    """Weights of the level-j geodesic ball; level j covers every unit whose
    largest archimedean absolute value lies in [e^(DELTA j), e^(DELTA (j+1))].
    g3 is the norm budget (elements up to roughly that norm fit the ball)."""
    r1, r2 = K.signature
    C = math.exp(DELTA * (j + 1))
    if r1 == 1:
        g = max(g3 ** (1.0 / 3.0), math.exp(DELTA) / math.sqrt(3.0) + 0.5)
        weights = []
        for kind, _ in emb.places:
            if kind == "r":
                weights.append(1.0 / (C * C * g * g))
            else:
                weights.append(C / (g * g))
        return weights, 3.0 + 1e-7
    g2 = max(math.sqrt(g3), math.exp(2 * DELTA) / math.sqrt(2.0) + 0.5)
    Cq = C * C
    return [1.0 / (Cq * g2), Cq / g2], 4.0 + 1e-7


def _tvalue(emb: Embeddings, coords, den=1):
    vals = emb.element_abs(coords, den)
    t = mpmath.mpf(1)
    for v in vals:
        if v > t:
            t = v
        if v > 0 and 1 / v > t:
            t = 1 / v
    return float(t)


def find_fundamental_unit(K, emb: Embeddings, collect=None):
    """Smallest unit above the torsion subgroup.  Level-by-level enumeration;
    once a unit is found every level up to sqrt(t) is also enumerated, which
    certifies minimality.  Optionally collects all enumerated elements into
    `collect` for relation harvesting."""
    basis_cols = [tuple(int(i == j) for i in range(K.n)) for j in range(K.n)]
    found = []
    j = 0
    target = None
    while j <= LEVEL_CAP:
        weights, bound = level_weights(K, emb, j, g3=160.0)
        for vec in enumerate_lattice(emb, weights, basis_cols, bound):
            elt = FieldElement(vec)
            nrm = K.norm(elt)
            if collect is not None and nrm != 0:
                collect.append((elt, abs(int(nrm))))
            if abs(nrm) != 1:
                continue
            t = _tvalue(emb, vec)
            if t <= 1.0 + 1e-9:
                continue
            found.append((t, elt))
        if found and target is None:
            t0 = min(f[0] for f in found)
            target = max(0, math.ceil(0.5 * math.log(t0) / DELTA + 0.01))
        if target is not None and j >= target:
            t0 = min(f[0] for f in found)
            newt = max(0, math.ceil(0.5 * math.log(t0) / DELTA + 0.01))
            if newt <= j:
                best = min(found, key=lambda f: f[0])
                return best[1], best[0]
            target = newt
        j += 1
    raise RuntimeError("fundamental unit not found within the level cap")


def find_torsion(K, emb: Embeddings):
    """Torsion order and a generator; (2, None) for fields with a real place."""
    if K.signature[0] > 0:
        return 2, None
    weights = [1.0] * len(emb.places)
    cols = [tuple(int(i == j) for i in range(K.n)) for j in range(K.n)]
    best_order, best_gen = 2, None
    for vec in enumerate_lattice(emb, weights, cols, 4.0 + 1e-6):
        elt = FieldElement(vec)
        if abs(K.norm(elt)) != 1:
            continue
        vals = emb.element_abs(vec)
        if any(abs(v - 1) > 1e-9 for v in vals):
            continue
        order = _mult_order(K, elt)
        if order is None:
            raise RuntimeError("unit-circle element is not a root of unity")
        if order > best_order:
            best_order, best_gen = order, elt
    return best_order, best_gen


def _mult_order(K, elt, cap=24):
    power = elt
    for m in range(1, cap + 1):
        if K.equals(power, K.one()):
            return m
        power = K.mul(power, elt)
    return None


# ---------------------------------------------------------------------------
# maximal order


def _power_basis(n):
    return [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]


def lattice_basis(vectors, n):
    """Canonical basis rows (power-basis coordinates) of the lattice spanned
    by rational vectors: the HNF of the vectors scaled to integers, so equal
    lattices give equal rows, and an order's first row is 1."""
    den = math.lcm(*(c.denominator for v in vectors for c in v))
    hnf = _hnf_from_columns([tuple(int(c * den) for c in v) for v in vectors], n)
    return [tuple(Fraction(hnf.rows[i][j], den) for i in range(n)) for j in range(n)]


def maximal_order(coeffs, basis):
    """Basis rows of the maximal order containing the order O with `basis`.

    At each prime q with q^2 | disc(O), every y/q with y in O, y not in qO,
    that is integral (NumberField.char_poly raises ValueError otherwise) is
    added to O and the HNF retaken, until an exhaustive search of O/qO
    finds none.  That proves O q-maximal: otherwise O_K/O has an element x
    of order q, and y = qx would have been found."""
    n = len(coeffs) - 1
    power = make_field(coeffs)
    order_disc = make_field(coeffs, basis).field_disc
    for q, e in sorted(factorize(abs(order_disc)).items()):
        if e < 2:
            continue
        if q**n > BRUTE_FORCE_CAP:
            raise RuntimeError(f"prime {q} too large for the exhaustive q-maximal search")
        while True:
            den = math.lcm(*(c.denominator for row in basis for c in row))
            rows = [[int(c * den) for c in row] for row in basis]
            found = []
            for a in iproduct(range(q), repeat=n):
                if not any(a):
                    continue
                y = tuple(sum(ai * row[j] for ai, row in zip(a, rows))
                          for j in range(n))
                try:  # y / (den q) over the power basis of Z[alpha]
                    power.char_poly(FieldElement(y, den * q))
                except ValueError:
                    continue
                found.append(tuple(Fraction(c, den * q) for c in y))
            if not found:
                break
            basis = lattice_basis(list(basis) + found, n)
    return basis


# ---------------------------------------------------------------------------
# class group


def minkowski_bound(K) -> float:
    n = K.n
    r2 = K.signature[1]
    return (
        math.factorial(n) / n**n * (4 / math.pi) ** r2 * math.sqrt(abs(K.field_disc))
    )


def _index_prime_ideals(K, q):
    """Prime splitting at a prime dividing the index, by brute-force
    idempotent decomposition of the finite algebra A = O_K / q O_K."""
    n = K.n
    if q**n > BRUTE_FORCE_CAP:
        raise RuntimeError(f"index prime {q} too large for brute-force splitting")
    elements = [tuple(v) for v in iproduct(range(q), repeat=n)]

    def mulv(a, b):
        return tuple(c % q for c in K.mul_coords(a, b))

    def is_nilpotent(a):
        y = a
        for _ in range(5):  # nilpotency index <= n <= 4 <= 2^5
            y = mulv(y, y)
        return not any(y)

    idem = [e for e in elements if any(e) and mulv(e, e) == e]
    prim = [
        e
        for e in idem
        if not any(f != e and mulv(f, e) == f for f in idem if any(f))
    ]
    out = []
    logq = lambda m: round(math.log(m) / math.log(q))
    for e in prim:
        component = sorted(set(mulv(x, e) for x in elements))
        di = logq(len(component))
        nil = [x for x in component if is_nilpotent(x)]
        fi = di - logq(len(nil))
        ei = di // fi
        assert ei * fi == di
        members = [x for x in elements if is_nilpotent(mulv(x, e))]
        cols = [tuple(q * int(i == j) for i in range(n)) for j in range(n)]
        cols += [x for x in members if any(x)]
        ideal = _hnf_from_columns(cols, n)
        assert ideal.norm == q**fi, (q, ei, fi, ideal.norm)
        out.append({"q": q, "e": ei, "f": fi, "ideal": ideal})
    total = sum(entry["e"] * entry["f"] for entry in out)
    assert total == n, out
    return out


def split_prime_any(K, q):
    """(e, f, HNF) for every prime over q, index primes included."""
    if K.index % q != 0:
        return [
            {
                "q": q,
                "e": mult,
                "f": fac.degree,
                "ideal": ideal_from_two_generators(K, q, fac),
            }
            for fac, mult in factor_mod_p(K.poly, q)
        ]
    return _index_prime_ideals(K, q)


def _valuation(K, ideal, powers_cache, elt, maxv):
    v = 0
    while v < maxv:
        if len(powers_cache) <= v + 1:
            powers_cache.append(ideal_multiply(K, powers_cache[-1], ideal))
        if not ideal_contains(K, powers_cache[v + 1], elt):
            break
        v += 1
    return v


def relation_quotient_order(rows, ncols):
    """Order of Z^ncols / rowspan via the HNF of the row lattice; None when
    the quotient is infinite (rank deficient)."""
    try:
        hnf = _hnf_from_columns([tuple(r) for r in rows], ncols)
    except ValueError:
        return None
    order = 1
    for i in range(ncols):
        order *= hnf.rows[i][i]
    return order


def class_number(K, emb: Embeddings, extra_elements=()):
    mb = minkowski_bound(K)
    fb_primes = list(primes_up_to(int(mb)))
    if not fb_primes:
        return 1
    fb = []
    for q in fb_primes:
        fb.extend(split_prime_any(K, q))
    caches = [[identity_ideal(K), entry["ideal"]] for entry in fb]

    def valuations(elt, nrm):
        vec = []
        for entry, cache in zip(fb, caches):
            if nrm % entry["q"] != 0:
                vec.append(0)
                continue
            maxv = 0
            t = nrm
            while t % entry["q"] == 0:
                t //= entry["q"]
                maxv += 1
            vec.append(_valuation(K, entry["ideal"], cache, elt, maxv))
        check = 1
        for entry, v in zip(fb, vec):
            check *= entry["q"] ** (entry["f"] * v)
        return vec if check == nrm else None

    rows = []
    for q in fb_primes:
        rows.append([entry["e"] if entry["q"] == q else 0 for entry in fb])

    seen = set()

    def add_element(elt, nrm):
        if nrm == 0 or elt.coords in seen:
            return
        seen.add(elt.coords)
        fact = factorize(nrm) if nrm > 1 else {}
        if any(p > fb_primes[-1] for p in fact):
            return
        v = valuations(elt, nrm)
        if v is not None:
            rows.append(v)

    for elt, nrm in extra_elements:
        add_element(elt, nrm)
    # short vectors of factor-base ideals; the class group is generated by
    # ideals of norm below the Minkowski bound, and larger-norm primes over
    # the same q are pinned by the (q) relation rows, so those ideals are
    # skipped in the harvest.  Escalate on rank deficiency.
    norm_cap = max(16, 2 * int(mb))
    slack, levels = 24.0, 2
    for attempt in range(4):
        for entry in fb:
            if entry["q"] ** entry["f"] > norm_cap and attempt == 0:
                continue
            cols = entry["ideal"].columns()
            budget = slack * entry["q"] ** entry["f"]
            for j in range(levels):
                weights, bound = level_weights(K, emb, j, g3=budget)
                for vec in enumerate_lattice(emb, weights, cols, bound):
                    coords = [0] * K.n
                    for c, col in zip(vec, cols):
                        if c:
                            for i in range(K.n):
                                coords[i] += c * col[i]
                    elt = FieldElement(tuple(coords))
                    add_element(elt, abs(int(K.norm(elt))))
        h = relation_quotient_order(rows, len(fb))
        if h is not None:
            return h
        slack *= 4
        levels += 1
    raise RuntimeError("relation matrix is rank deficient; enlarge the search")


def analytic_class_number_estimate(K, reg, w, X=30000):
    rho = 1.0
    for q in primes_up_to(X):
        rho *= 1.0 - 1.0 / q
        if abs(K.poly_disc) % q != 0 or K.index % q != 0:
            # q coprime to the index: splitting reads off f mod q
            for fac, _ in factor_mod_p(K.poly, q):
                rho /= 1.0 - 1.0 / q**fac.degree
        else:
            for entry in _index_prime_ideals(K, q):
                rho /= 1.0 - 1.0 / q ** entry["f"]
    r1, r2 = K.signature
    return (
        rho * w * math.sqrt(abs(K.field_disc))
        / (2**r1 * (2 * math.pi) ** r2 * reg)
    )


# ---------------------------------------------------------------------------
# record assembly


def build_record(label, coeffs, expect, verbose=True, unit_override=None):
    n = len(coeffs) - 1
    basis_rows = maximal_order(coeffs, _power_basis(n))
    is_power = basis_rows == _power_basis(n)
    K = make_field(coeffs, basis=None if is_power else basis_rows)
    emb = Embeddings(K)
    harvested: list = []
    unit, tval = find_fundamental_unit(K, emb, collect=harvested)
    if unit_override is not None:
        # accept published coordinates once they demonstrably sit at the same
        # geodesic distance (same t => zeta * eps^(+-1) => fundamental)
        cand = K.element_from_power_coords(unit_override)
        assert abs(K.norm(cand)) == 1
        t_cand = _tvalue(emb, cand.coords, cand.den)
        assert abs(math.log(t_cand) - math.log(tval)) < 1e-6 * max(
            1.0, math.log(tval)
        ), (t_cand, tval)
        unit, tval = cand, t_cand
    w, tors_gen = find_torsion(K, emb)
    reg = math.log(tval) if K.signature[0] == 1 else 2 * math.log(tval)
    h = class_number(K, emb, extra_elements=harvested)
    est = analytic_class_number_estimate(K, reg, w)
    if abs(h - est) / max(est, 1e-9) > 0.25:
        raise RuntimeError(f"{label}: computed h = {h} vs analytic estimate {est:.3f}")
    ucoeffs, uden = K.to_power_coords(unit)
    tg_coeffs, tg_den = None, 1
    if tors_gen is not None and w > 2:
        tg_coeffs, tg_den = K.to_power_coords(tors_gen)
    record = FieldRecord(
        label=label,
        poly_coeffs=tuple(coeffs),
        class_number=h,
        unit_coeffs=ucoeffs,
        unit_den=uden,
        torsion_order=w,
        torsion_gen_coeffs=tg_coeffs,
        torsion_gen_den=tg_den,
        integral_basis=None if is_power else tuple(basis_rows),
    )
    if verbose:
        print(
            f"  {label}: dK={K.field_disc} index={K.index} h={h} "
            f"(analytic {est:.2f}) w={w} reg={reg:.3f} unit={ucoeffs}/{uden}",
            flush=True,
        )
    return record


def verify_against_paper(records, expectations, pmin=5, pmax=100):
    from prationality.harness import (
        CELL_NOT_APPLICABLE,
        CELL_P_DIVIDES_H,
        CELL_P_RATIONAL,
        CELL_TORSION,
        reproduce_table,
    )

    rows = reproduce_table(records, pmin, pmax)
    problems = []
    for row, (label, _, expect) in zip(rows, expectations):
        got_tor = {p for p, c in row.cells.items() if c == CELL_TORSION}
        got_h = {p for p, c in row.cells.items() if c == CELL_P_DIVIDES_H}
        want_tor = {p for p, col in expect.items() if col == "tor"}
        want_h = {p for p, col in expect.items() if col == "h"}
        if got_tor != want_tor or got_h != want_h:
            problems.append(
                f"{label}: tor {sorted(got_tor)} vs expected {sorted(want_tor)}; "
                f"h {sorted(got_h)} vs expected {sorted(want_h)}"
            )
        bad = {
            p: c
            for p, c in row.cells.items()
            if c not in (CELL_P_RATIONAL, CELL_TORSION, CELL_P_DIVIDES_H,
                         CELL_NOT_APPLICABLE)
        }
        if bad:
            problems.append(f"{label}: unexpected cells {bad}")
    return rows, problems


PROVENANCE = """\
# Generated by tools/generate_fixtures.py (do not edit by hand).
# Maximal orders: built exactly from Z[alpha], made q-maximal at every q
# with q^2 | disc by exhaustive search of O/qO.
# Fundamental units: exhaustive short-vector enumeration over the maximal
# order along the unit geodesic with exact norm verification; minimality
# certified by the enumeration radius.  Class numbers: factor-base
# relations below the Minkowski bound reduced to the quotient order,
# cross-checked against a truncated Euler product of the analytic class
# number formula and against the published exception columns reproduced
# by the engine.
"""


def main():
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    print("Table 1 fields:")
    t1_records = [build_record(*row) for row in TABLE1]
    print("Table 2 fields:")
    t2_records = [build_record(*row) for row in TABLE2]

    print("verifying table 1 against published columns ...")
    _, problems1 = verify_against_paper(t1_records, TABLE1)
    print("verifying table 2 against published columns ...")
    _, problems2 = verify_against_paper(t2_records, TABLE2)
    ok = True
    for prob in problems1 + problems2:
        ok = False
        print("MISMATCH:", prob)
    from prationality.harness import CELL_NOT_APPLICABLE, reproduce_table

    zeta10 = [r for r in t2_records if r.label == "x^4-x^3+x^2-x+1"][0]
    row = reproduce_table([zeta10], 5, 5)[0]
    if row.cells[5] != CELL_NOT_APPLICABLE:
        ok = False
        print("MISMATCH: zeta10 at 5 should be notApplicable, got", row.cells[5])

    print("building example records ...")
    ex62 = build_record(
        "x^3-4*x+27", (27, -4, 0, 1), {}, unit_override=(-3280, -3462, -729)
    )
    assert ex62.class_number == 3, ex62.class_number
    ex62.aux = AuxIdealData(q=2, gen_poly=(1, 1), power_gen=(-604, 265, -77))
    ex63 = build_record(
        "x^4-2*x^2+3", (3, 0, -2, 0, 1), {}, unit_override=(-2, -1, 1, 1)
    )
    assert ex63.class_number == 1, ex63.class_number

    if not ok:
        print("verification FAILED; fixtures not written")
        return 1

    (DATA_DIR / "table1.csv").write_text(PROVENANCE + records_to_csv(t1_records))
    (DATA_DIR / "table2.csv").write_text(PROVENANCE + records_to_csv(t2_records))
    (DATA_DIR / "examples.csv").write_text(PROVENANCE + records_to_csv([ex62, ex63]))
    (DATA_DIR / "pure_cubic_h.csv").write_text(
        "# Class number for the one exceptional prime of the pure cubic scan\n"
        "# (value as published; beyond desk-scale recomputation).\n"
        "p,h\n2791,31876011\n"
    )
    print("fixtures written to", DATA_DIR)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
