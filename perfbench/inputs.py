"""Seeded inputs for the benchmark workloads.

Nothing here imports the engine: the engine only ever sees the files and
arguments produced from these functions.

The table records are drawn from a fixed candidate pool: every complex cubic
x^3 + a x^2 + b x + c and every totally imaginary quartic
x^4 + a x^3 + b x^2 + c x + 1 in a small coefficient box with f(0) = +-1, so
the root alpha is a unit by construction.  Because the pool is fixed, the
pinned reference answers cover every seed.  The table samples only the pool
records whose pinned answers hold no error cell: a power-basis record where
a scanned p divides the index gets an error cell at that p (the engine
cannot split p there), and a workload must be one on which no operation
fails.  The reference still pins those records and their error cells.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXAMPLES_CSV = HERE / "data" / "examples.csv"
REFERENCE = HERE / "data" / "reference.json"
ERROR = "E"  # the reference's code for an error cell

# class numbers are synthetic (h = 1 drawn most often); multiples of 5 and 7
# make both condition-1 branches that need no auxiliary data
# (TrivialClassNumber, Undetermined) fire
CLASS_NUMBERS = (1, 1, 1, 2, 3, 4, 5, 6, 7, 10, 14, 25, 35)

CUBIC_BOX = 5  # |a|, |b| <= CUBIC_BOX
QUARTIC_BOX = 3  # |a|, |b|, |c| <= QUARTIC_BOX

CSV_HEADER = ["label", "degree", "poly", "h", "unit", "unit_den", "torsion_order",
              "basis", "aux_q", "aux_gen_poly", "aux_power_gen"]

# x^4 polynomials whose roots are roots of unity (Phi_5, Phi_8, Phi_10,
# Phi_12); the engine rejects those as units
_CYCLOTOMIC_QUARTICS = {(1, 1, 1, 1, 1), (1, 0, 0, 0, 1), (1, -1, 1, -1, 1),
                        (1, 0, -1, 0, 1)}


def _trim(f):
    f = list(f)
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def _rem(f, g):
    """Remainder of f by g over Q (coefficient lists, low degree first)."""
    f = [Fraction(c) for c in f]
    while len(f) >= len(g) and f != [0]:
        q = f[-1] / g[-1]
        shift = len(f) - len(g)
        for i, c in enumerate(g):
            f[shift + i] -= q * c
        f = _trim(f)
    return f


def real_root_count(f) -> int:
    """Real roots of a squarefree polynomial, by a Sturm sequence."""
    seq = [list(f), [i * c for i, c in enumerate(f)][1:]]
    while len(seq[-1]) > 1:
        r = _rem(seq[-2], seq[-1])
        if r == [0]:
            break
        seq.append([-c for c in r])

    def changes(signs):
        signs = [s for s in signs if s]
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

    def sign(x):
        return (x > 0) - (x < 0)

    at_pos = [sign(g[-1]) for g in seq]
    at_neg = [sign(g[-1]) * (-1) ** (len(g) - 1) for g in seq]
    return changes(at_neg) - changes(at_pos)


def _eval(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _has_quadratic_factor(f) -> bool:
    # monic quartic with f(0) = 1 factors only as (x^2+px+q)(x^2+rx+q) with
    # q = +-1: then c3 = p+r, c2 = pr+2q, c1 = q*c3, and p, r are integer
    # roots of t^2 - c3 t + (c2 - 2q)
    _, c1, c2, c3, _ = f
    for q in (1, -1):
        if c1 != q * c3:
            continue
        disc = c3 * c3 - 4 * (c2 - 2 * q)
        if disc >= 0 and math.isqrt(disc) ** 2 == disc:
            return True
    return False


def _label(f) -> str:
    terms = []
    for i in reversed(range(len(f))):
        c = f[i]
        if c == 0:
            continue
        mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        if i == 0:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        sign = "-" if c < 0 else ("+" if terms else "")
        terms.append(sign + body)
    return "".join(terms)


def cubic_pool() -> list[tuple[int, ...]]:
    """Complex cubics (one real root) with f(0) = +-1 and no rational root."""
    out = []
    for c in (1, -1):
        for a in range(-CUBIC_BOX, CUBIC_BOX + 1):
            for b in range(-CUBIC_BOX, CUBIC_BOX + 1):
                f = (c, b, a, 1)
                disc = (a * a * b * b - 4 * b**3 - 4 * a**3 * c - 27 * c * c
                        + 18 * a * b * c)
                if disc < 0 and _eval(f, 1) and _eval(f, -1):
                    out.append(f)
    return out


def quartic_pool() -> list[tuple[int, ...]]:
    """Irreducible totally imaginary quartics with f(0) = 1 that are not
    cyclotomic (f(0) = -1 forces a real root)."""
    out = []
    r = range(-QUARTIC_BOX, QUARTIC_BOX + 1)
    for a in r:
        for b in r:
            for c in r:
                f = (1, c, b, a, 1)
                if f in _CYCLOTOMIC_QUARTICS or _has_quadratic_factor(f):
                    continue
                if not (_eval(f, 1) and _eval(f, -1)):
                    continue
                # irreducible, hence squarefree, so the Sturm count is valid
                if real_root_count(f) == 0:
                    out.append(f)
    return out


def error_labels() -> set[str]:
    """Labels of the pool records with an error cell in the reference."""
    cells = json.loads(REFERENCE.read_text(encoding="ascii"))["table"]["cells"]
    return {label for label, answers in cells.items() if ERROR in answers.values()}


def table_polys(seed: int, n_cubic: int, n_quartic: int) -> list[tuple[int, ...]]:
    """A seeded, stratified sample of the pool records without an error
    cell, in seeded order."""
    skip = error_labels()
    cubics = [f for f in cubic_pool() if _label(f) not in skip]
    quartics = [f for f in quartic_pool() if _label(f) not in skip]
    rng = random.Random(seed)
    polys = rng.sample(cubics, n_cubic) + rng.sample(quartics, n_quartic)
    rng.shuffle(polys)
    return polys


def records_csv(polys, class_numbers) -> str:
    """Record CSV: one synthetic record per polynomial, with alpha as the
    unit, followed by the two worked examples."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for f, h in zip(polys, class_numbers):
        n = len(f) - 1
        unit = ";".join(str(int(i == 1)) for i in range(n))
        writer.writerow([_label(f), n, ";".join(map(str, f)), h, unit, 1, 2,
                         "", "", "", ""])
    return out.getvalue() + examples_rows()


def table_csv(seed: int, n_cubic: int, n_quartic: int) -> str:
    """Record CSV for the table workload, with seeded class numbers."""
    polys = table_polys(seed, n_cubic, n_quartic)
    rng = random.Random(f"h-{seed}")
    return records_csv(polys, [rng.choice(CLASS_NUMBERS) for _ in polys])


def examples_rows() -> str:
    """The worked-example data rows, header stripped (same columns as
    CSV_HEADER)."""
    lines = EXAMPLES_CSV.read_text(encoding="ascii").splitlines()
    return "\n".join(lines[1:]) + "\n"


def class_numbers(text: str) -> dict[str, int]:
    """label -> h for the records of a table CSV."""
    rows = csv.DictReader(io.StringIO(text))
    return {row["label"]: int(row["h"]) for row in rows}


def seeded_bound(seed: int, name: str, low: int, width: int) -> int:
    """A per-seed upper bound in [low, low + width)."""
    return low + random.Random(f"{name}-{seed}").randrange(width)


# Workload sizes.  A seed moves each scan bound only within a narrow window
# (about 1%), because throughput of the scans depends on the bound itself;
# the table's records vary fully with the seed.
SIZES = {
    "full": {
        "table": {"n_cubic": 70, "n_quartic": 30, "pmax": 29},
        "density": {"xmax": (2500, 25)},
        "ggc": {"xmax": (300000, 3000), "T": 1.0},
    },
    "tiny": {
        "table": {"n_cubic": 4, "n_quartic": 2, "pmax": 13},
        "density": {"xmax": (200, 10)},
        "ggc": {"xmax": (2000, 100), "T": 1.0},
    },
}


def make_spec(workload: str, seed: int, size: str, workdir: Path) -> dict:
    """Write the workload's input files under workdir and return the
    JSON-able arguments the engine is driven with."""
    params = SIZES[size][workload]
    if workload == "table":
        path = workdir / "records.csv"
        path.write_text(table_csv(seed, params["n_cubic"], params["n_quartic"]),
                        encoding="ascii")
        return {"input": str(path), "pmax": params["pmax"]}
    if workload == "density":
        return {"input": str(EXAMPLES_CSV),
                "xmax": seeded_bound(seed, workload, *params["xmax"])}
    if workload == "ggc":
        return {"xmax": seeded_bound(seed, workload, *params["xmax"]), "T": params["T"]}
    raise ValueError(f"unknown workload {workload!r}")
