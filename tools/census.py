"""Census of table cells over a prime range, beyond the paper's.

Runs the table (the verdict of every record at every prime in the range) in
process, a chunk of primes at a time so that memory stays flat, and prints
the count of cells per status.  Every cell that is not `pRational` is listed
as `label,p,cell`.  Standard library only; run from the repository root:

    python3 tools/census.py --pmin 100001 --pmax 101000
    python3 tools/census.py --pmin 100001 --pmax 1000000   # 5-7 CPU-minutes

The records are the 47 bundled table1 and table2 fields.  Exit status: 0
when every cell is `pRational`, 1 otherwise (an `error` cell included),
2 on a usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from prationality.harness import (  # noqa: E402
    CELL_P_RATIONAL,
    bundled_records,
    reproduce_table,
)

CHUNK = 20000  # width of the prime range whose verdicts are held at once


def census(records, pmin: int, pmax: int) -> Counter:
    """Counts per cell status over pmin <= p <= pmax; prints each cell that
    is not pRational as it is found."""
    counts: Counter = Counter()
    for lo in range(pmin, pmax + 1, CHUNK):
        for row in reproduce_table(records, lo, min(lo + CHUNK - 1, pmax)):
            counts.update(row.cells.values())
            for p, cell in row.exceptional().items():
                print(f"{row.label},{p},{cell}", flush=True)
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pmin", type=int, required=True)
    ap.add_argument("--pmax", type=int, required=True)
    args = ap.parse_args(argv)
    if not 5 <= args.pmin <= args.pmax:
        ap.error("need 5 <= pmin <= pmax")
    records = bundled_records("table1") + bundled_records("table2")
    start = time.perf_counter()
    counts = census(records, args.pmin, args.pmax)
    total = sum(counts.values())
    print(f"{len(records)} records, {args.pmin} <= p <= {args.pmax}: {total} cells "
          f"in {time.perf_counter() - start:.1f} s")
    for status, count in sorted(counts.items()):
        print(f"  {status}: {count}")
    return 0 if counts[CELL_P_RATIONAL] == total else 1


if __name__ == "__main__":
    sys.exit(main())
