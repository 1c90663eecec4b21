"""Regenerate data/reference.json, the pinned answers every run is scored
against, from the engine in ../src.

    python3 perfbench/make_reference.py

The table reference covers the whole candidate pool with h = 1 at every
prime up to the largest table bound; density and ggc cover the
largest bound any seed can draw.  Run it only when an answer is meant to
change, and say why in the commit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402


def _by_part(result, prefix):
    out = {}
    for (part, item), code in result.answers.items():
        if part.startswith(prefix):
            out.setdefault(part[len(prefix):], {})[item] = code
    return out


def main() -> None:
    full = inputs.SIZES["full"]
    pmax = full["table"]["pmax"]
    workdir = HERE.parent / ".bench_build" / "perfbench" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "pool.csv"
    pool = inputs.cubic_pool() + inputs.quartic_pool()
    path.write_text(inputs.records_csv(pool, [1] * len(pool)), encoding="ascii")
    table = workloads.table_pass({"input": str(path), "pmax": pmax})
    density = workloads.density_pass({"input": str(inputs.EXAMPLES_CSV),
                                      "xmax": sum(full["density"]["xmax"]) - 1})
    ggc = workloads.ggc_pass({"xmax": sum(full["ggc"]["xmax"]) - 1,
                              "T": full["ggc"]["T"]})
    if any(r.aborted for r in (table, density, ggc)):
        raise SystemExit("a workload aborted; nothing written")
    reference = {
        "table": {"cells": _by_part(table, "cells:"),
                  "pairs": _by_part(table, "pairs:")},
        "density": _by_part(density, "density:"),
        "ggc": {p: code for (_, p), code in ggc.answers.items()},
    }
    out = HERE / "data" / "reference.json"
    out.write_text(json.dumps(reference, indent=0, sort_keys=True, separators=(",", ":")) + "\n",
                   encoding="ascii")


if __name__ == "__main__":
    main()
