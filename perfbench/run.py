"""Benchmark of the prationality engine, driven from outside the package.

    python3 perfbench/run.py --workload table --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all            # every workload

Workloads (see BENCHMARK.json for why each exists): table, density, ggc.
Each run writes its inputs from the seed, measures set-up in fresh
processes, then repeats the workload in one child process for the given
seconds and scores every pass against data/reference.json.  The last line
of standard output is the result object; the lines before it name every
metric with its unit.  With --trace 1 the metrics are per layer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "prationality"
WORKDIR = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "data" / "reference.json"
WORKLOADS = ("table", "density", "ggc")
SETUP_RUNS = 9
RUN_DEADLINE = 170  # seconds; a run must end within 180

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402  (does not import the engine)
import tracing  # noqa: E402


class ChildFailed(RuntimeError):
    pass


def _child(args, deadline) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    # imports come from cached bytecode, as after an install, wherever the
    # caller's environment disables writing it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker {args[0]} exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run(workload: str, seed: int, seconds: float, traced: bool, size: str) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE
    workdir = WORKDIR / f"{workload}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    spec = inputs.make_spec(workload, seed, size, workdir)
    spec_json = json.dumps(spec)
    print(f"# workload {workload}, seed {seed}, size {size}, inputs "
          f"{spec_json}; nproc {os.cpu_count()}, Python "
          f"{platform.python_version()}, src {_src_lines()} lines")
    if workload == "table":
        print(f"# not sampled, for an error cell in the reference (p divides the "
              f"index): {' '.join(sorted(inputs.error_labels()))}")

    setups = []
    if not traced:
        # the first child compiles bytecode; it is not timed
        for i in range(SETUP_RUNS + 1):
            out = _child(["setup", workload, spec_json], deadline)
            if i:
                setups.append(out)

    spans_path = workdir / "spans.csv"
    work = _child(["work", workload, spec_json, str(REFERENCE), str(seconds),
                   "1" if traced else "0", str(spans_path)], deadline)
    times = work["pass_times"]
    scaled = work["scaled_pass_times"]
    items = work["items_per_pass"]
    q1, q3 = _quartiles(scaled)
    wrong = work["wrong"] + (len(work["hashes"]) - 1)
    failed_share = work["failed"] / work["attempted"]
    print(f"# {len(times)} untraced passes of {items} items: median "
          f"{statistics.median(scaled):.4f} s, quartiles {q1:.4f} / {q3:.4f} s "
          f"(scaled to the calibration loop; wall median "
          f"{statistics.median(times):.4f} s, {items / statistics.median(times):.6g} "
          f"items per wall second)")
    print(f"# answers_sha256 {' '.join(work['hashes'])}")
    print(f"failed_share {failed_share:.6f} ratio ({work['failed']} of "
          f"{work['attempted']} evaluations)")
    print(f"wrong_answers {wrong} count")

    if traced:
        metrics = {name: (work["layers"][name], unit)
                   for name, unit, _ in tracing.PER_LAYER}
        for miss in work["missed_predictions"]:
            print(f"# prediction not met: {miss}")
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
    else:
        print(f"# setup wall median "
              f"{statistics.median(s['setup_raw_s'] for s in setups):.4f} s")
        metrics = {
            "items_per_s": (items / statistics.median(scaled), "1/s"),
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "peak_rss_mb": (work["peak_rss_kb"] / 1024, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": wrong == 0,
        "attempted": work["attempted"],
        "failed": work["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(inputs.SIZES), default="full",
                        help="tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"error: engine sources not found at {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run(name, args.seed, args.seconds, bool(args.trace),
                                args.size)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
