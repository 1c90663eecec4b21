"""One benchmark child process; run.py starts it and reads its last line.

    worker.py setup WORKLOAD SPEC_JSON
        import the engine and ingest the inputs once; print {"setup_s": ...}
    worker.py work WORKLOAD SPEC_JSON REFERENCE SECONDS TRACE [SPANS_PATH]
        repeat the workload's pass for SECONDS and score every pass against
        the reference.  Untraced passes are bracketed by the calibration
        loop.  With TRACE 1 untraced and traced passes alternate, and the
        traced spans are written to SPANS_PATH.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def setup(workload: str, spec: dict) -> dict:
    t0 = time.perf_counter()
    import workloads  # imports the engine

    workloads.WORKLOADS[workload][0](spec)
    raw = time.perf_counter() - t0
    # measured after the import, so that the loop's own imports are not
    # already loaded when the engine is imported
    import calibration

    return {"setup_s": raw * calibration.scale(), "setup_raw_s": raw}


def _timed(run_pass, spec):
    t0 = time.perf_counter()
    result = run_pass(spec)
    return result, time.perf_counter() - t0


def work(workload: str, spec: dict, reference: dict, seconds: float,
         traced: bool, spans_path: str | None) -> dict:
    import calibration
    import tracing
    import workloads

    _, run_pass, expected_of = workloads.WORKLOADS[workload]
    expected = expected_of(spec, reference)
    totals = workloads.Score()
    hashes = set()
    times, scaled_times, traced_times, tracers = [], [], [], []

    def score(result):
        s = workloads.compare(result, expected)
        totals.attempted += s.attempted
        totals.failed += s.failed
        totals.wrong += s.wrong
        hashes.add(workloads.answers_hash(result))

    start = time.perf_counter()
    before = calibration.loop_seconds()
    while True:
        result, dt = _timed(run_pass, spec)
        after = calibration.loop_seconds()
        times.append(dt)
        scaled_times.append(dt * 2 * calibration.REFERENCE_S / (before + after))
        score(result)
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                tracer.begin("pass")
                result, dt = _timed(run_pass, spec)
                tracer.end()
            finally:
                tracer.uninstall()
            traced_times.append(dt)
            tracers.append(tracer)
            score(result)
            after = calibration.loop_seconds()
        before = after
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(times) > seconds:
            break

    out = {
        "pass_times": times,
        "scaled_pass_times": scaled_times,
        "items_per_pass": len(expected),
        "attempted": totals.attempted,
        "failed": totals.failed,
        "wrong": totals.wrong,
        # a second hash means two passes over the same inputs disagreed
        "hashes": sorted(hashes),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if traced:
        per_pass = [t.metrics() for t in tracers]
        layers = {name: statistics.median(m[name] for m in per_pass)
                  for name in per_pass[0]}
        layers["trace.overhead_s"] = (statistics.median(traced_times)
                                      - statistics.median(times))
        missed = tracers[0].missed_predictions(workload)
        layers["trace.unfired_predictions"] = len(missed)
        out["layers"] = layers
        out["missed_predictions"] = missed
        if spans_path:
            tracing.write_spans(tracers, spans_path)
    return out


def main(argv) -> int:
    mode, workload, spec = argv[0], argv[1], json.loads(argv[2])
    if mode == "setup":
        out = setup(workload, spec)
    else:
        reference = json.loads(Path(argv[3]).read_text(encoding="ascii"))
        out = work(workload, spec, reference, float(argv[4]), argv[5] == "1",
                   argv[6] if len(argv) > 6 else None)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
