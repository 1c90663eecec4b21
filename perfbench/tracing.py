"""Span tracing of engine layers from outside the engine.

Each target function is wrapped once and the wrapper is installed in every
`prationality` module namespace that holds the original (modules that did
`from .numberfield import ideal_pow` hold their own reference), and on the
class for methods.  A span records name, start, end and parent; spans stay in
memory until `write_spans`.  Self time is a span's duration minus the time
covered by its traced children.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter

# (module, qualified name, time reported): "total" or "self"
TARGETS = (
    ("harness", "load_records", "total"),
    ("harness", "verdict_for_record", "total"),
    ("numberfield", "make_field", "total"),
    ("numberfield", "split_prime", "total"),
    ("numberfield", "dedekind_p_maximal", "total"),
    ("numberfield", "ideal_from_two_generators", "total"),
    ("numberfield", "ideal_pow", "total"),
    ("numberfield", "ideal_contains", "total"),
    ("numberfield", "NumberField.pow_mod", "total"),
    ("numberfield", "NumberField.norm", "total"),
    ("ring", "factor_mod_p", "total"),
    ("torsion", "condition2", "self"),
    ("rationality", "verdict", "self"),
    ("rationality", "condition1", "total"),
    ("recurrence", "cross_check", "total"),
    ("recurrence", "screen", "total"),
    ("recurrence", "minimal_poly_spec", "total"),
    ("families", "imag_quadratic_class_number", "total"),
    ("families", "lemma_a_scan", "total"),
)

CONDITION1_BRANCHES = ("TrivialClassNumber", "SplitCyclicIndex", "Undetermined")

# wrappers that must fire on each workload; on ggc the layers below must not
PREDICTED = {
    "table": ("harness.load_records", "harness.verdict_for_record",
              "numberfield.make_field", "numberfield.split_prime",
              "numberfield.dedekind_p_maximal",
              "numberfield.ideal_from_two_generators", "numberfield.ideal_pow",
              "numberfield.ideal_contains", "numberfield.NumberField.pow_mod",
              "numberfield.NumberField.norm", "ring.factor_mod_p",
              "torsion.condition2", "rationality.verdict",
              "rationality.condition1", "recurrence.cross_check",
              "recurrence.screen", "recurrence.minimal_poly_spec"),
    "density": ("harness.load_records", "harness.verdict_for_record",
                "numberfield.make_field", "numberfield.split_prime",
                "numberfield.ideal_from_two_generators", "numberfield.ideal_pow",
                "numberfield.ideal_contains", "numberfield.NumberField.pow_mod",
                "numberfield.NumberField.norm", "ring.factor_mod_p",
                "torsion.condition2", "rationality.verdict",
                "rationality.condition1"),
    "ggc": ("families.lemma_a_scan", "families.imag_quadratic_class_number"),
}
UNTOUCHED = {"ggc": ("numberfield.", "ring.", "torsion.")}

# every per-layer metric: (name, unit, better)
PER_LAYER = [
    metric
    for module, qualname, kind in TARGETS
    for metric in ((f"{module}.{qualname}.calls", "count", "lower"),
                   (f"{module}.{qualname}.{kind}_s", "s", "lower"))
] + [
    ("harness.verdict_for_record.p50_ms", "ms", "lower"),
    ("harness.verdict_for_record.p99_ms", "ms", "lower"),
    ("torsion.ideals_per_condition2", "ratio", "lower"),
    ("rationality.condition1.branch.TrivialClassNumber", "count", "higher"),
    ("rationality.condition1.branch.SplitCyclicIndex", "count", "higher"),
    ("rationality.condition1.branch.Undetermined", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unfired_predictions", "count", "lower"),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []  # [span index, start, child time]
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.verdict_latencies = []
        self.ideals_in_condition2 = 0
        self.branches = Counter()
        self._in_condition2 = 0
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        start = time.perf_counter()
        self.spans.append([name, start, None, parent])
        self._stack.append([len(self.spans) - 1, start, 0.0])

    def end(self) -> None:
        idx, start, child = self._stack.pop()
        stop = time.perf_counter()
        span = self.spans[idx]
        span[2] = stop
        dur = stop - start
        name = span[0]
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if name == "harness.verdict_for_record":
            self.verdict_latencies.append(dur)

    def _wrap(self, name, fn):
        tracer = self
        is_condition1 = name == "rationality.condition1"
        is_condition2 = name == "torsion.condition2"
        is_ideal = name == "numberfield.ideal_from_two_generators"

        def wrapper(*args, **kwargs):
            if is_ideal and tracer._in_condition2:
                tracer.ideals_in_condition2 += 1
            tracer._in_condition2 += is_condition2
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
                tracer._in_condition2 -= is_condition2
            if is_condition1:
                tracer.branches[result.branch] += 1
            return result

        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        """Patch every target in every engine module that references it."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "prationality" or n.startswith("prationality.")]
        for module, qualname, _ in TARGETS:
            owner = sys.modules[f"prationality.{module}"]
            name = f"{module}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._patch(cls, attr, orig, self._wrap(name, orig))
                continue
            orig = getattr(owner, qualname)
            wrapper = self._wrap(name, orig)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        self._patch(ns, attr, orig, wrapper)

    def _patch(self, obj, attr, orig, wrapper) -> None:
        setattr(obj, attr, wrapper)
        self._patches.append((obj, attr, orig))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        out = {}
        for module, qualname, kind in TARGETS:
            name = f"{module}.{qualname}"
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.{kind}_s"] = (
                self.total[name] if kind == "total" else self.self_time[name])
        lat = sorted(self.verdict_latencies)
        out["harness.verdict_for_record.p50_ms"] = (
            1000 * statistics.median(lat) if lat else 0.0)
        out["harness.verdict_for_record.p99_ms"] = (
            1000 * lat[min(len(lat) - 1, int(0.99 * len(lat)))] if lat else 0.0)
        c2 = self.calls["torsion.condition2"]
        out["torsion.ideals_per_condition2"] = (
            self.ideals_in_condition2 / c2 if c2 else 0.0)
        for branch in CONDITION1_BRANCHES:
            out[f"rationality.condition1.branch.{branch}"] = self.branches[branch]
        return out

    def missed_predictions(self, workload: str) -> list[str]:
        """Predicted wrappers that never fired, and untouched layers that
        were entered."""
        missed = [f"{name} never called" for name in PREDICTED[workload]
                  if not self.calls[name]]
        for prefix in UNTOUCHED.get(workload, ()):
            missed += [f"{name} called {n} times" for name, n in self.calls.items()
                       if name.startswith(prefix) and n]
        return missed


def write_spans(tracers, path) -> None:
    """One line per span: pass, index, parent index, name, and start and end
    in microseconds from the pass's first span."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("pass,index,parent,name,start_us,end_us\n")
        for k, tracer in enumerate(tracers):
            t0 = tracer.spans[0][1] if tracer.spans else 0.0
            for i, (name, start, stop, parent) in enumerate(tracer.spans):
                fh.write(f"{k},{i},{parent},{name},{(start - t0) * 1e6:.1f},"
                         f"{(stop - t0) * 1e6:.1f}\n")
