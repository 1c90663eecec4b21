"""Self-checks of the benchmark; run with `python3 -m pytest perfbench/tests`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
REFERENCE = json.loads(run.REFERENCE.read_text(encoding="ascii"))


@pytest.fixture
def workdir(request):
    """A fresh directory inside the checkout, which is all a run may write."""
    path = run.WORKDIR / "tests" / request.node.name.replace("/", "_")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


def test_config_names_match_the_benchmark():
    assert [w["name"] for w in CONFIG["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in CONFIG["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_of_every_workload(trace):
    proc = _run("--workload", "all", "--size", "tiny", "--seconds", "0.3",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    names = {m["name"] for m in CONFIG["per_layer" if trace == "1" else "end_to_end"]}
    for workload in run.WORKLOADS:
        res = results[workload]
        assert res["correct"] and res["attempted"] > 0, (workload, res)
        assert res["failed"] == 0, (workload, res)
        assert set(res["metrics"]) == names
        if trace == "1":
            layers = {k: v["value"] for k, v in res["metrics"].items()}
            assert layers["trace.unfired_predictions"] == 0, proc.stdout
            if workload == "ggc":
                assert not any(v for k, v in layers.items() if k.endswith(".calls")
                               and k.split(".")[0] in ("numberfield", "ring", "torsion"))
        else:
            assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_flipped_answer_counts_as_wrong(workload, workdir):
    spec = inputs.make_spec(workload, 0, "tiny", workdir)
    _, run_pass, expected_of = workloads.WORKLOADS[workload]
    expected = expected_of(spec, REFERENCE)
    result = run_pass(spec)
    assert workloads.compare(result, expected).wrong == 0
    key = next(k for k, v in expected.items() if v != workloads.ERROR)
    flipped = {**expected, key: expected[key] + "-flipped"}
    assert workloads.compare(result, flipped).wrong == 1


def test_aborted_part_fails_all_its_items(workdir):
    spec = inputs.make_spec("density", 0, "tiny", workdir)
    expected = workloads.density_expected(spec, REFERENCE)
    score = workloads.compare(workloads.PassResult(aborted={"*"}), expected)
    assert (score.attempted, score.failed, score.wrong) == (len(expected),
                                                           len(expected), 0)


def test_inputs_depend_only_on_the_seed():
    assert inputs.table_csv(3, 5, 2) == inputs.table_csv(3, 5, 2)
    assert inputs.table_csv(3, 5, 2) != inputs.table_csv(4, 5, 2)

def test_table_samples_no_error_record():
    # 5 divides the index of Z[alpha] for x^3+2x^2+5x-1: the reference pins an
    # error cell at p = 5, so the table never samples that record
    assert REFERENCE["table"]["cells"]["x^3+2*x^2+5*x-1"]["5"] == workloads.ERROR
    assert "x^3+2*x^2+5*x-1" in inputs.error_labels()
    drawn = {inputs._label(f) for seed in range(20)
             for f in inputs.table_polys(seed, 70, 30)}
    assert not drawn & inputs.error_labels()


def test_fails_without_engine_sources(workdir):
    # a copy holding only BENCHMARK.json and the benchmark's own files
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(BENCH, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "table", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=workdir)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
